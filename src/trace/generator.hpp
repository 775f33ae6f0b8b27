/**
 * @file
 * Synthetic access-stream generators.
 *
 * The paper evaluates on PARSEC, SPEC OMP and SPEC CPU2006 under Pin;
 * those binaries and traces are not redistributable, so this module
 * provides parameterized synthetic generators whose streams reproduce
 * the *memory-system-relevant* structure of those suites: working-set
 * size, reuse locality (Zipfian hot sets), streaming/strided components,
 * pointer chasing, pathological set-conflict patterns, store fractions
 * and memory intensity. DESIGN.md documents this substitution.
 *
 * All generators are deterministic under their seed, which both makes
 * experiments reproducible and lets OPT runs regenerate the identical
 * stream for the future-use pass.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "trace/mem_record.hpp"

namespace zc {

class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Produce the next reference. Streams are infinite. */
    virtual MemRecord next() = 0;
};

using GeneratorPtr = std::unique_ptr<AccessGenerator>;

/**
 * Cyclic strided stream over a region: base, base+s, base+2s, ...
 * wrapping at footprint. stride in lines; stride > 1 with a power-of-two
 * value recreates the classic pathological conflict pattern that
 * unhashed set-associative caches suffer from (wupwise/apsi in Fig. 3a).
 *
 * accesses_per_line models within-line spatial locality: each line is
 * referenced that many times before the stream advances (word-by-word
 * walks hit the L1 after the first touch).
 */
class StridedGenerator final : public AccessGenerator
{
  public:
    StridedGenerator(Addr base, std::uint64_t footprint_lines,
                     std::uint64_t stride_lines = 1,
                     std::uint32_t accesses_per_line = 1)
        : base_(base),
          footprint_(footprint_lines),
          stride_(stride_lines),
          repeat_(accesses_per_line)
    {
        zc_assert(footprint_lines > 0);
        zc_assert(stride_lines > 0);
        zc_assert(accesses_per_line >= 1);
    }

    MemRecord
    next() override
    {
        MemRecord r;
        r.lineAddr = base_ + offset_;
        if (++emitted_ >= repeat_) {
            emitted_ = 0;
            offset_ += stride_;
            if (offset_ >= footprint_) offset_ -= footprint_;
        }
        return r;
    }

  private:
    Addr base_;
    std::uint64_t footprint_;
    std::uint64_t stride_;
    std::uint32_t repeat_;
    std::uint32_t emitted_ = 0;
    std::uint64_t offset_ = 0;
};

/** Uniform random references over a region. */
class UniformRandomGenerator final : public AccessGenerator
{
  public:
    UniformRandomGenerator(Addr base, std::uint64_t footprint_lines,
                           std::uint64_t seed)
        : base_(base), footprint_(footprint_lines), rng_(seed)
    {
        zc_assert(footprint_lines > 0);
    }

    MemRecord
    next() override
    {
        MemRecord r;
        r.lineAddr =
            base_ + rng_.next64() % footprint_;
        return r;
    }

  private:
    Addr base_;
    std::uint64_t footprint_;
    Pcg32 rng_;
};

/**
 * Inverse-CDF table of a Zipf(alpha) distribution over @p size ranks:
 * rank i has probability proportional to 1/(i+1)^alpha. Immutable, and
 * shared by every ZipfGenerator with the same (size, alpha) through
 * get().
 *
 * rank() is std::lower_bound over the CDF in O(1) expected time: a
 * guide table of M buckets (M a power of two >= 2 * size) holds
 * guide[k] = lower_bound(cdf, k/M). M is a power of two, so u*M is
 * exact and every CDF entry before guide[floor(u*M)] is < k/M <= u;
 * scanning forward from there while cdf[r] < u therefore stops at
 * lower_bound(cdf, u). The scan is under half an entry on average.
 */
class ZipfTable
{
  public:
    ZipfTable(std::uint64_t size, double alpha);

    /** The table for (size, alpha), shared while any holder lives. */
    static std::shared_ptr<const ZipfTable> get(std::uint64_t size,
                                                double alpha);

    /** lower_bound(cdf, u) clamped to the last rank. */
    std::uint64_t
    rank(double u) const
    {
        std::uint64_t r = guide_[static_cast<std::uint64_t>(u * buckets_)];
        while (r + 1 < cdf_.size() && cdf_[r] < u) r++;
        return r;
    }

    const std::vector<double>& cdf() const { return cdf_; }

    /** M, the number of guide buckets. */
    double buckets() const { return buckets_; }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
    double buckets_;
};

/**
 * Zipfian references over a region: line i (after a seeded permutation)
 * is drawn with probability proportional to 1/(i+1)^alpha. Models hot
 * working sets with temporal locality — the common case in SPEC-like
 * workloads.
 */
class ZipfGenerator final : public AccessGenerator
{
  public:
    ZipfGenerator(Addr base, std::uint64_t footprint_lines, double alpha,
                  std::uint64_t seed);

    MemRecord next() override;

  private:
    Addr base_;
    std::uint64_t footprint_;
    Pcg32 rng_;
    std::shared_ptr<const ZipfTable> table_;
    std::uint64_t permMul_;
    std::uint64_t permAdd_;
};

/**
 * Pointer-chase: walks a seeded random permutation cycle over the
 * region, one dependent line per step — canneal/mcf-style behaviour with
 * zero spatial locality and full-footprint reuse distance.
 *
 * The cycle is stored in visit order: Sattolo's permutation perm is
 * one n-cycle perm[0] -> perm[1] -> ... -> perm[n-1] -> perm[0], so the
 * chase is a cursor over perm and a skip is modular arithmetic. The
 * permutation depends only on (seed, footprint) and is immutable, so
 * every chase over the same cycle (the threads of a shared region)
 * holds one copy of it.
 */
class PointerChaseGenerator final : public AccessGenerator
{
  public:
    /**
     * @param accesses_per_node References per visited node (node
     *        payloads larger than one word are read several times
     *        before following the pointer).
     */
    PointerChaseGenerator(Addr base, std::uint64_t footprint_lines,
                          std::uint64_t seed,
                          std::uint32_t accesses_per_node = 1);

    MemRecord next() override;

    /**
     * Advance the chase by @p steps without emitting records. Lets
     * multiple threads walk the same cycle (same seed) from staggered
     * start points.
     */
    void skip(std::uint64_t steps);

  private:
    Addr base_;
    std::shared_ptr<const std::vector<std::uint32_t>> perm_; ///< visit order
    std::uint32_t cur_ = 0; ///< index into perm_
    std::uint32_t repeat_;
    std::uint32_t emitted_ = 0;
};

/**
 * The geometric instruction gap of CompositeGenerator as a table.
 * exactGap(v) = min(uint32(log(1 - v) / log(1 - p)), 10000) with
 * p = 1/(1 + mean) is monotone in v, so threshold(g) is the least
 * double v whose gap exceeds g (found by bisection over the bit
 * patterns of doubles; 1.0 when no v < 1 gets there). The number of
 * thresholds <= v is then exactGap(v) whenever that is below kSteps.
 * gap(v) counts them as ZipfTable::rank finds a rank: a guide of
 * kBuckets entries holds the count at each bucket edge b/kBuckets, and
 * a forward scan adds the thresholds between that edge and v. Beyond
 * the table it falls back to exactGap. Immutable, and shared by every
 * generator with the same mean through get().
 */
class InstGapTable
{
  public:
    static constexpr std::uint32_t kSteps = 64;
    static constexpr std::uint32_t kBuckets = 1024;

    explicit InstGapTable(double mean_inst_gap);

    /** The table for @p mean_inst_gap (> 0), shared while held. */
    static std::shared_ptr<const InstGapTable> get(double mean_inst_gap);

    std::uint32_t exactGap(double v) const;

    /** exactGap(v) for v in [0, 1), by table lookup. */
    std::uint32_t
    gap(double v) const
    {
        std::uint32_t g = guide_[static_cast<std::uint32_t>(v * kBuckets)];
        while (v >= thr_[g]) g++; // thr_[kSteps] is a +inf sentinel
        return g < kSteps ? g : exactGap(v);
    }

    /** The least double v with exactGap(v) > g, for g < kSteps. */
    double threshold(std::uint32_t g) const { return thr_[g]; }

  private:
    double logKeep_; ///< log(1 - p)
    std::array<double, kSteps + 1> thr_;
    std::array<std::uint8_t, kBuckets> guide_;
};

/**
 * Number of interned generator tables (Zipf CDFs, chase cycles, gap
 * thresholds) that some generator still holds. Tables are interned
 * weakly: each dies with its last holder.
 */
std::size_t liveGeneratorTables();

/** One weighted component of a CompositeGenerator. */
struct MixComponent
{
    GeneratorPtr gen;
    double weight;
};

/**
 * Weighted mixture of sub-streams, plus store fraction and a geometric
 * instruction-gap distribution — the full per-core workload model.
 */
class CompositeGenerator final : public AccessGenerator
{
  public:
    /**
     * @param components Sub-generators with selection weights.
     * @param store_frac Fraction of accesses that are stores.
     * @param mean_inst_gap Mean non-memory instructions between accesses.
     * @param seed Mixer RNG seed.
     */
    CompositeGenerator(std::vector<MixComponent> components,
                       double store_frac, double mean_inst_gap,
                       std::uint64_t seed);

    MemRecord next() override;

  private:
    std::vector<MixComponent> components_;
    std::vector<double> cumWeights_;
    double storeFrac_;
    std::shared_ptr<const InstGapTable> gaps_; ///< null: no gap
    Pcg32 rng_;
};

} // namespace zc
