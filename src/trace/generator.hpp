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
    std::vector<double> cdf_;
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
 * chase is a cursor over perm and a skip is modular arithmetic.
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
    std::vector<std::uint32_t> perm_; ///< lines in visit order
    std::uint32_t cur_ = 0;           ///< index into perm_
    std::uint32_t repeat_;
    std::uint32_t emitted_ = 0;
};

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
    double meanInstGap_;
    double logKeep_ = 0.0; ///< log(1 - p) of the geometric gap
    Pcg32 rng_;
};

} // namespace zc
