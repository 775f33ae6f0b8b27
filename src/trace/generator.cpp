#include "trace/generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

namespace zc {

namespace {

/**
 * Process-wide intern table of immutable generator tables, keyed by the
 * parameters that determine them. It holds weak references only, and
 * prunes expired ones on every lookup, so a table dies with its last
 * generator and a long sweep keeps only the tables in use. The mutex is
 * taken at construction only: next() reads a table through its
 * generator's own shared_ptr. The registry is a function-local static,
 * built on first use.
 */
template <typename Key, typename Table>
class Interned
{
  public:
    template <typename Build>
    static std::shared_ptr<const Table>
    get(const Key& key, Build build)
    {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        prune(reg);
        std::weak_ptr<const Table>& slot = reg.entries[key];
        if (auto table = slot.lock()) return table;
        auto table = std::make_shared<const Table>(build());
        slot = table;
        return table;
    }

    static std::size_t
    live()
    {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        prune(reg);
        return reg.entries.size();
    }

  private:
    struct Registry
    {
        std::mutex mu;
        std::map<Key, std::weak_ptr<const Table>> entries;
    };

    static Registry&
    registry()
    {
        static Registry reg;
        return reg;
    }

    static void
    prune(Registry& reg)
    {
        std::erase_if(reg.entries,
                      [](const auto& e) { return e.second.expired(); });
    }
};

using ZipfTables = Interned<std::pair<std::uint64_t, double>, ZipfTable>;
using ChaseCycles = Interned<std::pair<std::uint64_t, std::uint32_t>,
                             std::vector<std::uint32_t>>;
using GapTables = Interned<double, InstGapTable>;

/**
 * Sattolo's algorithm: one cycle through all @p n lines, in visit
 * order, so the chase touches the whole footprint before any reuse.
 */
std::vector<std::uint32_t>
sattoloCycle(std::uint64_t seed, std::uint32_t n)
{
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; i++) perm[i] = i;
    Pcg32 rng(seed);
    for (std::uint32_t i = n - 1; i > 0; i--) {
        std::uint32_t j = rng.below(i);
        std::swap(perm[i], perm[j]);
    }
    return perm;
}

} // namespace

std::size_t
liveGeneratorTables()
{
    return ZipfTables::live() + ChaseCycles::live() + GapTables::live();
}

// ---------------------------------------------------------------------
// ZipfTable / ZipfGenerator
// ---------------------------------------------------------------------

ZipfTable::ZipfTable(std::uint64_t size, double alpha)
{
    zc_assert(size > 0 && size <= (std::uint64_t{1} << 31));
    cdf_.resize(size);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < size; i++) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = acc;
    }
    for (auto& v : cdf_) v /= acc;

    std::uint64_t m = std::bit_ceil(2 * size);
    buckets_ = static_cast<double>(m);
    guide_.resize(m);
    std::uint32_t r = 0;
    for (std::uint64_t k = 0; k < m; k++) {
        const double edge = static_cast<double>(k) / buckets_; // exact
        while (r + 1 < size && cdf_[r] < edge) r++;
        guide_[k] = r;
    }
}

std::shared_ptr<const ZipfTable>
ZipfTable::get(std::uint64_t size, double alpha)
{
    return ZipfTables::get({size, alpha},
                           [&] { return ZipfTable(size, alpha); });
}

ZipfGenerator::ZipfGenerator(Addr base, std::uint64_t footprint_lines,
                             double alpha, std::uint64_t seed)
    : base_(base), footprint_(footprint_lines), rng_(seed)
{
    zc_assert(footprint_lines > 0);
    zc_assert(alpha >= 0.0);

    // Cumulative Zipf weights for inverse-transform sampling. For large
    // footprints the table is capped at the 2^20 hottest ranks and every
    // draw is clamped to them: ranks beyond the cap are never drawn, so
    // at most 2^20 distinct lines of the region are ever referenced (the
    // permutation below scatters them over the whole region).
    table_ = ZipfTable::get(
        std::min<std::uint64_t>(footprint_lines, 1u << 20), alpha);

    // Affine permutation spreads rank order over the address region so
    // the hot set is not a contiguous prefix (which would be unnaturally
    // kind to bit-select indexing). The multiplier must be odd.
    permMul_ = (seed | 1) * 0x9e3779b97f4a7c15ULL | 1;
    permAdd_ = seed * 0xbf58476d1ce4e5b9ULL;
}

MemRecord
ZipfGenerator::next()
{
    std::uint64_t rank = table_->rank(rng_.uniform());
    std::uint64_t line = (rank * permMul_ + permAdd_) % footprint_;
    MemRecord r;
    r.lineAddr = base_ + line;
    return r;
}

// ---------------------------------------------------------------------
// PointerChaseGenerator
// ---------------------------------------------------------------------

PointerChaseGenerator::PointerChaseGenerator(Addr base,
                                             std::uint64_t footprint_lines,
                                             std::uint64_t seed,
                                             std::uint32_t accesses_per_node)
    : base_(base), repeat_(accesses_per_node)
{
    zc_assert(accesses_per_node >= 1);
    zc_assert(footprint_lines >= 2);
    zc_assert(footprint_lines <= 0xffffffffULL);

    auto n = static_cast<std::uint32_t>(footprint_lines);
    perm_ = ChaseCycles::get({seed, n}, [&] { return sattoloCycle(seed, n); });
}

MemRecord
PointerChaseGenerator::next()
{
    MemRecord r;
    r.lineAddr = base_ + (*perm_)[cur_];
    if (++emitted_ >= repeat_) {
        emitted_ = 0;
        if (++cur_ == perm_->size()) cur_ = 0;
    }
    return r;
}

void
PointerChaseGenerator::skip(std::uint64_t steps)
{
    std::uint64_t n = perm_->size();
    cur_ = static_cast<std::uint32_t>((cur_ + steps % n) % n);
}

// ---------------------------------------------------------------------
// InstGapTable
// ---------------------------------------------------------------------

InstGapTable::InstGapTable(double mean_inst_gap)
{
    zc_assert(mean_inst_gap > 0.0);
    // Geometric gap with the requested mean: p = 1/(1+mean).
    double p = 1.0 / (1.0 + mean_inst_gap);
    logKeep_ = std::log(1.0 - p);

    // Non-negative doubles order as their bit patterns, so bisect over
    // [bits(0), bits(1)]; 1.0 stands for "no v < 1 reaches the step".
    const std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
    std::uint64_t lo = 0; // exactGap(0) = 0 <= every g
    for (std::uint32_t g = 0; g < kSteps; g++) {
        std::uint64_t hi = one;
        while (hi - lo > 1) {
            std::uint64_t mid = lo + (hi - lo) / 2;
            if (exactGap(std::bit_cast<double>(mid)) > g) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        thr_[g] = std::bit_cast<double>(hi);
    }
    thr_[kSteps] = std::numeric_limits<double>::infinity();

    std::uint32_t g = 0;
    for (std::uint32_t b = 0; b < kBuckets; b++) {
        const double edge = static_cast<double>(b) / kBuckets; // exact
        while (thr_[g] <= edge) g++;
        guide_[b] = static_cast<std::uint8_t>(g);
    }
}

std::shared_ptr<const InstGapTable>
InstGapTable::get(double mean_inst_gap)
{
    return GapTables::get(mean_inst_gap,
                          [&] { return InstGapTable(mean_inst_gap); });
}

std::uint32_t
InstGapTable::exactGap(double v) const
{
    auto gap = static_cast<std::uint32_t>(std::log(1.0 - v) / logKeep_);
    return std::min<std::uint32_t>(gap, 10000);
}

// ---------------------------------------------------------------------
// CompositeGenerator
// ---------------------------------------------------------------------

CompositeGenerator::CompositeGenerator(std::vector<MixComponent> components,
                                       double store_frac,
                                       double mean_inst_gap,
                                       std::uint64_t seed)
    : components_(std::move(components)),
      storeFrac_(store_frac),
      rng_(seed, /*stream=*/0x1405b3ca7dd4cc2bULL)
{
    zc_assert(!components_.empty());
    zc_assert(store_frac >= 0.0 && store_frac <= 1.0);
    zc_assert(mean_inst_gap >= 0.0);
    double acc = 0.0;
    for (const auto& c : components_) {
        zc_assert(c.weight > 0.0);
        acc += c.weight;
        cumWeights_.push_back(acc);
    }
    for (auto& w : cumWeights_) w /= acc;
    if (mean_inst_gap > 0.0) gaps_ = InstGapTable::get(mean_inst_gap);
}

MemRecord
CompositeGenerator::next()
{
    double u = rng_.uniform();
    std::size_t pick = 0;
    while (pick + 1 < cumWeights_.size() && u > cumWeights_[pick]) pick++;

    MemRecord r = components_[pick].gen->next();
    r.type = (rng_.uniform() < storeFrac_) ? AccessType::Store
                                           : AccessType::Load;

    r.instGap = gaps_ ? gaps_->gap(rng_.uniform()) : 0;
    return r;
}

} // namespace zc
