#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitops.hpp"

namespace zc {

// ---------------------------------------------------------------------
// ZipfGenerator
// ---------------------------------------------------------------------

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
    std::uint64_t table = std::min<std::uint64_t>(footprint_lines, 1u << 20);
    cdf_.resize(table);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < table; i++) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = acc;
    }
    for (auto& v : cdf_) v /= acc;

    // Affine permutation spreads rank order over the address region so
    // the hot set is not a contiguous prefix (which would be unnaturally
    // kind to bit-select indexing). The multiplier must be odd.
    permMul_ = (seed | 1) * 0x9e3779b97f4a7c15ULL | 1;
    permAdd_ = seed * 0xbf58476d1ce4e5b9ULL;
}

MemRecord
ZipfGenerator::next()
{
    double u = rng_.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::distance(cdf_.begin(), it));
    if (rank >= cdf_.size()) rank = cdf_.size() - 1;
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

    // Sattolo's algorithm builds a single cycle through all lines, so
    // the chase touches the whole footprint before any reuse.
    auto n = static_cast<std::uint32_t>(footprint_lines);
    perm_.resize(n);
    for (std::uint32_t i = 0; i < n; i++) perm_[i] = i;
    Pcg32 rng(seed);
    for (std::uint32_t i = n - 1; i > 0; i--) {
        std::uint32_t j = rng.below(i);
        std::swap(perm_[i], perm_[j]);
    }
}

MemRecord
PointerChaseGenerator::next()
{
    MemRecord r;
    r.lineAddr = base_ + perm_[cur_];
    if (++emitted_ >= repeat_) {
        emitted_ = 0;
        if (++cur_ == perm_.size()) cur_ = 0;
    }
    return r;
}

void
PointerChaseGenerator::skip(std::uint64_t steps)
{
    std::uint64_t n = perm_.size();
    cur_ = static_cast<std::uint32_t>((cur_ + steps % n) % n);
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
      meanInstGap_(mean_inst_gap),
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
    // Geometric gap with the requested mean: p = 1/(1+mean).
    if (meanInstGap_ > 0.0) {
        double p = 1.0 / (1.0 + meanInstGap_);
        logKeep_ = std::log(1.0 - p);
    }
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

    if (meanInstGap_ > 0.0) {
        double v = rng_.uniform();
        auto gap = static_cast<std::uint32_t>(std::log(1.0 - v) / logKeep_);
        r.instGap = std::min<std::uint32_t>(gap, 10000);
    } else {
        r.instGap = 0;
    }
    return r;
}

} // namespace zc
