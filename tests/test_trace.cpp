/**
 * @file
 * Tests for src/trace: generators, the workload registry, and the
 * future-use annotator that powers OPT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "trace/future_use.hpp"
#include "trace/generator.hpp"
#include "trace/mem_record.hpp"
#include "trace/workloads.hpp"

namespace zc {
namespace {

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

TEST(Strided, WrapsAtFootprint)
{
    StridedGenerator g(1000, 4, 1);
    std::vector<Addr> seen;
    for (int i = 0; i < 8; i++) seen.push_back(g.next().lineAddr);
    EXPECT_EQ(seen, (std::vector<Addr>{1000, 1001, 1002, 1003, 1000, 1001,
                                       1002, 1003}));
}

TEST(Strided, StrideSkipsLines)
{
    StridedGenerator g(0, 8, 2);
    std::set<Addr> seen;
    for (int i = 0; i < 16; i++) seen.insert(g.next().lineAddr);
    EXPECT_EQ(seen, (std::set<Addr>{0, 2, 4, 6}));
}

TEST(UniformRandom, StaysInRegion)
{
    UniformRandomGenerator g(500, 100, 1);
    for (int i = 0; i < 1000; i++) {
        Addr a = g.next().lineAddr;
        EXPECT_GE(a, 500u);
        EXPECT_LT(a, 600u);
    }
}

TEST(Zipf, HotLinesDominate)
{
    ZipfGenerator g(0, 10000, 1.2, 42);
    std::unordered_map<Addr, int> counts;
    for (int i = 0; i < 50000; i++) counts[g.next().lineAddr]++;
    // With alpha=1.2 the top line takes a large share.
    int max_count = 0;
    for (const auto& [a, c] : counts) max_count = std::max(max_count, c);
    EXPECT_GT(max_count, 50000 / 20);
    // And far fewer distinct lines than uniform would produce.
    EXPECT_LT(counts.size(), 9000u);
}

TEST(Zipf, DeterministicUnderSeed)
{
    ZipfGenerator a(0, 1000, 1.0, 7), b(0, 1000, 1.0, 7);
    for (int i = 0; i < 500; i++) {
        EXPECT_EQ(a.next().lineAddr, b.next().lineAddr);
    }
}

TEST(PointerChase, VisitsWholeFootprintOnce)
{
    PointerChaseGenerator g(100, 64, 3);
    std::set<Addr> seen;
    for (int i = 0; i < 64; i++) {
        Addr a = g.next().lineAddr;
        EXPECT_TRUE(seen.insert(a).second) << "revisit before full cycle";
        EXPECT_GE(a, 100u);
        EXPECT_LT(a, 164u);
    }
    EXPECT_EQ(seen.size(), 64u);
    // The next access restarts the same cycle.
    EXPECT_TRUE(seen.count(g.next().lineAddr));
}

TEST(PointerChase, SkipAdvancesPhase)
{
    PointerChaseGenerator a(0, 32, 9), b(0, 32, 9);
    b.skip(5);
    for (int i = 0; i < 5; i++) a.next();
    EXPECT_EQ(a.next().lineAddr, b.next().lineAddr);
}

// ---------------------------------------------------------------------
// Golden streams: checksums of the exact record sequences, pinned so a
// change to a generator's internals cannot silently change what the
// simulator is fed.
// ---------------------------------------------------------------------

std::uint64_t
streamChecksum(AccessGenerator& g, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
        h ^= h >> 29;
    };
    for (std::size_t i = 0; i < n; i++) {
        MemRecord r = g.next();
        mix(r.lineAddr);
        mix(r.instGap);
        mix(static_cast<std::uint64_t>(r.type));
        mix(r.nextUse);
    }
    return h;
}

TEST(GoldenStream, PointerChase)
{
    struct Case
    {
        std::uint32_t repeat;
        std::uint64_t skip;
        std::uint64_t sum;
    };
    const std::uint64_t n = 50021;
    const Case cases[] = {
        {1, 0, 0x65b60701bc4d2efcULL},
        {1, 7, 0x68366de6806a6123ULL},
        {1, n - 1, 0xa8e4e3b70afe58e3ULL},
        {1, 3 * n + 5, 0x77d881a316960445ULL},
        {3, 0, 0x9120ec2a0519af45ULL},
        {3, 7, 0x171b90fa8dd40099ULL},
        {3, n - 1, 0x15abe97b85e7f37cULL},
        {3, 3 * n + 5, 0xf5f6609b61f03b36ULL},
    };
    for (const Case& c : cases) {
        PointerChaseGenerator g(Addr{1} << 40, n, 77, c.repeat);
        g.skip(c.skip);
        EXPECT_EQ(streamChecksum(g, 200000), c.sum)
            << "repeat " << c.repeat << " skip " << c.skip;
    }
}

TEST(GoldenStream, CoreGenerators)
{
    struct Case
    {
        const char* workload;
        std::uint32_t core;
        std::uint64_t sum;
    };
    const Case cases[] = {
        {"mcf", 0, 0xe3f4356667d7f220ULL},
        {"mcf", 31, 0x1e15dca8af1d7b91ULL},
        {"canneal", 0, 0x4492dabfce399c10ULL},
        {"canneal", 31, 0xc8ed55e80fb26bb6ULL},
        {"gamess", 0, 0xd9e73b1b8cbfaa52ULL},
        {"gamess", 31, 0xf600e6f044fe1832ULL},
        {"blackscholes", 0, 0xee7f94a6dac80bbeULL},
        {"blackscholes", 31, 0x1817d4a0d0b6e051ULL},
        {"cpu2K6rand0", 0, 0x5e36a74710e53666ULL},
        {"cpu2K6rand0", 31, 0x3e20b7a692bd9aaeULL},
        {"wupwise", 0, 0xc9db14a3eef4edb4ULL},
        {"wupwise", 31, 0x11cafa7b5f107629ULL},
    };
    for (const Case& c : cases) {
        auto g = WorkloadRegistry::makeCoreGenerator(
            WorkloadRegistry::byName(c.workload), c.core, 32, 5);
        EXPECT_EQ(streamChecksum(*g, 200000), c.sum)
            << c.workload << " core " << c.core;
    }

    // Bare generators at the edges of the table-driven paths: a Zipf
    // region above the 2^20-rank table cap, a uniform (alpha 0) Zipf,
    // and a composite with no instruction gap.
    struct BareCase
    {
        const char* name;
        std::function<GeneratorPtr()> make;
        std::uint64_t sum;
    };
    const BareCase bare[] = {
        {"zipf above cap",
         [] {
             return std::make_unique<ZipfGenerator>(Addr{1} << 36,
                                                    (1u << 20) + 300007,
                                                    0.95, 11);
         },
         0x734d32c55143a2c4ULL},
        {"zipf alpha 0",
         [] {
             return std::make_unique<ZipfGenerator>(Addr{1} << 37, 40009,
                                                    0.0, 12);
         },
         0x7a5bcbc341a92ee0ULL},
        {"composite gap 0",
         [] {
             std::vector<MixComponent> comps;
             comps.push_back({std::make_unique<ZipfGenerator>(
                                  Addr{1} << 38, 5000, 1.1, 13),
                              0.6});
             comps.push_back({std::make_unique<StridedGenerator>(
                                  Addr{1} << 39, 9000, 3, 2),
                              0.25});
             comps.push_back({std::make_unique<PointerChaseGenerator>(
                                  Addr{1} << 40, 7001, 14, 2),
                              0.15});
             return std::make_unique<CompositeGenerator>(std::move(comps),
                                                         0.3, 0.0, 15);
         },
         0x1d0d8714fe9a2f05ULL},
    };
    for (const BareCase& c : bare) {
        GeneratorPtr g = c.make();
        EXPECT_EQ(streamChecksum(*g, 200000), c.sum) << c.name;
    }
}

// ---------------------------------------------------------------------
// Shared tables: the table-driven lookups equal the formulas they
// replace, and interning is thread-safe and bounded.
// ---------------------------------------------------------------------

/** Every distinct instruction-gap mean of the registry (mixes reuse
 *  the CPU2006 profiles, which all() contains). */
std::set<double>
registryGapMeans()
{
    std::set<double> means;
    for (const auto& w : WorkloadRegistry::all()) {
        if (w.params.meanInstGap > 0.0) means.insert(w.params.meanInstGap);
    }
    return means;
}

TEST(InstGapTable, EqualsTheLogFormula)
{
    const std::set<double> means = registryGapMeans();
    ASSERT_GE(means.size(), 5u);
    for (double mean : means) {
        const double log_keep = std::log(1.0 - 1.0 / (1.0 + mean));
        auto formula = [log_keep](double v) {
            auto gap = static_cast<std::uint32_t>(std::log(1.0 - v) /
                                                  log_keep);
            return std::min<std::uint32_t>(gap, 10000);
        };
        auto table = InstGapTable::get(mean);
        for (std::uint32_t g = 0; g < InstGapTable::kSteps; g++) {
            const double thr = table->threshold(g);
            if (thr >= 1.0) continue; // no v < 1 has a gap above g
            const double below = std::nextafter(thr, 0.0);
            EXPECT_GT(formula(thr), g) << "mean " << mean;
            EXPECT_LE(formula(below), g) << "mean " << mean;
            EXPECT_EQ(table->gap(thr), formula(thr)) << "mean " << mean;
            EXPECT_EQ(table->gap(below), formula(below))
                << "mean " << mean;
        }
        Pcg32 rng(static_cast<std::uint64_t>(mean * 1000));
        std::uint64_t mismatches = 0;
        for (int i = 0; i < 1000000; i++) {
            const double v = rng.uniform();
            if (table->gap(v) != formula(v)) mismatches++;
        }
        EXPECT_EQ(mismatches, 0u) << "mean " << mean;
    }
}

TEST(ZipfTable, RankEqualsLowerBound)
{
    std::set<std::pair<std::uint64_t, double>> shapes{
        {std::uint64_t{1} << 20, 0.95}, // the cap
        {40009, 0.0},
        {1, 1.0},
    };
    for (const auto& w : WorkloadRegistry::all()) {
        if (w.params.hotLines > 0) {
            shapes.insert({w.params.hotLines, w.params.hotAlpha});
        }
    }
    for (const auto& [size, alpha] : shapes) {
        auto table = ZipfTable::get(size, alpha);
        const std::vector<double>& cdf = table->cdf();
        ASSERT_EQ(cdf.size(), size);
        auto oracle = [&cdf](double u) {
            auto r = static_cast<std::uint64_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            return std::min<std::uint64_t>(r, cdf.size() - 1);
        };
        const auto m = static_cast<std::uint64_t>(table->buckets());
        EXPECT_GE(m, 2 * size);
        EXPECT_EQ(m & (m - 1), 0u);
        std::uint64_t mismatches = 0;
        for (std::uint64_t k = 0; k < m; k++) {
            const double edge = static_cast<double>(k) / table->buckets();
            const double below = std::nextafter(edge, 0.0);
            if (table->rank(edge) != oracle(edge)) mismatches++;
            if (table->rank(below) != oracle(below)) mismatches++;
        }
        EXPECT_EQ(mismatches, 0u) << size << " ranks, alpha " << alpha;
    }
}

TEST(SharedTables, ConcurrentBuildMatchesSerial)
{
    const WorkloadProfile& canneal = WorkloadRegistry::byName("canneal");
    constexpr std::uint32_t kCores = 32;
    constexpr std::uint32_t kThreads = 4;
    constexpr std::size_t kRecords = 20000;

    std::vector<std::uint64_t> serial;
    for (std::uint32_t c = 0; c < kCores; c++) {
        auto g = WorkloadRegistry::makeCoreGenerator(canneal, c, kCores, 3);
        serial.push_back(streamChecksum(*g, kRecords));
    }

    // Every thread builds its cores while the others build theirs, so
    // the interned tables are looked up and created concurrently; the
    // generators stay alive until all threads are done.
    std::vector<GeneratorPtr> gens(kCores);
    std::vector<std::uint64_t> sums(kCores);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (std::uint32_t c = t; c < kCores; c += kThreads) {
                gens[c] = WorkloadRegistry::makeCoreGenerator(canneal, c,
                                                              kCores, 3);
            }
            for (std::uint32_t c = t; c < kCores; c += kThreads) {
                sums[c] = streamChecksum(*gens[c], kRecords);
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(sums, serial);
}

TEST(SharedTables, ShareAndExpireWithTheirGenerators)
{
    const std::size_t before = liveGeneratorTables();
    const WorkloadProfile& canneal = WorkloadRegistry::byName("canneal");
    std::weak_ptr<const ZipfTable> zipf;
    {
        std::vector<GeneratorPtr> gens;
        for (std::uint32_t c = 0; c < 32; c++) {
            gens.push_back(WorkloadRegistry::makeCoreGenerator(canneal, c,
                                                               32, 4));
        }
        // One Zipf CDF (private and shared regions have the same shape),
        // 32 private chase cycles plus the one shared cycle, and one gap
        // table: 35, where per-core copies would be 160.
        EXPECT_EQ(liveGeneratorTables() - before, 35u);
        zipf = ZipfTable::get(canneal.params.hotLines,
                              canneal.params.hotAlpha);
        EXPECT_EQ(zipf.use_count(), 64);
    }
    EXPECT_TRUE(zipf.expired());
    EXPECT_EQ(liveGeneratorTables(), before);
}

TEST(Composite, MixesComponentsByWeight)
{
    std::vector<MixComponent> comps;
    comps.push_back({std::make_unique<StridedGenerator>(0, 10, 1), 0.8});
    comps.push_back({std::make_unique<StridedGenerator>(1000, 10, 1), 0.2});
    CompositeGenerator g(std::move(comps), 0.0, 0.0, 5);
    int low = 0, high = 0;
    for (int i = 0; i < 10000; i++) {
        Addr a = g.next().lineAddr;
        (a < 1000 ? low : high)++;
    }
    EXPECT_NEAR(low, 8000, 400);
    EXPECT_NEAR(high, 2000, 400);
}

TEST(Composite, StoreFractionHonoured)
{
    std::vector<MixComponent> comps;
    comps.push_back({std::make_unique<StridedGenerator>(0, 100, 1), 1.0});
    CompositeGenerator g(std::move(comps), 0.3, 0.0, 6);
    int stores = 0;
    for (int i = 0; i < 10000; i++) {
        if (g.next().type == AccessType::Store) stores++;
    }
    EXPECT_NEAR(stores, 3000, 300);
}

TEST(Composite, InstGapMeanMatches)
{
    std::vector<MixComponent> comps;
    comps.push_back({std::make_unique<StridedGenerator>(0, 100, 1), 1.0});
    CompositeGenerator g(std::move(comps), 0.0, 5.0, 7);
    double total = 0;
    for (int i = 0; i < 20000; i++) total += g.next().instGap;
    EXPECT_NEAR(total / 20000.0, 5.0, 0.4);
}

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(Workloads, PopulationMatchesPaper)
{
    const auto& all = WorkloadRegistry::all();
    ASSERT_EQ(all.size(), 72u);
    int parsec = 0, omp = 0, rate = 0, mix = 0;
    for (const auto& w : all) {
        switch (w.category) {
          case WorkloadCategory::Parsec: parsec++; break;
          case WorkloadCategory::SpecOmp: omp++; break;
          case WorkloadCategory::Spec2006Rate: rate++; break;
          case WorkloadCategory::Spec2006Mix: mix++; break;
        }
    }
    EXPECT_EQ(parsec, 6);
    EXPECT_EQ(omp, 10);
    EXPECT_EQ(rate, 26);
    EXPECT_EQ(mix, 30);
}

TEST(Workloads, NamesUniqueAndNonEmpty)
{
    std::unordered_set<std::string> names;
    for (const auto& w : WorkloadRegistry::all()) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_TRUE(names.insert(w.name).second) << "dup " << w.name;
    }
}

TEST(Workloads, MultithreadedFlagsConsistent)
{
    for (const auto& w : WorkloadRegistry::all()) {
        bool should_be_mt = w.category == WorkloadCategory::Parsec ||
                            w.category == WorkloadCategory::SpecOmp;
        EXPECT_EQ(w.multithreaded, should_be_mt) << w.name;
        if (!w.multithreaded) {
            EXPECT_EQ(w.sharedFrac, 0.0) << w.name;
        }
    }
}

TEST(Workloads, MixesReferenceRealApps)
{
    for (const auto& w : WorkloadRegistry::all()) {
        if (w.category != WorkloadCategory::Spec2006Mix) continue;
        ASSERT_EQ(w.mixApps.size(), 32u) << w.name;
        for (const auto& app : w.mixApps) {
            const auto& p = WorkloadRegistry::byName(app);
            EXPECT_EQ(p.category, WorkloadCategory::Spec2006Rate);
        }
    }
}

TEST(Workloads, RateCoresGetPrivateRegions)
{
    const auto& w = WorkloadRegistry::byName("mcf");
    auto g0 = WorkloadRegistry::makeCoreGenerator(w, 0, 32, 1);
    auto g1 = WorkloadRegistry::makeCoreGenerator(w, 1, 32, 1);
    std::set<Addr> a0, a1;
    for (int i = 0; i < 2000; i++) {
        a0.insert(g0->next().lineAddr);
        a1.insert(g1->next().lineAddr);
    }
    for (Addr a : a0) EXPECT_EQ(a1.count(a), 0u);
}

TEST(Workloads, MultithreadedCoresShareLines)
{
    const auto& w = WorkloadRegistry::byName("canneal");
    auto g0 = WorkloadRegistry::makeCoreGenerator(w, 0, 32, 1);
    auto g1 = WorkloadRegistry::makeCoreGenerator(w, 1, 32, 1);
    std::set<Addr> a0;
    for (int i = 0; i < 30000; i++) a0.insert(g0->next().lineAddr);
    int shared = 0;
    for (int i = 0; i < 30000; i++) {
        if (a0.count(g1->next().lineAddr)) shared++;
    }
    EXPECT_GT(shared, 1000);
}

TEST(Workloads, GeneratorsDeterministic)
{
    const auto& w = WorkloadRegistry::byName("gcc");
    auto g1 = WorkloadRegistry::makeCoreGenerator(w, 3, 32, 9);
    auto g2 = WorkloadRegistry::makeCoreGenerator(w, 3, 32, 9);
    for (int i = 0; i < 1000; i++) {
        MemRecord r1 = g1->next(), r2 = g2->next();
        EXPECT_EQ(r1.lineAddr, r2.lineAddr);
        EXPECT_EQ(r1.instGap, r2.instGap);
        EXPECT_EQ(r1.type, r2.type);
    }
}

// ---------------------------------------------------------------------
// Future-use annotation (OPT oracle)
// ---------------------------------------------------------------------

TEST(FutureUse, AnnotatesNextUseDistanceExactly)
{
    std::vector<MemRecord> t(6);
    Addr addrs[] = {10, 20, 10, 30, 20, 10};
    for (int i = 0; i < 6; i++) t[i].lineAddr = addrs[i];
    FutureUseAnnotator::annotate(t);
    EXPECT_EQ(t[0].nextUse, 2u); // 10 reused at index 2
    EXPECT_EQ(t[1].nextUse, 3u); // 20 reused at index 4
    EXPECT_EQ(t[2].nextUse, 3u); // 10 reused at index 5
    EXPECT_EQ(t[3].nextUse, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(t[4].nextUse, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(t[5].nextUse, std::numeric_limits<std::uint64_t>::max());
}

TEST(FutureUse, ReplayPreservesOrder)
{
    StridedGenerator g(0, 16, 1);
    auto trace = recordTrace(g, 40);
    FutureUseAnnotator::annotate(trace);
    ReplayGenerator replay(trace);
    for (int i = 0; i < 40; i++) {
        MemRecord r = replay.next();
        EXPECT_EQ(r.lineAddr, static_cast<Addr>(i % 16));
        if (i + 16 < 40) {
            EXPECT_EQ(r.nextUse, 16u); // cyclic stream: distance 16
        }
    }
    EXPECT_EQ(replay.remaining(), 0u);
}

} // namespace
} // namespace zc
