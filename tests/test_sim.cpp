/**
 * @file
 * Tests for the CMP simulator: L1 mechanics, coherence (MESI
 * simplifications), inclusion, latency accounting, and end-to-end runs
 * over the workload suite.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "sim/cmp_system.hpp"
#include "sim/coherence_directory.hpp"
#include "sim/experiment.hpp"
#include "sim/l1_cache.hpp"
#include "trace/future_use.hpp"
#include "trace/workloads.hpp"

namespace zc {
namespace {

// ---------------------------------------------------------------------
// L1Cache
// ---------------------------------------------------------------------

TEST(L1, MissThenHit)
{
    L1Cache l1(32 * 1024, 4, 64);
    EXPECT_EQ(l1.access(5, false), L1Cache::LineState::Invalid);
    l1.insert(5, L1Cache::LineState::Exclusive, false);
    EXPECT_EQ(l1.access(5, false), L1Cache::LineState::Exclusive);
}

TEST(L1, GeometryMatchesTableI)
{
    L1Cache l1(32 * 1024, 4, 64);
    EXPECT_EQ(l1.sets(), 128u);
    EXPECT_EQ(l1.ways(), 4u);
}

TEST(L1, LruEvictionWithinSet)
{
    L1Cache l1(4 * 64 * 2, 2, 64); // 4 sets, 2 ways
    // Set 0: lines 0, 4, 8.
    l1.insert(0, L1Cache::LineState::Exclusive, false);
    l1.insert(4, L1Cache::LineState::Exclusive, false);
    l1.access(0, false);
    auto v = l1.insert(8, L1Cache::LineState::Exclusive, false);
    ASSERT_TRUE(v.valid());
    EXPECT_EQ(v.addr, 4u);
}

TEST(L1, DirtyVictimReported)
{
    L1Cache l1(2 * 64 * 1, 1, 64); // direct-mapped, 2 sets
    l1.insert(0, L1Cache::LineState::Exclusive, true); // dirty store
    auto v = l1.insert(2, L1Cache::LineState::Exclusive, false); // same set
    ASSERT_TRUE(v.valid());
    EXPECT_EQ(v.addr, 0u);
    EXPECT_TRUE(v.dirty);
}

TEST(L1, StoreToSharedNeedsUpgrade)
{
    L1Cache l1(32 * 1024, 4, 64);
    l1.insert(9, L1Cache::LineState::Shared, false);
    EXPECT_EQ(l1.access(9, true), L1Cache::LineState::Shared);
    l1.markExclusive(9, true);
    EXPECT_EQ(l1.access(9, true), L1Cache::LineState::Exclusive);
}

TEST(L1, InvalidateReportsDirty)
{
    L1Cache l1(32 * 1024, 4, 64);
    l1.insert(3, L1Cache::LineState::Exclusive, true);
    auto r = l1.invalidate(3);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.dirty);
    EXPECT_EQ(l1.access(3, false), L1Cache::LineState::Invalid);
    EXPECT_FALSE(l1.invalidate(3).present);
}

TEST(L1, DowngradeClearsDirty)
{
    L1Cache l1(32 * 1024, 4, 64);
    l1.insert(3, L1Cache::LineState::Exclusive, true);
    EXPECT_TRUE(l1.downgrade(3));
    EXPECT_EQ(l1.access(3, false), L1Cache::LineState::Shared);
    EXPECT_FALSE(l1.downgrade(3)); // now clean
}

// ---------------------------------------------------------------------
// CoherenceDirectory
// ---------------------------------------------------------------------

/** The first @p n keys at or above @p from whose home slot is @p slot. */
std::vector<Addr>
keysHomedAt(const CoherenceDirectory& dir, std::size_t slot, int n,
            Addr from = 0)
{
    std::vector<Addr> keys;
    for (Addr k = from; static_cast<int>(keys.size()) < n; k++) {
        if (dir.home(k) == slot) keys.push_back(k);
    }
    return keys;
}

TEST(CoherenceDirectory, SizedForHalfLoadWithSixteenByteSlots)
{
    EXPECT_EQ(sizeof(CoherenceDirectory::Entry), 16u);
    EXPECT_EQ(CoherenceDirectory(1).capacity(), 2u);
    EXPECT_EQ(CoherenceDirectory(8).capacity(), 16u);
    EXPECT_EQ(CoherenceDirectory(9).capacity(), 32u);
    // Table I: 8 MB of 64 B lines.
    EXPECT_EQ(CoherenceDirectory(131072).capacity(), 262144u);
}

TEST(CoherenceDirectory, FlagsDoNotDisturbTheLine)
{
    CoherenceDirectory dir(4);
    const Addr top = (Addr{1} << CoherenceDirectory::kLineBits) - 1;
    for (Addr line : {Addr{0}, Addr{1} << 48, Addr{1} << 52, top}) {
        CoherenceDirectory::Entry& e = dir.findOrInsert(line);
        EXPECT_EQ(e.line(), line);
        EXPECT_FALSE(e.exclusive());
        EXPECT_FALSE(e.l2Dirty());
        EXPECT_EQ(e.sharers, 0u);
        e.setExclusive(true);
        e.setL2Dirty(true);
        e.sharers = ~std::uint64_t{0};
        EXPECT_EQ(e.line(), line);
        e.setExclusive(false);
        EXPECT_TRUE(e.l2Dirty());
        EXPECT_EQ(dir.find(line), &e);
    }
    EXPECT_EQ(dir.size(), 4u);
}

// Backward-shift deletion across the table's end: a chain homed at the
// last slot wraps to slot 0, and erasing its head must pull the
// wrapped entries back so each stays reachable from its home.
TEST(CoherenceDirectory, EraseShiftsWrappedChainBack)
{
    CoherenceDirectory dir(8); // 16 slots
    const std::size_t last = dir.capacity() - 1;
    std::vector<Addr> tail = keysHomedAt(dir, last, 4);
    std::vector<Addr> head = keysHomedAt(dir, 0, 2);
    for (Addr k : tail) dir.findOrInsert(k).sharers = k;
    for (Addr k : head) dir.findOrInsert(k).sharers = k;
    for (std::size_t i = 0; i < tail.size(); i++) {
        dir.erase(*dir.find(tail[i]));
        EXPECT_EQ(dir.find(tail[i]), nullptr);
        for (std::size_t j = i + 1; j < tail.size(); j++) {
            ASSERT_NE(dir.find(tail[j]), nullptr) << i << "," << j;
            EXPECT_EQ(dir.find(tail[j])->sharers, tail[j]);
        }
        for (Addr k : head) {
            ASSERT_NE(dir.find(k), nullptr) << i;
            EXPECT_EQ(dir.find(k)->sharers, k);
        }
    }
    EXPECT_EQ(dir.size(), head.size());
}

// Random insert/find/erase against std::unordered_map. The key pool is
// built so that most keys collide on a few home slots, two of them the
// last two slots (wraparound), plus addresses with high bits set.
TEST(CoherenceDirectory, MatchesUnorderedMapOracle)
{
    struct State
    {
        std::uint64_t sharers;
        bool exclusive;
        bool dirty;
    };
    for (std::size_t lines : {std::size_t{8}, std::size_t{64}}) {
        CoherenceDirectory dir(lines);
        const std::size_t cap = dir.capacity();
        std::vector<Addr> pool;
        for (std::size_t slot : {cap - 1, cap - 2, std::size_t{0}, cap / 2}) {
            for (Addr k : keysHomedAt(dir, slot, 6)) pool.push_back(k);
        }
        for (Addr k : keysHomedAt(dir, cap - 1, 3, Addr{1} << 48)) {
            pool.push_back(k);
        }
        for (Addr k : keysHomedAt(dir, 1, 3, Addr{1} << 52)) {
            pool.push_back(k);
        }
        pool.push_back((Addr{1} << CoherenceDirectory::kLineBits) - 1);
        Pcg32 rng(lines);
        while (pool.size() < 4 * lines) pool.push_back(rng.next64() >> 8);

        std::unordered_map<Addr, State> oracle;
        for (int op = 0; op < 200000; op++) {
            Addr k = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
            auto it = oracle.find(k);
            CoherenceDirectory::Entry* e = dir.find(k);
            ASSERT_EQ(e != nullptr, it != oracle.end()) << "op " << op;
            if (e != nullptr) {
                ASSERT_EQ(e->line(), k);
                ASSERT_EQ(e->sharers, it->second.sharers);
                ASSERT_EQ(e->exclusive(), it->second.exclusive);
                ASSERT_EQ(e->l2Dirty(), it->second.dirty);
            }
            std::uint32_t kind = rng.below(3);
            if (kind == 0 && e != nullptr) {
                dir.erase(*e);
                oracle.erase(it);
            } else if (kind == 1 &&
                       (e != nullptr || dir.size() < cap / 2)) {
                CoherenceDirectory::Entry& f = dir.findOrInsert(k);
                State st{rng.next64(), rng.below(2) == 1,
                         rng.below(2) == 1};
                f.sharers = st.sharers;
                f.setExclusive(st.exclusive);
                f.setL2Dirty(st.dirty);
                oracle[k] = st;
            }
            ASSERT_EQ(dir.size(), oracle.size()) << "op " << op;
        }
        for (Addr k : pool) {
            EXPECT_EQ(dir.find(k) != nullptr, oracle.count(k) == 1);
        }
    }
}

// ---------------------------------------------------------------------
// CmpSystem
// ---------------------------------------------------------------------

SystemConfig
smallConfig(ArrayKind kind = ArrayKind::ZCache, std::uint32_t cores = 4)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2SizeBytes = 1 << 20; // 1 MB to keep tests fast
    cfg.l2Banks = 4;
    cfg.l2Spec.kind = kind;
    cfg.l2Spec.ways = 4;
    cfg.l2Spec.levels = 2;
    cfg.l2Spec.policy = PolicyKind::BucketedLru;
    return cfg;
}

std::vector<GeneratorPtr>
gensFor(const std::string& workload, const SystemConfig& cfg,
        std::uint64_t seed = 1)
{
    const auto& w = WorkloadRegistry::byName(workload);
    std::vector<GeneratorPtr> gens;
    for (std::uint32_t c = 0; c < cfg.numCores; c++) {
        gens.push_back(WorkloadRegistry::makeCoreGenerator(
            w, c, cfg.numCores, seed));
    }
    return gens;
}

TEST(Cmp, RunsRequestedInstructions)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("gcc", cfg));
    sys.run(20000);
    for (const auto& c : sys.stats().cores) {
        EXPECT_GE(c.instructions, 20000u);
        EXPECT_LT(c.instructions, 32000u); // overshoot < one record
        EXPECT_GE(c.cycles, c.instructions) << "IPC can never exceed 1";
    }
}

TEST(Cmp, CacheFriendlyWorkloadHasLowMpki)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("blackscholes", cfg));
    sys.run(60000);
    sys.resetStats();
    sys.run(60000);
    EXPECT_LT(sys.stats().l2Mpki(), 1.0);
    EXPECT_GT(sys.stats().aggregateIpc(), 0.8 * cfg.numCores);
}

TEST(Cmp, MissIntensiveWorkloadHasHighMpki)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("mcf", cfg));
    sys.run(30000);
    sys.resetStats();
    sys.run(30000);
    EXPECT_GT(sys.stats().l2Mpki(), 5.0);
    EXPECT_LT(sys.stats().aggregateIpc(), 0.6 * cfg.numCores);
}

TEST(Cmp, StatsAreInternallyConsistent)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("soplex", cfg));
    sys.run(40000);
    const auto& s = sys.stats();
    EXPECT_EQ(s.l2Hits + s.l2Misses, s.l2Accesses);
    std::uint64_t l1d_misses = 0;
    for (const auto& c : s.cores) l1d_misses += c.l1dMisses;
    EXPECT_LE(s.l2Misses, s.l2Accesses);
    EXPECT_GE(s.l2Accesses, l1d_misses);
    EXPECT_GE(s.dramAccesses, s.l2Misses);
}

TEST(Cmp, DeterministicUnderSeed)
{
    auto run = [] {
        SystemConfig cfg = smallConfig();
        CmpSystem sys(cfg);
        sys.setGenerators(gensFor("canneal", cfg, 7));
        sys.run(20000);
        return std::make_tuple(sys.stats().l2Misses,
                               sys.stats().maxCycles(),
                               sys.stats().invalidations);
    };
    EXPECT_EQ(run(), run());
}

TEST(Cmp, CoherenceInvalidationsOccurOnSharedWorkloads)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("canneal", cfg));
    sys.run(40000);
    EXPECT_GT(sys.stats().invalidations + sys.stats().upgrades +
                  sys.stats().downgrades,
              0u);
}

TEST(Cmp, NoCoherenceTrafficOnPrivateWorkloads)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("gamess", cfg));
    sys.run(40000);
    EXPECT_EQ(sys.stats().invalidations, 0u);
    EXPECT_EQ(sys.stats().downgrades, 0u);
}

TEST(Cmp, HigherBankLatencyLowersIpc)
{
    // The Fig. 4 mechanism: same array behaviour, more hit latency.
    auto ipc_for_ways = [](std::uint32_t ways) {
        SystemConfig cfg = smallConfig(ArrayKind::SetAssoc);
        cfg.l2Spec.ways = ways;
        cfg.l2Spec.hashKind = HashKind::H3;
        CmpSystem sys(cfg);
        // gamess: hot set far larger than the L1 but well inside the
        // L2, so L2 hit latency dominates and extra ways cannot win
        // back misses.
        sys.setGenerators(gensFor("gamess", cfg));
        sys.run(40000);
        sys.resetStats();
        sys.run(40000);
        return sys.stats().aggregateIpc();
    };
    // 32-way pays 2 extra cycles per L2 hit vs 4-way.
    EXPECT_GT(ipc_for_ways(4), ipc_for_ways(32));
}

TEST(Cmp, ZcacheKeepsLowWayLatencyAtHighAssociativity)
{
    SystemConfig z = smallConfig(ArrayKind::ZCache);
    z.l2Spec.levels = 3; // Z4/52
    SystemConfig sa = smallConfig(ArrayKind::SetAssoc);
    sa.l2Spec.ways = 32;
    CmpSystem zs(z), ss(sa);
    EXPECT_LT(zs.bankLatencyCycles(), ss.bankLatencyCycles());
}

TEST(Cmp, EnergyEventsPopulated)
{
    SystemConfig cfg = smallConfig();
    CmpSystem sys(cfg);
    sys.setGenerators(gensFor("milc", cfg));
    sys.run(30000);
    EnergyEvents ev = sys.energyEvents();
    EXPECT_GT(ev.instructions, 0u);
    EXPECT_GT(ev.l1Accesses, ev.instructions / 20);
    EXPECT_GT(ev.l2TagReads, 0u);
    EXPECT_GT(ev.dramAccesses, 0u);
    EXPECT_EQ(ev.cycles, sys.stats().maxCycles());
}

TEST(Cmp, ZcacheWalksConsumeTagBandwidthOnly)
{
    // Section VI-D: the walk adds tag traffic, not data traffic.
    auto traffic = [](ArrayKind kind, std::uint32_t levels) {
        SystemConfig cfg = smallConfig(kind);
        cfg.l2SizeBytes = 256 * 1024; // small enough to fill and churn
        cfg.l2Spec.levels = levels;
        CmpSystem sys(cfg);
        sys.setGenerators(gensFor("lbm", cfg)); // streaming, miss heavy
        sys.run(150000);
        std::uint64_t tags = 0, data = 0;
        for (std::uint32_t b = 0; b < sys.numBanks(); b++) {
            tags += sys.bank(b).stats().tagReads;
            data += sys.bank(b).stats().dataReads +
                    sys.bank(b).stats().dataWrites;
        }
        return std::make_pair(tags, data);
    };
    auto [tag_z52, data_z52] = traffic(ArrayKind::ZCache, 3);
    auto [tag_z4, data_z4] = traffic(ArrayKind::SkewAssoc, 1);
    EXPECT_GT(tag_z52, tag_z4 * 3 / 2) << "walk should add tag reads";
    // ~1.4 relocations/miss add ~2.8 data ops to the ~2 of a plain
    // fill: data traffic grows a few-fold while candidates grow 13x.
    EXPECT_LT(data_z52, data_z4 * 4) << "data traffic must stay modest";
}

TEST(Cmp, OptOracleRunsEndToEnd)
{
    SystemConfig cfg = smallConfig();
    cfg.l2Spec.policy = PolicyKind::Opt;
    CmpSystem sys(cfg);

    const auto& w = WorkloadRegistry::byName("astar");
    std::vector<GeneratorPtr> gens;
    for (std::uint32_t c = 0; c < cfg.numCores; c++) {
        auto raw = WorkloadRegistry::makeCoreGenerator(w, c, cfg.numCores, 1);
        auto trace = recordTrace(*raw, 20000);
        FutureUseAnnotator::annotate(trace);
        gens.push_back(std::make_unique<ReplayGenerator>(std::move(trace)));
    }
    sys.setGenerators(std::move(gens));
    sys.run(15000); // < records available, annotated nextUse flows in
    EXPECT_GT(sys.stats().l2Accesses, 0u);
}

TEST(Cmp, OptBeatsLruOnMisses)
{
    auto misses_for = [](PolicyKind policy) {
        SystemConfig cfg = smallConfig();
        cfg.numCores = 2;
        cfg.l2SizeBytes = 512 * 1024;
        cfg.l2Spec.policy = policy;
        CmpSystem sys(cfg);
        // soplex: large Zipf hot set in the capacity-pressure regime,
        // where replacement quality decides misses. (A pure pointer
        // chase would defeat every policy equally.)
        const auto& w = WorkloadRegistry::byName("soplex");
        std::vector<GeneratorPtr> gens;
        for (std::uint32_t c = 0; c < cfg.numCores; c++) {
            auto raw =
                WorkloadRegistry::makeCoreGenerator(w, c, cfg.numCores, 1);
            auto trace = recordTrace(*raw, 120000);
            FutureUseAnnotator::annotate(trace);
            gens.push_back(
                std::make_unique<ReplayGenerator>(std::move(trace)));
        }
        sys.setGenerators(std::move(gens));
        // Long enough for several reuse generations: policy quality,
        // not cold misses, must dominate the difference.
        sys.run(400000);
        return sys.stats().l2Misses;
    };
    EXPECT_LT(misses_for(PolicyKind::Opt),
              misses_for(PolicyKind::BucketedLru));
}

// Inclusion: a directory entry exists exactly while its line is
// resident in some L2 bank, so after a run the live count equals the
// banks' valid blocks.
TEST(Cmp, DirectoryEntriesMatchL2Residency)
{
    for (std::uint32_t ways : {4u, 16u}) {
        RunParams p;
        p.workload = "canneal";
        p.l2Spec.kind = ways == 4 ? ArrayKind::ZCache : ArrayKind::SetAssoc;
        p.l2Spec.ways = ways; // Z4/52 and SA-16
        p.l2Spec.levels = 3;
        p.l2Spec.policy = PolicyKind::BucketedLru;
        p.base.l2SizeBytes = 1 << 20; // small enough to evict
        p.warmupInstr = 20000;
        p.measureInstr = 20000;
        RunResult r = runExperiment(p);
        const JsonValue* sys = r.stats.find("system");
        ASSERT_NE(sys, nullptr);
        const JsonValue* l2 = sys->find("l2");
        EXPECT_GT(l2->find("evictions")->asU64(), 0u);
        std::uint64_t valid = 0;
        for (std::uint32_t b = 0; b < p.base.l2Banks; b++) {
            valid += l2->find("bank" + std::to_string(b))
                         ->find("valid_blocks")
                         ->asU64();
        }
        EXPECT_GT(valid, 0u);
        EXPECT_EQ(sys->find("coherence")->find("entries")->asU64(), valid)
            << ways << " ways";
    }
}

} // namespace
} // namespace zc
