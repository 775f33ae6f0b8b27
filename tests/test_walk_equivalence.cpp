/**
 * @file
 * Equivalence proofs for the walk hot-path optimizations: the
 * epoch-stamped flat candidate dedup and the batched/devirtualized
 * WayIndexer must be *bit-identical* to the reference implementation
 * (per-way virtual hash() calls + std::unordered_set dedup) that
 * ZArrayConfig::referenceWalk preserves. Identity is checked at every
 * level a divergence could hide: per-access hit/miss and Replacement
 * fields, aggregate ZWalkStats, the walk-event trace (ring and
 * streaming summary), and the final tag-array contents — across every
 * hash kind, walk strategy, candidate cap and the Bloom repeat filter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/array_factory.hpp"
#include "cache/z_array.hpp"
#include "common/rng.hpp"
#include "hash/hash_factory.hpp"
#include "hash/way_index.hpp"
#include "replacement/policy_factory.hpp"

namespace zc {
namespace {

constexpr std::uint32_t kBlocks = 1024; // 4 ways x 256 lines
constexpr std::uint64_t kFootprint = 4096;

std::unique_ptr<ZArray>
makeArray(ZArrayConfig cfg, bool reference, PolicyKind pk)
{
    cfg.referenceWalk = reference;
    return std::make_unique<ZArray>(kBlocks, cfg,
                                    makePolicy(pk, kBlocks, 99));
}

/**
 * Drive the optimized and reference arrays with the same stream and
 * require identical behaviour at every step and in every aggregate.
 */
void
expectEquivalent(const ZArrayConfig& cfg, PolicyKind pk, int accesses,
                 const std::string& label)
{
    auto fast = makeArray(cfg, false, pk);
    auto ref = makeArray(cfg, true, pk);
    Pcg32 rng(7);
    for (int i = 0; i < accesses; i++) {
        Addr a = rng.next64() % kFootprint;
        AccessContext ctx;
        ctx.lineAddr = a;
        BlockPos pf = fast->access(a, ctx);
        BlockPos pr = ref->access(a, ctx);
        ASSERT_EQ(pf, pr) << label << ": access " << i << " addr " << a;
        if (pf != kInvalidPos) continue;
        Replacement rf = fast->insert(a, ctx);
        Replacement rr = ref->insert(a, ctx);
        ASSERT_EQ(rf.evictedAddr, rr.evictedAddr)
            << label << ": access " << i;
        ASSERT_EQ(rf.victimPos, rr.victimPos) << label << ": access " << i;
        ASSERT_EQ(rf.candidates, rr.candidates)
            << label << ": access " << i;
        ASSERT_EQ(rf.relocations, rr.relocations)
            << label << ": access " << i;
    }

    const ZWalkStats& sf = fast->walkStats();
    const ZWalkStats& sr = ref->walkStats();
    EXPECT_EQ(sf.walks, sr.walks) << label;
    EXPECT_EQ(sf.candidatesTotal, sr.candidatesTotal) << label;
    EXPECT_EQ(sf.relocationsTotal, sr.relocationsTotal) << label;
    EXPECT_EQ(sf.repeatsTotal, sr.repeatsTotal) << label;
    EXPECT_EQ(sf.emptyAbsorbed, sr.emptyAbsorbed) << label;

    if (cfg.traceCapacity > 0) {
        const WalkTraceSummary& tf = fast->walkTraceSummary();
        const WalkTraceSummary& tr = ref->walkTraceSummary();
        EXPECT_EQ(tf.events, tr.events) << label;
        EXPECT_EQ(tf.hidden, tr.hidden) << label;
        EXPECT_EQ(tf.capped, tr.capped) << label;
        EXPECT_EQ(tf.emptyAbsorbed, tr.emptyAbsorbed) << label;
        EXPECT_EQ(tf.candidates.sum(), tr.candidates.sum()) << label;
        EXPECT_EQ(tf.victimDepth.sum(), tr.victimDepth.sum()) << label;
        EXPECT_EQ(tf.evictionRank.sum(), tr.evictionRank.sum()) << label;
        EXPECT_EQ(tf.latencyCycles.sum(), tr.latencyCycles.sum()) << label;

        auto ef = fast->walkTraceSnapshot();
        auto er = ref->walkTraceSnapshot();
        ASSERT_EQ(ef.size(), er.size()) << label;
        for (std::size_t i = 0; i < ef.size(); i++) {
            EXPECT_EQ(ef[i].candidates, er[i].candidates)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].levels, er[i].levels) << label << ": event "
                                                  << i;
            EXPECT_EQ(ef[i].victimDepth, er[i].victimDepth)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].evictionRank, er[i].evictionRank)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].latencyCycles, er[i].latencyCycles)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].emptyAbsorbed, er[i].emptyAbsorbed)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].capped, er[i].capped)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].hiddenUnderMissLatency,
                      er[i].hiddenUnderMissLatency)
                << label << ": event " << i;
        }
    }

    // Final array contents: same valid count and the same address at
    // every position.
    ASSERT_EQ(fast->validCount(), ref->validCount()) << label;
    for (BlockPos p = 0; p < kBlocks; p++) {
        ASSERT_EQ(fast->addrAt(p), ref->addrAt(p))
            << label << ": position " << p;
    }
}

std::string
comboLabel(HashKind hk, WalkStrategy ws, std::uint32_t cap, bool bloom)
{
    std::string s = hashKindName(hk);
    s += ws == WalkStrategy::Bfs   ? "/bfs"
         : ws == WalkStrategy::Dfs ? "/dfs"
                                   : "/hybrid";
    s += "/cap" + std::to_string(cap);
    if (bloom) s += "/bloom";
    return s;
}

// Every hash kind x every walk strategy, uncapped, trace on. Sha1 has
// no WayIndexer specialization and exercises the Generic fallback.
TEST(WalkEquivalence, AllHashKindsAllStrategies)
{
    for (HashKind hk : kAllHashKinds) {
        for (WalkStrategy ws :
             {WalkStrategy::Bfs, WalkStrategy::Dfs, WalkStrategy::Hybrid}) {
            ZArrayConfig cfg;
            cfg.ways = 4;
            cfg.levels = 3;
            cfg.strategy = ws;
            cfg.hashKind = hk;
            cfg.traceCapacity = 64;
            expectEquivalent(cfg, PolicyKind::Srrip, 4000,
                             comboLabel(hk, ws, 0, false));
        }
    }
}

// The early-stop cap changes which candidates exist at all, so the
// dedup rewrite must agree about *order* of discovery, not just the
// final set. A tight cap makes any ordering slip visible immediately.
TEST(WalkEquivalence, CandidateCaps)
{
    for (std::uint32_t cap : {6u, 16u}) {
        for (WalkStrategy ws :
             {WalkStrategy::Bfs, WalkStrategy::Hybrid}) {
            ZArrayConfig cfg;
            cfg.ways = 4;
            cfg.levels = 3;
            cfg.strategy = ws;
            cfg.maxCandidates = cap;
            cfg.traceCapacity = 64;
            expectEquivalent(cfg, PolicyKind::Srrip, 4000,
                             comboLabel(cfg.hashKind, ws, cap, false));
        }
    }
}

// The Bloom repeat filter marks nodes before dedup sees them; both
// paths must count repeats identically.
TEST(WalkEquivalence, BloomRepeatFilter)
{
    for (WalkStrategy ws : {WalkStrategy::Bfs, WalkStrategy::Dfs}) {
        ZArrayConfig cfg;
        cfg.ways = 4;
        cfg.levels = 3;
        cfg.strategy = ws;
        cfg.bloomRepeatFilter = true;
        cfg.traceCapacity = 64;
        expectEquivalent(cfg, PolicyKind::Lru, 4000,
                         comboLabel(cfg.hashKind, ws, 0, true));
    }
}

// L=1 (skew-associative degenerate) and a wider array: shapes at the
// edges of the walk-tree recurrence.
TEST(WalkEquivalence, DegenerateAndWideShapes)
{
    {
        ZArrayConfig cfg;
        cfg.ways = 4;
        cfg.levels = 1;
        cfg.traceCapacity = 32;
        expectEquivalent(cfg, PolicyKind::Lru, 3000, "h3/bfs/L1");
    }
    {
        ZArrayConfig cfg;
        cfg.ways = 8;
        cfg.levels = 2;
        cfg.traceCapacity = 32;
        expectEquivalent(cfg, PolicyKind::Srrip, 3000, "h3/bfs/W8L2");
    }
}

// ------------------------------------------- Compressed degeneration

/**
 * The compressed tier's no-op configuration must be *bit-identical* to
 * the plain zcache (docs/compression.md): with extraTagRatio=1 the tag
 * count matches, and with the null codec every stored size equals
 * lineBytes exactly, so the data budget (blocks x lineBytes) can never
 * be exceeded and makeSpace never fires. The SizeMirror decorator
 * forwards every ranking/notification call to the inner policy
 * untouched, so replacement decisions — and therefore the whole walk
 * event stream and final tag contents — must match position for
 * position. A divergence here means the decorator perturbed policy
 * state or the budget check fired spuriously.
 */
TEST(WalkEquivalence, CompressedNullCodecRatio1IsBitIdentical)
{
    for (PolicyKind pk : {PolicyKind::Lru, PolicyKind::Srrip}) {
        ArraySpec plain;
        plain.kind = ArrayKind::ZCache;
        plain.blocks = kBlocks;
        plain.ways = 4;
        plain.levels = 3;
        plain.policy = pk;
        plain.seed = 99;

        ArraySpec comp = plain;
        comp.kind = ArrayKind::CompressedZ;
        comp.extraTagRatio = 1;
        comp.codec = CodecKind::None;
        comp.lineBytes = 64;

        auto p = zc::makeArray(plain);
        auto c = zc::makeArray(comp);
        auto* pz = dynamic_cast<ZArray*>(p.get());
        auto* cz = dynamic_cast<CompressedZArray*>(c.get());
        ASSERT_NE(pz, nullptr);
        ASSERT_NE(cz, nullptr);

        Pcg32 rng(7);
        for (int i = 0; i < 6000; i++) {
            Addr a = rng.next64() % kFootprint;
            AccessContext ctx;
            ctx.lineAddr = a;
            BlockPos hp = p->access(a, ctx);
            BlockPos hc = c->access(a, ctx);
            ASSERT_EQ(hp, hc) << policyKindName(pk) << ": access " << i;
            if (hp != kInvalidPos) continue;
            Replacement rp = p->insert(a, ctx);
            Replacement rc = c->insert(a, ctx);
            ASSERT_EQ(rp.evictedAddr, rc.evictedAddr)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.victimPos, rc.victimPos)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.candidates, rc.candidates)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.relocations, rc.relocations)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rc.extraEvictions, 0u)
                << policyKindName(pk) << ": access " << i;
        }

        EXPECT_EQ(cz->sizeMirror().extraEvictions(), 0u);
        EXPECT_EQ(cz->sizeMirror().occupiedBytes(),
                  static_cast<std::uint64_t>(cz->validCount()) * 64);
        const ZWalkStats& sp = pz->walkStats();
        const ZWalkStats& sc = cz->walkStats();
        EXPECT_EQ(sp.walks, sc.walks);
        EXPECT_EQ(sp.candidatesTotal, sc.candidatesTotal);
        EXPECT_EQ(sp.relocationsTotal, sc.relocationsTotal);
        ASSERT_EQ(pz->validCount(), cz->validCount());
        for (BlockPos pos = 0; pos < kBlocks; pos++) {
            ASSERT_EQ(pz->addrAt(pos), cz->addrAt(pos))
                << policyKindName(pk) << ": position " << pos;
        }
    }
}

// ------------------------------------------------------- WayIndexer

// For every specializable kind, the indexer must (a) leave the virtual
// path, and (b) agree with the virtual hashes on every way for a large
// random address sample — including the batched positionsAll entry
// point the walk actually uses.
// Every width from a 2-line way up to 2^17 lines per way, so H3 runs on
// both its uint16 (<= 16 output bits) and uint32 byte tables, over
// random addresses and addresses with high bits set (the shared-data
// and code regions, and the top of the address space).
TEST(WayIndexer, MatchesVirtualHashesForEveryKind)
{
    const std::uint32_t ways = 4;
    const std::uint32_t widths[] = {2, 256, 4096, 1u << 16, 1u << 17};
    for (std::uint32_t lines : widths) {
        for (HashKind hk : kAllHashKinds) {
            auto fam = makeHashFamily(hk, ways, lines, 0x5eed);
            WayIndexer idx(fam, lines);
            if (hk == HashKind::Sha1) {
                EXPECT_FALSE(idx.devirtualized());
                EXPECT_STREQ(idx.modeName(), "generic-virtual");
            } else {
                EXPECT_TRUE(idx.devirtualized()) << hashKindName(hk);
            }
            std::vector<Addr> addrs = {0,
                                       1,
                                       Addr{1} << 48,
                                       (Addr{1} << 48) + 12345,
                                       Addr{1} << 52,
                                       (Addr{1} << 52) + (Addr{31} << 24),
                                       ~0ull - 1,
                                       ~0ull};
            Pcg32 rng(11);
            for (int i = 0; i < 20000; i++) addrs.push_back(rng.next64());
            std::vector<BlockPos> batched(ways);
            for (Addr a : addrs) {
                idx.positionsAll(a, batched.data());
                for (std::uint32_t w = 0; w < ways; w++) {
                    BlockPos want = static_cast<BlockPos>(
                        w * lines + fam[w]->hash(a));
                    ASSERT_EQ(idx.position(w, a), want)
                        << hashKindName(hk) << " lines " << lines << " way "
                        << w << " addr " << a;
                    ASSERT_EQ(batched[w], want)
                        << hashKindName(hk) << " lines " << lines << " way "
                        << w << " addr " << a;
                }
            }
        }
    }
}

// A mixed family must stay on the virtual path — specializing on the
// first way's type would silently evaluate the wrong function.
TEST(WayIndexer, MixedFamilyFallsBackToGeneric)
{
    const std::uint32_t lines = 256;
    std::vector<HashPtr> fam;
    fam.push_back(makeHash(HashKind::H3, lines, 1));
    fam.push_back(makeHash(HashKind::FoldedXor, lines, 2));
    WayIndexer idx(fam, lines);
    EXPECT_FALSE(idx.devirtualized());
    Pcg32 rng(3);
    for (int i = 0; i < 1000; i++) {
        Addr a = rng.next64();
        for (std::uint32_t w = 0; w < 2; w++) {
            EXPECT_EQ(idx.position(w, a),
                      static_cast<BlockPos>(w * lines + fam[w]->hash(a)));
        }
    }
}

} // namespace
} // namespace zc
