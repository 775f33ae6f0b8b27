/**
 * @file
 * Single-op vs batched equivalence for zkv (docs/store.md). One seeded
 * random op stream runs three ways against fresh stores of the same
 * config: as single get/put/erase calls (what in-process callers
 * issue), as runShardBatch calls of one op, and as runShardBatch calls
 * grouping up to 32 consecutive ops by shard (what the server issues).
 * Shards are independent and each group keeps the stream's per-shard
 * order, so all three must agree on every op result, the counters, the
 * compression totals and the final contents.
 *
 * The matrix is read path x value mode x lock kind x observability (a
 * count-only tracer), minus the combinations ZkvConfig::validate()
 * rejects (byte payloads with the optimistic read path).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/tracer.hpp"
#include "store/zkv.hpp"

namespace zc {
namespace {

enum class Values { U64, BytesBdi, BytesNone };

struct Cell
{
    ReadPath readPath;
    Values values;
    ShardLockKind lock;
    bool obs;
};

std::string
cellName(const Cell& c)
{
    const char* v = c.values == Values::U64        ? "u64"
                    : c.values == Values::BytesBdi ? "bytes_bdi"
                                                   : "bytes_none";
    return std::string(readPathName(c.readPath)) + "_" + v + "_" +
           shardLockKindName(c.lock) + (c.obs ? "_obs" : "_plain");
}

ZkvConfig
cellConfig(const Cell& c)
{
    ZkvConfig cfg;
    cfg.shards = 2;
    cfg.array.kind = ArrayKind::ZCache;
    cfg.array.blocks = 64;
    cfg.array.ways = 4;
    cfg.array.levels = 2;
    cfg.array.policy = PolicyKind::Lru;
    cfg.array.seed = 0x5eed;
    cfg.readPath = c.readPath;
    cfg.lock = c.lock;
    if (c.values != Values::U64) {
        cfg.value.maxBytes = 64;
        cfg.value.codec =
            c.values == Values::BytesBdi ? CodecKind::Bdi : CodecKind::None;
    }
    return cfg;
}

std::vector<Cell>
validCells()
{
    std::vector<Cell> cells;
    const ShardLockKind locks[] = {ShardLockKind::Mutex, ShardLockKind::Spin};
    for (ReadPath rp : {ReadPath::Locked, ReadPath::Optimistic}) {
        for (Values v : {Values::U64, Values::BytesBdi, Values::BytesNone}) {
            for (ShardLockKind lk : locks) {
                for (bool obs : {false, true}) {
                    Cell c{rp, v, lk, obs};
                    if (cellConfig(c).validate().isOk()) cells.push_back(c);
                }
            }
        }
    }
    return cells;
}

constexpr std::uint64_t kKeys = 400; ///< ~3x the 128-block capacity
constexpr int kOps = 3000;

/** Byte payload of the i-th op: compressible or not, 0..64 bytes. */
std::vector<std::uint8_t>
payload(std::uint64_t key, int i)
{
    const std::uint64_t h = zkvMix64(key * 1000003 + i);
    std::vector<std::uint8_t> v(h % 65);
    const std::uint64_t kind = (h >> 8) % 3; // zeros, small deltas, noise
    for (std::size_t b = 0; b < v.size(); b++) {
        const std::uint64_t x = kind == 0   ? 0
                                : kind == 1 ? (b % 8 == 0 ? h >> 16 : b % 8)
                                            : zkvMix64(h + b);
        v[b] = static_cast<std::uint8_t>(x);
    }
    return v;
}

std::vector<StoreBatchOp>
opStream(bool bytes, std::uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<StoreBatchOp> ops(kOps);
    for (int i = 0; i < kOps; i++) {
        StoreBatchOp& op = ops[i];
        op.key = 1 + rng.next64() % kKeys;
        const double u = rng.uniform();
        op.kind = u < 0.45   ? ObsOp::Get
                  : u < 0.85 ? ObsOp::Put
                             : ObsOp::Erase;
        if (op.kind != ObsOp::Put) continue;
        if (bytes) {
            op.valueBytes = payload(op.key, i);
        } else {
            op.value = zkvMix64(op.key + i);
        }
    }
    return ops;
}

/** Everything an op reports, in the batch API's shape. */
struct Outcome
{
    ErrorCode code = ErrorCode::Ok;
    bool hit = false;
    bool inserted = false;
    bool evicted = false;
    std::uint64_t value = 0;
    std::vector<std::uint8_t> bytes;
    std::uint64_t evictedKey = 0;
    std::uint64_t evictedValue = 0;
    std::uint32_t candidates = 0;
    std::uint32_t relocations = 0;

    bool operator==(const Outcome&) const = default;
};

Outcome
fromBatch(StoreBatchResult& r)
{
    return {r.code,         r.hit,          r.inserted,
            r.evicted,      r.value,        std::move(r.valueBytes),
            r.evictedKey,   r.evictedValue, r.candidates,
            r.relocations};
}

Outcome
fromPut(const Expected<PutResult>& pr)
{
    Outcome o;
    if (!pr) {
        o.code = pr.status().code();
        return o;
    }
    o.hit = !pr->inserted; // batches report an in-place update as a hit
    o.inserted = pr->inserted;
    o.evicted = pr->evicted;
    o.evictedKey = pr->evictedKey;
    o.evictedValue = pr->evictedValue;
    o.candidates = pr->candidates;
    o.relocations = pr->relocations;
    return o;
}

Outcome
single(ZkvStore& kv, const StoreBatchOp& op)
{
    Outcome o;
    switch (op.kind) {
      case ObsOp::Get:
        if (kv.bytesMode()) {
            auto g = kv.getBytes(op.key);
            if (!g) {
                o.code = g.status().code();
            } else if (*g) {
                o.hit = true;
                o.bytes = std::move(**g);
            }
        } else if (auto v = kv.get(op.key)) {
            o.hit = true;
            o.value = *v;
        }
        return o;
      case ObsOp::Put:
        return fromPut(kv.bytesMode() ? kv.putBytes(op.key, op.valueBytes)
                                      : kv.put(op.key, op.value));
      default:
        o.hit = kv.erase(op.key);
        return o;
    }
}

enum class Mode { Single, BatchOfOne, Batched };

/** What a run leaves behind, for comparison across modes. */
struct RunResult
{
    std::vector<Outcome> outcomes;
    ZkvShardStats totals;
    ZkvShardObs obs;
    ZkvCompressionStats comp;
    std::uint64_t size = 0;
    std::uint64_t enumerated = 0;
    std::map<std::uint64_t, std::uint64_t> contents;
    std::map<std::uint64_t, std::vector<std::uint8_t>> bytes;
    std::uint64_t traced = 0;
    /** Gets that ran in an all-gets group (the lock-free candidates). */
    std::uint64_t allGetGroupGets = 0;
};

RunResult
run(const Cell& c, Mode mode, const std::vector<StoreBatchOp>& ops)
{
    auto created = ZkvStore::create(cellConfig(c));
    EXPECT_TRUE(created.hasValue()) << created.status().str();
    ZkvStore& kv = **created;
    ObsTracerConfig tc; // empty path: count-only
    ObsTracer tracer(std::move(tc));
    if (c.obs) kv.enableObs(&tracer);

    RunResult rr;
    rr.outcomes.resize(ops.size());
    if (mode == Mode::Single) {
        for (std::size_t i = 0; i < ops.size(); i++) {
            rr.outcomes[i] = single(kv, ops[i]);
        }
    } else {
        Pcg32 rng(0xba7c4);
        std::size_t i = 0;
        while (i < ops.size()) {
            std::size_t n =
                mode == Mode::BatchOfOne ? 1 : 1 + rng.next() % 32;
            n = std::min(n, ops.size() - i);
            for (std::uint32_t s = 0; s < kv.numShards(); s++) {
                std::vector<StoreBatchOp> group;
                std::vector<std::size_t> idx;
                for (std::size_t j = i; j < i + n; j++) {
                    if (kv.shardOf(ops[j].key) != s) continue;
                    group.push_back(ops[j]);
                    idx.push_back(j);
                }
                if (group.empty()) continue;
                bool allGets = true;
                for (const StoreBatchOp& op : group) {
                    allGets = allGets && op.kind == ObsOp::Get;
                }
                if (allGets) rr.allGetGroupGets += group.size();
                std::vector<StoreBatchResult> out(group.size());
                kv.runShardBatch(s, group, out.data());
                for (std::size_t k = 0; k < idx.size(); k++) {
                    rr.outcomes[idx[k]] = fromBatch(out[k]);
                }
            }
            i += n;
        }
    }
    if (c.obs) {
        kv.disableObs();
        auto sum = tracer.finish(ops.size());
        EXPECT_TRUE(sum.hasValue());
        if (sum) rr.traced = sum->recorded + sum->dropped;
    }

    rr.totals = kv.totals();
    rr.obs = kv.obsTotals();
    rr.comp = kv.compressionTotals();
    rr.size = kv.size();
    for (std::uint32_t s = 0; s < kv.numShards(); s++) {
        kv.forEachInShard(s, [&](std::uint64_t key, std::uint64_t value) {
            rr.enumerated++;
            rr.contents[key] = value;
        });
    }
    if (kv.bytesMode()) {
        for (const auto& [key, value] : rr.contents) {
            auto g = kv.getBytes(key);
            EXPECT_TRUE(g.hasValue() && g->has_value()) << key;
            if (g && *g) rr.bytes[key] = std::move(**g);
        }
    }
    return rr;
}

void
expectSameCounters(const ZkvShardStats& a, const ZkvShardStats& b)
{
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.getHits, b.getHits);
    EXPECT_EQ(a.puts, b.puts);
    EXPECT_EQ(a.putInserts, b.putInserts);
    EXPECT_EQ(a.putUpdates, b.putUpdates);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.eraseHits, b.eraseHits);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.walkCandidates, b.walkCandidates);
    EXPECT_EQ(a.relocations, b.relocations);
}

void
expectSameCompression(const ZkvCompressionStats& a,
                      const ZkvCompressionStats& b)
{
    EXPECT_EQ(a.compressCalls, b.compressCalls);
    EXPECT_EQ(a.decompressCalls, b.decompressCalls);
    EXPECT_EQ(a.rawBytesTotal, b.rawBytesTotal);
    EXPECT_EQ(a.storedBytesTotal, b.storedBytesTotal);
    EXPECT_EQ(a.residentRawBytes, b.residentRawBytes);
    EXPECT_EQ(a.residentStoredBytes, b.residentStoredBytes);
}

class StoreEquivalence : public ::testing::TestWithParam<Cell>
{
};

TEST_P(StoreEquivalence, SingleOpsMatchBatchesOfOneAndOfMany)
{
    const Cell c = GetParam();
    const auto ops = opStream(c.values != Values::U64, 0xe91);

    RunResult ref = run(c, Mode::Single, ops);
    ASSERT_GT(ref.totals.evictions, 100u) << "stream must evict";
    EXPECT_GT(ref.totals.getHits, 100u);

    for (Mode mode : {Mode::BatchOfOne, Mode::Batched}) {
        SCOPED_TRACE(mode == Mode::BatchOfOne ? "batch of one" : "batched");
        RunResult got = run(c, mode, ops);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ops.size(); i++) {
            if (got.outcomes[i] == ref.outcomes[i]) continue;
            if (mismatches++ < 5) {
                ADD_FAILURE() << "op " << i << " ("
                              << obsOpName(ops[i].kind) << " key "
                              << ops[i].key << ") differs";
            }
        }
        EXPECT_EQ(mismatches, 0u);
        expectSameCounters(got.totals, ref.totals);
        expectSameCompression(got.comp, ref.comp);
        EXPECT_EQ(got.size, ref.size);
        EXPECT_EQ(got.contents, ref.contents);
        EXPECT_EQ(got.bytes, ref.bytes);

        // Seq counters: single-threaded every lock-free read validates
        // first time. Only all-gets groups may take the lock-free pass;
        // a get batched with a put is answered under the lock.
        const bool opt = c.readPath == ReadPath::Optimistic;
        EXPECT_EQ(got.obs.getRetried, 0u);
        EXPECT_EQ(got.obs.getFallback, 0u);
        if (mode == Mode::BatchOfOne || !opt) {
            EXPECT_EQ(got.obs.getOptimistic, ref.obs.getOptimistic);
        } else {
            EXPECT_EQ(got.obs.getOptimistic, got.allGetGroupGets);
        }
        if (c.obs) {
            EXPECT_EQ(got.traced, ops.size());
        }
    }

    const bool opt = c.readPath == ReadPath::Optimistic;
    EXPECT_EQ(ref.obs.getOptimistic, opt ? ref.totals.gets : 0u);
    EXPECT_EQ(ref.size, ref.enumerated);
    if (c.obs) {
        EXPECT_EQ(ref.traced, ops.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Matrix, StoreEquivalence,
                         ::testing::ValuesIn(validCells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                             return cellName(info.param);
                         });

} // namespace
} // namespace zc
