/**
 * @file
 * kv-mix: the write-heavy in-process use of zkv. A ZkvStore of 4 x
 * 16384-block Z4/16 shards with u64 values and the optimistic read
 * path, the persist tier on (fsync=interval, 50 ms, with a snapshot
 * cadence at which several compactions finish per run), started from
 * a fresh data directory. Two closed-loop worker threads send 50% get,
 * 45% put, 5% erase over Zipf(0.99) keys spanning 4x the capacity, so
 * puts into the full store walk and evict, hot keys make lock-free gets
 * race with writers, and every mutation feeds the op log.
 *
 * Every get hit is checked: a value is a pure function of its key and
 * its writer, so a torn or misplaced value is a failure.
 */

#include <atomic>
#include <filesystem>
#include <thread>

#include "zcbench.hpp"
#include "hash/hash_factory.hpp"
#include "hash/way_index.hpp"
#include "store/zkv.hpp"

namespace pb {

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kBlocks = 16384;
constexpr std::uint64_t kCapacity = std::uint64_t{kShards} * kBlocks;
constexpr std::uint64_t kKeys = 4 * kCapacity;
constexpr std::uint32_t kThreads = 2;
constexpr int kSetups = 9;
constexpr std::uint64_t kSnapshotEveryOps = 1u << 18;

// Keeps the hash timing loop from being optimised away.
volatile std::uint64_t g_sink = 0;

zc::ZkvConfig
storeConfig(const std::string& dir, std::uint64_t seed)
{
    zc::ZkvConfig cfg;
    cfg.shards = kShards;
    cfg.array.kind = zc::ArrayKind::ZCache;
    cfg.array.blocks = kBlocks;
    cfg.array.ways = 4;
    cfg.array.levels = 2;
    cfg.array.seed = seed;
    cfg.readPath = zc::ReadPath::Optimistic;
    cfg.persist.dataDir = dir;
    cfg.persist.fsync = zc::persist::FsyncPolicy::Interval;
    cfg.persist.fsyncIntervalMs = 50;
    cfg.persist.snapshotEveryOps = kSnapshotEveryOps;
    return cfg;
}

struct Keys
{
    std::uint64_t keySeed = 0, valueSeed = 0;

    std::uint64_t key(std::uint64_t index) const
    {
        return zc::zkvMix64(index ^ keySeed);
    }

    /** The value @p writer stores under @p key (writer in low byte). */
    std::uint64_t
    value(std::uint64_t key, std::uint32_t writer) const
    {
        return (zc::zkvMix64(key ^ valueSeed) & ~0xffULL) | writer;
    }

    bool
    valid(std::uint64_t key, std::uint64_t v) const
    {
        return (v & ~0xffULL) == (value(key, 0) & ~0xffULL) &&
               (v & 0xff) <= kThreads;
    }
};

struct Worker
{
    LatencyHist all;
    LatencyHist byOp[3];
    std::uint64_t opNs[3] = {}, ops[3] = {};
    std::uint64_t gets = 0, hits = 0;
    FailCount fails;
    SpanLog log;
};

/**
 * One closed-loop worker: run its stream until @p stop. Traced workers
 * keep per-op histograms and aggregate spans; plain ones one histogram.
 */
void
work(zc::ZkvStore& store, const Keys& keys,
     const std::vector<std::uint32_t>& stream, std::uint32_t writer,
     bool traced, const std::atomic<bool>& go, const std::atomic<bool>& stop,
     Worker& w)
{
    while (!go.load(std::memory_order_acquire)) {
    }
    std::int64_t root = traced ? w.log.open("bench", "kv-mix.worker", -1) : -1;
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); i++) {
        std::uint32_t e = stream[i & (kStreamOps - 1)];
        std::uint32_t op = e & 3;
        std::uint64_t key = keys.key(e >> 2);
        bool ok = true;
        std::optional<std::uint64_t> got;
        std::uint64_t t0 = nowNs();
        if (op == kGet) {
            got = store.get(key);
        } else if (op == kPut) {
            ok = static_cast<bool>(store.put(key, keys.value(key, writer)));
        } else {
            store.erase(key);
        }
        std::uint64_t d = nowNs() - t0;
        if (op == kGet) {
            w.gets++;
            w.hits += got ? 1 : 0;
            if (got) ok = keys.valid(key, *got);
        }
        if (traced) {
            w.byOp[op].add(d);
            w.opNs[op] += d;
        }
        w.all.add(d);
        w.ops[op]++;
        w.fails.attempted++;
        if (!ok) w.fails.failed++;
    }
    if (traced) {
        w.log.close(root);
        static const char* kName[] = {"get", "put", "erase"};
        for (int op = 0; op < 3; op++) {
            w.log.aggregate("store", kName[op], root, w.ops[op], w.opNs[op]);
        }
    }
}

struct PhaseResult
{
    double seconds = 0.0;
    std::uint64_t ops = 0;
};

/** Run the workers for @p seconds; merge their results into @p out. */
PhaseResult
phase(zc::ZkvStore& store, const Keys& keys,
      const std::vector<std::vector<std::uint32_t>>& streams, bool traced,
      double seconds, std::vector<std::unique_ptr<Worker>>& out)
{
    std::atomic<bool> go{false}, stop{false};
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; t++) {
        out.push_back(std::make_unique<Worker>());
        threads.emplace_back(work, std::ref(store), std::cref(keys),
                             std::cref(streams[t]), t + 1, traced,
                             std::cref(go), std::cref(stop),
                             std::ref(*out.back()));
    }
    PhaseResult pr;
    std::uint64_t t0 = nowNs();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : threads) th.join();
    pr.seconds = static_cast<double>(nowNs() - t0) / 1e9;
    for (std::size_t i = out.size() - kThreads; i < out.size(); i++) {
        pr.ops += out[i]->fails.attempted;
    }
    return pr;
}

zc::persist::PersistShardCounters
persistTotals(zc::ZkvStore& store)
{
    zc::persist::PersistShardCounters t;
    zc::persist::PersistTier* tier = store.persistTier();
    for (std::uint32_t s = 0; s < tier->shardCount(); s++) {
        zc::persist::PersistShardCounters c = tier->counters(s);
        t.appended += c.appended;
        t.appendBytes += c.appendBytes;
        t.blocked += c.blocked;
        t.fsyncs += c.fsyncs;
        t.snapshots += c.snapshots;
        t.appendNs += c.appendNs;
        t.fsyncNs += c.fsyncNs;
    }
    return t;
}

} // namespace

Result
runKvMix(const Options& opt)
{
    Result res;
    Keys keys{mixSeed(opt.seed, 1), mixSeed(opt.seed, 2)};
    std::vector<double> cdf = zipfCdf(kKeys, 0.99);
    std::vector<std::vector<std::uint32_t>> streams;
    for (std::uint32_t t = 0; t < kThreads; t++) {
        streams.push_back(opStream(cdf, mixSeed(opt.seed, 10 + t), 50, 45));
    }

    // Set-up, repeated: create + recover + prefill to capacity, each in
    // a fresh data directory. The last store serves the timed phase.
    std::vector<double> setups;
    std::unique_ptr<zc::ZkvStore> store;
    std::string dir;
    for (int k = 0; k < kSetups; k++) {
        if (store) {
            if (!store->stopPersist().isOk()) res.fails.failed++;
            store.reset();
            std::filesystem::remove_all(dir);
        }
        dir = opt.outDir + "/kv-mix-data-" + std::to_string(k);
        std::filesystem::remove_all(dir);
        std::uint64_t t0 = nowNs();
        auto created = zc::ZkvStore::create(
            storeConfig(dir, mixSeed(opt.seed, 3)));
        if (!created) {
            res.errors.push_back("create: " + created.status().str());
            return res;
        }
        store = std::move(*created);
        if (!store->recover()) {
            res.errors.push_back("recover failed");
            return res;
        }
        for (std::uint64_t i = 0; i < kCapacity; i++) {
            std::uint64_t key = keys.key(i);
            res.fails.attempted++;
            if (!store->put(key, keys.value(key, 0))) res.fails.failed++;
        }
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    std::vector<std::unique_ptr<Worker>> workers;
    double plainSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    PhaseResult plain =
        phase(*store, keys, streams, false, plainSeconds, workers);
    LatencyHist lat;
    std::uint64_t gets = 0, hits = 0;
    for (auto& w : workers) {
        lat.merge(w->all);
        gets += w->gets;
        hits += w->hits;
        res.fails.add(w->fails);
    }

    if (!opt.trace) {
        std::uint64_t p50 = lat.quantile(0.50), p99 = lat.quantile(0.99);
        res.set("setup_s", median(setups), "s");
        res.set("peak_rss_mb", peakRssMb(), "MiB");
        res.set("ops_per_s", plain.ops / plain.seconds, "1/s");
        res.set("p50_us", p50 / 1e3, "us");
        res.set("p99_us", p99 / 1e3, "us");
        res.set("hit_ratio", ratio(hits, gets), "ratio");
        res.set("stored_per_raw", 1.0, "ratio");
        res.set("sim_mpki", 1.0, "1/kinstr");
        res.set("sim_ipc", 1.0, "instr/cycle");
        checkTail(res, lat, p99);
    } else {
        declareLayerMetrics(res);
        zc::ZkvShardStats s0 = store->totals();
        zc::ZkvShardObs o0 = store->obsTotals();
        zc::persist::PersistShardCounters p0 = persistTotals(*store);
        store->enableObs(nullptr);
        std::size_t first = workers.size();
        PhaseResult traced =
            phase(*store, keys, streams, true, opt.seconds / 2, workers);
        zc::ZkvShardStats s1 = store->totals();
        zc::ZkvShardObs ob = store->obsTotals();
        ob.getOptimistic -= o0.getOptimistic;
        ob.getRetried -= o0.getRetried;
        ob.getFallback -= o0.getFallback;
        ob.lockAcquisitions -= o0.lockAcquisitions;
        ob.lockContended -= o0.lockContended;
        ob.lockWaitNs -= o0.lockWaitNs;
        ob.probeNs -= o0.probeNs;
        ob.walkNs -= o0.walkNs;
        zc::persist::PersistShardCounters p1 = persistTotals(*store);
        store->disableObs();

        LatencyHist byOp[3];
        std::vector<const SpanLog*> logs;
        for (std::size_t i = first; i < workers.size(); i++) {
            for (int op = 0; op < 3; op++) byOp[op].merge(workers[i]->byOp[op]);
            res.fails.add(workers[i]->fails);
            logs.push_back(&workers[i]->log);
        }
        Reconciliation rec = reconcile(logs);

        double puts = static_cast<double>(s1.puts - s0.puts);
        double getsT = static_cast<double>(s1.gets - s0.gets);
        double inserts = static_cast<double>(s1.putInserts - s0.putInserts);
        double ops = static_cast<double>(traced.ops);
        res.set("store.get_ns.p50", byOp[kGet].quantile(0.50), "ns");
        res.set("store.get_ns.p99", byOp[kGet].quantile(0.99), "ns");
        res.set("store.put_ns.p50", byOp[kPut].quantile(0.50), "ns");
        res.set("store.put_ns.p99", byOp[kPut].quantile(0.99), "ns");
        res.set("store.erase_ns.p50", byOp[kErase].quantile(0.50), "ns");
        res.set("store.evictions_per_put",
                ratio(s1.evictions - s0.evictions, puts), "ratio");
        res.set("store.candidates_per_insert",
                ratio(s1.walkCandidates - s0.walkCandidates, inserts),
                "count");
        res.set("store.relocations_per_insert",
                ratio(s1.relocations - s0.relocations, inserts), "count");
        res.set("store.optimistic_frac", ratio(ob.getOptimistic, getsT),
                "ratio");
        res.set("store.seq_retries_per_get", ratio(ob.getRetried, getsT),
                "ratio");
        res.set("store.fallback_frac", ratio(ob.getFallback, getsT), "ratio");
        res.set("store.lock_wait_ns_per_op", ratio(ob.lockWaitNs, ops), "ns");
        res.set("store.lock_contended_frac",
                ratio(ob.lockContended, ob.lockAcquisitions), "ratio");
        res.set("store.probe_ns_per_op", ratio(ob.probeNs, ops), "ns");
        res.set("store.walk_ns_per_put", ratio(ob.walkNs, puts), "ns");
        res.set("persist.append_bytes_per_put",
                ratio(p1.appendBytes - p0.appendBytes, puts), "B");
        res.set("persist.blocked_per_put", ratio(p1.blocked - p0.blocked, puts),
                "ratio");
        res.set("persist.fsyncs_per_s",
                ratio(p1.fsyncs - p0.fsyncs, traced.seconds), "1/s");
        res.set("persist.append_ns_per_record",
                ratio(p1.appendNs - p0.appendNs, p1.appended - p0.appended),
                "ns");
        res.set("persist.fsync_ns_per_sync",
                ratio(p1.fsyncNs - p0.fsyncNs, p1.fsyncs - p0.fsyncs), "ns");
        res.set("persist.snapshots", p1.snapshots - p0.snapshots, "count");

        // The shard shape's way hashing on the workload's own keys.
        zc::ArraySpec spec = store->config().shardSpec(0);
        std::uint32_t perWay = spec.blocks / spec.ways;
        zc::WayIndexer indexer(
            zc::makeHashFamily(spec.hashKind, spec.ways, perWay, spec.seed),
            perWay);
        std::vector<zc::BlockPos> pos(spec.ways);
        std::uint64_t sink = 0, h0 = nowNs();
        for (std::uint32_t e : streams[0]) {
            indexer.positionsAll(keys.key(e >> 2), pos.data());
            sink += pos[0];
        }
        res.set("hash.positions_ns",
                ratio(nowNs() - h0, static_cast<double>(streams[0].size())),
                "ns");
        g_sink = sink;

        double plainRate = plain.ops / plain.seconds;
        double tracedRate = traced.ops / traced.seconds;
        setReconciliation(res, rec, plainRate / tracedRate - 1.0);
        writeSpans(opt, logs, rec);
    }

    if (!store->stopPersist().isOk()) res.fails.failed++;
    store.reset();
    std::filesystem::remove_all(dir);
    return res;
}

} // namespace pb
