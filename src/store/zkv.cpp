/**
 * @file
 * ZkvStore implementation: the value-mirroring policy decorator and the
 * one shard-op kernel every client op runs through, built on the
 * simulator's CacheArray protocol.
 */

#include "store/zkv.hpp"

#include <utility>

#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "obs/tracer.hpp"

namespace zc {

namespace {

/**
 * Decorates the shard's real replacement policy, forwarding every
 * notification and ranking call unchanged — the array's walk decisions
 * are bit-identical to a bare array with the same inner policy — while
 * mirroring the value payload through the same position-based protocol:
 *
 *  - onInsert installs the pending put value at the new block's slot;
 *  - onMove carries the value along a walk relocation (values travel
 *    with blocks exactly like replacement metadata, Section II);
 *  - onSwap exchanges the two values;
 *  - onEvict captures the dying block's value so put() can report the
 *    evicted key+value pair. ZArray::commit notifies onEvict before any
 *    relocation touches the victim's slot, so the capture reads the
 *    pre-walk value.
 *
 * The mirrors are relaxed std::atomic arrays, and a *key* mirror rides
 * alongside the value one, because the optimistic read path
 * (ReadPath::Optimistic, docs/store.md) scans them with no lock held:
 * the array's own tags_ are non-atomic and may be mid-relocation, so a
 * lock-free reader must never touch them. Relaxed is sufficient — the
 * per-shard ShardSeq's fences order these accesses against the version
 * word, and torn snapshots are discarded by seq validation. All
 * notifications still arrive under the shard lock, so the mirror
 * updates themselves are never concurrent with each other. The key
 * mirror is maintained entirely through the notification protocol:
 * onInsert records the incoming address, onMove/onSwap carry it with
 * relocations, and onEvict clears it (ZArray::invalidate also funnels
 * through onEvict, so erases clear it too).
 *
 * In bytes mode (ZkvValueConfig::bytesMode) a per-position owned
 * compressed payload rides alongside the u64 mirror, moved through the
 * same onMove/onSwap/onEvict protocol. Byte payloads are only ever
 * touched under the shard lock — bytes mode rejects the optimistic
 * read path at validate() — so they are plain vectors, not atomics.
 * The mirror also keeps the shard's compression accounting (resident
 * raw vs stored bytes), since it is the one place that sees every
 * payload arrive and leave.
 */
class ValueMirror final : public ReplacementPolicy
{
  public:
    ValueMirror(std::unique_ptr<ReplacementPolicy> inner,
                const ZkvValueConfig& vcfg)
        : ReplacementPolicy(inner->numBlocks()),
          inner_(std::move(inner)),
          keys_(numBlocks()),
          values_(numBlocks()),
          bytesMode_(vcfg.bytesMode())
    {
        for (std::uint32_t i = 0; i < numBlocks(); i++) {
            keys_[i].store(static_cast<std::uint64_t>(kInvalidAddr),
                           std::memory_order_relaxed);
            values_[i].store(0, std::memory_order_relaxed);
        }
        if (bytesMode_) {
            bytes_.resize(numBlocks());
            rawLens_.assign(numBlocks(), 0);
        }
    }

    void
    onInsert(BlockPos pos, const AccessContext& ctx) override
    {
        keys_[pos].store(ctx.lineAddr, std::memory_order_relaxed);
        values_[pos].store(pending_, std::memory_order_relaxed);
        if (bytesMode_) {
            dropResident(pos);
            bytes_[pos] = std::move(pendingBytes_);
            rawLens_[pos] = pendingRawLen_;
            comp_.residentRawBytes += rawLens_[pos];
            comp_.residentStoredBytes += bytes_[pos].size();
            pendingBytes_.clear();
            pendingRawLen_ = 0;
        }
        inner_->onInsert(pos, ctx);
    }

    void
    onHit(BlockPos pos, const AccessContext& ctx) override
    {
        inner_->onHit(pos, ctx);
    }

    void
    onMove(BlockPos from, BlockPos to) override
    {
        keys_[to].store(keys_[from].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
        values_[to].store(values_[from].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        if (bytesMode_) {
            bytes_[to] = std::move(bytes_[from]);
            bytes_[from].clear();
            rawLens_[to] = rawLens_[from];
            rawLens_[from] = 0;
        }
        inner_->onMove(from, to);
    }

    void
    onSwap(BlockPos a, BlockPos b) override
    {
        std::uint64_t ka = keys_[a].load(std::memory_order_relaxed);
        std::uint64_t kb = keys_[b].load(std::memory_order_relaxed);
        keys_[a].store(kb, std::memory_order_relaxed);
        keys_[b].store(ka, std::memory_order_relaxed);
        std::uint64_t va = values_[a].load(std::memory_order_relaxed);
        std::uint64_t vb = values_[b].load(std::memory_order_relaxed);
        values_[a].store(vb, std::memory_order_relaxed);
        values_[b].store(va, std::memory_order_relaxed);
        if (bytesMode_) {
            std::swap(bytes_[a], bytes_[b]);
            std::swap(rawLens_[a], rawLens_[b]);
        }
        inner_->onSwap(a, b);
    }

    void
    onEvict(BlockPos pos) override
    {
        lastEvicted_ = values_[pos].load(std::memory_order_relaxed);
        keys_[pos].store(static_cast<std::uint64_t>(kInvalidAddr),
                         std::memory_order_relaxed);
        if (bytesMode_) {
            // PutResult reports only the evicted *key* in bytes mode —
            // the payload dies compressed, never decoded.
            dropResident(pos);
            bytes_[pos].clear();
            rawLens_[pos] = 0;
        }
        inner_->onEvict(pos);
    }

    BlockPos
    select(std::span<const BlockPos> cands) override
    {
        return inner_->select(cands);
    }

    double score(BlockPos pos) const override { return inner_->score(pos); }

    std::uint64_t
    tieBreaker(BlockPos pos) const override
    {
        return inner_->tieBreaker(pos);
    }

    std::string name() const override { return inner_->name(); }

    std::uint64_t
    valueAt(BlockPos pos) const
    {
        return values_[pos].load(std::memory_order_relaxed);
    }

    /** Resident key at @p pos, kInvalidAddr if empty — the lock-free
     *  reader's tag check (safe: relaxed atomic, seq-validated). */
    std::uint64_t
    keyAt(BlockPos pos) const
    {
        return keys_[pos].load(std::memory_order_relaxed);
    }

    std::uint64_t lastEvicted() const { return lastEvicted_; }

    /**
     * Stage the next onInsert's payload: @p v, plus in bytes mode the
     * compressed payload @p comp (moved from) of @p rawLen raw bytes,
     * counted in the shard's compression accounting.
     */
    void
    setPending(std::uint64_t v, std::vector<std::uint8_t>* comp = nullptr,
               std::size_t rawLen = 0)
    {
        pending_ = v;
        if (!bytesMode_) return;
        countCompress(*comp, rawLen);
        pendingBytes_ = std::move(*comp);
        pendingRawLen_ = static_cast<std::uint32_t>(rawLen);
    }

    /** Update-in-place twin of setPending for the entry at @p pos. */
    void
    setValue(BlockPos pos, std::uint64_t v,
             std::vector<std::uint8_t>* comp = nullptr,
             std::size_t rawLen = 0)
    {
        values_[pos].store(v, std::memory_order_relaxed);
        if (!bytesMode_) return;
        countCompress(*comp, rawLen);
        dropResident(pos);
        bytes_[pos] = std::move(*comp);
        rawLens_[pos] = static_cast<std::uint32_t>(rawLen);
        comp_.residentRawBytes += rawLen;
        comp_.residentStoredBytes += bytes_[pos].size();
    }

    // ---- bytes mode (shard lock held for all of these) -------------

    const std::vector<std::uint8_t>&
    bytesAt(BlockPos pos) const
    {
        return bytes_[pos];
    }

    void noteDecompress() { comp_.decompressCalls++; }

    const ZkvCompressionStats& compressionStats() const { return comp_; }

  private:
    void
    countCompress(const std::vector<std::uint8_t>& comp, std::size_t rawLen)
    {
        comp_.compressCalls++;
        comp_.rawBytesTotal += rawLen;
        comp_.storedBytesTotal += comp.size();
    }

    void
    dropResident(BlockPos pos)
    {
        comp_.residentRawBytes -= rawLens_[pos];
        comp_.residentStoredBytes -= bytes_[pos].size();
    }

    std::unique_ptr<ReplacementPolicy> inner_;
    std::vector<std::atomic<std::uint64_t>> keys_;
    std::vector<std::atomic<std::uint64_t>> values_;
    std::uint64_t pending_ = 0;
    std::uint64_t lastEvicted_ = 0;

    const bool bytesMode_;
    std::vector<std::vector<std::uint8_t>> bytes_; ///< stored payloads
    std::vector<std::uint32_t> rawLens_; ///< pre-codec length per pos
    std::vector<std::uint8_t> pendingBytes_;
    std::uint32_t pendingRawLen_ = 0;
    ZkvCompressionStats comp_;
};

} // namespace

struct ZkvStore::Shard
{
    explicit Shard(ShardLockKind lock_kind) : lock(lock_kind) {}

    ShardLock lock;
    ShardSeq seq; ///< odd while a locked writer mutates the shard
    std::unique_ptr<CacheArray> array;
    ValueMirror* mirror = nullptr; ///< owned by array's policy chain
    ZkvShardStats stats;
    ZkvShardObs obs; ///< written only by ObsProbe (obs enabled)
    ZkvSeqCounters seqc; ///< lock-free read-path counters (relaxed)

    /**
     * RAII seqlock write section. Every mutation that can move, change
     * or remove an entry — put update, walk insert (relocations +
     * eviction + fill), erase, recovery replay — runs inside one of
     * these, always while `lock` is held. Gets don't: in Locked mode
     * readers hold the lock, and optimistic-mode gets touch no shard
     * state a reader can see (policy metadata is never read
     * lock-free).
     */
    struct WriteSection
    {
        explicit WriteSection(Shard& s) : seq(s.seq) { seq.beginWrite(); }
        ~WriteSection() { seq.endWrite(); }
        WriteSection(const WriteSection&) = delete;
        WriteSection& operator=(const WriteSection&) = delete;
        ShardSeq& seq;
    };
};

ZkvStore::ZkvStore(ZkvConfig cfg) : cfg_(cfg) {}

ZkvStore::~ZkvStore()
{
    // Join the tier's threads while the shards (which its snapshot
    // callback locks) are still alive; member order alone also
    // guarantees this, but the intent deserves to be explicit.
    if (persist_ != nullptr) {
        Status ignored = persist_->stop();
        (void)ignored;
    }
}

Expected<std::unique_ptr<ZkvStore>>
ZkvStore::create(const ZkvConfig& cfg)
{
    if (Status s = cfg.validate(); !s.isOk()) return s;

    auto store = std::unique_ptr<ZkvStore>(new ZkvStore(cfg));
    if (cfg.value.bytesMode()) store->codec_ = makeCodec(cfg.value.codec);
    store->shards_.reserve(cfg.shards);
    for (std::uint32_t i = 0; i < cfg.shards; i++) {
        if (ZC_INJECT_FAULT("store.alloc")) {
            return Status::resourceExhausted(
                "zkv: injected shard allocation failure (site store.alloc, "
                "shard " +
                std::to_string(i) + ")");
        }
        ArraySpec spec = cfg.shardSpec(i);
        // Same inner-policy construction as the one-argument makeArray,
        // so a bare makeArray(shardSpec(i)) reproduces this shard's
        // walk decisions exactly (tests/test_store.cpp relies on it).
        auto mirror = std::make_unique<ValueMirror>(
            makePolicy(spec.policy, policyBlocksFor(spec),
                       spec.seed ^ 0x9d2c),
            cfg.value);
        ValueMirror* mirror_ptr = mirror.get();
        auto shard = std::make_unique<Shard>(cfg.lock);
        shard->array = makeArray(spec, std::move(mirror));
        shard->mirror = mirror_ptr;
        if (i == 0 && cfg.readPath == ReadPath::Optimistic) {
            // The lock-free reader computes a key's candidate positions
            // itself; an array kind that cannot enumerate them (victim
            // caches, fully-associative, ...) cannot serve optimistic
            // gets. Reject up front rather than silently degrading.
            BlockPos probeBuf[kMaxLookupWays];
            if (shard->array->lookupWays(0, probeBuf, kMaxLookupWays) ==
                0) {
                return Status::invalidArgument(
                    "zkv: read path 'optimistic' requires candidate-"
                    "position enumeration (lookupWays), which array '" +
                    cfg.array.label() + "' does not support");
            }
        }
        store->shards_.push_back(std::move(shard));
    }
    if (cfg.persist.enabled()) {
        // The identity string pins the array shape + seed alongside
        // the shard count the tier's MANIFEST records: replaying logs
        // into a differently-shaped store would scatter keys.
        const std::string identity =
            cfg.array.label() + " blocks=" +
            std::to_string(cfg.array.blocks) +
            " seed=" + std::to_string(cfg.array.seed);
        auto tier_or =
            persist::PersistTier::open(cfg.persist, cfg.shards, identity);
        if (!tier_or) return tier_or.status();
        store->persist_ = std::move(*tier_or);
        ZkvStore* raw = store.get();
        store->persist_->setSnapshotSource(
            [raw](std::uint32_t shard) {
                return raw->captureShardSnapshot(shard);
            });
    }
    return store;
}

std::uint32_t
ZkvStore::shardOf(std::uint64_t key) const
{
    // splitmix64 over (key, store seed): independent of the H3 way
    // hashing inside the shard, so bank selection never correlates
    // with candidate placement.
    return static_cast<std::uint32_t>(zkvMix64(key ^ cfg_.array.seed) %
                                      cfg_.shards);
}

/*
 * ---- client ops ----------------------------------------------------
 *
 * Every get, put and erase — single or batched, u64 or bytes, traced
 * or not — runs through one kernel, applyLocked(), with the shard lock
 * held. Around it, entry points only pick the tracing policy, take the
 * lock (or try the optimistic prelude first), compress bytes-mode puts
 * before the lock and wait for durability after it.
 */

/** One client op as the kernel sees it. Owns nothing, so single u64
 *  ops build it on the stack for free. */
struct ZkvStore::ShardOp
{
    ObsOp kind = ObsOp::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0; ///< u64 put value

    /** Bytes mode only: a put's compressed payload (the kernel moves
     *  it into the shard) or the buffer a get decodes into. */
    std::vector<std::uint8_t>* bytes = nullptr;
    std::size_t rawLen = 0; ///< bytes-mode put: pre-codec length

    std::uint64_t enqueueNs = 0; ///< see StoreBatchOp::enqueueNs
};

/** What the kernel reports for one op. */
struct ZkvStore::OpResult
{
    ErrorCode code = ErrorCode::Ok;
    bool hit = false;        ///< get/erase found the key, put updated
    std::uint64_t value = 0; ///< u64 get hit
    PutResult put;
    std::uint64_t pseq = 0; ///< durability seqno to wait for; 0 = none
};

/** Tracing policy of an untraced op: every member is empty. */
struct ZkvStore::NullProbe
{
    NullProbe(std::span<ObsOpRecord>, std::uint32_t) {}
    void at(std::size_t) {}
    void preludeBegin(const ShardOp&) {}
    void preludeEnd(bool, std::uint32_t, bool) {}
    void lock(ShardLock& l) { l.lock(); }
    void opBegin(const ShardOp&) {}
    void probed() {}
    void walked(const Replacement&) {}
    void opEnd(ZkvShardObs&, const OpResult&) {}
    void publish(ObsTracer*) {}
};

/**
 * Tracing policy of an instrumented op (docs/telemetry.md): fills one
 * ObsOpRecord per op — net, lock_wait, probe and walk phases — adds
 * the phases to the shard's ZkvShardObs, and pushes the records to
 * the tracer once the shard lock is released. One lock acquisition
 * serves a whole batch: its wait is charged to the first op, and each
 * later op's phases start where the previous op ended.
 */
class ZkvStore::ObsProbe
{
  public:
    ObsProbe(std::span<ObsOpRecord> recs, std::uint32_t shard)
        : recs_(recs), cur_(recs.data()),
          shard_(static_cast<std::uint16_t>(shard))
    {
    }

    /** Select the record of the batch's @p i-th op. */
    void at(std::size_t i) { cur_ = &recs_[i]; }

    /** Lock-free optimistic attempt: one probe phase, no lock. */
    void
    preludeBegin(const ShardOp& op)
    {
        tOp_ = obsNowNs();
        start(op, tOp_);
        cur_->flags |= kObsFlagOptimistic;
    }

    /** Gets never walk, so `candidates` carries the seq retries. */
    void
    preludeEnd(bool answered, std::uint32_t retries, bool hit)
    {
        cur_->candidates = retries;
        if (!answered) {
            cur_->flags |= kObsFlagSeqFallback;
            return;
        }
        const std::uint64_t tEnd = obsNowNs();
        cur_->probeNs = obsDurNs(tOp_, tEnd);
        cur_->durNs = obsDurNs(cur_->tsBeginNs, tEnd);
        if (hit) cur_->flags |= kObsFlagHit;
    }

    void
    lock(ShardLock& l)
    {
        tBatch_ = obsNowNs();
        acq_ = l.lockInstrumented();
        // Timestamp the acquire only when it contended: an uncontended
        // lock costs ~15 ns, below the clock's own resolution, and
        // skipping the read saves one of the 3-4 timestamps per op
        // (docs/telemetry.md overhead table). The acquire cost folds
        // into the first op's probe phase in that case.
        tLocked_ = acq_.contended ? obsNowNs() : tBatch_;
        cursor_ = tLocked_;
        first_ = true;
    }

    void
    opBegin(const ShardOp& op)
    {
        // A get that fell back from the prelude keeps its begin stamp.
        if (!(cur_->flags & kObsFlagSeqFallback)) {
            start(op, first_ ? tBatch_ : cursor_);
        }
        if (first_ && acq_.contended) {
            cur_->lockWaitNs = obsDurNs(tBatch_, tLocked_);
        }
        tOp_ = cursor_;
        tWalkEnd_ = 0;
    }

    /** A put's probe is done and its insert walk begins. */
    void
    probed()
    {
        tProbed_ = obsNowNs();
        cur_->probeNs = obsDurNs(tOp_, tProbed_);
    }

    void
    walked(const Replacement& r)
    {
        tWalkEnd_ = obsNowNs();
        cur_->walkNs = obsDurNs(tProbed_, tWalkEnd_);
        cur_->candidates = r.candidates;
        cur_->relocations = r.relocations;
    }

    void
    opEnd(ZkvShardObs& obs, const OpResult& res)
    {
        ObsOpRecord& r = *cur_;
        std::uint64_t tEnd = tWalkEnd_;
        if (tEnd == 0) {
            // No walk: the whole locked section is the probe phase.
            tEnd = obsNowNs();
            r.probeNs = obsDurNs(tOp_, tEnd);
        }
        r.durNs = obsDurNs(r.tsBeginNs, tEnd);
        if (res.hit) r.flags |= kObsFlagHit;
        if (res.put.inserted) r.flags |= kObsFlagInserted;
        if (res.put.evicted) r.flags |= kObsFlagEvicted;
        if (res.code != ErrorCode::Ok) r.flags |= kObsFlagError;
        cursor_ = tEnd;
        if (first_) {
            obs.lockAcquisitions++;
            obs.lockContended += acq_.contended ? 1 : 0;
            obs.lockSpinIters += acq_.spins;
            first_ = false;
        }
        obs.lockWaitNs += r.lockWaitNs;
        obs.netNs += r.netNs;
        obs.probeNs += r.probeNs;
        obs.walkNs += r.walkNs;
        obs.opNs += r.durNs;
    }

    void
    publish(ObsTracer* tracer)
    {
        if (tracer == nullptr) return;
        ObsThreadChannel* ch = tracer->channel();
        for (const ObsOpRecord& r : recs_) ch->record(r);
    }

  private:
    /** The span starts when the request finished frame decode (when
     *  known): queueing up to @p tDispatch is the `net` phase. */
    void
    start(const ShardOp& op, std::uint64_t tDispatch)
    {
        ObsOpRecord& r = *cur_;
        r.op = op.kind;
        r.key = op.key;
        r.shard = shard_;
        r.tsBeginNs = op.enqueueNs != 0 && op.enqueueNs < tDispatch
                          ? op.enqueueNs
                          : tDispatch;
        r.netNs = obsDurNs(r.tsBeginNs, tDispatch);
    }

    std::span<ObsOpRecord> recs_;
    ObsOpRecord* cur_;
    std::uint16_t shard_;
    ShardLock::Acquire acq_{};
    bool first_ = true;
    std::uint64_t tBatch_ = 0;
    std::uint64_t tLocked_ = 0;
    std::uint64_t cursor_ = 0;
    std::uint64_t tOp_ = 0;
    std::uint64_t tProbed_ = 0;
    std::uint64_t tWalkEnd_ = 0;
};

template <class Probe>
void
ZkvStore::applyLocked(Shard& sh, std::uint32_t shard, const ShardOp& op,
                      OpResult& out, Probe& probe)
{
    probe.opBegin(op);
    AccessContext ctx{op.key, kNoNextUse};
    switch (op.kind) {
      case ObsOp::Get: {
        sh.stats.gets++;
        // The reserved key is the empty-slot tag: never resident, and
        // never handed to the array, where it would match an empty slot.
        if (op.key == kReservedKey) break;
        // Optimistic-mode gets never promote, whichever path answers.
        BlockPos pos = cfg_.readPath == ReadPath::Optimistic
                           ? sh.array->probe(op.key)
                           : sh.array->access(op.key, ctx);
        if (pos == kInvalidPos) break;
        sh.stats.getHits++;
        if (op.bytes == nullptr) {
            out.hit = true;
            out.value = sh.mirror->valueAt(pos);
            break;
        }
        const std::vector<std::uint8_t>& stored = sh.mirror->bytesAt(pos);
        std::vector<std::uint8_t>& dst = *op.bytes;
        dst.resize(cfg_.value.maxBytes);
        sh.mirror->noteDecompress();
        auto len_or = codec_->decompress(stored.data(), stored.size(),
                                         dst.data(), dst.size());
        if (!len_or) {
            // Corrupt stream (or the compress.codec fault site): a
            // structured failure, never torn bytes.
            dst.clear();
            out.code = ErrorCode::Corruption;
            break;
        }
        dst.resize(*len_or);
        out.hit = true;
        break;
      }
      case ObsOp::Put: {
        if (op.key == kReservedKey || op.rawLen > cfg_.value.maxBytes) {
            out.code = ErrorCode::InvalidArgument;
            break;
        }
        sh.stats.puts++;
        BlockPos pos = sh.array->access(op.key, ctx);
        if (pos != kInvalidPos) {
            {
                Shard::WriteSection ws(sh);
                sh.mirror->setValue(pos, op.value, op.bytes, op.rawLen);
            }
            sh.stats.putUpdates++;
            out.hit = true;
        } else {
            if (ZC_INJECT_FAULT("store.walk")) {
                out.code = ErrorCode::ResourceExhausted;
                break;
            }
            sh.mirror->setPending(op.value, op.bytes, op.rawLen);
            probe.probed();
            Replacement r = [&] {
                Shard::WriteSection ws(sh);
                return sh.array->insert(op.key, ctx);
            }();
            probe.walked(r);
            PutResult& res = out.put;
            res.inserted = true;
            res.candidates = r.candidates;
            res.relocations = r.relocations;
            sh.stats.putInserts++;
            sh.stats.walkCandidates += r.candidates;
            sh.stats.relocations += r.relocations;
            if (r.evictedValid()) {
                // In bytes mode the victim's payload dies compressed and
                // evictedValue stays 0.
                res.evicted = true;
                res.evictedKey = r.evictedAddr;
                res.evictedValue = sh.mirror->lastEvicted();
                sh.stats.evictions++;
            }
        }
        if (persist_ != nullptr) {
            // Evict-then-put is the apply order: replaying the two
            // records leaves exactly this shard state.
            if (out.put.evicted) persist_->logEvict(shard, out.put.evictedKey);
            out.pseq = persist_->logPut(shard, op.key, op.value);
        }
        break;
      }
      case ObsOp::Erase: {
        sh.stats.erases++;
        if (op.key == kReservedKey) break;
        {
            Shard::WriteSection ws(sh);
            out.hit = sh.array->invalidate(op.key);
        }
        if (!out.hit) break;
        sh.stats.eraseHits++;
        if (persist_ != nullptr) out.pseq = persist_->logErase(shard, op.key);
        break;
      }
    }
    probe.opEnd(sh.obs, out);
}

/*
 * ---- optimistic read path (ReadPath::Optimistic, docs/store.md) ----
 *
 * The reader computes the key's W candidate positions itself
 * (CacheArray::lookupWays is a pure function of the key and the hash
 * matrices — a resident block is always in one of them, Section III-A)
 * and scans the ValueMirror's relaxed atomic key/value mirrors between
 * a ShardSeq readBegin/readValidate pair. Any overlap with a writer's
 * odd window discards the snapshot and retries; after
 * kSeqGetMaxRetries the get is answered by the kernel under the shard
 * lock, with probe() rather than access(): an optimistic-mode shard's
 * eviction order is a pure function of its put/erase sequence,
 * whichever path answers a get.
 */

template <class Probe>
bool
ZkvStore::tryOptimisticGet(Shard& sh, const ShardOp& op, OpResult& out,
                           Probe& probe)
{
    probe.preludeBegin(op);
    std::uint32_t retries = 0;
    // The reserved key is the empty-slot tag: a miss without a scan.
    bool answered = op.key == kReservedKey;
    BlockPos pos[kMaxLookupWays];
    const std::uint32_t ways =
        answered ? 0 : sh.array->lookupWays(op.key, pos, kMaxLookupWays);
    while (!answered && retries <= kSeqGetMaxRetries) {
        // An odd seq means a writer is mid-section: probing now could
        // only be wasted work, so count the retry and re-snapshot.
        const std::uint64_t begin = sh.seq.readBegin();
        std::uint32_t w = begin & 1 ? ways : 0;
        while (w < ways && sh.mirror->keyAt(pos[w]) != op.key) w++;
        const bool hit = w < ways;
        const std::uint64_t value = hit ? sh.mirror->valueAt(pos[w]) : 0;
        if (!(begin & 1) && sh.seq.readValidate(begin)) {
            out.hit = hit;
            out.value = value;
            answered = true;
        } else {
            retries++;
        }
    }
    if (retries != 0) {
        sh.seqc.retried.fetch_add(retries, std::memory_order_relaxed);
    }
    if (answered) {
        sh.seqc.gets.fetch_add(1, std::memory_order_relaxed);
        sh.seqc.optimistic.fetch_add(1, std::memory_order_relaxed);
        if (out.hit) sh.seqc.getHits.fetch_add(1, std::memory_order_relaxed);
    } else {
        sh.seqc.fallback.fetch_add(1, std::memory_order_relaxed);
    }
    probe.preludeEnd(answered, retries, out.hit);
    return answered;
}

template <class Probe>
Status
ZkvStore::runOne(const ShardOp& op, OpResult& out)
{
    const std::uint32_t shard = shardOf(op.key);
    Shard& sh = *shards_[shard];
    ObsOpRecord rec; // NullProbe ignores it; dead code when untraced
    Probe probe(std::span<ObsOpRecord>(&rec, 1), shard);
    if (op.kind == ObsOp::Get && cfg_.readPath == ReadPath::Optimistic &&
        tryOptimisticGet(sh, op, out, probe)) {
        probe.publish(tracer_);
        return Status::ok();
    }
    probe.lock(sh.lock);
    {
        std::lock_guard<ShardLock> g(sh.lock, std::adopt_lock);
        applyLocked(sh, shard, op, out, probe);
    }
    probe.publish(tracer_);
    // Group-commit wait happens after the lock is released so the
    // shard stays available to other threads during the fsync.
    if (out.pseq == 0) return Status::ok();
    return persist_->waitDurable(shard, out.pseq);
}

Status
ZkvStore::opError(const ShardOp& op, ErrorCode code) const
{
    const std::string key = "zkv: key " + std::to_string(op.key);
    if (code == ErrorCode::ResourceExhausted) {
        return Status(code, "zkv: injected relocation-walk failure (site "
                            "store.walk, shard " +
                                std::to_string(shardOf(op.key)) + ")");
    }
    if (code != ErrorCode::InvalidArgument) {
        return Status(code, key + ": stored payload failed to decode");
    }
    if (op.key == kReservedKey) {
        return Status(code,
                      key + " is reserved (array invalid-address sentinel)");
    }
    return Status(code, "zkv: value length " + std::to_string(op.rawLen) +
                            " exceeds value.maxBytes (" +
                            std::to_string(cfg_.value.maxBytes) + ")");
}

std::optional<std::uint64_t>
ZkvStore::get(std::uint64_t key)
{
    zc_assert(!bytesMode()); // bytes-mode callers use getBytes()
    const ShardOp op{ObsOp::Get, key};
    OpResult res;
    (void)(obsEnabled_ ? runOne<ObsProbe>(op, res)
                       : runOne<NullProbe>(op, res)); // gets never log
    if (!res.hit) return std::nullopt;
    return res.value;
}

Expected<PutResult>
ZkvStore::put(std::uint64_t key, std::uint64_t value)
{
    if (bytesMode()) {
        return Status::invalidArgument(
            "zkv: put(u64) on a bytes-mode store (use putBytes)");
    }
    const ShardOp op{ObsOp::Put, key, value};
    OpResult res;
    Status s = obsEnabled_ ? runOne<ObsProbe>(op, res)
                           : runOne<NullProbe>(op, res);
    if (res.code != ErrorCode::Ok) return opError(op, res.code);
    if (!s.isOk()) return s;
    return res.put;
}

bool
ZkvStore::erase(std::uint64_t key)
{
    const ShardOp op{ObsOp::Erase, key};
    OpResult res;
    // The bool API is kept: a durability failure here is sticky and
    // surfaces through the tier's counters and stopPersist().
    (void)(obsEnabled_ ? runOne<ObsProbe>(op, res)
                       : runOne<NullProbe>(op, res));
    return res.hit;
}

// ---- byte-payload values (docs/compression.md) ---------------------

void
ZkvStore::compressPut(std::uint64_t key, std::span<const std::uint8_t> value,
                      std::vector<std::uint8_t>& comp) const
{
    // Codecs are stateless and payloads are <= kZkvMaxValueBytes, so
    // compression runs outside the shard lock; the lock covers only
    // the array mutation, like the u64 paths.
    if (key == kReservedKey || value.size() > cfg_.value.maxBytes) return;
    comp.resize(codec_->maxCompressedSize(value.size()));
    auto n_or = codec_->compress(value.data(), value.size(), comp.data(),
                                 comp.size());
    zc_assert(n_or.hasValue()); // comp is maxCompressedSize-sized
    comp.resize(*n_or);
}

Expected<PutResult>
ZkvStore::putBytes(std::uint64_t key, std::span<const std::uint8_t> value)
{
    if (!bytesMode()) {
        return Status::invalidArgument(
            "zkv: putBytes on a fixed-u64 store (set value.maxBytes)");
    }
    std::vector<std::uint8_t> comp;
    compressPut(key, value, comp);
    const ShardOp op{ObsOp::Put, key, 0, &comp, value.size()};
    OpResult res;
    // Bytes mode has no durability tier: no wait can fail.
    (void)(obsEnabled_ ? runOne<ObsProbe>(op, res)
                       : runOne<NullProbe>(op, res));
    if (res.code != ErrorCode::Ok) return opError(op, res.code);
    return res.put;
}

Expected<std::optional<std::vector<std::uint8_t>>>
ZkvStore::getBytes(std::uint64_t key)
{
    if (!bytesMode()) {
        return Status::invalidArgument(
            "zkv: getBytes on a fixed-u64 store (set value.maxBytes)");
    }
    std::vector<std::uint8_t> value;
    const ShardOp op{ObsOp::Get, key, 0, &value};
    OpResult res;
    (void)(obsEnabled_ ? runOne<ObsProbe>(op, res)
                       : runOne<NullProbe>(op, res));
    if (res.code != ErrorCode::Ok) return opError(op, res.code);
    if (!res.hit) return std::optional<std::vector<std::uint8_t>>{};
    return std::optional<std::vector<std::uint8_t>>(std::move(value));
}

ZkvCompressionStats
ZkvStore::compressionTotals() const
{
    ZkvCompressionStats t;
    for (const auto& sh : shards_) {
        std::lock_guard<ShardLock> g(sh->lock);
        t.add(sh->mirror->compressionStats());
    }
    return t;
}

// ---- batches -------------------------------------------------------

void
ZkvStore::runShardBatch(std::uint32_t shard,
                        std::span<const StoreBatchOp> ops,
                        StoreBatchResult* out)
{
    if (ops.empty()) return;
    zc_assert(shard < shards_.size());
    if (!obsEnabled_) return runBatch<NullProbe>(shard, ops, out, {});
    std::vector<ObsOpRecord> recs(ops.size());
    runBatch<ObsProbe>(shard, ops, out, recs);
}

template <class Probe>
void
ZkvStore::runBatch(std::uint32_t shard, std::span<const StoreBatchOp> ops,
                   StoreBatchResult* out, std::span<ObsOpRecord> recs)
{
    Shard& sh = *shards_[shard];
    Probe probe(recs, shard);
    const bool bytes = bytesMode();

    // Before the lock: a put's compressed payload is staged in its own
    // result slot, which the kernel empties again.
    bool allGets = true;
    for (std::size_t i = 0; i < ops.size(); i++) {
        out[i] = StoreBatchResult{};
        if (ops[i].kind == ObsOp::Get) continue;
        allGets = false;
        if (bytes && ops[i].kind == ObsOp::Put) {
            compressPut(ops[i].key, ops[i].valueBytes, out[i].valueBytes);
        }
    }
    const auto shardOp = [&](std::size_t i) {
        const StoreBatchOp& op = ops[i];
        return ShardOp{op.kind, op.key, op.value,
                       bytes ? &out[i].valueBytes : nullptr,
                       bytes ? op.valueBytes.size() : 0, op.enqueueNs};
    };
    const auto report = [&](std::size_t i, const OpResult& r) {
        StoreBatchResult& res = out[i];
        res.code = r.code;
        res.hit = r.hit;
        res.value = r.value;
        res.inserted = r.put.inserted;
        res.evicted = r.put.evicted;
        res.evictedKey = r.put.evictedKey;
        res.evictedValue = r.put.evictedValue;
        res.candidates = r.put.candidates;
        res.relocations = r.put.relocations;
        if (ops[i].kind == ObsOp::Put) res.valueBytes.clear();
    };

    // Only a pure-get batch may go lock-free: a put between two gets
    // must stay ordered with them, so mixed batches run under the lock.
    // The all-gets pass leaves the (rare) fallbacks for one shared lock.
    const bool lockFree = allGets && cfg_.readPath == ReadPath::Optimistic;
    std::vector<std::size_t> fell;
    if (lockFree) {
        for (std::size_t i = 0; i < ops.size(); i++) {
            probe.at(i);
            OpResult r;
            if (tryOptimisticGet(sh, shardOp(i), r, probe)) {
                report(i, r);
            } else {
                fell.push_back(i);
            }
        }
        if (fell.empty()) {
            probe.publish(tracer_);
            return;
        }
    }

    // One wait on the batch's highest seqno covers every mutation it
    // logged (seqnos are assigned in queue order under the lock).
    std::uint64_t persistSeq = 0;
    probe.lock(sh.lock);
    {
        std::lock_guard<ShardLock> g(sh.lock, std::adopt_lock);
        const std::size_t n = lockFree ? fell.size() : ops.size();
        for (std::size_t k = 0; k < n; k++) {
            const std::size_t i = lockFree ? fell[k] : k;
            probe.at(i);
            OpResult r;
            applyLocked(sh, shard, shardOp(i), r, probe);
            if (r.pseq != 0) persistSeq = r.pseq;
            report(i, r);
        }
    }
    probe.publish(tracer_);
    if (persistSeq == 0) return;
    if (Status s = persist_->waitDurable(shard, persistSeq); !s.isOk()) {
        // The state changed but never became durable: fail every op
        // this batch logged (successful puts, erases that hit) rather
        // than ack writes a crash would lose.
        for (std::size_t i = 0; i < ops.size(); i++) {
            const bool logged =
                out[i].code == ErrorCode::Ok &&
                (ops[i].kind == ObsOp::Put ||
                 (ops[i].kind == ObsOp::Erase && out[i].hit));
            if (logged) out[i].code = ErrorCode::IoError;
        }
    }
}

ZkvShardObs
ZkvStore::shardObs(std::uint32_t shard) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.lock);
    ZkvShardObs o = sh.obs;
    // Fold the lock-free read-path counters into the snapshot; the
    // plain fields in sh.obs stay zero (no writer without the lock).
    o.getOptimistic +=
        sh.seqc.optimistic.load(std::memory_order_relaxed);
    o.getRetried += sh.seqc.retried.load(std::memory_order_relaxed);
    o.getFallback += sh.seqc.fallback.load(std::memory_order_relaxed);
    return o;
}

ZkvShardObs
ZkvStore::obsTotals() const
{
    ZkvShardObs t;
    for (std::uint32_t i = 0; i < shards_.size(); i++) t.add(shardObs(i));
    return t;
}

// ---- durability tier -----------------------------------------------

Expected<persist::RecoveryReport>
ZkvStore::recover()
{
    if (persist_ == nullptr) {
        return Status::invalidArgument(
            "zkv: recover() needs persistence configured (set a data "
            "directory)");
    }
    // Replay applies state without counting stats or re-logging (the
    // tier is not active yet). A replayed insert may itself evict
    // (capacity): misses after recovery are acceptable, resurrections
    // are not. The reserved key never reaches the array.
    persist::ReplayTarget target;
    target.applyPut = [this](std::uint32_t shard, std::uint64_t key,
                             std::uint64_t value) {
        if (key == kReservedKey) return;
        Shard& sh = *shards_[shard];
        std::lock_guard<ShardLock> g(sh.lock);
        AccessContext ctx{key, kNoNextUse};
        BlockPos pos = sh.array->access(key, ctx);
        Shard::WriteSection ws(sh);
        if (pos != kInvalidPos) {
            sh.mirror->setValue(pos, value);
        } else {
            sh.mirror->setPending(value);
            (void)sh.array->insert(key, ctx);
        }
    };
    target.applyErase = [this](std::uint32_t shard, std::uint64_t key) {
        if (key == kReservedKey) return;
        Shard& sh = *shards_[shard];
        std::lock_guard<ShardLock> g(sh.lock);
        Shard::WriteSection ws(sh);
        (void)sh.array->invalidate(key);
    };
    auto report_or = persist_->recover(target);
    if (!report_or) return report_or.status();
    if (Status s = persist_->start(); !s.isOk()) return s;
    return report_or;
}

Status
ZkvStore::stopPersist()
{
    if (persist_ == nullptr) return Status::ok();
    return persist_->stop();
}

void
ZkvStore::forEachInShard(
    std::uint32_t shard,
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.lock);
    sh.array->forEachValid([&](BlockPos pos, Addr addr) {
        fn(addr, sh.mirror->valueAt(pos));
    });
}

persist::SnapshotData
ZkvStore::captureShardSnapshot(std::uint32_t shard) const
{
    zc_assert(persist_ != nullptr);
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.lock);
    persist::SnapshotData snap;
    // Watermark and enumeration under the same lock acquisition: the
    // image is exactly the state after every op with seqno <= it.
    snap.watermark = persist_->lastSeqno(shard);
    snap.entries.reserve(sh.array->validCount());
    sh.array->forEachValid([&](BlockPos pos, Addr addr) {
        snap.entries.emplace_back(addr, sh.mirror->valueAt(pos));
    });
    return snap;
}

std::uint64_t
ZkvStore::size() const
{
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<ShardLock> g(sh->lock);
        n += sh->array->validCount();
    }
    return n;
}

ZkvShardStats
ZkvStore::shardStats(std::uint32_t shard) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.lock);
    ZkvShardStats s = sh.stats;
    // Lock-free gets count themselves in the shard's atomic seq
    // counters; fold them in so gets/get_hits stay whole-shard truths.
    s.gets += sh.seqc.gets.load(std::memory_order_relaxed);
    s.getHits += sh.seqc.getHits.load(std::memory_order_relaxed);
    return s;
}

ZkvShardStats
ZkvStore::totals() const
{
    ZkvShardStats t;
    for (std::uint32_t i = 0; i < shards_.size(); i++) t.add(shardStats(i));
    return t;
}

namespace {

/** One counter of a stats struct: its stat name, description, field. */
template <class Stats>
struct CounterField
{
    const char* name;
    const char* desc;
    std::uint64_t Stats::*field;
};

constexpr CounterField<ZkvShardStats> kOpCounters[] = {
    {"gets", "get operations", &ZkvShardStats::gets},
    {"get_hits", "gets that found the key", &ZkvShardStats::getHits},
    {"puts", "put operations", &ZkvShardStats::puts},
    {"put_inserts", "puts that installed a new key",
     &ZkvShardStats::putInserts},
    {"put_updates", "puts that updated in place", &ZkvShardStats::putUpdates},
    {"erases", "erase operations", &ZkvShardStats::erases},
    {"erase_hits", "erases that removed a key", &ZkvShardStats::eraseHits},
    {"evictions", "resident keys displaced by inserts",
     &ZkvShardStats::evictions},
    {"walk_candidates", "replacement candidates examined",
     &ZkvShardStats::walkCandidates},
    {"relocations", "walk relocations performed",
     &ZkvShardStats::relocations},
};

constexpr CounterField<ZkvShardObs> kObsCounters[] = {
    {"get_optimistic", "gets answered without the lock",
     &ZkvShardObs::getOptimistic},
    {"get_retried", "seqlock validation retries", &ZkvShardObs::getRetried},
    {"get_fallback", "optimistic gets that took the lock",
     &ZkvShardObs::getFallback},
    {"lock_acquisitions", "instrumented shard-lock takes",
     &ZkvShardObs::lockAcquisitions},
    {"lock_contended", "lock takes that had to wait",
     &ZkvShardObs::lockContended},
    {"lock_spin_iters", "TTAS relaxed-test spin iterations",
     &ZkvShardObs::lockSpinIters},
    {"lock_wait_ns", "summed lock-acquisition wait", &ZkvShardObs::lockWaitNs},
    {"net_ns", "summed decode->dispatch queue time (server)",
     &ZkvShardObs::netNs},
    {"probe_ns", "summed hash+tag probe time", &ZkvShardObs::probeNs},
    {"walk_ns", "summed relocation-walk time", &ZkvShardObs::walkNs},
    {"op_ns", "summed whole-op time", &ZkvShardObs::opNs},
};

constexpr CounterField<ZkvCompressionStats> kCompressionCounters[] = {
    {"compress_calls", "payloads compressed (puts)",
     &ZkvCompressionStats::compressCalls},
    {"decompress_calls", "payloads decoded (get hits)",
     &ZkvCompressionStats::decompressCalls},
    {"raw_bytes_total", "pre-codec bytes, all puts",
     &ZkvCompressionStats::rawBytesTotal},
    {"stored_bytes_total", "post-codec bytes, all puts",
     &ZkvCompressionStats::storedBytesTotal},
    {"resident_raw_bytes", "live entries, pre-codec",
     &ZkvCompressionStats::residentRawBytes},
    {"resident_stored_bytes", "live entries, as stored",
     &ZkvCompressionStats::residentStoredBytes},
};

/** Register every field of @p fields under @p g, each read at dump
 *  time from a fresh @p snapshot (one locked sweep per counter keeps
 *  the getters trivially consistent with each other). */
template <class Stats, std::size_t N, class Snapshot>
void
addCounters(StatGroup& g, const CounterField<Stats> (&fields)[N],
            Snapshot snapshot)
{
    for (const CounterField<Stats>& f : fields) {
        g.addCounter(f.name, f.desc, [snapshot, m = f.field] {
            return snapshot().*m;
        });
    }
}

} // namespace

void
ZkvStore::registerStats(StatGroup& g)
{
    StatGroup& root = g.group("store", "zkv sharded key-value store");
    root.addConst("shards", "shard (bank) count",
                  JsonValue(std::uint64_t{cfg_.shards}));
    root.addConst("array", "per-shard array configuration",
                  JsonValue(cfg_.array.label()));
    root.addConst("lock", "shard lock kind",
                  JsonValue(std::string(shardLockKindName(cfg_.lock))));
    root.addConst("read_path", "get-path mode (docs/store.md)",
                  JsonValue(std::string(readPathName(cfg_.readPath))));
    root.addCounter("resident_keys", "valid keys across all shards",
                    [this] { return size(); });

    addCounters(root.group("totals", "summed over all shards"), kOpCounters,
                [this] { return totals(); });

    // Latency attribution + lock contention (docs/telemetry.md). All
    // zeros while obs is disabled (the default), so the default stats
    // dump stays deterministic; with obs enabled the *_ns values are
    // wall-clock and belong in the nondeterministic class.
    addCounters(root.group("obs", "latency attribution and lock "
                                  "contention (traced paths)"),
                kObsCounters, [this] { return obsTotals(); });

    // Compressed-payload counters exist only in bytes mode, so the
    // default (fixed-u64) stats dump stays byte-identical.
    if (cfg_.value.bytesMode()) {
        StatGroup& comp = root.group(
            "compression", "compressed byte payloads (docs/compression.md)");
        comp.addConst("codec", "value codec",
                      JsonValue(std::string(
                          codecKindName(cfg_.value.codec))));
        comp.addConst("max_value_bytes", "value length cap",
                      JsonValue(std::uint64_t{cfg_.value.maxBytes}));
        addCounters(comp, kCompressionCounters,
                    [this] { return compressionTotals(); });
        comp.addScalar("ratio", "raw/stored bytes over all puts",
                       [this] { return compressionTotals().ratio(); });
    }

    // Durability tier counters exist only when persistence is on, so
    // the default (in-memory) stats dump stays byte-identical.
    if (persist_ != nullptr) {
        persist_->registerStats(
            root.group("persist", "durability tier (docs/durability.md)"));
    }

    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        StatGroup& sh = root.group("shard" + std::to_string(i));
        addCounters(sh, kOpCounters, [this, i] { return shardStats(i); });
        addCounters(sh.group("obs"), kObsCounters,
                    [this, i] { return shardObs(i); });
        shards_[i]->array->registerStats(sh.group("array"));
    }
}

} // namespace zc
