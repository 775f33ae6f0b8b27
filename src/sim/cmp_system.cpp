#include "sim/cmp_system.hpp"

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/watchdog.hpp"

namespace zc {

namespace {

/** Bank spec of @p cfg's L2 (seed aside). */
ArraySpec
bankSpec(const SystemConfig& cfg)
{
    ArraySpec spec = cfg.l2Spec;
    spec.blocks = cfg.l2BankLines();
    return spec;
}

} // namespace

CmpSystem::CmpSystem(const SystemConfig& cfg)
    : cfg_(cfg),
      // Inclusion bounds the directory by the lines the banks can hold.
      directory_(std::size_t{policyBlocksFor(bankSpec(cfg))} * cfg.l2Banks),
      rng_(cfg.seed, /*stream=*/0x14057b7ef767814fULL)
{
    zc_assert(cfg.numCores >= 1 && cfg.numCores <= 64);
    zc_assert(isPow2(cfg.l2Banks));
    bankShift_ = log2Floor(cfg.l2Banks);

    // L2 bank cost model: the organization under test determines the
    // bank hit latency the cores observe (the Fig. 4/5 mechanism).
    BankGeometry geom;
    geom.capacityBytes = cfg.l2SizeBytes / cfg.l2Banks;
    geom.lineBytes = cfg.lineBytes;
    geom.ways = cfg.l2Spec.ways;
    geom.serialLookup = cfg.l2SerialLookup;
    geom.frequencyGhz = cfg.frequencyGhz;
    bankCosts_ = CactiLite::model(geom);
    bankLatency_ = bankCosts_.hitLatencyCycles;

    // Build the banks.
    ArraySpec spec = bankSpec(cfg);
    for (std::uint32_t b = 0; b < cfg.l2Banks; b++) {
        spec.seed = cfg.seed + 0x100 * (b + 1);
        banks_.push_back(makeArray(spec));
        if (auto* z = dynamic_cast<ZArray*>(banks_.back().get())) {
            zbanks_.push_back(z);
        }
    }

    if (cfg.walkThrottle) {
        nominalCandidates_ = cfg.l2Spec.kind == ArrayKind::ZCache
                                 ? ZArray::nominalCandidates(
                                       cfg.l2Spec.ways, cfg.l2Spec.levels)
                                 : 0;
        bankTokens_.assign(cfg.l2Banks, cfg.walkTokenWindow);
        bankTokenStamp_.assign(cfg.l2Banks, 0);
    }

    // Cores and L1s.
    stats_.cores.resize(cfg.numCores);
    coreState_.resize(cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; c++) {
        l1d_.emplace_back(cfg.l1SizeBytes, cfg.l1Ways, cfg.lineBytes);
        l1i_.emplace_back(cfg.l1SizeBytes, cfg.l1Ways, cfg.lineBytes);
        coreState_[c].codeBase =
            (Addr{1} << 52) + (Addr{c} << 24); // private code region
    }
}

void
CmpSystem::setGenerators(std::vector<GeneratorPtr> gens)
{
    zc_assert(gens.size() == cfg_.numCores);
    for (std::uint32_t c = 0; c < cfg_.numCores; c++) {
        coreState_[c].gen = std::move(gens[c]);
    }
}

std::uint32_t
CmpSystem::bankOf(Addr lineAddr) const
{
    return static_cast<std::uint32_t>(lineAddr & (cfg_.l2Banks - 1));
}

Addr
CmpSystem::bankLocal(Addr lineAddr) const
{
    return lineAddr >> bankShift_;
}

Addr
CmpSystem::bankGlobal(Addr local, std::uint32_t bank) const
{
    return (local << bankShift_) | bank;
}

void
CmpSystem::invalidateSharers(DirEntry& e, std::uint32_t except,
                             Addr lineAddr)
{
    std::uint64_t sharers = e.sharers;
    while (sharers != 0) {
        auto c = static_cast<std::uint32_t>(std::countr_zero(sharers));
        sharers &= sharers - 1;
        if (c == except) continue;
        auto r = l1d_[c].invalidate(lineAddr);
        if (!r.present) l1i_[c].invalidate(lineAddr);
        if (r.dirty) e.setL2Dirty(true);
        stats_.invalidations++;
    }
    e.sharers &= (except < 64) ? (std::uint64_t{1} << except) : 0;
    e.setExclusive(false);
}

void
CmpSystem::handleL2Eviction(Addr lineAddr)
{
    stats_.l2Evictions++;
    DirEntry* e = directory_.find(lineAddr);
    if (e == nullptr) return;
    // Inclusive L2: back-invalidate every L1 copy; fold dirty data.
    invalidateSharers(*e, /*except=*/~0u, lineAddr);
    if (e->l2Dirty()) {
        stats_.l2Writebacks++;
        stats_.dramAccesses++;
    }
    directory_.erase(*e);
}

void
CmpSystem::handleL1Victim(std::uint32_t core, const L1Cache::Victim& v)
{
    if (!v.valid()) return;
    DirEntry* e = directory_.find(v.addr);
    if (e == nullptr) {
        // The line was already evicted from the inclusive L2 (and this
        // L1 copy back-invalidated); a victim entry can still surface if
        // the back-invalidation raced the eviction in a real machine.
        // In this model it means the line is simply gone.
        return;
    }
    e->sharers &= ~(std::uint64_t{1} << core);
    if (v.dirty) {
        e->setL2Dirty(true);
        stats_.l1Writebacks++;
    }
}

std::uint32_t
CmpSystem::l2Access(std::uint32_t core, Addr lineAddr, bool store,
                    std::uint64_t next_use, bool& fill_exclusive)
{
    std::uint32_t bank = bankOf(lineAddr);
    Addr local = bankLocal(lineAddr);
    std::uint32_t lat = cfg_.l1ToL2Cycles + bankLatency_;
    stats_.l2Accesses++;

    AccessContext ctx;
    ctx.lineAddr = local;
    ctx.nextUse = next_use;

    BlockPos pos = banks_[bank]->access(local, ctx);
    if (pos != kInvalidPos) {
        stats_.l2Hits++;
    } else {
        stats_.l2Misses++;
        stats_.dramAccesses++;
        lat += cfg_.memLatencyCycles;
        // The replacement walk runs off the critical path while DRAM
        // serves the fill (Section III): no latency is added here —
        // but under walk throttling it may only expand as far as the
        // bank's spare tag bandwidth allows.
        auto* z = cfg_.walkThrottle && nominalCandidates_ > 0
                      ? dynamic_cast<ZArray*>(banks_[bank].get())
                      : nullptr;
        if (z != nullptr) {
            // Refill the bank's token bucket with its idle cycles (one
            // tag operation per cycle; each operation reads one index
            // in every way, i.e. W candidates). Cores advance on
            // slightly different clocks; the bucket uses a monotonic
            // global proxy so refills never stall behind a slow core.
            globalNow_ = std::max(globalNow_, stats_.cores[core].cycles);
            Cycle now = globalNow_;
            if (now > bankTokenStamp_[bank]) {
                bankTokens_[bank] = std::min<double>(
                    cfg_.walkTokenWindow,
                    bankTokens_[bank] +
                        static_cast<double>(now - bankTokenStamp_[bank]));
                bankTokenStamp_[bank] = now;
            }
            std::uint32_t ways = cfg_.l2Spec.ways;
            auto allowed = static_cast<std::uint32_t>(
                bankTokens_[bank] * ways);
            std::uint32_t cap =
                std::max(ways, std::min(nominalCandidates_, allowed));
            if (cap < nominalCandidates_) stats_.throttledWalks++;
            z->setMaxCandidates(cap);
        }
        Replacement r = banks_[bank]->insert(local, ctx);
        if (z != nullptr) {
            bankTokens_[bank] = std::max(
                0.0, bankTokens_[bank] -
                         static_cast<double>(r.candidates) /
                             cfg_.l2Spec.ways);
        }
        if (r.evictedValid()) {
            handleL2Eviction(bankGlobal(r.evictedAddr, bank));
        }
    }

    DirEntry& e = directory_.findOrInsert(lineAddr);
    if (store) {
        if (!e.sharers ||
            e.sharers != (std::uint64_t{1} << core)) {
            invalidateSharers(e, core, lineAddr);
        }
        e.sharers = std::uint64_t{1} << core;
        e.setExclusive(true);
        e.setL2Dirty(true);
        fill_exclusive = true;
    } else {
        if (e.exclusive() && e.sharers != (std::uint64_t{1} << core)) {
            // Downgrade the current exclusive owner.
            std::uint64_t owners = e.sharers;
            while (owners != 0) {
                auto o = static_cast<std::uint32_t>(
                    std::countr_zero(owners));
                owners &= owners - 1;
                if (o == core) continue;
                if (l1d_[o].downgrade(lineAddr)) e.setL2Dirty(true);
                stats_.downgrades++;
            }
            e.setExclusive(false);
        }
        e.sharers |= std::uint64_t{1} << core;
        if (e.sharers == (std::uint64_t{1} << core)) {
            e.setExclusive(true); // sole sharer: grant E
            fill_exclusive = true;
        } else {
            fill_exclusive = false;
        }
    }
    return lat;
}

std::uint32_t
CmpSystem::dataAccess(std::uint32_t core, Addr lineAddr, bool store,
                      std::uint64_t next_use)
{
    CoreStats& cs = stats_.cores[core];
    cs.l1dAccesses++;

    L1Cache::LineState st = l1d_[core].access(lineAddr, store);
    if (st == L1Cache::LineState::Exclusive) return 0;
    if (st == L1Cache::LineState::Shared) {
        if (!store) return 0;
        // Upgrade: obtain exclusivity through the directory.
        DirEntry* e = directory_.find(lineAddr);
        zc_assert(e != nullptr); // inclusion invariant
        invalidateSharers(*e, core, lineAddr);
        e->sharers = std::uint64_t{1} << core;
        e->setExclusive(true);
        e->setL2Dirty(true);
        l1d_[core].markExclusive(lineAddr, true);
        stats_.upgrades++;
        return cfg_.upgradeCycles;
    }

    cs.l1dMisses++;
    bool fill_exclusive = false;
    std::uint32_t lat =
        l2Access(core, lineAddr, store, next_use, fill_exclusive);
    auto victim = l1d_[core].insert(
        lineAddr,
        fill_exclusive ? L1Cache::LineState::Exclusive
                       : L1Cache::LineState::Shared,
        store);
    handleL1Victim(core, victim);
    return lat;
}

std::uint32_t
CmpSystem::fetchInstructions(std::uint32_t core, std::uint64_t n)
{
    CoreState& s = coreState_[core];
    CoreStats& cs = stats_.cores[core];
    std::uint32_t stall = 0;

    // Advance the code cursor; access the L1I once per line transition.
    std::uint64_t remaining = n;
    while (remaining > 0) {
        std::uint64_t in_line = cfg_.instrPerCodeLine - s.instrIntoLine;
        if (remaining < in_line) {
            s.instrIntoLine += static_cast<std::uint32_t>(remaining);
            break;
        }
        remaining -= in_line;
        s.instrIntoLine = 0;
        if (rng_.uniform() < cfg_.codeJumpProb) {
            s.codeLine = rng_.below(cfg_.codeLines);
        } else {
            s.codeLine = (s.codeLine + 1) % cfg_.codeLines;
        }

        Addr line = s.codeBase + s.codeLine;
        cs.l1iAccesses++;
        if (l1i_[core].access(line, false) == L1Cache::LineState::Invalid) {
            cs.l1iMisses++;
            bool fill_exclusive = false;
            stall += l2Access(core, line, false, cfg_.codeNextUseDistance,
                              fill_exclusive);
            auto victim =
                l1i_[core].insert(line, L1Cache::LineState::Shared, false);
            handleL1Victim(core, victim);
        }
    }
    return stall;
}

void
CmpSystem::stepCore(std::uint32_t core)
{
    CoreState& s = coreState_[core];
    CoreStats& cs = stats_.cores[core];
    zc_assert(s.gen != nullptr);

    MemRecord rec = s.gen->next();
    std::uint64_t n = static_cast<std::uint64_t>(rec.instGap) + 1;
    cs.instructions += n;
    cs.cycles += n; // IPC = 1 baseline
    cs.cycles += fetchInstructions(core, n);
    cs.cycles += dataAccess(core, rec.lineAddr,
                            rec.type == AccessType::Store, rec.nextUse);

    if (cfg_.epochInstr > 0) {
        instrSinceEpoch_ += n;
        if (instrSinceEpoch_ >= cfg_.epochInstr) {
            instrSinceEpoch_ -= cfg_.epochInstr;
            takeEpochSample();
        }
    }
}

void
CmpSystem::takeEpochSample()
{
    EpochBaseline now;
    now.l2Accesses = stats_.l2Accesses;
    now.l2Misses = stats_.l2Misses;
    for (const auto& b : banks_) {
        now.tagAccesses += b->stats().tagReads + b->stats().tagWrites;
    }
    for (ZArray* z : zbanks_) {
        now.walks += z->walkStats().walks;
        now.candidates += z->walkStats().candidatesTotal;
        now.relocations += z->walkStats().relocationsTotal;
    }

    EpochSample s;
    s.instructions = stats_.totalInstructions();
    s.cycles = stats_.maxCycles();
    s.l2Accesses = now.l2Accesses - epochBase_.l2Accesses;
    s.l2Misses = now.l2Misses - epochBase_.l2Misses;
    s.tagAccesses = now.tagAccesses - epochBase_.tagAccesses;
    s.walks = now.walks - epochBase_.walks;
    s.candidatesTotal = now.candidates - epochBase_.candidates;
    s.relocations = now.relocations - epochBase_.relocations;
    epochs_.push_back(s);
    epochBase_ = now;
}

void
CmpSystem::rebaseEpochs()
{
    epochs_.clear();
    instrSinceEpoch_ = 0;
    epochBase_ = EpochBaseline{};
    // Bank counters were just reset (or are zero at construction), so
    // the zero baseline matches the cumulative counters.
}

void
CmpSystem::run(std::uint64_t instr_per_core)
{
    std::vector<std::uint64_t> target(cfg_.numCores);
    for (std::uint32_t c = 0; c < cfg_.numCores; c++) {
        target[c] = stats_.cores[c].instructions + instr_per_core;
    }
    bool work = true;
    while (work) {
        // Cooperative cancellation point: a sweep job that blows its
        // wall-clock budget unwinds here as StatusError(Timeout).
        JobWatchdog::checkpoint();
        work = false;
        for (std::uint32_t c = 0; c < cfg_.numCores; c++) {
            if (stats_.cores[c].instructions < target[c]) {
                stepCore(c);
                work = true;
            }
        }
    }
}

void
CmpSystem::resetStats()
{
    auto cores = std::move(stats_.cores);
    stats_ = SystemStats{};
    for (auto& c : cores) c = CoreStats{};
    stats_.cores = std::move(cores);
    for (auto& b : banks_) b->resetStats();
    rebaseEpochs();
    // Core cycle counters restart at zero; the throttle clocks must
    // restart with them or token refills stall for the whole
    // measurement window.
    globalNow_ = 0;
    std::fill(bankTokenStamp_.begin(), bankTokenStamp_.end(), 0);
    if (cfg_.walkThrottle) {
        std::fill(bankTokens_.begin(), bankTokens_.end(),
                  static_cast<double>(cfg_.walkTokenWindow));
    }
}

EnergyEvents
CmpSystem::energyEvents() const
{
    EnergyEvents ev;
    for (const auto& c : stats_.cores) {
        ev.instructions += c.instructions;
        ev.l1Accesses += c.l1dAccesses + c.l1iAccesses;
    }
    for (const auto& b : banks_) {
        const ArrayStats& s = b->stats();
        ev.l2TagReads += s.tagReads;
        ev.l2TagWrites += s.tagWrites;
        ev.l2DataReads += s.dataReads;
        ev.l2DataWrites += s.dataWrites;
    }
    // L1 write-backs cost an L2 tag read + data write each.
    ev.l2TagReads += stats_.l1Writebacks;
    ev.l2DataWrites += stats_.l1Writebacks;
    ev.l2Accesses = stats_.l2Accesses + stats_.l1Writebacks;
    ev.l2Hits = stats_.l2Hits;
    ev.dramAccesses = stats_.dramAccesses;
    ev.cycles = stats_.maxCycles();
    return ev;
}

void
CmpSystem::registerStats(StatGroup& g)
{
    g.addCounter("instructions", "total instructions across cores",
                 [this] { return stats_.totalInstructions(); });
    g.addCounter("cycles", "wall-clock cycles (max over cores)",
                 [this] { return stats_.maxCycles(); });
    g.addScalar("aggregate_ipc", "sum of per-core IPCs",
                [this] { return stats_.aggregateIpc(); });

    StatGroup& cores = g.group("cores", "per-core pipeline and L1 stats");
    for (std::uint32_t c = 0; c < cfg_.numCores; c++) {
        StatGroup& cg = cores.group("core" + std::to_string(c));
        const CoreStats* cs = &stats_.cores[c];
        cg.addCounter("instructions", "instructions retired",
                      [cs] { return cs->instructions; });
        cg.addCounter("cycles", "cycles elapsed",
                      [cs] { return cs->cycles; });
        cg.addScalar("ipc", "instructions per cycle",
                     [cs] { return cs->ipc(); });
        cg.addCounter("l1d_accesses", "L1D demand accesses",
                      [cs] { return cs->l1dAccesses; });
        cg.addCounter("l1d_misses", "L1D misses",
                      [cs] { return cs->l1dMisses; });
        cg.addCounter("l1i_accesses", "L1I line fetches",
                      [cs] { return cs->l1iAccesses; });
        cg.addCounter("l1i_misses", "L1I misses",
                      [cs] { return cs->l1iMisses; });
        l1d_[c].registerStats(cg.group("l1d"));
        l1i_[c].registerStats(cg.group("l1i"));
    }

    StatGroup& l2 = g.group("l2", "shared inclusive L2");
    l2.addCounter("accesses", "demand accesses",
                  [this] { return stats_.l2Accesses; });
    l2.addCounter("hits", "demand hits", [this] { return stats_.l2Hits; });
    l2.addCounter("misses", "demand misses",
                  [this] { return stats_.l2Misses; });
    l2.addScalar("mpki", "misses per kilo-instruction",
                 [this] { return stats_.l2Mpki(); });
    l2.addCounter("evictions", "replacement evictions",
                  [this] { return stats_.l2Evictions; });
    l2.addCounter("writebacks", "dirty evictions to DRAM",
                  [this] { return stats_.l2Writebacks; });
    l2.addCounter("l1_writebacks", "dirty L1 evictions folded in",
                  [this] { return stats_.l1Writebacks; });
    l2.addCounter("throttled_walks", "walks capped below nominal R",
                  [this] { return stats_.throttledWalks; });
    for (std::uint32_t b = 0; b < numBanks(); b++) {
        banks_[b]->registerStats(l2.group("bank" + std::to_string(b)));
    }

    StatGroup& dir = g.group("coherence", "MESI directory activity");
    dir.addCounter("entries", "directory entries resident", [this] {
        return std::uint64_t{directory_.size()};
    });
    dir.addCounter("invalidations", "L1 invalidations sent",
                   [this] { return stats_.invalidations; });
    dir.addCounter("upgrades", "Shared->Exclusive upgrades",
                   [this] { return stats_.upgrades; });
    dir.addCounter("downgrades", "Exclusive->Shared downgrades",
                   [this] { return stats_.downgrades; });
    dir.addCounter("dram_accesses", "DRAM accesses (fills + writebacks)",
                   [this] { return stats_.dramAccesses; });

    StatGroup& ep = g.group("epochs", "epoch-sampler time series");
    ep.addConst("interval_instructions",
                "total instructions between samples (0 = sampler off)",
                JsonValue(cfg_.epochInstr));
    ep.addCustom("samples",
                 "interval counters per epoch; instructions/cycles are "
                 "cumulative and monotone",
                 [this] {
                     JsonValue out = JsonValue::array();
                     for (const EpochSample& s : epochs_) {
                         JsonValue e = JsonValue::object();
                         e.set("instructions", JsonValue(s.instructions));
                         e.set("cycles", JsonValue(s.cycles));
                         e.set("l2_accesses", JsonValue(s.l2Accesses));
                         e.set("l2_misses", JsonValue(s.l2Misses));
                         e.set("miss_rate", JsonValue(s.missRate()));
                         e.set("tag_accesses", JsonValue(s.tagAccesses));
                         e.set("walks", JsonValue(s.walks));
                         e.set("avg_walk_candidates",
                               JsonValue(s.avgWalkCandidates()));
                         e.set("relocations", JsonValue(s.relocations));
                         out.push(std::move(e));
                     }
                     return out;
                 });
}

} // namespace zc
