/**
 * @file
 * Trace-driven 32-core CMP simulator (paper Section V, Table I).
 *
 * Cores are in-order, IPC = 1 except on memory accesses, each driven by
 * an AccessGenerator. The memory hierarchy is a split 4-way L1 per core
 * and a shared, inclusive, banked L2 whose array organization — the
 * object under study — is pluggable via ArraySpec (set-associative with
 * or without hashing, skew-associative, zcache of any W/R). A simplified
 * MESI directory embedded in the L2 keeps L1s coherent: stores obtain
 * exclusivity by invalidating sharers, read misses downgrade exclusive
 * owners, inclusive L2 evictions back-invalidate.
 *
 * The simulator charges latencies per Table I and counts every tag/data
 * array event (through ArrayStats, so zcache walks and relocations are
 * included) for the bandwidth (Section VI-D) and energy (Fig. 5)
 * analyses. Replacement walks happen off the critical path and add no
 * latency to the triggering miss — the zcache property of Section III.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/array_factory.hpp"
#include "cache/cache_array.hpp"
#include "common/rng.hpp"
#include "energy/cacti_lite.hpp"
#include "energy/system_energy.hpp"
#include "sim/coherence_directory.hpp"
#include "sim/config.hpp"
#include "sim/l1_cache.hpp"
#include "trace/generator.hpp"

namespace zc {

/**
 * One epoch-sampler snapshot (SystemConfig::epochInstr). Counter fields
 * are *interval* values — deltas since the previous sample — so the
 * series directly plots phase behaviour; `instructions` and `cycles`
 * are cumulative and strictly monotone across the series.
 */
struct EpochSample
{
    std::uint64_t instructions = 0; ///< cumulative, across cores
    std::uint64_t cycles = 0;       ///< cumulative max core cycles
    std::uint64_t l2Accesses = 0;   ///< interval
    std::uint64_t l2Misses = 0;     ///< interval
    std::uint64_t tagAccesses = 0;  ///< interval, walks included
    std::uint64_t walks = 0;        ///< interval zcache replacements
    std::uint64_t relocations = 0;  ///< interval zcache relocations

    double
    missRate() const
    {
        return l2Accesses ? static_cast<double>(l2Misses) /
                                static_cast<double>(l2Accesses)
                          : 0.0;
    }

    double
    avgWalkCandidates() const
    {
        return walks ? static_cast<double>(candidatesTotal) /
                           static_cast<double>(walks)
                     : 0.0;
    }

    std::uint64_t candidatesTotal = 0; ///< interval walk candidates
};

struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

struct SystemStats
{
    std::vector<CoreStats> cores;

    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Evictions = 0;
    std::uint64_t l2Writebacks = 0; ///< dirty L2 evictions to DRAM
    std::uint64_t l1Writebacks = 0; ///< dirty L1 evictions into L2
    std::uint64_t dramAccesses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t throttledWalks = 0; ///< walks capped below nominal R

    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t n = 0;
        for (const auto& c : cores) n += c.instructions;
        return n;
    }

    std::uint64_t
    maxCycles() const
    {
        std::uint64_t m = 0;
        for (const auto& c : cores) m = std::max(m, c.cycles);
        return m;
    }

    /** Throughput IPC: sum of per-core IPCs (standard for rate/mix). */
    double
    aggregateIpc() const
    {
        double s = 0.0;
        for (const auto& c : cores) s += c.ipc();
        return s;
    }

    /** L2 misses per thousand instructions. */
    double
    l2Mpki() const
    {
        std::uint64_t instr = totalInstructions();
        return instr ? 1000.0 * static_cast<double>(l2Misses) /
                           static_cast<double>(instr)
                     : 0.0;
    }
};

class CmpSystem
{
  public:
    explicit CmpSystem(const SystemConfig& cfg);

    /** Install per-core generators; must be numCores of them. */
    void setGenerators(std::vector<GeneratorPtr> gens);

    /** Run every core for @p instr_per_core further instructions. */
    void run(std::uint64_t instr_per_core);

    /** Clear statistics (end of warmup); cache contents persist. */
    void resetStats();

    const SystemStats& stats() const { return stats_; }
    const SystemConfig& config() const { return cfg_; }

    /** The L2 bank arrays (instrumentation, assoc tracking). */
    CacheArray& bank(std::uint32_t i) { return *banks_.at(i); }
    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** L2 bank hit latency in cycles (from CACTI-lite). */
    std::uint32_t bankLatencyCycles() const { return bankLatency_; }

    /** Bank cost model for the configured L2 organization. */
    const BankCosts& bankCosts() const { return bankCosts_; }

    /** Aggregate event counts for the system energy model. */
    EnergyEvents energyEvents() const;

    /** Epoch time series collected since the last resetStats(). */
    const std::vector<EpochSample>& epochs() const { return epochs_; }

    /**
     * Register the full system stats tree under @p g: per-core counters
     * and IPC, per-bank array stats (walk stats and trace included),
     * L2/coherence aggregates, and the epoch time series. Call once per
     * system per group; the system must outlive the group.
     */
    void registerStats(StatGroup& g);

  private:
    struct CoreState
    {
        GeneratorPtr gen;
        std::uint32_t codeLine = 0;
        std::uint32_t instrIntoLine = 0;
        Addr codeBase = 0;
    };

    std::uint32_t bankOf(Addr lineAddr) const;
    Addr bankLocal(Addr lineAddr) const;
    Addr bankGlobal(Addr local, std::uint32_t bank) const;

    /** Data access; returns stall cycles beyond the 1-cycle issue. */
    std::uint32_t dataAccess(std::uint32_t core, Addr lineAddr, bool store,
                             std::uint64_t next_use);

    /** L2 access shared by data and instruction paths. */
    std::uint32_t l2Access(std::uint32_t core, Addr lineAddr, bool store,
                           std::uint64_t next_use, bool& fill_exclusive);

    /** Instruction-fetch modeling for @p n instructions on @p core. */
    std::uint32_t fetchInstructions(std::uint32_t core, std::uint64_t n);

    using DirEntry = CoherenceDirectory::Entry;

    void invalidateSharers(DirEntry& e, std::uint32_t except, Addr lineAddr);
    void handleL2Eviction(Addr lineAddr);
    void handleL1Victim(std::uint32_t core, const L1Cache::Victim& v);
    void stepCore(std::uint32_t core);
    void takeEpochSample();
    void rebaseEpochs();

    SystemConfig cfg_;
    std::uint32_t bankShift_;
    std::uint32_t bankLatency_;
    BankCosts bankCosts_;

    std::vector<CoreState> coreState_;
    std::vector<L1Cache> l1d_;
    std::vector<L1Cache> l1i_;
    std::vector<std::unique_ptr<CacheArray>> banks_;
    CoherenceDirectory directory_;
    Pcg32 rng_;

    // Walk-throttle token buckets (one tag op per idle bank cycle).
    std::uint32_t nominalCandidates_ = 0;
    Cycle globalNow_ = 0;
    std::vector<double> bankTokens_;
    std::vector<Cycle> bankTokenStamp_;

    // Epoch sampler: cumulative baseline of the previous sample.
    struct EpochBaseline
    {
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t tagAccesses = 0;
        std::uint64_t walks = 0;
        std::uint64_t candidates = 0;
        std::uint64_t relocations = 0;
    };
    EpochBaseline epochBase_;
    std::vector<EpochSample> epochs_;
    std::uint64_t instrSinceEpoch_ = 0;
    std::vector<ZArray*> zbanks_; ///< non-null entries only (walk stats)

    SystemStats stats_;
};

} // namespace zc
