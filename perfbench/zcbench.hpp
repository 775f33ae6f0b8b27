/**
 * @file
 * Shared plumbing of zcbench: options, the result every
 * workload fills, and small process helpers.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.hpp"

namespace pb {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;    ///< spans and scratch data go here
    std::string serverBin; ///< the zkv_server executable (kv-tcp)
    std::string selfBin;   ///< this executable (set-up probes)
    std::string dataFile;  ///< sim-llc expected counts
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports; main() prints it. */
struct Result
{
    FailCount fails;
    /** Benchmark-level problems (not program failures); any makes the
     *  run incorrect. */
    std::vector<std::string> errors;
    std::map<std::string, Metric> metrics;
    /** Extra facts printed before the result line (sample counts...). */
    std::vector<std::pair<std::string, std::string>> notes;

    void
    set(const std::string& name, double v, const std::string& unit)
    {
        metrics[name] = Metric{v, unit};
    }

    void
    note(const std::string& k, const std::string& v)
    {
        notes.emplace_back(k, v);
    }
};

/** Ops in a kv worker's op stream (a power of two; workers cycle it). */
constexpr std::size_t kStreamOps = std::size_t{1} << 20;

/** Cumulative Zipf(@p alpha) distribution over ranks 0..n-1. */
inline std::vector<double>
zipfCdf(std::uint64_t n, double alpha)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; i++) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    for (double& c : cdf) c /= sum;
    return cdf;
}

/** The rank whose CDF interval holds @p u in [0, 1). */
inline std::uint64_t
zipfIndex(const std::vector<double>& cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1
                           : static_cast<std::uint64_t>(it - cdf.begin());
}

enum Op : std::uint32_t { kGet = 0, kPut = 1, kErase = 2 };

/**
 * A kv worker's op stream, kStreamOps entries of (key index << 2) | op:
 * Zipf key indices from @p cdf, @p getPct % gets, @p putPct % puts and
 * erases for the rest. A pure function of @p seed.
 */
std::vector<std::uint32_t> opStream(const std::vector<double>& cdf,
                                    std::uint64_t seed, std::uint32_t getPct,
                                    std::uint32_t putPct);

/** The CPUs this process may run on. */
std::vector<int> allowedCpus();

/** Restrict the calling thread to CPU @p cpu (-1 = every allowed CPU). */
void pinThread(const std::vector<int>& allowed, int cpu);

/** Peak resident set (VmHWM) of @p pid (0 = self), in MiB; -1 on error. */
double peakRssMb(int pid = 0);

/** splitmix64 step: derives independent sub-seeds from --seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Spawn @p argv[0] with @p argv; stdout goes to @p stdoutFd (-1 =
 * inherit), stderr to /dev/null when @p quiet. Returns the pid or -1.
 */
int spawn(const std::vector<std::string>& argv, int stdoutFd, bool quiet);

/** Wait for @p pid; its exit status, or -1 when it did not exit. */
int waitExit(int pid);

/** Note the sample count and the samples beyond @p p99; fewer than 10
 *  beyond it is an error (the percentile would not be supported). */
void checkTail(Result& res, const LatencyHist& lat, std::uint64_t p99);

/** Write the spans and reconciliation of a traced run under outDir. */
void writeSpans(const Options& opt, const std::vector<const SpanLog*>& logs,
                const Reconciliation& rec);

/** Set the four layer-independent per-layer metrics of a traced run. */
void setReconciliation(Result& res, const Reconciliation& rec,
                       double overheadFrac);

/** Every per-layer metric, zero-initialised, so each traced run reports
 *  the full set (layers a workload does not cross stay at 0). */
void declareLayerMetrics(Result& res);

Result runSimLlc(const Options& opt);
Result runKvMix(const Options& opt);
Result runKvTcp(const Options& opt);

/** sim-llc set-up probe: set up, print "ready", exit (main.cpp). */
int simSetupProbe(const Options& opt);

/** Regenerate the sim-llc expected-count table (main.cpp). */
int simRecordExpected(const Options& opt);

} // namespace pb
