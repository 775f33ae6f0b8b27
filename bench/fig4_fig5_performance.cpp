/**
 * @file
 * Fig. 4 and Fig. 5 — the paper's performance and energy evaluation.
 *
 * Fig. 4: L2 MPKI and IPC improvements of SA-16, SA-32 (H3-hashed),
 * Z4/4 (skew), Z4/16 and Z4/52 over a serial-lookup 4-way
 * set-associative cache with H3 hashing, across the 72-workload suite,
 * under OPT (4a) and bucketed LRU (4b). The paper plots per-design
 * sorted curves; this harness prints their percentiles plus the
 * loss/win counts, and per-workload rows under --verbose.
 *
 * Fig. 5: IPC and BIPS/W of serial vs parallel-lookup variants on five
 * representative workloads plus geomeans over the whole suite and over
 * the 10 most L2-miss-intensive workloads, normalized to the serial
 * SA-4 baseline.
 *
 * The whole workload x design x lookup x policy grid is declared as
 * one SweepSpec and executed by the parallel SweepRunner (src/runner,
 * docs/runner.md); the figures below print from the completed results,
 * so output is byte-identical for any --jobs=N.
 *
 * Expected shape:
 *  - MPKI improves monotonically with candidates; equal-R designs
 *    (SA-16 vs Z4/16) improve similarly (under OPT almost identically);
 *  - SA-32's 2-cycle hit-latency penalty erodes or reverses its IPC
 *    gains on hit-heavy workloads; zcaches never pay that cost;
 *  - over the top-10 miss-intensive workloads, Z4/52 beats both the
 *    baseline (IPC and BIPS/W) and SA-32;
 *  - parallel lookup helps hit-latency-bound workloads, but its energy
 *    premium grows steeply with SA ways while zcaches keep it small.
 *
 * Flags: --policy=lru|opt|both  --workloads=quick|all|NAME[,NAME...]
 *        --verbose  --warmup=N --instr=N  --serial-only  --json=PATH
 *        --jobs=N --no-progress  --metrics-out=PATH
 *
 * --metrics-out streams every grid point's epoch-sampler series into
 * one NDJSON file (obs/metrics.hpp writeEpochSeries): one record per
 * epoch per point, tagged with the point's grid tags, in grid order —
 * deterministic for any --jobs=N, same contract as the report JSON.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "runner/sweep.hpp"
#include "runner/workload_suite.hpp"
#include "sim/experiment.hpp"

#include "bench_util.hpp"

using namespace zc;

namespace {

struct Design
{
    std::string label;
    ArraySpec spec;
};

std::vector<Design>
designs()
{
    auto sa = [](std::uint32_t ways) {
        Design d;
        d.label = "SA-" + std::to_string(ways);
        d.spec.kind = ArrayKind::SetAssoc;
        d.spec.ways = ways;
        d.spec.hashKind = HashKind::H3;
        return d;
    };
    auto z = [](std::uint32_t levels) {
        Design d;
        d.spec.kind = ArrayKind::ZCache;
        d.spec.ways = 4;
        d.spec.levels = levels;
        d.spec.hashKind = HashKind::H3;
        d.label = "Z4/" + std::to_string(ZArray::nominalCandidates(4, levels));
        return d;
    };
    return {sa(4), sa(16), sa(32), z(1), z(2), z(3)};
}

/** Representative workloads plotted in Fig. 5. */
const std::vector<std::string> kFig5Workloads{
    "blackscholes", "gamess", "ammp", "canneal", "cactusADM",
};

struct Key
{
    std::string workload;
    std::string design;
    bool serial;
    PolicyKind policy;

    bool
    operator<(const Key& o) const
    {
        return std::tie(workload, design, serial, policy) <
               std::tie(o.workload, o.design, o.serial, o.policy);
    }
};

/**
 * Grid-order view of a completed sweep: figure printers look runs up by
 * (workload, design, lookup, policy). A point that failed (isolated by
 * the runner, already reported on stderr) reads as a zeroed RunResult.
 */
class ResultTable
{
  public:
    void
    put(Key k, const RunResult* r)
    {
        results_.emplace(std::move(k), r);
    }

    const RunResult&
    get(const std::string& workload, const Design& d, bool serial,
        PolicyKind policy) const
    {
        auto it = results_.find(Key{workload, d.label, serial, policy});
        if (it == results_.end() || it->second == nullptr) return empty_;
        return *it->second;
    }

  private:
    std::map<Key, const RunResult*> results_;
    RunResult empty_;
};

void
printPercentiles(const std::string& label, std::vector<double> ratios)
{
    std::sort(ratios.begin(), ratios.end());
    auto q = [&](double f) {
        return quantile(ratios, f);
    };
    int losses = static_cast<int>(
        std::count_if(ratios.begin(), ratios.end(),
                      [](double r) { return r < 0.999; }));
    std::printf("  %-7s min %.3f | p10 %.3f | p25 %.3f | median %.3f | "
                "p75 %.3f | p90 %.3f | max %.3f | <1.0 on %d/%zu\n",
                label.c_str(), q(0.0), q(0.1), q(0.25), q(0.5), q(0.75),
                q(0.9), q(1.0), losses, ratios.size());
}

void
fig4(const ResultTable& table, const std::vector<std::string>& suite,
     PolicyKind policy, bool verbose)
{
    auto ds = designs();
    const Design& base = ds[0]; // SA-4 + H3, serial

    benchutil::banner(std::string("Fig. 4") +
                      (policy == PolicyKind::Opt ? "a (OPT)"
                                                 : "b (bucketed LRU)") +
                      ": improvements over serial SA-4+H3");

    for (std::size_t i = 1; i < ds.size(); i++) {
        std::vector<double> mpki_ratio, ipc_ratio;
        std::vector<std::string> rows;
        for (const auto& wl : suite) {
            const RunResult& b = table.get(wl, base, true, policy);
            const RunResult& r = table.get(wl, ds[i], true, policy);
            double mr = r.mpki > 1e-9 ? b.mpki / r.mpki : 1.0;
            double ir = b.ipc > 1e-9 ? r.ipc / b.ipc : 1.0;
            mpki_ratio.push_back(mr);
            ipc_ratio.push_back(ir);
            if (verbose) {
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "    %-14s mpki x%.3f  ipc x%.3f", wl.c_str(),
                              mr, ir);
                rows.push_back(buf);
            }
        }
        std::printf("%s:\n", ds[i].label.c_str());
        printPercentiles("MPKI", mpki_ratio);
        printPercentiles("IPC", ipc_ratio);
        for (const auto& row : rows) std::printf("%s\n", row.c_str());
    }
}

void
fig5(const ResultTable& table, const std::vector<std::string>& suite,
     PolicyKind policy, bool serial_only)
{
    auto ds = designs();
    const Design& base = ds[0];

    // The 10 most miss-intensive workloads under the baseline (shared
    // ranking rule: runner/workload_suite.hpp).
    std::vector<std::string> top10 = suite::topByMetric(
        suite,
        [&](const std::string& wl) {
            return table.get(wl, base, true, policy).mpki;
        },
        10);

    benchutil::banner(std::string("Fig. 5 (") + policyKindName(policy) +
                      "): IPC and BIPS/W vs serial SA-4+H3");
    std::printf("top-10 L2-miss-intensive: ");
    for (const auto& w : top10) std::printf("%s ", w.c_str());
    std::printf("\n");

    double base_ipc_geo, base_bw_geo, base_ipc_top, base_bw_top;
    {
        std::vector<double> i_all, b_all, i_top, b_top;
        for (const auto& wl : suite) {
            const RunResult& r = table.get(wl, base, true, policy);
            i_all.push_back(r.ipc);
            b_all.push_back(r.bipsPerWatt);
        }
        for (const auto& wl : top10) {
            const RunResult& r = table.get(wl, base, true, policy);
            i_top.push_back(r.ipc);
            b_top.push_back(r.bipsPerWatt);
        }
        base_ipc_geo = geomean(i_all);
        base_bw_geo = geomean(b_all);
        base_ipc_top = geomean(i_top);
        base_bw_top = geomean(b_top);
    }

    // The plotted workloads that a --workloads list left in the suite.
    std::vector<std::string> shown;
    for (const auto& wl : kFig5Workloads) {
        if (std::find(suite.begin(), suite.end(), wl) != suite.end()) {
            shown.push_back(wl);
        }
    }

    for (const char* metric : {"IPC", "BIPS/W"}) {
        bool ipc = metric[0] == 'I';
        std::printf("\nnormalized %s:\n", metric);
        std::printf("  %-16s", "design");
        for (const auto& wl : shown) {
            std::printf(" %12s", wl.substr(0, 12).c_str());
        }
        std::printf(" %12s %12s\n", "gmean(all)", "gmean(top10)");

        for (const auto& d : ds) {
            for (bool serial : {true, false}) {
                if (serial_only && !serial) continue;
                std::printf("  %-16s",
                            (d.label + (serial ? " ser" : " par")).c_str());
                for (const auto& wl : shown) {
                    const RunResult& b = table.get(wl, base, true, policy);
                    const RunResult& r = table.get(wl, d, serial, policy);
                    double num = ipc ? r.ipc : r.bipsPerWatt;
                    double den = ipc ? b.ipc : b.bipsPerWatt;
                    std::printf(" %12.3f", den > 0 ? num / den : 0.0);
                }
                std::vector<double> v_all, v_top;
                for (const auto& wl : suite) {
                    const RunResult& r = table.get(wl, d, serial, policy);
                    v_all.push_back(ipc ? r.ipc : r.bipsPerWatt);
                }
                for (const auto& wl : top10) {
                    const RunResult& r = table.get(wl, d, serial, policy);
                    v_top.push_back(ipc ? r.ipc : r.bipsPerWatt);
                }
                std::printf(" %12.3f %12.3f\n",
                            geomean(v_all) /
                                (ipc ? base_ipc_geo : base_bw_geo),
                            geomean(v_top) /
                                (ipc ? base_ipc_top : base_bw_top));
            }
        }
    }
}

/**
 * Stream the epoch-sampler series of every completed point into one
 * NDJSON file, in grid order. Failed points are skipped (they have no
 * epochs); returns false on any I/O error after reporting it.
 */
bool
writeSweepEpochSeries(const std::string& path, const SweepSpec& spec,
                      const std::vector<RunOutcome>& outcomes)
{
    bool first = true;
    std::size_t records = 0;
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        if (!outcomes[i].ok) continue;
        const JsonValue* system = outcomes[i].result.stats.find("system");
        const JsonValue* epochs =
            system != nullptr ? system->find("epochs") : nullptr;
        const JsonValue* samples =
            epochs != nullptr ? epochs->find("samples") : nullptr;
        if (samples == nullptr || !samples->isArray()) continue;
        JsonValue tags = JsonValue::object();
        tags.set("point", JsonValue(std::uint64_t{i}));
        for (const auto& [k, v] : spec.points[i].tags) tags.set(k, v);
        Status st = writeEpochSeries(path, *samples, tags, !first);
        if (!st.isOk()) {
            std::fprintf(stderr, "error: --metrics-out: %s\n",
                         st.message().c_str());
            return false;
        }
        first = false;
        records += samples->arr().size();
    }
    if (first) {
        // No point produced samples; still leave a valid (empty) file.
        Status st =
            writeEpochSeries(path, JsonValue::array(), JsonValue::object());
        if (!st.isOk()) {
            std::fprintf(stderr, "error: --metrics-out: %s\n",
                         st.message().c_str());
            return false;
        }
    }
    // Notice, not report output: stdout must stay byte-identical with or
    // without the flag (docs/observability.md).
    std::fprintf(stderr, "metrics: %zu epoch records (%zu points) -> %s\n",
                 records, outcomes.size(), path.c_str());
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string policy_s = benchutil::flag(argc, argv, "policy", "both");
    bool verbose = benchutil::flagBool(argc, argv, "verbose");
    bool serial_only = benchutil::flagBool(argc, argv, "serial-only");
    std::uint64_t warmup = benchutil::flagU64(argc, argv, "warmup", 120000);
    std::uint64_t instr = benchutil::flagU64(argc, argv, "instr", 120000);
    std::string metrics_out =
        benchutil::flag(argc, argv, "metrics-out", "");

    std::vector<std::string> wls =
        benchutil::workloadsFlag(argc, argv, suite::quickPerformance());

    std::printf("Table I system: 32 in-order cores @2GHz, 32KB 4-way L1s, "
                "8MB 8-bank shared L2 (organization under test), MESI "
                "directory, 200-cycle memory\n");
    std::printf("suite: %zu workloads, %llu+%llu instr/core "
                "(warmup+measure)\n",
                wls.size(), static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(instr));

    std::vector<PolicyKind> policies;
    if (policy_s == "lru") {
        policies = {PolicyKind::BucketedLru};
    } else if (policy_s == "opt") {
        policies = {PolicyKind::Opt};
    } else if (policy_s == "both") {
        policies = {PolicyKind::Opt, PolicyKind::BucketedLru};
    } else {
        std::fprintf(stderr,
                     "error: --policy=%s: unknown value (valid: lru, "
                     "opt, both)\n",
                     policy_s.c_str());
        return 2;
    }
    std::vector<bool> lookups{true};
    if (!serial_only) lookups.push_back(false);

    // Declare the full grid, run it once, then print both figures from
    // the completed results.
    auto ds = designs();
    SweepSpec spec;
    spec.name = "fig4_fig5_performance";
    std::vector<Key> keys;
    for (PolicyKind policy : policies) {
        for (const auto& wl : wls) {
            for (const auto& d : ds) {
                for (bool serial : lookups) {
                    RunParams p;
                    p.workload = wl;
                    p.l2Spec = d.spec;
                    p.l2Spec.policy = policy;
                    p.serialLookup = serial;
                    p.warmupInstr = warmup;
                    p.measureInstr = instr;
                    spec.add(
                        p,
                        {{"workload", JsonValue(wl)},
                         {"design", JsonValue(d.label)},
                         {"serial_lookup", JsonValue(serial)},
                         {"policy", JsonValue(std::string(
                                        policyKindName(policy)))}});
                    keys.push_back(Key{wl, d.label, serial, policy});
                }
            }
        }
    }

    // Construct the report before the sweep so its perf meter's wall
    // clock covers the actual simulation work.
    benchutil::JsonReport report(argc, argv, spec.name);
    SweepRunner runner(benchutil::sweepOptions(argc, argv, spec.name));
    std::vector<RunOutcome> outcomes = benchutil::runSweep(runner, spec);
    std::size_t failed = SweepRunner::reportFailures(spec, outcomes);

    ResultTable table;
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        table.put(keys[i], outcomes[i].ok ? &outcomes[i].result : nullptr);
    }
    report.addSweep(spec, outcomes);

    bool metrics_ok = true;
    if (!metrics_out.empty()) {
        metrics_ok = writeSweepEpochSeries(metrics_out, spec, outcomes);
    }

    for (PolicyKind policy : policies) {
        fig4(table, wls, policy, verbose);
        fig5(table, wls, policy, serial_only);
    }
    return (report.writeIfRequested() && failed == 0 && metrics_ok) ? 0 : 1;
}
