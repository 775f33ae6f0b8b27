/**
 * @file
 * Section VI-D — array bandwidth analysis.
 *
 * For the Z4/52 L2, reports per-workload: average core-demand load per
 * bank-cycle, total tag-array accesses per bank-cycle (walks included),
 * and misses per bank-cycle. Both parts (the per-workload table and the
 * mcf walk-throttling sweep) are declared as one SweepSpec and executed
 * in parallel by the SweepRunner (--jobs=N, docs/runner.md). The
 * paper's observations to reproduce:
 *
 *  - the maximum average load per bank stays low (paper: 15.2% peak);
 *  - as misses/cycle rise, demand load *falls* (self-throttling: cores
 *    stall on memory), so walks consume otherwise-idle tag bandwidth;
 *  - total tag load stays far below one access per bank-cycle (paper:
 *    0.092 tag accesses/cycle/bank at 0.005 misses/cycle/bank).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/workload_suite.hpp"
#include "sim/experiment.hpp"

#include "bench_util.hpp"

using namespace zc;

int
main(int argc, char** argv)
{
    std::uint64_t warmup = benchutil::flagU64(argc, argv, "warmup", 100000);
    std::uint64_t instr = benchutil::flagU64(argc, argv, "instr", 100000);
    benchutil::JsonReport report(argc, argv, "bandwidth_analysis");

    std::vector<std::string> wls =
        benchutil::workloadsFlag(argc, argv, suite::quickBandwidth());

    auto z52 = [&](const std::string& workload) {
        RunParams p;
        p.workload = workload;
        p.l2Spec.kind = ArrayKind::ZCache;
        p.l2Spec.ways = 4;
        p.l2Spec.levels = 3; // Z4/52
        p.l2Spec.policy = PolicyKind::BucketedLru;
        p.warmupInstr = warmup;
        p.measureInstr = instr;
        return p;
    };

    // Grid: the per-workload bandwidth table, then the mcf token-window
    // sweep (Section III's early-stop knob, in-system).
    SweepSpec spec;
    spec.name = "bandwidth_analysis";
    for (const auto& wl : wls) {
        spec.add(z52(wl),
                 {{"workload", JsonValue(wl)},
                  {"design", JsonValue("Z4/52")},
                  {"walk_token_window", JsonValue(std::uint64_t{0})}});
    }
    const std::vector<std::uint32_t> windows{0u, 64u, 16u, 4u};
    for (std::uint32_t window : windows) {
        RunParams p = z52("mcf");
        p.base.walkThrottle = window > 0;
        p.base.walkTokenWindow = window;
        spec.add(p,
                 {{"workload", JsonValue(std::string("mcf"))},
                  {"design", JsonValue("Z4/52")},
                  {"walk_token_window", JsonValue(std::uint64_t{window})}});
    }

    SweepRunner runner(benchutil::sweepOptions(argc, argv, spec.name));
    std::vector<RunOutcome> outcomes = benchutil::runSweep(runner, spec);
    std::size_t failed = SweepRunner::reportFailures(spec, outcomes);
    report.addSweep(spec, outcomes);

    benchutil::banner("Section VI-D: Z4/52 tag-array bandwidth");
    // The paper counts tag-array *operations*: one operation reads one
    // index in every way in parallel (Fig. 1g's timeline), so a walk
    // level of k candidates on a W-way array needs ~k/W operations.
    // tagPerBankCycle counts individual way-tag reads; dividing by W
    // gives the paper's unit.
    std::printf("%-16s %12s %12s %12s %12s %10s\n", "workload",
                "load/bank-cy", "tagrd/bank-cy", "tagops/b-cy",
                "miss/bank-cy", "mpki");

    struct Point
    {
        std::string wl;
        double load, tag, miss, mpki;
    };
    std::vector<Point> points;
    for (std::size_t i = 0; i < wls.size(); i++) {
        const RunResult& r = outcomes[i].result;
        points.push_back({wls[i], r.loadPerBankCycle, r.tagPerBankCycle,
                          r.missPerBankCycle, r.mpki});
        std::printf("%-16s %12.4f %12.4f %12.4f %12.4f %10.2f\n",
                    wls[i].c_str(), r.loadPerBankCycle, r.tagPerBankCycle,
                    r.tagPerBankCycle / 4.0, r.missPerBankCycle, r.mpki);
    }

    auto max_load = std::max_element(
        points.begin(), points.end(),
        [](const Point& a, const Point& b) { return a.load < b.load; });
    std::printf("\nmax average load per bank: %.1f%% on %s "
                "(paper: 15.2%% peak)\n",
                100.0 * max_load->load, max_load->wl.c_str());

    // Self-throttling: correlation between miss rate and demand load.
    std::sort(points.begin(), points.end(),
              [](const Point& a, const Point& b) { return a.miss < b.miss; });
    std::size_t half = points.size() / 2;
    double low_miss_load = 0, high_miss_load = 0;
    for (std::size_t i = 0; i < half; i++) low_miss_load += points[i].load;
    for (std::size_t i = half; i < points.size(); i++) {
        high_miss_load += points[i].load;
    }
    low_miss_load /= half;
    high_miss_load /= (points.size() - half);
    std::printf("self-throttling: mean load %.4f acc/bank-cy in the "
                "low-miss half vs %.4f in the high-miss half\n",
                low_miss_load, high_miss_load);
    std::printf("\nExpected shape: tag operations stay far below one per "
                "bank-cycle (paper: 0.092 at 0.005 misses/bank-cycle, "
                "i.e. demand + ~12 walk ops per miss); high-miss "
                "workloads show no higher demand load than low-miss "
                "ones.\n");

    benchutil::banner("walk throttling (token window sweep, mcf)");
    std::printf("%-10s %12s %12s %10s %12s\n", "window", "tag/bank-cy",
                "tagops/b-cy", "mpki", "throttled");
    for (std::size_t i = 0; i < windows.size(); i++) {
        std::uint32_t window = windows[i];
        const RunResult& r = outcomes[wls.size() + i].result;
        std::printf("%-10s %12.4f %12.4f %10.2f %12s\n",
                    window ? std::to_string(window).c_str() : "off",
                    r.tagPerBankCycle, r.tagPerBankCycle / 4.0, r.mpki,
                    window ? "(see stats)" : "-");
    }
    std::printf("\nExpected shape: tighter windows shed walk tag traffic "
                "with only marginal MPKI increase.\n");
    return (report.writeIfRequested() && failed == 0) ? 0 : 1;
}
