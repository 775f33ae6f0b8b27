/**
 * @file
 * Shared workload-suite selection for the bench sweep specs.
 *
 * The performance (Fig. 4/5) and bandwidth (Section VI-D) harnesses
 * each kept a private reduced suite and the Fig. 5 top-10-by-MPKI
 * selection inline; this header is the single home for both, so every
 * sweep spec draws from the same lists and ranking rule.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "trace/workloads.hpp"

namespace zc::suite {

/**
 * Reduced suite for quick Fig. 4 / Fig. 5 runs: a spread of behaviours
 * (hit-heavy, miss-intensive, streaming, random mixes) including the
 * five workloads the paper plots in Fig. 5.
 */
inline const std::vector<std::string>&
quickPerformance()
{
    static const std::vector<std::string> kSuite{
        "blackscholes", "canneal",   "fluidanimate", "streamcluster",
        "wupwise",      "apsi",      "ammp",         "art",
        "gamess",       "mcf",       "cactusADM",    "lbm",
        "libquantum",   "omnetpp",   "soplex",       "gcc",
        "sphinx3",      "milc",      "xalancbmk",    "cpu2K6rand0",
        "cpu2K6rand1",  "cpu2K6rand2",
    };
    return kSuite;
}

/** Reduced suite for the Section VI-D bandwidth analysis. */
inline const std::vector<std::string>&
quickBandwidth()
{
    static const std::vector<std::string> kSuite{
        "blackscholes", "gamess",  "ammp",       "gcc",
        "soplex",       "milc",    "omnetpp",    "canneal",
        "cactusADM",    "lbm",     "libquantum", "mcf",
        "wupwise",      "sphinx3", "cpu2K6rand0",
    };
    return kSuite;
}

/**
 * Resolve a --workloads flag value: "all" yields the full 72-workload
 * registry (in paper order), "quick" yields @p quick, and anything else
 * is a comma-separated list of registry names, kept in the given order.
 * Throws StatusError(NotFound) naming the first unknown name.
 */
inline std::vector<std::string>
resolve(const std::string& flag_value, const std::vector<std::string>& quick)
{
    if (flag_value == "quick") return quick;
    std::vector<std::string> names;
    if (flag_value == "all") {
        for (const auto& w : WorkloadRegistry::all()) names.push_back(w.name);
        return names;
    }
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = flag_value.find(',', start);
        names.push_back(
            WorkloadRegistry::byName(flag_value.substr(start, comma - start))
                .name);
        if (comma == std::string::npos) return names;
        start = comma + 1;
    }
}

/**
 * The Fig. 5 "top-10 L2-miss-intensive" rule, generalized: the @p n
 * suite members with the largest @p metric, in descending order (ties
 * broken by name, descending — the historical ordering, kept so
 * regenerated reports diff clean against recorded ones).
 */
inline std::vector<std::string>
topByMetric(const std::vector<std::string>& suite,
            const std::function<double(const std::string&)>& metric,
            std::size_t n)
{
    std::vector<std::pair<double, std::string>> ranked;
    ranked.reserve(suite.size());
    for (const auto& wl : suite) ranked.emplace_back(metric(wl), wl);
    std::sort(ranked.rbegin(), ranked.rend());
    std::vector<std::string> top;
    for (std::size_t i = 0; i < std::min(n, ranked.size()); i++) {
        top.push_back(ranked[i].second);
    }
    return top;
}

} // namespace zc::suite
