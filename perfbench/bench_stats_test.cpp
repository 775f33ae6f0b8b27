/**
 * @file
 * Checks of the benchmark's own arithmetic on known inputs: exact
 * quantiles, failure accounting, the span reconciliation sum and the
 * Zipf key sampler. Run with `python3 perfbench/run.py --self-test`.
 */

#include <cstdio>
#include <cstdlib>

#include "zcbench.hpp"

namespace {

int g_failures = 0;

void
check(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        g_failures++;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

void
quantilesOnKnownSamples()
{
    pb::LatencyHist h;
    CHECK(h.quantile(0.5) == 0);
    for (std::uint64_t v = 100; v >= 1; v--) h.add(v);
    CHECK(h.count() == 100);
    CHECK(h.quantile(0.50) == 50);
    CHECK(h.quantile(0.99) == 99);
    CHECK(h.quantile(1.00) == 100);
    CHECK(h.quantile(0.0) == 1);
    CHECK(h.countAbove(99) == 1);
    CHECK(h.countAbove(50) == 50);

    // Samples past the dense range are kept exactly.
    pb::LatencyHist big;
    const std::uint64_t d = pb::LatencyHist::kDenseNs;
    big.add(7);
    big.add(d + 5);
    big.add(d + 3);
    big.add(3 * d);
    CHECK(big.quantile(0.25) == 7);
    CHECK(big.quantile(0.50) == d + 3);
    CHECK(big.quantile(0.75) == d + 5);
    CHECK(big.quantile(0.99) == 3 * d);
    CHECK(big.countAbove(d + 3) == 2);

    // Merging equals adding every sample to one histogram.
    pb::LatencyHist a, b;
    for (std::uint64_t v = 1; v <= 50; v++) a.add(v);
    for (std::uint64_t v = 51; v <= 100; v++) b.add(v);
    b.add(2 * d);
    a.merge(b);
    CHECK(a.count() == 101);
    CHECK(a.quantile(0.50) == 51);
    CHECK(a.quantile(1.0) == 2 * d);
    CHECK(a.countAbove(100) == 1);
}

void
medians()
{
    CHECK(pb::median({3, 1, 2}) == 2);
    CHECK(pb::median({4, 1, 3, 2}) == 2.5);
    CHECK(pb::median({}) == 0);
}

void
failAccounting()
{
    pb::FailCount f;
    CHECK(f.failFrac() == 1.0); // nothing attempted is not a pass
    f.attempted = 8;
    pb::FailCount g;
    g.attempted = 2;
    g.failed = 1;
    f.add(g);
    CHECK(f.attempted == 10);
    CHECK(f.failed == 1);
    CHECK(f.failFrac() == 0.1);
}

void
reconciliationSum()
{
    pb::SpanLog log;
    auto& sp = log.spans();
    sp.push_back({"bench", "root", 0, 100, -1, 0, 1});  // 0
    sp.push_back({"sim", "a", 10, 40, 0, 0, 1});        // 1
    sp.push_back({"trace", "next", 0, 5, 1, 0, 1000});  // 2, aggregate
    sp.push_back({"trace", "b", 50, 90, 0, 0, 1});      // 3
    pb::SpanLog other;
    other.spans().push_back({"bench", "root", 200, 260, -1, 0, 1});
    other.spans().push_back({"net", "send", 0, 20, 0, 0, 7});

    pb::Reconciliation r = pb::reconcile({&log, &other});
    CHECK(r.wallNs == 160);
    CHECK(r.selfNs["sim"] == 25);
    CHECK(r.selfNs["trace"] == 45);
    CHECK(r.selfNs["net"] == 20);
    CHECK(r.unattributedNs == 30 + 40);
    CHECK(r.sum() == r.wallNs);
    CHECK(r.unattributedFrac() == 70.0 / 160.0);
}

void
zipfSampler()
{
    std::vector<double> cdf = pb::zipfCdf(1000, 0.99);
    CHECK(cdf.back() == 1.0);
    for (std::size_t i = 1; i < cdf.size(); i++) CHECK(cdf[i] > cdf[i - 1]);
    CHECK(pb::zipfIndex(cdf, 0.0) == 0);
    CHECK(pb::zipfIndex(cdf, cdf[0]) == 0);
    CHECK(pb::zipfIndex(cdf, cdf[0] + 1e-12) == 1);
    CHECK(pb::zipfIndex(cdf, 0.999999999999) == 999);
    // Rank 0 carries about 1/H(1000, 0.99) of the mass.
    CHECK(cdf[0] > 0.12 && cdf[0] < 0.15);
}

} // namespace

int
main()
{
    quantilesOnKnownSamples();
    medians();
    failAccounting();
    reconciliationSum();
    zipfSampler();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("bench_stats_test: all checks passed\n");
    return 0;
}
