/**
 * @file
 * The benchmark's own arithmetic: exact latency quantiles, failure
 * accounting, spans and the reconciliation of layer self times against
 * the wall time of a timed phase. bench_stats_test.cpp checks each
 * piece on known inputs.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Exact latency distribution at 1 ns resolution. Samples below
 * kDenseNs land in a dense count array (calloc'd, so only the pages of
 * bins that are hit become resident); longer samples are kept
 * verbatim. Memory stays bounded however many samples a run takes,
 * and every quantile is an actual sample value, never a bucket edge.
 */
class LatencyHist
{
  public:
    static constexpr std::uint64_t kDenseNs = std::uint64_t{1} << 16;

    LatencyHist()
        : dense_(static_cast<std::uint32_t*>(
              std::calloc(kDenseNs, sizeof(std::uint32_t))))
    {
        if (!dense_) std::abort();
    }

    void
    add(std::uint64_t ns)
    {
        n_++;
        if (ns < kDenseNs) {
            dense_[ns]++;
        } else {
            over_.push_back(ns);
        }
    }

    void
    merge(const LatencyHist& o)
    {
        n_ += o.n_;
        for (std::uint64_t i = 0; i < kDenseNs; i++) {
            if (o.dense_[i]) dense_[i] += o.dense_[i];
        }
        over_.insert(over_.end(), o.over_.begin(), o.over_.end());
    }

    std::uint64_t count() const { return n_; }

    /**
     * Nearest-rank quantile: the smallest sample such that at least
     * q * count() samples are <= it. 0 when empty.
     */
    std::uint64_t
    quantile(double q) const
    {
        if (n_ == 0) return 0;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        rank = std::clamp<std::uint64_t>(rank, 1, n_);
        std::uint64_t seen = 0;
        for (std::uint64_t i = 0; i < kDenseNs; i++) {
            seen += dense_[i];
            if (seen >= rank) return i;
        }
        std::vector<std::uint64_t> over = over_;
        std::sort(over.begin(), over.end());
        return over[rank - seen - 1];
    }

    /** Samples strictly greater than @p v. */
    std::uint64_t
    countAbove(std::uint64_t v) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t i = v + 1; i < kDenseNs; i++) n += dense_[i];
        for (std::uint64_t x : over_) n += x > v ? 1 : 0;
        return n;
    }

  private:
    struct Free
    {
        void operator()(std::uint32_t* p) const { std::free(p); }
    };
    std::unique_ptr<std::uint32_t[], Free> dense_;
    std::vector<std::uint64_t> over_;
    std::uint64_t n_ = 0;
};

/** @p a / @p b, or 0 when @p b is 0 (a per-layer count a workload
 *  never exercised). */
inline double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Median of @p v (mean of the middle pair for even sizes). */
inline double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Ops attempted and failed; every error and mismatch is a failure. */
struct FailCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const FailCount& o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }

    double
    failFrac() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
    }
};

/**
 * One span: a call into a layer. An aggregate span stands for `count`
 * calls of one kind under one parent, with `end - start` their summed
 * duration; the per-record calls (a generator's next(), one store op)
 * are kept that way so a traced run's memory does not grow with its
 * length.
 */
struct Span
{
    std::string layer;
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1; ///< index in the same SpanLog; -1 = root
    std::uint64_t request = 0;
    std::uint64_t count = 1;

    std::uint64_t duration() const { return end - start; }
};

/** Spans of one thread, in memory until the run writes them out. */
class SpanLog
{
  public:
    std::int64_t
    open(std::string layer, std::string name, std::int64_t parent,
         std::uint64_t request = 0)
    {
        spans_.push_back(Span{std::move(layer), std::move(name), nowNs(), 0,
                              parent, request, 1});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t i)
    {
        spans_[static_cast<std::size_t>(i)].end = nowNs();
    }

    /** Record an aggregate span of @p count calls totalling @p ns. */
    void
    aggregate(std::string layer, std::string name, std::int64_t parent,
              std::uint64_t count, std::uint64_t ns)
    {
        spans_.push_back(
            Span{std::move(layer), std::move(name), 0, ns, parent, 0, count});
    }

    const std::vector<Span>& spans() const { return spans_; }
    std::vector<Span>& spans() { return spans_; }

  private:
    std::vector<Span> spans_;
};

/**
 * Layer self times over one or more span logs. A span's self time is
 * its duration minus its children's durations. The roots are the timed
 * phase of each thread: `wallNs` sums their durations, and the roots'
 * own self time is the part no layer claims (`unattributedNs`).
 * Identity: sum(selfNs) + unattributedNs == wallNs.
 */
struct Reconciliation
{
    std::map<std::string, std::int64_t> selfNs;
    std::int64_t unattributedNs = 0;
    std::int64_t wallNs = 0;

    double
    unattributedFrac() const
    {
        return wallNs ? static_cast<double>(unattributedNs) /
                            static_cast<double>(wallNs)
                      : 0.0;
    }

    std::int64_t
    sum() const
    {
        std::int64_t s = unattributedNs;
        for (const auto& [layer, ns] : selfNs) s += ns;
        return s;
    }
};

inline Reconciliation
reconcile(const std::vector<const SpanLog*>& logs)
{
    Reconciliation r;
    for (const SpanLog* log : logs) {
        const std::vector<Span>& sp = log->spans();
        std::vector<std::int64_t> self(sp.size());
        for (std::size_t i = 0; i < sp.size(); i++) {
            self[i] = static_cast<std::int64_t>(sp[i].duration());
        }
        for (const Span& s : sp) {
            if (s.parent >= 0) {
                self[static_cast<std::size_t>(s.parent)] -=
                    static_cast<std::int64_t>(s.duration());
            }
        }
        for (std::size_t i = 0; i < sp.size(); i++) {
            if (sp[i].parent < 0) {
                r.wallNs += static_cast<std::int64_t>(sp[i].duration());
                r.unattributedNs += self[i];
            } else {
                r.selfNs[sp[i].layer] += self[i];
            }
        }
    }
    return r;
}

} // namespace pb
