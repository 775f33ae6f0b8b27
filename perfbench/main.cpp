/**
 * @file
 * zcbench: the repository benchmark's program. Links the repo's
 * libraries, runs one workload (sim-llc, kv-mix or kv-tcp) for the
 * given seconds, checks the program's outputs, and prints one JSON
 * result line last. perfbench/run.py builds and invokes it; see
 * BENCHMARK.json for the workloads and metrics.
 *
 *   zcbench --workload W --seed N --seconds S --trace 0|1
 *           --out-dir D --server-bin P --data F [--git-sha SHA]
 *   zcbench --record-expected --data F     rewrite sim-llc's table
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "zcbench.hpp"

extern char** environ;

namespace pb {

double
peakRssMb(int pid)
{
    std::string path = pid ? "/proc/" + std::to_string(pid) + "/status"
                           : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::strtoull(line.c_str() + 6,
                                                     nullptr, 10)) /
                   1024.0;
        }
    }
    return -1.0;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<std::uint32_t>
opStream(const std::vector<double>& cdf, std::uint64_t seed,
         std::uint32_t getPct, std::uint32_t putPct)
{
    std::vector<std::uint32_t> s(kStreamOps);
    std::uint64_t x = seed;
    for (auto& e : s) {
        x = mixSeed(x, 0);
        double u = static_cast<double>(x >> 11) * 0x1.0p-53;
        auto pick = static_cast<std::uint32_t>((x & 0xffff) % 100);
        std::uint32_t op = pick < getPct            ? kGet
                           : pick < getPct + putPct ? kPut
                                                    : kErase;
        e = static_cast<std::uint32_t>(zipfIndex(cdf, u) << 2) | op;
    }
    return s;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; c++) {
            if (CPU_ISSET(c, &set)) out.push_back(c);
        }
    }
    return out;
}

void
pinThread(const std::vector<int>& allowed, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (cpu >= 0) {
        CPU_SET(cpu, &set);
    } else {
        for (int c : allowed) CPU_SET(c, &set);
    }
    if (!allowed.empty()) sched_setaffinity(0, sizeof set, &set);
}

int
spawn(const std::vector<std::string>& argv, int stdoutFd, bool quiet)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (stdoutFd >= 0) posix_spawn_file_actions_adddup2(&fa, stdoutFd, 1);
    if (quiet) {
        posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    return rc == 0 ? pid : -1;
}

int
waitExit(int pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
writeSpans(const Options& opt, const std::vector<const SpanLog*>& logs,
           const Reconciliation& rec)
{
    std::string path = opt.outDir + "/spans-" + opt.workload + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\"threads\": [");
    for (std::size_t t = 0; t < logs.size(); t++) {
        std::fprintf(f, "%s\n [", t ? "," : "");
        const std::vector<Span>& sp = logs[t]->spans();
        for (std::size_t i = 0; i < sp.size(); i++) {
            const Span& s = sp[i];
            std::fprintf(f,
                         "%s\n  {\"layer\": \"%s\", \"name\": \"%s\", "
                         "\"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
                         ", \"parent\": %" PRId64 ", \"request\": %" PRIu64
                         ", \"count\": %" PRIu64 "}",
                         i ? "," : "", s.layer.c_str(), s.name.c_str(), s.start,
                         s.end, s.parent, s.request, s.count);
        }
        std::fprintf(f, "]");
    }
    std::fprintf(f, "],\n \"self_ns\": {");
    const char* sep = "";
    for (const auto& [layer, ns] : rec.selfNs) {
        std::fprintf(f, "%s\"%s\": %" PRId64, sep, layer.c_str(), ns);
        sep = ", ";
    }
    std::fprintf(f,
                 "},\n \"unattributed_ns\": %" PRId64
                 ",\n \"wall_ns\": %" PRId64 "}\n",
                 rec.unattributedNs, rec.wallNs);
    std::fclose(f);
}

void
checkTail(Result& res, const LatencyHist& lat, std::uint64_t p99)
{
    std::uint64_t beyond = lat.countAbove(p99);
    res.note("latency_samples", std::to_string(lat.count()));
    res.note("samples_beyond_p99", std::to_string(beyond));
    if (beyond < 10) res.errors.push_back("fewer than 10 samples beyond p99");
}

void
setReconciliation(Result& res, const Reconciliation& rec,
                  double overheadFrac)
{
    res.set("bench.trace_overhead_frac", overheadFrac, "ratio");
    res.set("bench.unattributed_frac", rec.unattributedFrac(), "ratio");
    if (rec.sum() != rec.wallNs) {
        res.errors.push_back("span reconciliation does not sum to wall");
    }
    for (const auto& [layer, ns] : rec.selfNs) {
        res.note("self_s." + layer, std::to_string(ns / 1e9));
    }
    res.note("self_s.unattributed", std::to_string(rec.unattributedNs / 1e9));
    res.note("timed_phase_thread_s", std::to_string(rec.wallNs / 1e9));
}

void
declareLayerMetrics(Result& res)
{
    static const std::pair<const char*, const char*> kLayer[] = {
        {"trace.ns_per_record", "ns"},
        {"trace.records_per_kinstr", "1/kinstr"},
        {"sim.construct_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.self_ns_per_kinstr", "ns/kinstr"},
        {"sim.l2_accesses_per_kinstr", "1/kinstr"},
        {"sim.l1_miss_ratio", "ratio"},
        {"cache.walks_per_l2_access", "ratio"},
        {"cache.candidates_per_walk", "count"},
        {"cache.relocations_per_walk", "count"},
        {"cache.tag_accesses_per_l2_access", "ratio"},
        {"cache.access_ns", "ns"},
        {"cache.miss_access_ns", "ns"},
        {"hash.positions_ns", "ns"},
        {"store.get_ns.p50", "ns"},
        {"store.get_ns.p99", "ns"},
        {"store.put_ns.p50", "ns"},
        {"store.put_ns.p99", "ns"},
        {"store.erase_ns.p50", "ns"},
        {"store.evictions_per_put", "ratio"},
        {"store.candidates_per_insert", "count"},
        {"store.relocations_per_insert", "count"},
        {"store.optimistic_frac", "ratio"},
        {"store.seq_retries_per_get", "ratio"},
        {"store.fallback_frac", "ratio"},
        {"store.lock_wait_ns_per_op", "ns"},
        {"store.lock_contended_frac", "ratio"},
        {"store.probe_ns_per_op", "ns"},
        {"store.walk_ns_per_put", "ns"},
        {"persist.append_bytes_per_put", "B"},
        {"persist.blocked_per_put", "ratio"},
        {"persist.fsyncs_per_s", "1/s"},
        {"persist.append_ns_per_record", "ns"},
        {"persist.fsync_ns_per_sync", "ns"},
        {"persist.snapshots", "count"},
        {"compress.compress_ns", "ns"},
        {"compress.decompress_ns", "ns"},
        {"compress.calls_per_op", "ratio"},
        {"net.encode_ns", "ns"},
        {"net.decode_ns", "ns"},
        {"net.send_ns", "ns"},
        {"net.recv_wait_ns", "ns"},
        {"net.server_ns.p50", "ns"},
        {"net.ops_per_batch", "ratio"},
        {"bench.trace_overhead_frac", "ratio"},
        {"bench.unattributed_frac", "ratio"},
    };
    for (const auto& [name, unit] : kLayer) res.set(name, 0.0, unit);
}

} // namespace pb

namespace {

std::string
arg(int argc, char** argv, const char* name, const char* dflt)
{
    for (int i = 1; i + 1 < argc; i++) {
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return dflt;
}

bool
has(int argc, char** argv, const char* name)
{
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    pb::Options opt;
    opt.workload = arg(argc, argv, "--workload", "");
    opt.seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr,
                             10);
    opt.seconds = std::strtod(arg(argc, argv, "--seconds", "10").c_str(),
                              nullptr);
    opt.trace = arg(argc, argv, "--trace", "0") == "1";
    opt.outDir = arg(argc, argv, "--out-dir", ".");
    opt.serverBin = arg(argc, argv, "--server-bin", "");
    opt.dataFile = arg(argc, argv, "--data", "");
    char self[4096] = {};
    ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
    opt.selfBin = n > 0 ? std::string(self, static_cast<std::size_t>(n))
                        : std::string(argv[0]);

    try {
        if (has(argc, argv, "--record-expected")) {
            return pb::simRecordExpected(opt);
        }
        if (has(argc, argv, "--setup-probe")) {
            return pb::simSetupProbe(opt);
        }
        if (!(opt.seconds > 0)) {
            std::fprintf(stderr, "zcbench: --seconds must be > 0\n");
            return 2;
        }
        pb::Result res;
        if (opt.workload == "sim-llc") {
            res = pb::runSimLlc(opt);
        } else if (opt.workload == "kv-mix") {
            res = pb::runKvMix(opt);
        } else if (opt.workload == "kv-tcp") {
            res = pb::runKvTcp(opt);
        } else {
            std::fprintf(stderr,
                         "zcbench: unknown --workload '%s' (sim-llc, "
                         "kv-mix, kv-tcp)\n",
                         opt.workload.c_str());
            return 2;
        }

        std::printf("# env nproc=%u cpu=\"%s\" git_sha=%s workload=%s "
                    "seed=%" PRIu64 " seconds=%g trace=%d\n",
                    std::thread::hardware_concurrency(), cpuModel().c_str(),
                    arg(argc, argv, "--git-sha", "unknown").c_str(),
                    opt.workload.c_str(), opt.seed, opt.seconds,
                    opt.trace ? 1 : 0);
        for (const auto& [k, v] : res.notes) {
            std::printf("# %s = %s\n", k.c_str(), v.c_str());
        }
        for (const auto& [k, m] : res.metrics) {
            std::printf("# metric %-32s %.6g %s\n", k.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("# fail_frac = %.6g (%" PRIu64 " failed of %" PRIu64
                    " attempted)\n",
                    res.fails.failFrac(), res.fails.failed,
                    res.fails.attempted);
        for (const std::string& e : res.errors) {
            std::printf("# error: %s\n", e.c_str());
        }

        bool correct = res.fails.failed == 0 && res.fails.attempted > 0 &&
                       res.errors.empty();
        std::string out = std::string("{\"correct\": ") +
                          (correct ? "true" : "false") +
                          ", \"attempted\": " +
                          std::to_string(std::max<std::uint64_t>(
                              res.fails.attempted, 1)) +
                          ", \"failed\": " +
                          std::to_string(res.fails.failed) +
                          ", \"metrics\": {";
        bool first = true;
        for (const auto& [k, m] : res.metrics) {
            out += std::string(first ? "" : ", ") + "\"" + k +
                   "\": {\"value\": " + jsonNumber(m.value) +
                   ", \"unit\": \"" + m.unit + "\"}";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "zcbench: %s\n", e.what());
        return 1;
    }
}
