/**
 * @file
 * sim-llc: the cost of one Fig. 4/5 sweep point. runExperiment on the
 * paper's Table I system (32 cores, 8 MB L2 in 8 banks) with the
 * headline Z4/52 L2 (4 ways, 3 levels, H3, bucketed LRU, serial
 * lookup) over a pinned profile subset: mcf, canneal and cpu2K6rand0
 * are miss-heavy (the walk, hashing and replacement dominate), gamess
 * and blackscholes are hit-heavy (the L1/coherence code and the trace
 * generators dominate).
 *
 * Every runExperiment's instructions, cycles, L2 accesses and misses
 * are compared with sim_expected.tsv, so a change that alters the
 * simulation fails the run instead of reading as a speed-up. The
 * traced run replays runExperiment's steps through the public
 * CmpSystem API with every core's generator wrapped in a timing
 * decorator, and must reproduce the same counts.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "cache/cache_model.hpp"
#include "cache/z_array.hpp"
#include "zcbench.hpp"
#include "hash/hash_factory.hpp"
#include "hash/way_index.hpp"
#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

namespace pb {

namespace {

const std::vector<std::string> kProfiles = {
    "mcf", "canneal", "cpu2K6rand0", "gamess", "blackscholes"};

// Per-core budgets. The L2 starts empty and is not full by the end of
// warm-up for the miss-heavy profiles; the counts are checked exactly,
// so the point is simulator speed, not converged miss rates.
constexpr std::uint64_t kWarmup = 40000;
constexpr std::uint64_t kMeasure = 40000;

// --seed picks one of these profile-seed slots; sim_expected.tsv holds
// the expected counts of every slot.
constexpr std::uint64_t kSeedSlots = 8;

constexpr int kSetupProbes = 15;
constexpr int kTracedReps = 2;

// Keeps the hash timing loop from being optimised away.
volatile std::uint64_t g_sink = 0;

struct Counts
{
    std::uint64_t instructions = 0, cycles = 0, l2Accesses = 0,
                  l2Misses = 0;

    bool
    operator==(const Counts& o) const
    {
        return instructions == o.instructions && cycles == o.cycles &&
               l2Accesses == o.l2Accesses && l2Misses == o.l2Misses;
    }
};

std::uint64_t
simSeed(std::uint64_t seed)
{
    return 1 + seed % kSeedSlots;
}

zc::RunParams
params(const std::string& profile, std::uint64_t simSeed)
{
    zc::RunParams p;
    p.workload = profile;
    p.l2Spec.kind = zc::ArrayKind::ZCache;
    p.l2Spec.ways = 4;
    p.l2Spec.levels = 3;
    p.l2Spec.hashKind = zc::HashKind::H3;
    p.l2Spec.policy = zc::PolicyKind::BucketedLru;
    p.serialLookup = true;
    p.warmupInstr = kWarmup;
    p.measureInstr = kMeasure;
    p.seed = simSeed;
    return p;
}

std::string
budgetHeader()
{
    return "# warmup=" + std::to_string(kWarmup) +
           " measure=" + std::to_string(kMeasure);
}

/** Expected counts by (slot seed, profile); throws on a stale table. */
std::map<std::pair<std::uint64_t, std::string>, Counts>
loadExpected(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::string line;
    std::getline(in, line);
    if (line != budgetHeader()) {
        throw std::runtime_error(path + " was recorded for other budgets ('" +
                                 line + "'); rerun --record-expected");
    }
    std::map<std::pair<std::uint64_t, std::string>, Counts> out;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::uint64_t seed = 0;
        std::string profile;
        Counts c;
        ls >> seed >> profile >> c.instructions >> c.cycles >>
            c.l2Accesses >> c.l2Misses;
        if (!ls) throw std::runtime_error("malformed line in " + path);
        out[{seed, profile}] = c;
    }
    return out;
}

Counts
countsOf(const zc::RunResult& r)
{
    return Counts{r.instructions, r.cycles, r.l2Accesses, r.l2Misses};
}

/** Nominal simulated instructions of one runExperiment, all cores. */
double
simulatedInstr()
{
    return static_cast<double>(zc::SystemConfig{}.numCores) *
           static_cast<double>(kWarmup + kMeasure);
}

/** Wraps a core's generator; sums the time spent producing records. */
class TimedGenerator final : public zc::AccessGenerator
{
  public:
    TimedGenerator(zc::GeneratorPtr inner, std::uint64_t* ns,
                   std::uint64_t* records)
        : inner_(std::move(inner)), ns_(ns), records_(records)
    {
    }

    zc::MemRecord
    next() override
    {
        std::uint64_t t0 = nowNs();
        zc::MemRecord r = inner_->next();
        *ns_ += nowNs() - t0;
        (*records_)++;
        return r;
    }

  private:
    zc::GeneratorPtr inner_;
    std::uint64_t* ns_;
    std::uint64_t* records_;
};

struct ReplayTotals
{
    std::uint64_t genNs = 0, records = 0;
    std::uint64_t runNs = 0, constructNs = 0, warmupNs = 0;
    std::uint64_t l2Accesses = 0, instr = 0;
    std::uint64_t l1Accesses = 0, l1Misses = 0;
    std::uint64_t walks = 0, candidates = 0, relocations = 0, tagOps = 0;
};

/**
 * runExperiment's steps (sim/experiment.cpp) through the public
 * CmpSystem API, one span per call. Returns the measurement counts.
 */
Counts
replay(const zc::RunParams& p, SpanLog& log, std::int64_t root,
       std::uint64_t request, ReplayTotals& tot)
{
    zc::SystemConfig cfg = p.base;
    cfg.l2Spec = p.l2Spec;
    cfg.l2SerialLookup = p.serialLookup;
    cfg.seed = p.seed ^ 0x5a5a;
    cfg.epochInstr = cfg.numCores * p.measureInstr / 8;

    std::int64_t s = log.open("sim", "construct", root, request);
    zc::CmpSystem sys(cfg);
    log.close(s);
    tot.constructNs += log.spans()[static_cast<std::size_t>(s)].duration();

    s = log.open("trace", "make_generators", root, request);
    const zc::WorkloadProfile& w = zc::WorkloadRegistry::byName(p.workload);
    std::uint64_t genNs = 0, records = 0;
    std::vector<zc::GeneratorPtr> gens;
    for (std::uint32_t c = 0; c < cfg.numCores; c++) {
        gens.push_back(std::make_unique<TimedGenerator>(
            zc::WorkloadRegistry::makeCoreGenerator(w, c, cfg.numCores,
                                                    p.seed),
            &genNs, &records));
    }
    log.close(s);

    s = log.open("sim", "set_generators", root, request);
    sys.setGenerators(std::move(gens));
    log.close(s);

    auto run = [&](const char* name, std::uint64_t instr) {
        std::uint64_t g0 = genNs, r0 = records;
        std::int64_t sp = log.open("sim", name, root, request);
        sys.run(instr);
        log.close(sp);
        log.aggregate("trace", "next", sp, records - r0, genNs - g0);
        std::uint64_t d = log.spans()[static_cast<std::size_t>(sp)].duration();
        tot.runNs += d;
        return d;
    };
    tot.warmupNs += run("run_warmup", p.warmupInstr);
    s = log.open("sim", "reset_stats", root, request);
    sys.resetStats();
    log.close(s);
    run("run_measure", p.measureInstr);
    tot.genNs += genNs;
    tot.records += records;

    const zc::SystemStats& st = sys.stats();
    tot.l2Accesses += st.l2Accesses;
    tot.instr += st.totalInstructions();
    for (const zc::CoreStats& c : st.cores) {
        tot.l1Accesses += c.l1dAccesses + c.l1iAccesses;
        tot.l1Misses += c.l1dMisses + c.l1iMisses;
    }
    for (std::uint32_t b = 0; b < sys.numBanks(); b++) {
        const zc::ArrayStats& as = sys.bank(b).stats();
        tot.tagOps += as.tagReads + as.tagWrites;
        if (auto* z = dynamic_cast<const zc::ZArray*>(&sys.bank(b))) {
            tot.walks += z->walkStats().walks;
            tot.candidates += z->walkStats().candidatesTotal;
            tot.relocations += z->walkStats().relocationsTotal;
        }
    }
    return Counts{st.totalInstructions(), st.maxCycles(), st.l2Accesses,
                  st.l2Misses};
}

/** Line addresses a profile's generators produce, round-robin over the
 *  cores, as the standalone bank's access stream. */
std::vector<zc::Addr>
profileAddresses(const zc::RunParams& p, std::size_t perCore)
{
    zc::SystemConfig cfg = p.base;
    const zc::WorkloadProfile& w = zc::WorkloadRegistry::byName(p.workload);
    std::vector<zc::GeneratorPtr> gens;
    for (std::uint32_t c = 0; c < cfg.numCores; c++) {
        gens.push_back(zc::WorkloadRegistry::makeCoreGenerator(
            w, c, cfg.numCores, p.seed));
    }
    std::vector<zc::Addr> out;
    out.reserve(perCore * gens.size());
    for (std::size_t i = 0; i < perCore; i++) {
        for (auto& g : gens) out.push_back(g->next().lineAddr);
    }
    return out;
}

/** Table I L2 bank: 8 MB / 64 B / 8 banks, Z4/52, bucketed LRU. */
zc::ArraySpec
tableOneBank(std::uint64_t seed)
{
    zc::ArraySpec s = params("mcf", 1).l2Spec;
    s.blocks = zc::SystemConfig{}.l2BankLines();
    s.seed = seed;
    return s;
}

void
tracedRun(const Options& opt, Result& res,
          const std::map<std::pair<std::uint64_t, std::string>, Counts>&
              expected)
{
    std::uint64_t seed = simSeed(opt.seed);

    // Plain runExperiment and its traced replay alternate per profile,
    // for at least kTracedReps rounds and until half the run is spent,
    // rotating CPUs per round as the plain run does; the overhead
    // compares each side's fastest call per profile.
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::vector<double> bestPlain(kProfiles.size(), 1e300),
        bestReplay(kProfiles.size(), 1e300);
    ReplayTotals tot;
    std::vector<int> cpus = allowedCpus();
    std::uint64_t start = nowNs();
    int reps = 0;
    for (; reps < kTracedReps ||
           static_cast<double>(nowNs() - start) / 1e9 < opt.seconds / 2;
         reps++) {
        if (!cpus.empty()) pinThread(cpus, cpus[reps % cpus.size()]);
        for (std::size_t i = 0; i < kProfiles.size(); i++) {
            zc::RunParams p = params(kProfiles[i], seed);
            const Counts& want = expected.at({seed, kProfiles[i]});
            std::uint64_t t0 = nowNs();
            Counts plain = countsOf(zc::runExperiment(p));
            bestPlain[i] =
                std::min(bestPlain[i], static_cast<double>(nowNs() - t0));

            logs.push_back(std::make_unique<SpanLog>());
            SpanLog& log = *logs.back();
            std::int64_t root = log.open("bench", "sim-llc.replay", -1, i);
            Counts traced = replay(p, log, root, i, tot);
            log.close(root);
            bestReplay[i] = std::min(
                bestReplay[i],
                static_cast<double>(
                    log.spans()[static_cast<std::size_t>(root)].duration()));
            res.fails.attempted += 2;
            if (!(plain == want)) res.fails.failed++;
            if (!(traced == want)) res.fails.failed++;
        }
    }
    pinThread(cpus, -1);
    std::vector<const SpanLog*> logPtrs;
    for (const auto& l : logs) logPtrs.push_back(l.get());
    Reconciliation rec = reconcile(logPtrs);

    // Standalone bank and hash timings on the profiles' own addresses.
    zc::ArraySpec bs = tableOneBank(seed);
    zc::CacheModel bank(zc::makeArray(bs));
    zc::WayIndexer indexer(
        zc::makeHashFamily(bs.hashKind, bs.ways, bs.blocks / bs.ways,
                           bs.seed),
        bs.blocks / bs.ways);
    std::uint64_t accNs = 0, accN = 0, missNs = 0, missN = 0;
    std::uint64_t hashNs = 0, hashN = 0, sink = 0;
    for (const std::string& prof : kProfiles) {
        std::vector<zc::Addr> addrs =
            profileAddresses(params(prof, seed), 16384);
        for (zc::Addr a : addrs) {
            std::uint64_t a0 = nowNs();
            bool hit = bank.access(a);
            std::uint64_t d = nowNs() - a0;
            accNs += d;
            accN++;
            if (!hit) {
                missNs += d;
                missN++;
            }
        }
        zc::BlockPos pos[4];
        std::uint64_t h0 = nowNs();
        for (zc::Addr a : addrs) {
            indexer.positionsAll(a, pos);
            sink += pos[0] ^ pos[3];
        }
        hashNs += nowNs() - h0;
        hashN += addrs.size();
    }
    g_sink = sink;

    double calls = static_cast<double>(reps * kProfiles.size());
    double kinstr = simulatedInstr() * calls / 1000.0;
    auto sum = [](const std::vector<double>& v) {
        double s = 0.0;
        for (double x : v) s += x;
        return s;
    };
    res.set("trace.ns_per_record", ratio(tot.genNs, tot.records), "ns");
    res.set("trace.records_per_kinstr", ratio(tot.records, kinstr),
            "1/kinstr");
    res.set("sim.construct_s", tot.constructNs / calls / 1e9, "s");
    res.set("sim.warmup_s", tot.warmupNs / calls / 1e9, "s");
    res.set("sim.self_ns_per_kinstr",
            ratio(static_cast<double>(tot.runNs - tot.genNs), kinstr),
            "ns/kinstr");
    res.set("sim.l2_accesses_per_kinstr",
            ratio(tot.l2Accesses, tot.instr / 1000.0), "1/kinstr");
    res.set("sim.l1_miss_ratio", ratio(tot.l1Misses, tot.l1Accesses),
            "ratio");
    res.set("cache.walks_per_l2_access", ratio(tot.walks, tot.l2Accesses),
            "ratio");
    res.set("cache.candidates_per_walk", ratio(tot.candidates, tot.walks),
            "count");
    res.set("cache.relocations_per_walk", ratio(tot.relocations, tot.walks),
            "count");
    res.set("cache.tag_accesses_per_l2_access",
            ratio(tot.tagOps, tot.l2Accesses), "ratio");
    res.set("cache.access_ns", ratio(accNs, accN), "ns");
    res.set("cache.miss_access_ns", ratio(missNs, missN), "ns");
    res.set("hash.positions_ns", ratio(hashNs, hashN), "ns");
    setReconciliation(res, rec, sum(bestReplay) / sum(bestPlain) - 1.0);
    writeSpans(opt, logPtrs, rec);
}

} // namespace

int
simSetupProbe(const Options& opt)
{
    auto expected = loadExpected(opt.dataFile);
    zc::WorkloadRegistry::prime();
    for (const std::string& prof : kProfiles) {
        zc::throwIfError(params(prof, simSeed(opt.seed)).validate());
        if (!expected.count({simSeed(opt.seed), prof})) return 1;
    }
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    return 0;
}

int
simRecordExpected(const Options& opt)
{
    std::ofstream out(opt.dataFile);
    out << budgetHeader() << "\n";
    out << "# seed profile instructions cycles l2_accesses l2_misses\n";
    for (std::uint64_t slot = 0; slot < kSeedSlots; slot++) {
        for (const std::string& prof : kProfiles) {
            Counts c = countsOf(zc::runExperiment(params(prof, slot + 1)));
            out << slot + 1 << " " << prof << " " << c.instructions << " "
                << c.cycles << " " << c.l2Accesses << " " << c.l2Misses
                << "\n";
        }
    }
    return out.good() ? 0 : 1;
}

Result
runSimLlc(const Options& opt)
{
    Result res;

    // Set-up: process start to the first runExperiment, measured on
    // separate probe processes so it can be repeated.
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; i++) {
        int fds[2];
        if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
        std::uint64_t t0 = nowNs();
        int pid = spawn({opt.selfBin, "--setup-probe", "--workload",
                         "sim-llc", "--seed", std::to_string(opt.seed),
                         "--data", opt.dataFile},
                        fds[1], false);
        close(fds[1]);
        char buf[16] = {};
        ssize_t got = read(fds[0], buf, sizeof buf - 1);
        double dt = static_cast<double>(nowNs() - t0) / 1e9;
        close(fds[0]);
        if (pid < 0 || waitExit(pid) != 0 || got <= 0 ||
            std::string(buf) != "ready\n") {
            res.errors.push_back("sim-llc set-up probe failed");
            return res;
        }
        setups.push_back(dt);
    }

    auto expected = loadExpected(opt.dataFile);
    if (opt.trace) {
        declareLayerMetrics(res);
        tracedRun(opt, res, expected);
        return res;
    }

    // Interference on a shared host only ever slows a call down, so each
    // profile is scored by its fastest call of the run (best of N). The
    // vCPUs of a shared VM differ in speed by up to ~20%, so round r runs
    // on the r-th allowed CPU: every profile visits every CPU instead of
    // wherever the scheduler happened to place the run.
    std::uint64_t seed = simSeed(opt.seed);
    std::vector<double> best(kProfiles.size(), 1e300);
    std::uint64_t misses = 0, accesses = 0, instr = 0, rounds = 0;
    double logIpc = 0.0;
    std::vector<int> cpus = allowedCpus();
    std::uint64_t start = nowNs();
    do {
        if (!cpus.empty()) pinThread(cpus, cpus[rounds % cpus.size()]);
        for (std::size_t i = 0; i < kProfiles.size(); i++) {
            std::uint64_t c0 = nowNs();
            zc::RunResult r = zc::runExperiment(params(kProfiles[i], seed));
            best[i] = std::min(best[i], static_cast<double>(nowNs() - c0));
            res.fails.attempted++;
            if (!(countsOf(r) == expected.at({seed, kProfiles[i]}))) {
                res.fails.failed++;
            }
            if (rounds == 0) {
                misses += r.l2Misses;
                accesses += r.l2Accesses;
                instr += r.instructions;
                logIpc += std::log(r.ipc);
            }
        }
        rounds++;
    } while (static_cast<double>(nowNs() - start) / 1e9 < opt.seconds);
    pinThread(cpus, -1);

    // Host microseconds per simulated kilo-instruction, per profile.
    std::vector<double> usPerKinstr;
    std::string perProfile;
    double bestSum = 0.0;
    for (std::size_t i = 0; i < kProfiles.size(); i++) {
        usPerKinstr.push_back(best[i] / 1e3 / (simulatedInstr() / 1000.0));
        perProfile += kProfiles[i] + "=" + std::to_string(usPerKinstr.back()) +
                      " ";
        bestSum += best[i];
    }
    res.note("best_us_per_kinstr", perProfile);
    std::sort(usPerKinstr.begin(), usPerKinstr.end());
    res.set("setup_s", median(setups), "s");
    res.set("peak_rss_mb", peakRssMb(), "MiB");
    res.set("ops_per_s", simulatedInstr() * kProfiles.size() / (bestSum / 1e9),
            "1/s");
    res.set("p50_us", usPerKinstr[usPerKinstr.size() / 2], "us");
    res.set("p99_us", usPerKinstr.back(), "us");
    res.set("hit_ratio", 1.0 - static_cast<double>(misses) / accesses,
            "ratio");
    res.set("stored_per_raw", 1.0, "ratio");
    res.set("sim_mpki", 1000.0 * static_cast<double>(misses) / instr,
            "1/kinstr");
    res.set("sim_ipc", std::exp(logIpc / kProfiles.size()), "instr/cycle");
    res.note("rounds", std::to_string(rounds));
    res.note("sim_seed", std::to_string(seed));
    return res;
}

} // namespace pb
