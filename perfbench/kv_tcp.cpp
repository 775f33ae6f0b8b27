/**
 * @file
 * kv-tcp: the read-heavy networked use of zkv. The shipped zkv_server
 * runs as its own process in bytes mode with the BDI codec (4 x
 * 16384-block Z4/16 shards). One client process drives it closed loop:
 * 2 connections on 2 threads, 16 requests in flight per connection,
 * 90% GET / 10% PUT over Zipf(0.99) keys spanning half the capacity,
 * payloads of 16-224 bytes from ContentModel. The key set fits in the
 * store, so walks are rare; frame encode/decode, server rounds, shard
 * batching and compress/decompress dominate.
 *
 * Open-loop tails on a shared VM measure hypervisor stalls, not the
 * server, which is why the load is closed loop. Every GET hit is
 * checked byte for byte against the payload the benchmark wrote.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/json.hpp"
#include "compress/codec.hpp"
#include "zcbench.hpp"
#include "store/zkv.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"

namespace pb {

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kBlocks = 16384;
constexpr std::uint64_t kKeys = std::uint64_t{kShards} * kBlocks / 2;
constexpr std::uint32_t kConns = 2;
constexpr std::uint32_t kDepth = 16;
constexpr std::uint32_t kPrefillDepth = 64;
constexpr int kSetups = 5;
constexpr std::uint32_t kMinLen = 16;
constexpr std::uint32_t kMaxLen = 224;

struct Payloads
{
    std::uint64_t keySeed = 0, lenSeed = 0;
    zc::ContentModel content;

    std::uint64_t key(std::uint64_t index) const
    {
        return zc::zkvMix64(index ^ keySeed);
    }

    /** The bytes every writer puts under @p key: a pure function of
     *  the key, so the store's resident bytes do not depend on which
     *  connection wrote last. */
    void
    fill(std::uint64_t key, std::vector<std::uint8_t>& out) const
    {
        std::uint32_t len =
            kMinLen + static_cast<std::uint32_t>(zc::zkvMix64(key ^ lenSeed) %
                                                 (kMaxLen - kMinLen + 1));
        out.resize(len);
        content.fill(key, out.data(), len);
    }
};

struct Pending
{
    std::uint64_t id = 0;
    std::uint64_t keyIndex = 0;
    bool get = true;
    std::uint64_t sendStart = 0, sendEnd = 0;
};

/** Per-connection counters, histograms and spans. */
struct ConnStats
{
    LatencyHist lat; ///< responses inside the timed window
    LatencyHist serverNs;
    FailCount fails;
    std::uint64_t doneInWindow = 0, gets = 0, hits = 0;
    std::uint64_t encodeNs = 0, encodes = 0, decodeNs = 0, decodes = 0;
    std::uint64_t sendNs = 0, recvNs = 0, checkNs = 0;
    std::uint64_t compressNs = 0, decompressNs = 0, codecCalls = 0;
    SpanLog log;
};

/**
 * Drive one connection closed loop: keep up to @p depth requests in
 * flight, taking ops from @p next until it returns false or @p stop is
 * set, then drain. Writes are batched per refill; each request is
 * timed from the start of the write that carried it to the decode of
 * its response; responses are counted while @p stop is unset.
 */
template <typename NextOp>
void
pump(int fd, std::uint32_t depth, const Payloads& pl,
     NextOp next, const std::atomic<bool>* stop, bool traced,
     const zc::Codec* codec, ConnStats& st)
{
    std::deque<Pending> inflight;
    std::vector<std::uint8_t> wbuf, rbuf(1 << 16), scratch,
        packed(codec ? codec->maxCompressedSize(kMaxLen) : 0),
        unpacked(kMaxLen);
    std::size_t rlen = 0;
    std::uint64_t nextId = 1;
    bool more = true;
    zc::net::Request req;
    zc::net::Response resp;
    std::int64_t root = traced ? st.log.open("bench", "kv-tcp.conn", -1) : -1;

    auto lose = [&] {
        st.fails.failed += inflight.size();
        inflight.clear();
    };
    while (true) {
        if (more && stop && stop->load(std::memory_order_relaxed)) more = false;
        std::size_t batchStart = inflight.size();
        while (more && inflight.size() < depth) {
            std::uint64_t keyIndex = 0;
            bool get = true;
            if (!next(keyIndex, get)) {
                more = false;
                break;
            }
            req = zc::net::Request{};
            req.type = get ? zc::net::MsgType::Get : zc::net::MsgType::Put;
            req.id = nextId++;
            req.key = pl.key(keyIndex);
            req.bytes = true;
            if (!get) {
                pl.fill(req.key, req.valueBytes);
                if (codec) {
                    std::uint64_t c0 = nowNs();
                    auto n = codec->compress(req.valueBytes.data(),
                                             req.valueBytes.size(),
                                             packed.data(), packed.size());
                    std::uint64_t c1 = nowNs();
                    auto m = n ? codec->decompress(packed.data(), *n,
                                                   unpacked.data(),
                                                   unpacked.size())
                               : zc::Expected<std::size_t>(n.status());
                    st.decompressNs += nowNs() - c1;
                    st.compressNs += c1 - c0;
                    st.codecCalls++;
                    if (!m || *m != req.valueBytes.size() ||
                        !std::equal(req.valueBytes.begin(),
                                    req.valueBytes.end(), unpacked.begin())) {
                        st.fails.failed++;
                    }
                }
            }
            std::uint64_t e0 = nowNs();
            zc::net::encodeRequest(req, wbuf);
            st.encodeNs += nowNs() - e0;
            st.encodes++;
            inflight.push_back(Pending{req.id, keyIndex, get, 0, 0});
            st.fails.attempted++;
        }
        if (!wbuf.empty()) {
            std::uint64_t s0 = nowNs();
            std::size_t off = 0;
            while (off < wbuf.size()) {
                ssize_t w = ::send(fd, wbuf.data() + off, wbuf.size() - off,
                                   MSG_NOSIGNAL);
                if (w < 0 && errno == EINTR) continue;
                if (w <= 0) {
                    lose();
                    return;
                }
                off += static_cast<std::size_t>(w);
            }
            std::uint64_t s1 = nowNs();
            st.sendNs += s1 - s0;
            for (std::size_t i = batchStart; i < inflight.size(); i++) {
                inflight[i].sendStart = s0;
                inflight[i].sendEnd = s1;
            }
            wbuf.clear();
        }
        if (inflight.empty()) break;

        // Busy-poll for the responses: a client thread that never sleeps
        // needs no cross-CPU wakeup per batch, whose cost on a shared
        // VM varies with the host's load.
        std::uint64_t r0 = nowNs();
        ssize_t got = 0;
        do {
            got = ::recv(fd, rbuf.data() + rlen, rbuf.size() - rlen,
                         MSG_DONTWAIT);
        } while (got < 0 &&
                 (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR));
        std::uint64_t r1 = nowNs();
        if (got <= 0) {
            lose();
            break;
        }
        st.recvNs += r1 - r0;
        rlen += static_cast<std::size_t>(got);
        std::size_t off = 0;
        while (!inflight.empty()) {
            std::uint64_t d0 = nowNs();
            auto used = zc::net::decodeResponse(rbuf.data() + off, rlen - off,
                                                &resp);
            std::uint64_t d1 = nowNs();
            if (!used) {
                lose();
                break;
            }
            if (*used == 0) break;
            st.decodeNs += d1 - d0;
            st.decodes++;
            off += *used;
            Pending p = inflight.front();
            inflight.pop_front();
            if (more && stop) {
                st.lat.add(d1 - p.sendStart);
                st.doneInWindow++;
                if (traced) st.serverNs.add(r1 - p.sendEnd);
            }
            bool ok = resp.id == p.id && resp.status == zc::ErrorCode::Ok;
            if (ok && p.get) {
                st.gets++;
                if (resp.hit()) {
                    st.hits++;
                    pl.fill(pl.key(p.keyIndex), scratch);
                    ok = resp.valueBytes == scratch;
                }
            }
            if (!ok) st.fails.failed++;
            st.checkNs += nowNs() - d1;
        }
        std::memmove(rbuf.data(), rbuf.data() + off, rlen - off);
        rlen -= off;
    }
    if (traced) {
        st.log.close(root);
        st.log.aggregate("net", "encode", root, st.encodes, st.encodeNs);
        st.log.aggregate("net", "send", root, st.encodes, st.sendNs);
        st.log.aggregate("net", "recv_wait", root, st.decodes, st.recvNs);
        st.log.aggregate("net", "decode", root, st.decodes, st.decodeNs);
        st.log.aggregate("bench", "check", root, st.decodes, st.checkNs);
        st.log.aggregate("compress", "codec", root, st.codecCalls,
                         st.compressNs + st.decompressNs);
    }
}

/** A running zkv_server with its port, stats file and clients. */
struct Server
{
    int pid = -1;
    std::string portFile, statsFile;
    std::vector<std::unique_ptr<zc::net::ZkvClient>> clients;

    /** SIGTERM, wait; the server writes its stats on the way out. */
    int
    stop()
    {
        clients.clear();
        if (pid < 0) return -1;
        ::kill(pid, SIGTERM);
        int rc = waitExit(pid);
        pid = -1;
        return rc;
    }

    ~Server()
    {
        stop();
        std::filesystem::remove(portFile);
        std::filesystem::remove(statsFile);
    }
};

std::unique_ptr<Server>
startServer(const Options& opt, int k, std::uint64_t seed, std::string& err)
{
    auto s = std::make_unique<Server>();
    s->portFile = opt.outDir + "/kv-tcp-port-" + std::to_string(k);
    s->statsFile = opt.outDir + "/kv-tcp-stats-" + std::to_string(k) + ".json";
    std::filesystem::remove(s->portFile);
    std::filesystem::remove(s->statsFile);
    s->pid = spawn({opt.serverBin, "--port=0", "--port-file=" + s->portFile,
                    "--stats-out=" + s->statsFile,
                    "--shards=" + std::to_string(kShards),
                    "--blocks=" + std::to_string(kBlocks), "--ways=4",
                    "--levels=2", "--value-bytes", "--codec=bdi",
                    "--seed=" + std::to_string(seed)},
                   -1, true);
    if (s->pid < 0) {
        err = "cannot spawn " + opt.serverBin;
        return nullptr;
    }
    // Listening once the port file holds a complete line.
    std::uint64_t t0 = nowNs();
    unsigned port = 0;
    while (port == 0) {
        std::ifstream in(s->portFile);
        std::string line;
        if (std::getline(in, line) && !in.eof()) {
            port = static_cast<unsigned>(std::strtoul(line.c_str(), nullptr, 10));
        }
        if (port) break;
        if (nowNs() - t0 > 20'000'000'000ULL) {
            err = "server did not start listening";
            return nullptr;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (std::uint32_t c = 0; c < kConns; c++) {
        zc::net::ZkvClientConfig cc;
        cc.port = static_cast<std::uint16_t>(port);
        auto cl = zc::net::ZkvClient::connect(cc);
        if (!cl) {
            err = "connect: " + cl.status().str();
            return nullptr;
        }
        s->clients.push_back(std::move(*cl));
    }
    return s;
}

/** Put every key once, on connection 0. */
void
prefill(Server& s, const Payloads& pl, ConnStats& st)
{
    std::uint64_t i = 0;
    pump(
        s.clients[0]->fd(), kPrefillDepth, pl,
        [&](std::uint64_t& key, bool& get) {
            key = i++;
            get = false;
            return key < kKeys;
        },
        nullptr, false, nullptr, st);
}

/** Numeric leaf of the server's stats JSON at a '/'-separated path. */
double
statAt(const zc::JsonValue& root, const std::string& path)
{
    const zc::JsonValue* v = &root;
    std::stringstream ss(path);
    std::string part;
    while (v && std::getline(ss, part, '/')) v = v->find(part);
    if (!v || !v->isNumber()) {
        throw std::runtime_error("server stats: no number at " + path);
    }
    return v->asDouble();
}

struct Phase
{
    double seconds = 0.0;
    std::uint64_t ops = 0;
    std::vector<std::unique_ptr<ConnStats>> conns;
};

Phase
timedPhase(Server& s, const Payloads& pl,
           const std::vector<std::vector<std::uint32_t>>& streams,
           double seconds, bool traced, std::size_t& cursor)
{
    Phase ph;
    std::atomic<bool> go{false}, stop{false};
    std::vector<std::thread> threads;
    std::unique_ptr<zc::Codec> codecs[kConns];
    for (std::uint32_t c = 0; c < kConns; c++) {
        ph.conns.push_back(std::make_unique<ConnStats>());
        if (traced) codecs[c] = zc::makeCodec(zc::CodecKind::Bdi);
        threads.emplace_back([&, c, start = cursor] {
            while (!go.load(std::memory_order_acquire)) {
            }
            std::size_t i = start;
            const std::vector<std::uint32_t>& stream = streams[c];
            pump(
                s.clients[c]->fd(), kDepth, pl,
                [&](std::uint64_t& key, bool& get) {
                    std::uint32_t e = stream[i++ & (kStreamOps - 1)];
                    key = e >> 2;
                    get = (e & 3) == kGet;
                    return true;
                },
                &stop, traced, codecs[c].get(), *ph.conns[c]);
        });
    }
    std::uint64_t t0 = nowNs();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    ph.seconds = static_cast<double>(nowNs() - t0) / 1e9;
    for (auto& th : threads) th.join();
    for (auto& c : ph.conns) ph.ops += c->doneInWindow;
    cursor += ph.ops;
    return ph;
}

} // namespace

Result
runKvTcp(const Options& opt)
{
    Result res;
    Payloads pl;
    pl.keySeed = mixSeed(opt.seed, 21);
    pl.lenSeed = mixSeed(opt.seed, 22);
    pl.content.seed = mixSeed(opt.seed, 23);
    std::vector<double> cdf = zipfCdf(kKeys, 0.99);
    std::vector<std::vector<std::uint32_t>> streams;
    for (std::uint32_t c = 0; c < kConns; c++) {
        streams.push_back(opStream(cdf, mixSeed(opt.seed, 30 + c), 90, 10));
    }

    // Set-up, repeated: server spawn to listening, connect, prefill.
    std::vector<double> setups;
    std::unique_ptr<Server> srv;
    std::uint64_t storeSeed = mixSeed(opt.seed, 24);
    for (int k = 0; k < kSetups; k++) {
        if (srv && srv->stop() != 0) res.errors.push_back("server exit");
        std::string err;
        std::uint64_t t0 = nowNs();
        srv = startServer(opt, k, storeSeed, err);
        if (!srv) {
            res.errors.push_back(err);
            return res;
        }
        ConnStats st;
        prefill(*srv, pl, st);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        res.fails.add(st.fails);
    }

    std::size_t cursor = 0;
    Phase plain = timedPhase(*srv, pl, streams,
                             opt.trace ? opt.seconds / 2 : opt.seconds, false,
                             cursor);
    Phase traced;
    if (opt.trace) {
        traced = timedPhase(*srv, pl, streams, opt.seconds / 2, true, cursor);
    }
    double rss = peakRssMb(srv->pid);
    std::string statsFile = srv->statsFile;
    if (srv->stop() != 0) res.errors.push_back("server exit");
    std::ifstream in(statsFile);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<zc::JsonValue> stats = zc::JsonValue::parse(text.str());
    if (!stats) {
        res.errors.push_back("unreadable server stats " + statsFile);
        return res;
    }

    LatencyHist lat;
    std::uint64_t gets = 0, hits = 0;
    for (Phase* ph : {&plain, &traced}) {
        for (auto& c : ph->conns) {
            res.fails.add(c->fails);
            gets += c->gets;
            hits += c->hits;
            if (ph == &plain) lat.merge(c->lat);
        }
    }
    // Space the store uses per byte of live data. Every key stays
    // resident (the key set is half the capacity) and its payload is a
    // pure function of the key, so this depends only on the seed.
    double raw = statAt(*stats, "store/compression/resident_raw_bytes");
    double stored = statAt(*stats, "store/compression/resident_stored_bytes");

    if (!opt.trace) {
        std::uint64_t p50 = lat.quantile(0.50), p99 = lat.quantile(0.99);
        res.set("setup_s", median(setups), "s");
        res.set("peak_rss_mb", rss, "MiB");
        res.set("ops_per_s", plain.ops / plain.seconds, "1/s");
        res.set("p50_us", p50 / 1e3, "us");
        res.set("p99_us", p99 / 1e3, "us");
        res.set("hit_ratio", ratio(hits, gets), "ratio");
        res.set("stored_per_raw", ratio(stored, raw), "ratio");
        res.set("sim_mpki", 1.0, "1/kinstr");
        res.set("sim_ipc", 1.0, "instr/cycle");
        checkTail(res, lat, p99);
        return res;
    }

    declareLayerMetrics(res);
    ConnStats t;
    LatencyHist serverNs;
    std::vector<const SpanLog*> logs;
    for (auto& c : traced.conns) {
        t.encodeNs += c->encodeNs;
        t.encodes += c->encodes;
        t.decodeNs += c->decodeNs;
        t.decodes += c->decodes;
        t.sendNs += c->sendNs;
        t.recvNs += c->recvNs;
        t.compressNs += c->compressNs;
        t.decompressNs += c->decompressNs;
        t.codecCalls += c->codecCalls;
        serverNs.merge(c->serverNs);
        logs.push_back(&c->log);
    }
    Reconciliation rec = reconcile(logs);
    double allOps = statAt(*stats, "server/batched_ops");
    double puts = statAt(*stats, "store/totals/puts");
    double inserts = statAt(*stats, "store/totals/put_inserts");
    res.set("store.evictions_per_put",
            ratio(statAt(*stats, "store/totals/evictions"), puts), "ratio");
    res.set("store.candidates_per_insert",
            ratio(statAt(*stats, "store/totals/walk_candidates"), inserts),
            "count");
    res.set("store.relocations_per_insert",
            ratio(statAt(*stats, "store/totals/relocations"), inserts),
            "count");
    res.set("compress.compress_ns", ratio(t.compressNs, t.codecCalls), "ns");
    res.set("compress.decompress_ns", ratio(t.decompressNs, t.codecCalls),
            "ns");
    res.set("compress.calls_per_op",
            ratio(statAt(*stats, "store/compression/compress_calls") +
                      statAt(*stats, "store/compression/decompress_calls"),
                  allOps),
            "ratio");
    res.set("net.encode_ns", ratio(t.encodeNs, t.encodes), "ns");
    res.set("net.decode_ns", ratio(t.decodeNs, t.decodes), "ns");
    res.set("net.send_ns", ratio(t.sendNs, t.encodes), "ns");
    res.set("net.recv_wait_ns", ratio(t.recvNs, t.decodes), "ns");
    res.set("net.server_ns.p50", serverNs.quantile(0.50), "ns");
    res.set("net.ops_per_batch",
            ratio(allOps, statAt(*stats, "server/batches")), "ratio");
    double plainRate = plain.ops / plain.seconds;
    double tracedRate = traced.ops / traced.seconds;
    setReconciliation(res, rec, plainRate / tracedRate - 1.0);
    writeSpans(opt, logs, rec);
    return res;
}

} // namespace pb
