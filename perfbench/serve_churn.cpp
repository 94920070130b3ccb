/**
 * @file
 * serve-churn: the in-process graph server under writes beside reads,
 * driven in lock-step rounds so every run sees the same keys.
 *
 * Set-up: a Kronecker graph (scale 16, edge factor 8), degree-sorted,
 * in a 4-shard GraphStore; a Server with 2 workers and 2 kernel
 * threads; 3 closed-loop clients plus the driver, all in-process
 * Client sessions over the wire codec.
 *
 * Each round runs in a fixed order:
 *  1. the driver sends an ingest of 32 edges (every 8th round a
 *     compaction instead) and waits for the ack — a new epoch;
 *  2. the driver sends one probe sssp_dist query, which runs on the
 *     new epoch (lazy materialize plus a cold kernel);
 *  3. concurrent phase: each client sends kRequestsPerClient requests
 *     from the fixed 20-slot class schedule over the round's 4-source
 *     hot pool (the pools rotate through 16 drawn sources, so a run's
 *     cold kernels are not tied to four sources' costs);
 *  4. a barrier ends the round.
 * No request is sent on a timer, so the set of (epoch, class, source)
 * keys — and with it the number of kernel runs — is the same on every
 * run with one seed. With 100 requests per client per round about one
 * request in fifteen is cold or queued behind a cold kernel, so the
 * median sits inside the cache-hit mode. The slowest percent is made of
 * requests queued behind the serialized cold kernels, in modes a few
 * tens of ms apart whose shares move from run to run, so p99 itself
 * sits on a gap between them; the tail is the mean of the samples
 * from p99 to p99.9 instead, which moves smoothly with those shares.
 *
 * Checks run after each round, outside the measured window: every
 * answer must be kOk on the round's epoch, all answers to one (class,
 * source, target) must agree, and a per-round sample (every answer
 * from one hot source, every component and rank answer) is compared
 * with core::seq on that epoch's graph.
 */

#include <algorithm>
// crono-lint: allow(raw-include): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
#include <barrier>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string_view>
// crono-lint: allow(raw-include): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/sequential.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"

namespace crono::perfbench {

namespace {

using graph::VertexId;
using serve::Op;

constexpr int kClients = 3;
constexpr int kHotSources = 4;
constexpr int kHotPools = 4;
constexpr int kIngestEdges = 32;
constexpr int kCompactEvery = 8;
constexpr int kSetupReps = 3;
constexpr unsigned kPrIterations = 20;
constexpr std::size_t kTraceRing = std::size_t{1} << 17;
/** tail_ms: mean latency of the samples ranked from p99 to p99.9. */
constexpr double kTailFrom = 0.99;
constexpr double kTailTo = 0.999;

/** bench_serve's 20-slot class schedule. */
constexpr Op kSchedule[20] = {
    Op::kPing,      Op::kBfsDist,   Op::kSsspDist,  Op::kBfsDist,
    Op::kComponent, Op::kSsspDist,  Op::kSsspBatch, Op::kTopDegree,
    Op::kSsspDist,  Op::kRankScore, Op::kBfsDist,   Op::kComponent,
    Op::kSsspDist,  Op::kTopRank,   Op::kSsspBatch, Op::kRankScore,
    Op::kBfsDist,   Op::kComponent, Op::kSsspDist,  Op::kTopDegree,
};

struct Size {
    unsigned scale;
    int requests_per_client;
    int traced_rounds;
};

Size
sizeFor(bool tiny)
{
    return tiny ? Size{10, 20, kCompactEvery} : Size{16, 100, 2 * kCompactEvery};
}

/** Store, executor and running server over one seed's graph. */
struct Stack {
    std::unique_ptr<serve::GraphStore> store;
    std::unique_ptr<rt::NativeExecutor> exec;
    std::unique_ptr<serve::Server> server;
    VertexId n = 0;
    std::uint64_t edge_slots = 0;
    std::vector<VertexId> sources; ///< kHotPools pools of kHotSources
    double generate_s = 0.0;
    double store_build_s = 0.0;
};

std::unique_ptr<Stack>
makeStack(std::uint64_t seed, const Size& size)
{
    auto s = std::make_unique<Stack>();
    std::unique_ptr<graph::Graph> g;
    s->generate_s = timed([&] {
        g = std::make_unique<graph::Graph>(graph::generators::kronecker(
            size.scale, 8, /*max_weight=*/64, seed));
    });
    s->n = g->numVertices();
    s->edge_slots = g->numEdges();
    Rng rng(seed * 31 + 7);
    while (s->sources.size() <
           static_cast<std::size_t>(kHotSources * kHotPools)) {
        const auto v = static_cast<VertexId>(rng.nextBelow(s->n));
        if (!g->neighbors(v).empty()) {
            s->sources.push_back(v);
        }
    }
    serve::StoreConfig store_cfg;
    store_cfg.num_shards = 4;
    store_cfg.reordering = graph::Reordering::kDegreeSort;
    s->store_build_s = timed([&] {
        s->store = std::make_unique<serve::GraphStore>(std::move(*g),
                                                       store_cfg);
    });
    serve::ServerConfig server_cfg;
    server_cfg.num_workers = 2;
    server_cfg.query.nthreads = 2;
    server_cfg.query.pagerank_iterations = kPrIterations;
    s->exec = std::make_unique<rt::NativeExecutor>(2);
    s->server = std::make_unique<serve::Server>(*s->store, *s->exec,
                                                server_cfg);
    s->server->start();
    return s;
}

/** One answered request, kept for the after-round checks. */
struct Answer {
    serve::Request req;
    serve::Response resp;
    double latency_ms = 0.0;
};

/** Round @p round's hot pool. */
std::span<const VertexId>
hotPool(const Stack& s, int round)
{
    return std::span(s.sources).subspan(
        static_cast<std::size_t>(round % kHotPools * kHotSources),
        kHotSources);
}

serve::Request
scheduledRequest(int slot, Rng& rng, const Stack& s,
                 std::span<const VertexId> hot)
{
    serve::Request req;
    req.op = kSchedule[static_cast<std::size_t>(slot) % 20];
    const auto pick = [&] { return hot[rng.nextBelow(hot.size())]; };
    const auto any = [&] {
        return static_cast<VertexId>(rng.nextBelow(s.n));
    };
    switch (req.op) {
      case Op::kBfsDist:
      case Op::kSsspDist:
        req.source = pick();
        req.target = any();
        break;
      case Op::kSsspBatch:
        req.source = pick();
        for (int t = 0; t < 8; ++t) {
            req.targets.push_back(any());
        }
        break;
      case Op::kComponent:
      case Op::kRankScore:
        req.source = pick();
        break;
      case Op::kTopDegree:
      case Op::kTopRank:
        req.k = 10;
        break;
      default:
        break;
    }
    return req;
}

/** Oracle answers for one epoch, computed lazily per need. */
class EpochOracle {
  public:
    explicit EpochOracle(const serve::Snapshot& snap)
        : snap_(snap), g_(snap.materialized())
    {
    }

    std::uint64_t
    dist(VertexId src, VertexId dst)
    {
        auto& d = dist_[src];
        if (d.empty()) {
            d = core::seq::sssp(g_, snap_.toInternal(src));
        }
        const graph::Dist v = d[snap_.toInternal(dst)];
        return v == graph::kInfDist ? serve::kNoValue : v;
    }

    std::uint64_t
    level(VertexId src, VertexId dst)
    {
        auto& l = level_[src];
        if (l.empty()) {
            l = core::seq::bfsLevels(g_, snap_.toInternal(src));
        }
        const std::uint32_t v = l[snap_.toInternal(dst)];
        return v == ~std::uint32_t{0} ? serve::kNoValue : v;
    }

    /** Minimum external id in @p v's component. */
    std::uint64_t
    component(VertexId v)
    {
        if (canon_.empty()) {
            const std::vector<VertexId> label =
                core::seq::componentLabels(g_);
            std::vector<VertexId> min_ext(label.size(), graph::kNoVertex);
            for (VertexId u = 0; u < label.size(); ++u) {
                min_ext[label[u]] =
                    std::min(min_ext[label[u]], snap_.toExternal(u));
            }
            canon_.resize(label.size());
            for (VertexId u = 0; u < label.size(); ++u) {
                canon_[u] = min_ext[label[u]];
            }
        }
        return canon_[snap_.toInternal(v)];
    }

    bool
    rankClose(VertexId v, std::uint64_t bits)
    {
        if (rank_.empty()) {
            rank_ = core::seq::pageRank(g_, kPrIterations, 0.15);
        }
        return std::fabs(std::bit_cast<double>(bits) -
                         rank_[snap_.toInternal(v)]) <= kRankTolerance;
    }

  private:
    const serve::Snapshot& snap_;
    const graph::Graph& g_;
    std::map<VertexId, std::vector<graph::Dist>> dist_;
    std::map<VertexId, std::vector<std::uint32_t>> level_;
    std::vector<VertexId> canon_;
    std::vector<double> rank_;
};

/** Whether @p a is one the round's sample compares with core::seq. */
bool
sampled(const Answer& a, VertexId check_source)
{
    switch (a.req.op) {
      case Op::kBfsDist:
      case Op::kSsspDist:
      case Op::kSsspBatch:
        return a.req.source == check_source;
      case Op::kComponent:
      case Op::kRankScore:
        return true;
      default:
        return false;
    }
}

bool
matchesOracle(const Answer& a, EpochOracle& o)
{
    const std::vector<std::uint64_t>& v = a.resp.values;
    switch (a.req.op) {
      case Op::kBfsDist:
        return v.size() == 1 && v[0] == o.level(a.req.source, a.req.target);
      case Op::kSsspDist:
        return v.size() == 1 && v[0] == o.dist(a.req.source, a.req.target);
      case Op::kSsspBatch:
        if (v.size() != a.req.targets.size()) {
            return false;
        }
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i] != o.dist(a.req.source, a.req.targets[i])) {
                return false;
            }
        }
        return true;
      case Op::kComponent:
        return v.size() == 1 && v[0] == o.component(a.req.source);
      case Op::kRankScore:
        return v.size() == 1 && o.rankClose(a.req.source, v[0]);
      default:
        return true;
    }
}

/** What one round's measurement and checks produce. */
struct RoundLog {
    double window_s = 0.0;
    double write_ms = 0.0; ///< ingest or compaction ack latency
    double fresh_ms = 0.0;
    bool compaction = false;
    std::uint64_t ok = 0;
    std::vector<double> latency_ms; ///< concurrent phase only
    /** The same latencies split by request class (opcode). */
    std::vector<std::vector<double>> class_ms =
        std::vector<std::vector<double>>(serve::kNumOps);
};

/**
 * Lock-step driver over one stack: the client threads live for the
 * whole run and meet the driver at two barriers per round.
 */
class Churn {
  public:
    Churn(Stack& s, const Size& size, std::uint64_t seed, bool corrupt,
          Result* r)
        : s_(s), size_(size), seed_(seed), corrupt_(corrupt), r_(r),
          driver_(*s.server), start_(kClients + 1), end_(kClients + 1),
          answers_(kClients)
    {
        for (int c = 0; c < kClients; ++c) {
            clients_.push_back(std::make_unique<serve::Client>(*s.server));
        }
        for (int c = 0; c < kClients; ++c) {
            threads_.emplace_back([this, c] { clientLoop(c); });
        }
    }

    ~Churn()
    {
        stop_ = true;
        start_.arrive_and_wait();
        // crono-lint: allow(raw-sync): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
        for (std::thread& t : threads_) {
            t.join();
        }
    }

    Churn(const Churn&) = delete;
    Churn& operator=(const Churn&) = delete;

    RoundLog
    round()
    {
        RoundLog log;
        const int r = round_;
        log.compaction = r % kCompactEvery == kCompactEvery - 1;
        serve::Request write;
        if (log.compaction) {
            write.op = Op::kCompact;
        } else {
            write.op = Op::kIngest;
            Rng rng(seed_ * 104729 + static_cast<std::uint64_t>(r));
            for (int e = 0; e < kIngestEdges; ++e) {
                write.edges.push_back(
                    {static_cast<VertexId>(rng.nextBelow(s_.n)),
                     static_cast<VertexId>(rng.nextBelow(s_.n)),
                     static_cast<graph::Weight>(1 + rng.nextBelow(64))});
            }
        }
        Answer probe;
        probe.req.op = Op::kSsspDist;
        probe.req.source =
            hotPool(s_, r)[static_cast<std::size_t>(r / kHotPools) %
                           kHotSources];
        probe.req.target = static_cast<VertexId>(
            Rng(seed_ * 7 + static_cast<std::uint64_t>(r)).nextBelow(s_.n));

        const Clock::time_point begin = Clock::now();
        const serve::Response ack = driver_.call(write);
        log.write_ms = 1e3 * secondsSince(begin);
        probe.resp = driver_.call(probe.req);
        log.fresh_ms = 1e3 * secondsSince(begin);
        epoch_ = ack.epoch;
        start_.arrive_and_wait();
        end_.arrive_and_wait();
        log.window_s = secondsSince(begin);

        // Checks, outside the window: the round's epoch is still the
        // current one, since only the driver writes.
        r_->check(ack.status == serve::Status::kOk);
        log.ok += ack.status == serve::Status::kOk ? 1 : 0;
        const std::shared_ptr<const serve::Snapshot> snap =
            s_.server->store().snapshot();
        r_->check(snap->epoch() == epoch_);
        EpochOracle oracle(*snap);
        const VertexId check_source = probe.req.source;
        std::map<std::tuple<int, VertexId, VertexId, std::uint32_t>,
                 const Answer*>
            first;
        const auto checkAnswer = [&](Answer& a, bool timed_answer) {
            bool ok = a.resp.status == serve::Status::kOk &&
                      a.resp.epoch == epoch_;
            log.ok += a.resp.status == serve::Status::kOk ? 1 : 0;
            if (timed_answer) {
                log.latency_ms.push_back(a.latency_ms);
                log.class_ms[static_cast<std::size_t>(a.req.op)].push_back(
                    a.latency_ms);
            }
            if (ok && a.req.op != Op::kSsspBatch) {
                const auto key =
                    std::make_tuple(static_cast<int>(a.req.op), a.req.source,
                                    a.req.target, a.req.k);
                const auto [it, fresh] = first.emplace(key, &a);
                ok = fresh || (it->second->resp.values == a.resp.values &&
                               it->second->resp.vertices ==
                                   a.resp.vertices);
            }
            if (ok && sampled(a, check_source)) {
                if (corrupt_ && !corrupted_ && !a.resp.values.empty()) {
                    a.resp.values[0] ^= 1; // self-test: must fail
                    corrupted_ = true;
                }
                ok = matchesOracle(a, oracle);
            }
            r_->check(ok);
        };
        checkAnswer(probe, false);
        for (std::vector<Answer>& per_client : answers_) {
            for (Answer& a : per_client) {
                checkAnswer(a, true);
            }
        }
        last_answers_ = std::move(answers_);
        answers_.assign(kClients, {});
        ++round_;
        return log;
    }

    /** Requests and responses of the last round, for the codec probe. */
    const std::vector<std::vector<Answer>>& lastAnswers() const
    {
        return last_answers_;
    }

    serve::Client& driver() { return driver_; }

  private:
    void
    clientLoop(int c)
    {
        for (;;) {
            start_.arrive_and_wait();
            if (stop_) {
                return;
            }
            Rng rng(seed_ * 7919 + static_cast<std::uint64_t>(c) * 15485863 +
                    static_cast<std::uint64_t>(round_) * 2654435761u);
            std::vector<Answer>& out = answers_[static_cast<std::size_t>(c)];
            out.reserve(static_cast<std::size_t>(size_.requests_per_client));
            for (int i = 0; i < size_.requests_per_client; ++i) {
                Answer a;
                a.req = scheduledRequest(c * 7 + i, rng, s_,
                                         hotPool(s_, round_));
                const Clock::time_point t0 = Clock::now();
                a.resp = clients_[static_cast<std::size_t>(c)]->call(a.req);
                a.latency_ms = 1e3 * secondsSince(t0);
                out.push_back(std::move(a));
            }
            end_.arrive_and_wait();
        }
    }

    Stack& s_;
    Size size_;
    std::uint64_t seed_;
    bool corrupt_;
    bool corrupted_ = false;
    Result* r_;
    serve::Client driver_;
    std::vector<std::unique_ptr<serve::Client>> clients_;
    // crono-lint: allow(raw-sync): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
    std::barrier<> start_;
    // crono-lint: allow(raw-sync): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
    std::barrier<> end_;
    /// Written by the driver before start_, read by clients after it.
    int round_ = 0;
    bool stop_ = false;
    std::uint64_t epoch_ = 0;
    std::vector<std::vector<Answer>> answers_;
    std::vector<std::vector<Answer>> last_answers_;
    // crono-lint: allow(raw-sync): client threads are the load generator, outside any ExecutionContext; they only call serve::Client
    std::vector<std::thread> threads_;
};

/** Window totals over a sequence of rounds. */
struct Totals {
    double window_s = 0.0;
    std::uint64_t ok = 0;
    std::vector<double> latency_ms, fresh_ms, ingest_ms, compact_ms;
    std::vector<std::vector<double>> class_ms =
        std::vector<std::vector<double>>(serve::kNumOps);

    void
    add(RoundLog&& log)
    {
        window_s += log.window_s;
        ok += log.ok;
        latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
        for (std::size_t i = 0; i < class_ms.size(); ++i) {
            class_ms[i].insert(class_ms[i].end(), log.class_ms[i].begin(),
                               log.class_ms[i].end());
        }
        fresh_ms.push_back(log.fresh_ms);
        (log.compaction ? compact_ms : ingest_ms).push_back(log.write_ms);
    }

    void
    merge(const Totals& o)
    {
        window_s += o.window_s;
        ok += o.ok;
        for (auto [to, from] :
             {std::pair{&latency_ms, &o.latency_ms}, {&fresh_ms, &o.fresh_ms},
              {&ingest_ms, &o.ingest_ms}, {&compact_ms, &o.compact_ms}}) {
            to->insert(to->end(), from->begin(), from->end());
        }
        for (std::size_t i = 0; i < class_ms.size(); ++i) {
            class_ms[i].insert(class_ms[i].end(), o.class_ms[i].begin(),
                               o.class_ms[i].end());
        }
    }
};

/** Count-weighted server-side p50 (ms) of the query classes. */
double
serverP50Ms(const std::string& stats_json, std::vector<double>* class_p50,
            std::vector<double>* class_weight)
{
    obs::json::Value doc;
    if (!obs::json::parse(stats_json, doc)) {
        return 0.0;
    }
    const obs::json::Value* classes = doc.find("classes");
    if (classes == nullptr) {
        return 0.0;
    }
    double weighted = 0.0, total = 0.0;
    for (const obs::json::Value& c : classes->arr) {
        const obs::json::Value* op = c.find("op");
        const obs::json::Value* count = c.find("count");
        const obs::json::Value* p50 = c.find("p50_seconds");
        if (op == nullptr || count == nullptr || p50 == nullptr) {
            continue;
        }
        for (int o = 0; o < serve::kNumOps; ++o) {
            if (op->str == serve::opName(static_cast<Op>(o)) &&
                o != static_cast<int>(Op::kIngest) &&
                o != static_cast<int>(Op::kCompact) &&
                o != static_cast<int>(Op::kStats)) {
                (*class_p50)[static_cast<std::size_t>(o)] = 1e3 * p50->num;
                (*class_weight)[static_cast<std::size_t>(o)] =
                    static_cast<double>(count->asU64());
                weighted += 1e3 * p50->num * static_cast<double>(count->asU64());
                total += static_cast<double>(count->asU64());
            }
        }
    }
    return total > 0.0 ? weighted / total : 0.0;
}

} // namespace

Result
runServeChurn(const Options& opt)
{
    Result r;
    const Size size = sizeFor(opt.tiny);
    r.describe("graph", "kron(2^" + std::to_string(size.scale) + ",ef8)");
    r.describe("shards", 4);
    r.describe("server_workers", 2);
    r.describe("kernel_threads", 2);
    r.describe("clients", kClients);
    r.describe("requests_per_client_round", size.requests_per_client);
    r.describe("hot_sources", kHotSources);
    r.describe("hot_pools", kHotPools);
    r.describe("compact_every", kCompactEvery);

    if (!opt.trace) {
        std::vector<double> setup_s;
        std::unique_ptr<Stack> stack;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            stack.reset();
            setup_s.push_back(
                timed([&] { stack = makeStack(opt.seed, size); }));
        }
        // Whole compaction cycles, so every cycle mixes the same share
        // of compaction rounds. rps is the median over cycles: a host
        // stall inside one cycle does not move it. The tail pools the
        // whole window and leaves out its slowest 0.1 %, where stalls
        // land.
        Totals t;
        std::vector<double> cycle_rps;
        int rounds = 0;
        {
            Churn churn(*stack, size, opt.seed, opt.corrupt, &r);
            while (t.window_s < opt.seconds) {
                Totals cycle;
                for (int i = 0; i < kCompactEvery; ++i) {
                    cycle.add(churn.round());
                    ++rounds;
                }
                cycle_rps.push_back(static_cast<double>(cycle.ok) /
                                    cycle.window_s);
                t.merge(cycle);
            }
        }
        // A caller's wait for one answer of each kernel's class.
        const auto classMs = [&](Op op) {
            return median(t.class_ms[static_cast<std::size_t>(op)]);
        };
        r.add("setup_s", median(setup_s), "s");
        r.add("bfs_ms", classMs(Op::kBfsDist), "ms");
        r.add("sssp_ms", classMs(Op::kSsspDist), "ms");
        r.add("cc_ms", classMs(Op::kComponent), "ms");
        r.add("pr_ms", classMs(Op::kRankScore), "ms");
        r.add("tail_ms", tailMean(t.latency_ms, kTailFrom, kTailTo), "ms");
        r.add("ops_per_s", median(cycle_rps), "1/s");
        r.describe("rounds", rounds);
        r.describe("setup_reps", kSetupReps);
        r.describe("latency_samples", static_cast<double>(t.latency_ms.size()));
        r.describe("cycles", static_cast<double>(cycle_rps.size()));
        r.describe("tail_from_percentile", 100.0 * kTailFrom);
        r.describe("tail_to_percentile", 100.0 * kTailTo);
        r.describe("tail_samples",
                   std::floor(kTailTo * static_cast<double>(t.latency_ms.size())) -
                       std::floor(kTailFrom *
                                  static_cast<double>(t.latency_ms.size())));
        return r;
    }

    // Traced run: the same fixed rounds untraced, then traced on a
    // fresh stack (the session must exist before the server starts).
    double untraced = 0.0;
    {
        std::unique_ptr<Stack> stack = makeStack(opt.seed, size);
        Churn churn(*stack, size, opt.seed, false, &r);
        for (int i = 0; i < size.traced_rounds; ++i) {
            untraced += churn.round().window_s;
        }
    }
    obs::TelemetrySession session(kTraceRing);
    std::unique_ptr<Stack> stack = makeStack(opt.seed, size);
    const std::uint64_t epoch0 = stack->store->snapshot()->epoch();
    Totals t;
    std::vector<double> class_p50(serve::kNumOps, 0.0);
    std::vector<double> class_weight(serve::kNumOps, 0.0);
    double server_p50 = 0.0, codec_us = 0.0, materialize_ms = 0.0;
    std::uint64_t window_begin = 0, window_end = 0;
    {
        Churn churn(*stack, size, opt.seed, opt.corrupt, &r);
        window_begin = obs::nowNs();
        for (int i = 0; i < size.traced_rounds; ++i) {
            t.add(churn.round());
        }
        window_end = obs::nowNs();
        serve::Request stats;
        stats.op = Op::kStats;
        server_p50 = serverP50Ms(churn.driver().call(stats).text, &class_p50,
                                 &class_weight);

        // Codec: encode and decode every frame of the last round.
        const auto& last = churn.lastAnswers();
        std::vector<std::uint8_t> frame;
        std::uint64_t frames = 0;
        const double codec_s = timed([&] {
            for (int rep = 0; rep < 20; ++rep) {
                for (const auto& answers : last) {
                    for (const Answer& a : answers) {
                        serve::Request req;
                        serve::Response resp;
                        frame.clear();
                        serve::encodeRequest(a.req, &frame);
                        r.check(serve::decodeRequest(
                                    std::span(frame).subspan(4), &req) ==
                                serve::Status::kOk);
                        frame.clear();
                        serve::encodeResponse(a.resp, &frame);
                        r.check(serve::decodeResponse(
                                    std::span(frame).subspan(4), &resp) ==
                                serve::Status::kOk);
                        frames += 2;
                    }
                }
            }
        });
        codec_us = frames > 0 ? 1e6 * codec_s / static_cast<double>(frames)
                              : 0.0;

        // Post-window probe: one more ingest, then the rebuild alone.
        serve::Request ingest;
        ingest.op = Op::kIngest;
        ingest.edges.push_back({0, static_cast<VertexId>(stack->n - 1), 1});
        r.check(churn.driver().call(ingest).status == serve::Status::kOk);
        const std::shared_ptr<const serve::Snapshot> snap =
            stack->store->snapshot();
        materialize_ms = 1e3 * timed([&] { (void)snap->materialized(); });
    }
    const std::uint64_t epochs =
        stack->store->snapshot()->epoch() - epoch0 - 1;
    stack->server->stop();

    // Spans and counters are read only after the server threads joined.
    const obs::Recorder& rec = session.recorder();
    std::uint64_t kernel_runs = 0;
    if (const obs::Track* host = rec.peek(obs::TrackKind::kHost, 0)) {
        for (const obs::SpanEvent& ev : host->spans()) {
            const std::string_view name = ev.name;
            if (ev.cat == obs::SpanCat::kKernel && ev.begin >= window_begin &&
                ev.begin < window_end &&
                (name == "BFS" || name == "SSSP_DIJK" ||
                 name == "CONN_COMP" || name == "PAGE_RANK")) {
                ++kernel_runs;
            }
        }
    }
    double requests = 0.0, batches = 0.0;
    for (int w = 0; w < 2; ++w) {
        // Server worker tracks sit at host tid 256 + w.
        if (const obs::Track* tr = rec.peek(obs::TrackKind::kHost, 256 + w)) {
            requests += static_cast<double>(
                tr->counter(obs::Counter::kServeRequests));
            batches += static_cast<double>(
                tr->counter(obs::Counter::kServeBatches));
        }
    }
    // Kernel-backed requests: every class but ping and top_degree,
    // plus one probe per round.
    std::uint64_t kernel_requests =
        static_cast<std::uint64_t>(size.traced_rounds);
    double transport = 0.0, weight = 0.0;
    for (int o = 0; o < serve::kNumOps; ++o) {
        const auto i = static_cast<std::size_t>(o);
        if (o != static_cast<int>(Op::kPing) &&
            o != static_cast<int>(Op::kTopDegree)) {
            kernel_requests += t.class_ms[i].size();
        }
        if (class_weight[i] > 0.0 && !t.class_ms[i].empty()) {
            transport +=
                class_weight[i] * (median(t.class_ms[i]) - class_p50[i]);
            weight += class_weight[i];
        }
    }

    r.add("graph.generate_s", stack->generate_s, "s");
    r.add("graph.edge_slots", static_cast<double>(stack->edge_slots), "count");
    r.add("serve.p50_ms", median(t.latency_ms), "ms");
    r.add("serve.fresh_ms", median(t.fresh_ms), "ms");
    r.add("serve.ingest_ms", median(t.ingest_ms), "ms");
    r.add("serve.store_build_s", stack->store_build_s, "s");
    r.add("serve.server_p50_ms", server_p50, "ms");
    r.add("serve.transport_ms", weight > 0.0 ? transport / weight : 0.0, "ms");
    r.add("serve.batch_size", batches > 0.0 ? requests / batches : 0.0,
          "requests");
    r.add("serve.codec_us", codec_us, "us");
    r.add("serve.kernel_runs", static_cast<double>(kernel_runs), "count");
    r.add("serve.hit_ratio",
          kernel_requests > 0
              ? 1.0 - static_cast<double>(kernel_runs) /
                          static_cast<double>(kernel_requests)
              : 0.0,
          "ratio");
    r.add("serve.materialize_ms", materialize_ms, "ms");
    r.add("serve.compact_ms", median(t.compact_ms), "ms");
    r.add("serve.epochs", static_cast<double>(epochs), "count");
    r.add("obs.trace_overhead", untraced > 0.0 ? t.window_s / untraced : 0.0,
          "ratio");
    r.add("obs.dropped_spans", static_cast<double>(rec.totalDropped()),
          "count");
    r.describe("traced_rounds", size.traced_rounds);
    r.describe("trace_ring_spans", static_cast<double>(kTraceRing));
    return r;
}

} // namespace crono::perfbench
