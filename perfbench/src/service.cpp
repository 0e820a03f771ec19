// service-mix: an in-process cgsimd Daemon on loopback (two I/O threads,
// one worker, persistent store in the work dir) driven by one
// generator over two ServiceClient connections -- connection 0 on the
// plain socket, connection 1 on the shm plane. Request kinds:
//
//   warm_rtp     one element of a warm sim session's input changes
//                (send_rtp + run: server-side byte diff, cone resim);
//   cold_fresh   open a never-seen sim spec: compile, persist, run, close;
//   cold_store   open a spec compiled into the store at set-up and since
//                evicted from memory: store load, run, close;
//   coop_big     a 1 MiB i32 tensor through a warm coop session.
//
// Phase A is an open loop at the fixed rate kPhaseARate over all four
// kinds: request i is due at i / rate and goes to the next free
// connection; its latency runs from that due time to its verified
// outputs. Its figures are printed and its backlog is checked, but the
// end-to-end metrics come from Phase B: a closed loop on each connection,
// which sends its next request when the previous one is verified, over
// the warm_rtp, cold_store and coop_big kinds. Every output is checked
// against its analytic value.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/compiled_store.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/graph_codec.hpp"
#include "service/kernels.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace cgsim;
using namespace cgsim::service;

constexpr int kChains = 8;
constexpr int kDepth = 4;
constexpr int kItems = 64;
constexpr int kStoreSpecs = 192;  ///< > 2x the memory LRU and lane pool
constexpr int kWarmVariant = 512 * 512 - 1;  ///< never a cold variant
constexpr std::size_t kBigInts = (1u << 20) / sizeof(int);  // 1 MiB
constexpr std::size_t kChunkInts = kBigInts / 4;
constexpr int kCoopDepth = 1;
constexpr int kLanes = 2;               ///< connection 0 socket, 1 shm
/// Phase A open-loop rate, requests/s: about half the closed-loop capacity
/// of the four-kind mix on two connections of a 4-thread host.
constexpr double kPhaseARate = 150.0;
constexpr double kPhaseAShare = 0.2;    ///< of the run; Phase B the rest
constexpr double kBacklogBoundS = 0.5;  ///< Phase A backlog bound, seconds
constexpr double kSliceS = 0.5;         ///< traced/untraced Phase B slices

enum class Kind : int { warm_rtp, cold_fresh, cold_store, coop_big };
constexpr const char* kKindName[] = {"warm", "cold_compile", "cold_store",
                                     "coop_big"};
/// Phase B's kinds: every kind but cold_fresh, whose compile-and-persist
/// writes are timed in Phase A.
constexpr Kind kClosedKinds[] = {Kind::warm_rtp, Kind::cold_store,
                                 Kind::coop_big};

/// Request i's kind. Phase A: 40 % warm_rtp, 20 % each of the others.
/// Phase B (`closed`): 50 % warm_rtp, 25 % cold_store, 25 % coop_big.
Kind kind_of(std::uint64_t seed, std::uint64_t i, bool closed) {
  std::mt19937_64 rng{seed * 0x9E3779B97F4A7C15ull + i};
  const unsigned roll = static_cast<unsigned>(rng() % 100);
  if (closed) {
    return roll < 50 ? Kind::warm_rtp
                     : roll < 75 ? Kind::cold_store : Kind::coop_big;
  }
  if (roll < 40) return Kind::warm_rtp;
  if (roll < 60) return Kind::cold_fresh;
  if (roll < 80) return Kind::cold_store;
  return Kind::coop_big;
}

/// kChains inc-chains of kDepth kernels. `variant` sets two edge
/// capacities so each variant serializes to distinct bytes (a distinct
/// compiled artifact and warm-lane key) while the work stays identical.
GraphSpec chains_spec(int variant) {
  GraphSpec g;
  for (int c = 0; c < kChains; ++c) {
    const int base = static_cast<int>(g.edges.size());
    for (int d = 0; d <= kDepth; ++d) g.edges.push_back({"i32", 64, {}});
    for (int d = 0; d < kDepth; ++d) {
      g.kernels.push_back({"svc_inc_i32", {base + d, base + d + 1}});
    }
    g.inputs.push_back(base);
    g.outputs.push_back(base + kDepth);
  }
  g.edges[0].capacity = 64 + variant % 512;
  g.edges[1].capacity = 64 + variant / 512 % 512;
  return g;
}

GraphSpec coop_spec() {
  GraphSpec g;
  for (int d = 0; d <= kCoopDepth; ++d) g.edges.push_back({"i32", 4096, {}});
  for (int d = 0; d < kCoopDepth; ++d) {
    g.kernels.push_back({"svc_inc_i32", {d, d + 1}});
  }
  g.inputs = {0};
  g.outputs = {kCoopDepth};
  return g;
}

/// Each output stream must equal its input plus `depth`.
bool outputs_match(const RunOutcome& out,
                   const std::vector<std::vector<int>>& ins, int depth) {
  if (!out.ok || out.outputs.size() != ins.size()) return false;
  for (std::size_t c = 0; c < ins.size(); ++c) {
    const std::string& raw = out.outputs[c];
    if (raw.size() != ins[c].size() * sizeof(int)) return false;
    for (std::size_t i = 0; i < ins[c].size(); ++i) {
      int v = 0;
      std::memcpy(&v, raw.data() + i * sizeof(int), sizeof(int));
      if (v != ins[c][i] + depth) return false;
    }
  }
  return true;
}

/// Times the daemon's store traffic from outside: the cache's store hook
/// is swapped for this wrapper around a CompiledStore on the same
/// directory, so every load and save the daemon makes is one span.
class TimedStore final : public aiesim::CompiledArtifactStore {
 public:
  explicit TimedStore(const std::string& dir, std::size_t max_files)
      : inner_(dir, 256u << 20, max_files) {}
  std::shared_ptr<const aiesim::CompiledGraph> load(
      const std::string& key) override {
    Scope s{"compiled.store_load"};
    return inner_.load(key);
  }
  void save(const aiesim::CompiledGraph& cg) override {
    Scope s{"compiled.store_save"};
    inner_.save(cg);
  }

 private:
  aiesim::CompiledStore inner_;
};

/// One generator connection and its long-lived sessions.
struct Lane {
  bool shm = true;
  std::unique_ptr<ServiceClient> cli;
  std::uint64_t warm_sid = 0;
  std::vector<std::vector<int>> warm_in;
  std::uint64_t coop_sid = 0;
  std::vector<int> big[2];           ///< alternating payloads
  std::uint64_t big_digest[2] = {};      ///< fnv1a of the expected output
  int big_next = 0;
  std::mt19937_64 rng;
};

/// Per-request samples a lane gathers; merged after the phases end.
struct LaneStats {
  std::vector<double> due_ms[4];  ///< Phase A, due -> verified, per kind
  std::vector<double> a_service_ms;  ///< Phase A, start -> verified
  std::vector<double> late_ms;    ///< Phase A, due -> start
  std::vector<double> kind_ms[4]; ///< start -> verified result, per kind
  std::vector<std::pair<std::int64_t, double>> closed_ms[4];  ///< Phase B
                                  ///  (completion stamp, ms) per kind
  std::vector<double> server_ms;  ///< SessionResultMsg.server_us
  std::vector<double> transport_ms;
  std::vector<double> send_mib_ms;  ///< per-MiB coop input send
  std::vector<std::int64_t> done_ns;  ///< Phase B completion stamps
  std::uint64_t first_virtual_cycles = 0;
};

struct State {
  std::string store_dir;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<Lane>> lanes;  // destroyed before the daemon
  std::atomic<int> fresh_counter{kStoreSpecs};
  std::atomic<int> store_counter{0};

  ~State() {
    lanes.clear();
    if (daemon) daemon->stop();
    daemon.reset();
    aiesim::CompiledGraphCache::instance().set_store(nullptr);
    aiesim::CompiledGraphCache::instance().clear();
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
};

std::vector<std::vector<int>> chain_inputs(std::mt19937_64& rng) {
  std::vector<std::vector<int>> ins(kChains, std::vector<int>(kItems));
  for (auto& in : ins) {
    for (int& x : in) x = static_cast<int>(rng() % 200001) - 100000;
  }
  return ins;
}

/// Runs run() on the session, timing the transport share: client-side
/// wait minus the server's own run time.
RunOutcome timed_run(Lane& lane, std::uint64_t sid, LaneStats& ls,
                     std::uint64_t req) {
  Scope s{"service.run", nullptr, req};
  const std::int64_t t0 = now_ns();
  RunOutcome out = lane.cli->run(sid);
  const double ms = ms_between(t0, now_ns());
  const double server = static_cast<double>(out.result.server_us) / 1e3;
  ls.server_ms.push_back(server);
  ls.transport_ms.push_back(ms - server);
  return out;
}

/// One request of `kind`; returns false when its outputs did not verify
/// (or the daemon refused it).
bool do_request(State& st, Lane& lane, Kind kind, LaneStats& ls,
                std::uint64_t req, bool codec_span) {
  const std::int64_t t0 = now_ns();
  bool ok = false;
  switch (kind) {
    case Kind::warm_rtp: {
      auto& in0 = lane.warm_in[0];
      // An RTP update changes the parameter: the new value always differs
      // from the current one (an unchanged re-send is the separate
      // probe_unchanged_rtp check).
      const std::size_t pos = lane.rng() % in0.size();
      in0[pos] += 1 + static_cast<int>(lane.rng() % 999);
      {
        Scope s{"net.send", nullptr, req};
        lane.cli->send_rtp(lane.warm_sid, 0, in0.data(),
                           in0.size() * sizeof(int));
      }
      const RunOutcome out = timed_run(lane, lane.warm_sid, ls, req);
      ok = outputs_match(out, lane.warm_in, kDepth);
      if (ls.first_virtual_cycles == 0) {
        ls.first_virtual_cycles = out.result.virtual_cycles;
      }
      break;
    }
    case Kind::cold_fresh:
    case Kind::cold_store: {
      const int variant = kind == Kind::cold_fresh
                              ? st.fresh_counter.fetch_add(1)
                              : st.store_counter.fetch_add(1) % kStoreSpecs;
      const GraphSpec spec = chains_spec(variant);
      const auto ins = chain_inputs(lane.rng);
      std::uint64_t sid = 0;
      {
        Scope s{"service.open", nullptr, req};
        sid = lane.cli->open(RunMode::sim, spec);
      }
      {
        Scope s{"net.send", nullptr, req};
        for (std::size_t c = 0; c < ins.size(); ++c) {
          lane.cli->send_input(sid, c, ins[c].data(),
                               ins[c].size() * sizeof(int));
        }
      }
      const RunOutcome out = timed_run(lane, sid, ls, req);
      ok = outputs_match(out, ins, kDepth) && !out.result.warm;
      {
        Scope s{"service.close", nullptr, req};
        lane.cli->close_session(sid);
      }
      if (codec_span) {
        // service.codec_us: the wire codec both ends run for this spec,
        // timed on the generator after the request completed.
        Scope s{"service.codec"};
        rt::DynamicGraphBuilder b;
        build_graph(spec, b);
        (void)serialize_graph(spec);
      }
      break;
    }
    case Kind::coop_big: {
      const int k = lane.big_next;
      lane.big_next ^= 1;
      const std::vector<int>& payload = lane.big[k];
      {
        Scope s{"net.send_mib", lane.shm ? "shm" : "socket", req};
        const std::int64_t s0 = now_ns();
        // The daemon's credit window (1 MiB) bounds one chunk.
        for (std::size_t at = 0; at < payload.size(); at += kChunkInts) {
          const std::size_t n = std::min(kChunkInts, payload.size() - at);
          lane.cli->send_input(lane.coop_sid, 0, payload.data() + at,
                               n * sizeof(int));
        }
        ls.send_mib_ms.push_back(ms_between(s0, now_ns()) * (1u << 20) /
                                 static_cast<double>(payload.size() * sizeof(int)));
      }
      const RunOutcome out = timed_run(lane, lane.coop_sid, ls, req);
      ok = out.ok && out.outputs.size() == 1 &&
           fnv1a(out.outputs[0].data(), out.outputs[0].size()) ==
               lane.big_digest[k];
      break;
    }
  }
  ls.kind_ms[static_cast<int>(kind)].push_back(ms_between(t0, now_ns()));
  return ok;
}

/// A changed RTP value, then the same value re-sent: both reruns must
/// return the outputs of the current inputs. Runs in the self-check.
void probe_unchanged_rtp(Lane& lane, Report& rep) {
  auto& in0 = lane.warm_in[0];
  in0[0] += 7;
  for (const char* what : {"changed RTP rerun", "unchanged RTP re-send"}) {
    lane.cli->send_rtp(lane.warm_sid, 0, in0.data(), in0.size() * sizeof(int));
    const RunOutcome out = lane.cli->run(lane.warm_sid);
    ++rep.attempted;
    if (!outputs_match(out, lane.warm_in, kDepth)) {
      rep.fail(std::string{what} + ": outputs are not those of the current "
               "inputs");
    }
  }
}

std::unique_ptr<State> setup(const Options& o) {
  auto st = std::make_unique<State>();
  st->store_dir = o.work_dir + "/store";
  std::error_code ec;
  std::filesystem::remove_all(st->store_dir, ec);
  register_builtin_kernels();

  DaemonConfig cfg;
  // One I/O thread per connection, so a 1 MiB transfer on one connection
  // never holds up the other's small requests. One worker: with two, a
  // request at times waited out a scheduler slice behind the other
  // connection's coop run on a shared CPU, which made p99 bimodal between
  // runs; with one it queues behind that run every time.
  cfg.io_threads = kLanes;
  cfg.workers = 1;
  cfg.cache_dir = st->store_dir;
  cfg.cache_max_files = 512;
  st->daemon = std::make_unique<Daemon>(
      net::listen_tcp_loopback(0, &st->port), cfg);
  auto& cache = aiesim::CompiledGraphCache::instance();
  cache.set_store(std::make_shared<TimedStore>(st->store_dir, cfg.cache_max_files));

  // Pre-fill the store with the cold_store specs, then drop them from the
  // in-memory cache so the daemon's first bind of each loads from disk.
  for (int v = 0; v < kStoreSpecs; ++v) {
    rt::DynamicGraphBuilder b;
    build_graph(chains_spec(v), b);
    (void)cache.get_or_compile(b.view(), cfg.sim.cost, cfg.sim.generated_io,
                               cfg.sim.placement, cfg.sim.array_columns);
  }
  cache.clear();

  for (int l = 0; l < kLanes; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->shm = l != 0;
    lane->rng.seed(o.seed * 7919u + static_cast<std::uint64_t>(l));
    ServiceClientOptions copts;
    copts.use_shm = lane->shm;
    lane->cli = std::make_unique<ServiceClient>(
        net::connect_tcp_loopback(st->port), copts);
    if (lane->shm != lane->cli->shm_active()) {
      throw std::runtime_error{"shm plane not negotiated as requested"};
    }
    lane->warm_sid = lane->cli->open(RunMode::sim, chains_spec(kWarmVariant));
    lane->warm_in = chain_inputs(lane->rng);
    for (std::size_t c = 0; c < lane->warm_in.size(); ++c) {
      lane->cli->send_input(lane->warm_sid, c, lane->warm_in[c].data(),
                            lane->warm_in[c].size() * sizeof(int));
    }
    lane->coop_sid = lane->cli->open(RunMode::coop, coop_spec());
    for (int k = 0; k < 2; ++k) {
      std::vector<int> in(kBigInts);
      for (int& x : in) x = static_cast<int>(lane->rng() % 2000001) - 1000000;
      std::vector<int> want = in;
      for (int& x : want) x += kCoopDepth;
      lane->big_digest[k] = digest_vec(want);
      lane->big[k] = std::move(in);
    }
    st->lanes.push_back(std::move(lane));
  }
  // Warm-up: first runs make the long-lived sessions warm.
  for (auto& lane : st->lanes) {
    LaneStats scratch;
    for (const Kind k : {Kind::warm_rtp, Kind::warm_rtp, Kind::coop_big,
                         Kind::coop_big}) {
      if (!do_request(*st, *lane, k, scratch, 0, false)) {
        throw std::runtime_error{"service warm-up request failed"};
      }
    }
  }
  return st;
}

/// Untimed closed-loop traffic on every connection before Phase A: the
/// daemon's first second under load runs 2-3x slower (first 1 MiB
/// transfers, lane pools filling), which is set-up, not steady state.
void warm_up(State& st, std::uint64_t seed, double seconds) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < st.lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      LaneStats scratch;
      for (std::uint64_t i = 0; now_ns() < end && !failed.load(); ++i) {
        const std::uint64_t req = (1ull << 48) + (l << 32) + i;
        try {
          if (!do_request(st, *st.lanes[l], kind_of(seed, req, false), scratch,
                          req, false)) {
            failed.store(true);
          }
        } catch (const std::exception&) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) throw std::runtime_error{"service warm-up request failed"};
}

}  // namespace

void run_service_mix(const Options& o, Report& rep) {
  auto st = timed_setups(o, rep, [&] { return setup(o); });
  warm_up(*st, o.seed, o.tiny ? 0.1 : 1.0);
  const DaemonStats& ds = st->daemon->stats();
  const std::uint64_t warm0 = ds.warm_runs, incr0 = ds.incremental_runs,
                      pers0 = ds.persisted_binds, err0 = ds.session_errors,
                      quota0 = ds.quota_rejections;
  const auto cache0 = aiesim::CompiledGraphCache::instance().stats();

  const double rate = kPhaseARate;
  const double phase_a = kPhaseAShare * o.seconds, phase_b = o.seconds - phase_a;
  const std::int64_t a0 = now_ns() + 20'000'000;  // lanes start together
  const std::int64_t a_end = a0 + static_cast<std::int64_t>(phase_a * 1e9);
  const auto due_of = [&](std::uint64_t i) {
    return a0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  std::uint64_t phase_a_requests = 0;  // the lanes' own loop bound
  while (due_of(phase_a_requests) < a_end) ++phase_a_requests;
  std::atomic<std::uint64_t> started{0}, next_a{0};
  std::vector<LaneStats> stats(st->lanes.size());
  std::atomic<std::uint64_t> attempted{0}, failed{0};

  // One request on connection l. A refused or wrong request counts as
  // missing every latency limit: it is recorded as the whole phase long.
  auto one = [&](std::size_t l, Kind kind, std::uint64_t req,
                 std::int64_t due, bool phase_a_req) {
    LaneStats& ls = stats[l];
    const int k = static_cast<int>(kind);
    bool ok = false;
    {
      Scope s{"harness.request", kKindName[k], req};
      try {
        ok = do_request(*st, *st->lanes[l], kind, ls, req, o.trace);
      } catch (const std::exception& e) {
        rep.fail(std::string{"service request threw: "} + e.what());
        failed.fetch_add(1);
        attempted.fetch_add(1);
        return false;
      }
    }
    attempted.fetch_add(1);
    if (!ok) {
      failed.fetch_add(1);
      rep.fail(std::string{kKindName[k]} + ": outputs did not verify");
    }
    const std::int64_t done = now_ns();
    if (phase_a_req) {
      ls.due_ms[k].push_back(ok ? ms_between(due, done) : phase_a * 1e3);
      ls.a_service_ms.push_back(ls.kind_ms[k].back());
    } else {
      ls.closed_ms[k].emplace_back(done, ok ? ls.kind_ms[k].back() : phase_b * 1e3);
      ls.done_ns.push_back(done);
    }
    return ok;
  };

  // Phase A: the connections are a pool over one schedule; each takes the
  // next request when it is free, so a slow request delays later ones
  // only when every connection is busy.
  Tracer::get().set_enabled(o.trace);
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < st->lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      for (;;) {
        const std::uint64_t i = next_a.fetch_add(1);
        const std::int64_t due = due_of(i);
        if (due >= a_end) break;
        while (now_ns() < due) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(std::min<std::int64_t>(due - now_ns(), 1'000'000)));
        }
        started.fetch_add(1);
        stats[l].late_ms.push_back(ms_between(due, now_ns()));
        if (!one(l, kind_of(o.seed, i, false), i, due, true)) break;
      }
    });
  }
  // Backlog at the end of Phase A: due by then but not yet started.
  while (now_ns() < a_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t started_at_end = started.load();
  const double backlog_end =
      static_cast<double>(phase_a_requests) -
      static_cast<double>(std::min(started_at_end, phase_a_requests));
  for (auto& t : threads) t.join();

  // Phase B: a closed loop on every connection, each sending its next
  // request when the previous one is verified.
  const std::int64_t bstart = now_ns();
  const std::int64_t b_end = bstart + static_cast<std::int64_t>(phase_b * 1e9);
  std::vector<bool> slice_traced;
  threads.clear();
  for (std::size_t l = 0; l < st->lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      for (std::uint64_t i = 0; now_ns() < b_end; ++i) {
        const std::uint64_t req = (1ull << 40) + (l << 32) + i;
        if (!one(l, kind_of(o.seed, req, true), req, 0, false)) break;
      }
    });
  }
  if (o.trace) {
    for (std::int64_t t = bstart; t < b_end;
         t += static_cast<std::int64_t>(kSliceS * 1e9)) {
      const bool on = slice_traced.size() % 2 == 0;
      slice_traced.push_back(on);
      Tracer::get().set_enabled(on);
      std::this_thread::sleep_until(Clock::time_point{std::chrono::nanoseconds(
          std::min(t + static_cast<std::int64_t>(kSliceS * 1e9), b_end))});
    }
  }
  for (auto& t : threads) t.join();
  Tracer::get().set_enabled(false);

  rep.attempted += attempted.load();
  if (o.tiny) probe_unchanged_rtp(*st->lanes[0], rep);
  const std::uint64_t backlog_bound =
      static_cast<std::uint64_t>(std::ceil(kBacklogBoundS * rate));
  if (backlog_end > static_cast<double>(backlog_bound)) {
    rep.fail("Phase A backlog grew by " + std::to_string(backlog_end) +
             " requests (bound " + std::to_string(backlog_bound) + ")");
  }

  LaneStats all;
  auto add = [](std::vector<double>& dst, const std::vector<double>& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  for (const LaneStats& ls : stats) {
    for (int k = 0; k < 4; ++k) {
      add(all.due_ms[k], ls.due_ms[k]);
      add(all.kind_ms[k], ls.kind_ms[k]);
      all.closed_ms[k].insert(all.closed_ms[k].end(), ls.closed_ms[k].begin(),
                              ls.closed_ms[k].end());
    }
    add(all.late_ms, ls.late_ms);
    add(all.a_service_ms, ls.a_service_ms);
    add(all.server_ms, ls.server_ms);
    add(all.transport_ms, ls.transport_ms);
    all.done_ns.insert(all.done_ns.end(), ls.done_ns.begin(), ls.done_ns.end());
  }
  rep.set_exact("aiesim.virtual_cycles", stats[0].first_virtual_cycles);
  rep.info["phase_a_rate"] = rate;
  rep.info["backlog_end"] = backlog_end;
  std::size_t due_samples = 0;
  for (int k = 0; k < 4; ++k) {
    due_samples += all.due_ms[k].size();
    rep.info[std::string{"phase_a.latency_p50_ms."} + kKindName[k]] =
        quantile(all.due_ms[k], 0.5);
    rep.info[std::string{"phase_a.latency_p99_ms."} + kKindName[k]] =
        quantile(all.due_ms[k], 0.99);
  }
  rep.info["phase_a.samples"] = static_cast<double>(due_samples);
  // What the connections could serve of Phase A's mix back to back: the
  // fixed rate should sit near half of it.
  double a_busy_ms = 0.0;
  for (const double x : all.a_service_ms) a_busy_ms += x;
  rep.info["phase_a.capacity_per_s"] =
      a_busy_ms > 0.0 ? 1e3 * static_cast<double>(kLanes) *
                            static_cast<double>(all.a_service_ms.size()) /
                            a_busy_ms
                      : 0.0;

  if (!o.trace) {
    // Phase B latencies of the three kinds, in completion order.
    std::vector<std::tuple<std::int64_t, int, double>> order;
    for (const Kind kind : kClosedKinds) {
      const int k = static_cast<int>(kind);
      for (const auto& [done, x] : all.closed_ms[k]) order.emplace_back(done, k, x);
    }
    std::sort(order.begin(), order.end());
    GroupedLatency latency;
    for (const auto& [done, k, x] : order) latency.add(kKindName[k], x);
    std::size_t samples = all.done_ns.size();
    for (const Kind kind : kClosedKinds) {
      const auto& v = all.closed_ms[static_cast<int>(kind)];
      samples = std::min(samples, v.size());
      std::vector<double> ms;
      for (const auto& [done, x] : v) ms.push_back(x);
      rep.info[std::string{"latency_p50_ms."} + kKindName[static_cast<int>(kind)]] =
          quantile(ms, 0.5);
      rep.info[std::string{"latency_p99_ms."} + kKindName[static_cast<int>(kind)]] =
          quantile(ms, 0.99);
    }
    rep.info["samples"] = static_cast<double>(samples);
    rep.set("throughput_per_s",
            windowed_rate(all.done_ns,
                          std::vector<double>(all.done_ns.size(), 1.0), {},
                          bstart, b_end, windows_for(phase_b)),
            "1/s");
    rep.set("latency_p50_ms", latency.quantile(0.5), "ms");
    rep.set("latency_p99_ms", latency.quantile(0.99), "ms");
    return;
  }

  const std::vector<Span> spans = Tracer::get().collect();
  const auto cache1 = aiesim::CompiledGraphCache::instance().stats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  rep.set("compiled.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
  rep.set("compiled.store_load_ms", span_median(rep, spans, "compiled.store_load"),
          "ms");
  rep.set("compiled.store_save_ms", span_median(rep, spans, "compiled.store_save"),
          "ms");
  std::vector<double> shm_mib, sock_mib;
  for (std::size_t l = 0; l < stats.size(); ++l) {
    auto& dst = st->lanes[l]->shm ? shm_mib : sock_mib;
    dst.insert(dst.end(), stats[l].send_mib_ms.begin(), stats[l].send_mib_ms.end());
  }
  rep.set("net.send_ms_per_mib.shm", sample_median(rep, shm_mib, "shm sends"),
          "ms");
  rep.set("net.send_ms_per_mib.socket",
          sample_median(rep, sock_mib, "socket sends"), "ms");
  rep.set("net.transport_ms_p50", quantile(all.transport_ms, 0.5), "ms");
  rep.set("net.transport_ms_p99", quantile(all.transport_ms, 0.99), "ms");
  rep.set("net.shm_conns", static_cast<double>(ds.shm_conns.load()), "count");
  for (const Kind kind : {Kind::cold_fresh, Kind::cold_store, Kind::warm_rtp}) {
    const int k = static_cast<int>(kind);
    rep.set(std::string{"service.open_ms."} + kKindName[k],
            sample_median(rep, all.kind_ms[k], kKindName[k]), "ms");
  }
  rep.set("service.server_run_ms_p50", quantile(all.server_ms, 0.5), "ms");
  rep.set("service.server_run_ms_p99", quantile(all.server_ms, 0.99), "ms");
  rep.set("service.codec_us", 1e3 * span_median(rep, spans, "service.codec"),
          "us");
  rep.set("service.warm_runs", static_cast<double>(ds.warm_runs - warm0), "count");
  rep.set("service.incremental_runs",
          static_cast<double>(ds.incremental_runs - incr0), "count");
  rep.set("service.persisted_binds",
          static_cast<double>(ds.persisted_binds - pers0), "count");
  rep.set("service.session_errors",
          static_cast<double>(ds.session_errors - err0), "count");
  rep.set("service.quota_rejections",
          static_cast<double>(ds.quota_rejections - quota0), "count");
  rep.set("gen.late_ms_p99", quantile(all.late_ms, 0.99), "ms");
  rep.set("gen.backlog_end", backlog_end, "count");

  // trace.overhead_pct from Phase B's alternating slices: completions per
  // second in untraced slices over traced ones.
  double traced_n = 0, plain_n = 0, traced_s = 0, plain_s = 0;
  for (std::size_t k = 0; k < slice_traced.size(); ++k) {
    const std::int64_t s0 = bstart + static_cast<std::int64_t>(k * kSliceS * 1e9);
    const std::int64_t s1 =
        std::min(s0 + static_cast<std::int64_t>(kSliceS * 1e9), b_end);
    double n = 0;
    for (const std::int64_t t : all.done_ns) n += t >= s0 && t < s1 ? 1 : 0;
    (slice_traced[k] ? traced_n : plain_n) += n;
    (slice_traced[k] ? traced_s : plain_s) += ms_between(s0, s1) / 1e3;
  }
  const double traced_rate = traced_s > 0 ? traced_n / traced_s : 0;
  const double plain_rate = plain_s > 0 ? plain_n / plain_s : 0;
  finish_trace(o, rep, spans, 1.0, false,
               traced_rate > 0 ? 100.0 * (plain_rate / traced_rate - 1.0) : 0.0);
}

}  // namespace pb
