// sweep-dse: design-space exploration over one compiled graph.
//
// The graph has the shape of bench_ablation_sweep: kChains independent
// increment chains, chain 0 headed by a kernel scaled by an RTP. Variants
// run through a SweepRunner with nproc workers as closed-loop batches of
// 16 x nproc. Each batch is drawn from the seed:
//
//   rtp         (most)  warm cone-limited resimulate() of the RTP cone on a
//                       session whose baseline holds the base inputs;
//   seed        (some)  full run() with perturbed input data;
//   cost-fresh  (few)   a never-seen cost model: get_or_compile misses and
//                       compiles, then resimulate_with_cost();
//   cost-repeat (few)   one of kRepeatCosts cost models compiled at set-up:
//                       get_or_compile hits.
//
// Outputs are analytic (chain 0: x * rtp + kDepth - 1, others x + kDepth),
// and every non-cost variant must reproduce the base run's virtual cycles.
#include <array>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "core/sweep.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace cgsim;

inline constexpr PortSettings dse_rtp{.rtp = true};

COMPUTE_KERNEL(aie, dse_inc, KernelReadPort<int> in, KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, dse_cone_inc, KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, dse_scale, KernelReadPort<int> in,
               KernelReadPort<int, dse_rtp> factor, KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() * co_await factor.get());
}

constexpr int kChains = 8;
constexpr int kDepth = 6;
constexpr int kBaseRtp = 1;
constexpr int kRepeatCosts = 4;
constexpr std::size_t kRtpInput = kChains;

enum class Kind : std::uint8_t { rtp, seed, cost_fresh, cost_repeat };
enum : int { kLaneRtp = 0, kLaneFull = 1, kLaneCost = 2 };

struct Variant {
  Kind kind = Kind::rtp;
  int rtp = kBaseRtp;
  std::uint64_t data_seed = 0;  ///< 0: base inputs
  int cost_id = 0;              ///< cost-fresh: unique; repeat: < kRepeatCosts
};

/// Cost model `id`: only the activation ramp moves, so every id keys a
/// distinct compiled artifact.
aiesim::CostModel cost_for(int id) {
  aiesim::CostModel c;
  c.activation_ramp = 12.0 + 0.25 * (id + 1);
  return c;
}

void build_graph(rt::DynamicGraphBuilder& b) {
  const int in0 = b.add_edge<int>();
  b.add_input(in0);
  const int rtp = b.add_edge<int>(1, dse_rtp);
  int prev = b.add_edge<int>();
  b.add_kernel(dse_scale, {in0, rtp, prev});
  for (int i = 1; i < kDepth; ++i) {
    const int next = b.add_edge<int>();
    b.add_kernel(dse_cone_inc, {prev, next});
    prev = next;
  }
  b.add_output(prev);
  for (int c = 1; c < kChains; ++c) {
    int p = b.add_edge<int>();
    b.add_input(p);
    for (int i = 0; i < kDepth; ++i) {
      const int next = b.add_edge<int>();
      b.add_kernel(dse_inc, {p, next});
      p = next;
    }
    b.add_output(p);
  }
  b.add_input(rtp);  // last input: index kChains
}

using Pool = SessionPool<int, aiesim::ResimSession>;
using Outs = std::array<std::vector<int>, kChains>;

template <class Fn>
aiesim::SimResult invoke_graph(Fn&& fn, const std::vector<int>& in, int rtp,
                         Outs& outs) {
  for (auto& v : outs) v.clear();
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return fn(((void)I, in)..., rtp, outs[I]...);
  }(std::make_index_sequence<kChains>{});
}

struct State {
  std::vector<int> base_in;
  rt::DynamicGraphBuilder builder;
  GraphView view;
  aiesim::SimConfig cfg;
  std::uint64_t base_cycles = 0;
  Pool pool;
  std::unique_ptr<SweepRunner> runner;  // last: joins before the rest dies
};

/// One variant's outcome, stamped by the job body.
struct Row {
  std::uint64_t digest = 0;
  std::int64_t started_ns = 0;
  std::size_t cone = 0;
  bool incremental = false;
  std::string error;
};

std::vector<int> inputs_for(const State& s, std::uint64_t data_seed,
                            int items) {
  if (data_seed == 0) return s.base_in;
  std::mt19937_64 rng{data_seed};
  std::vector<int> in(static_cast<std::size_t>(items));
  for (int& x : in) x = static_cast<int>(rng() % 20001) - 10000;
  return in;
}

std::string check_outputs(const std::vector<int>& in, int rtp,
                          const Outs& outs) {
  for (int c = 0; c < kChains; ++c) {
    const auto& o = outs[static_cast<std::size_t>(c)];
    if (o.size() != in.size()) return "wrong output count";
    for (std::size_t i = 0; i < in.size(); ++i) {
      const int want = c == 0 ? in[i] * rtp + (kDepth - 1) : in[i] + kDepth;
      if (o[i] != want) return "output differs from the analytic reference";
    }
  }
  return {};
}

Row run_variant(State& s, const Variant& v, std::uint64_t req, int items) {
  Row row;
  row.started_ns = now_ns();
  Scope job{"sweep.job", nullptr, req};
  const std::vector<int> in = inputs_for(s, v.data_seed, items);
  Outs outs;
  auto make = [&] {
    return std::make_unique<aiesim::ResimSession>(s.view, s.cfg);
  };
  const int lane = v.kind == Kind::rtp    ? kLaneRtp
                   : v.kind == Kind::seed ? kLaneFull
                                          : kLaneCost;
  Pool::Lease lease;
  {
    Scope sc{"sweep.lease", nullptr, req};
    lease = s.pool.checkout(lane, make);
  }
  aiesim::SimResult r;
  switch (v.kind) {
    case Kind::rtp: {
      if (lease.fresh()) {
        Scope sc{"resim.full", nullptr, req};
        (void)invoke_graph([&](auto&&... a) { return lease->run(a...); },
                     s.base_in, kBaseRtp, outs);
      }
      Scope sc{"resim.incr", nullptr, req};
      r = invoke_graph(
          [&](auto&&... a) { return lease->resimulate({kRtpInput}, a...); },
          in, v.rtp, outs);
      row.incremental = lease->last_was_incremental();
      row.cone = lease->last_cone_size();
      break;
    }
    case Kind::seed: {
      Scope sc{"resim.full", nullptr, req};
      r = invoke_graph([&](auto&&... a) { return lease->run(a...); }, in, v.rtp,
                 outs);
      break;
    }
    case Kind::cost_fresh:
    case Kind::cost_repeat: {
      const aiesim::CostModel cost = cost_for(v.cost_id);
      {
        Scope sc{v.kind == Kind::cost_fresh ? "compiled.compile"
                                            : "compiled.hit",
                 nullptr, req};
        (void)aiesim::CompiledGraphCache::instance().get_or_compile(
            s.view, cost, s.cfg.generated_io, s.cfg.placement,
            s.cfg.array_columns);
      }
      Scope sc{"resim.cost_rerun", nullptr, req};
      r = invoke_graph([&](auto&&... a) { return lease->resimulate_with_cost(cost, a...); },
                 in, v.rtp, outs);
      break;
    }
  }
  row.error = check_outputs(in, v.rtp, outs);
  const bool cost = v.kind == Kind::cost_fresh || v.kind == Kind::cost_repeat;
  if (row.error.empty() && !cost && r.virtual_cycles != s.base_cycles) {
    row.error = "virtual cycles differ from the base run";
  }
  if (row.error.empty() && v.kind == Kind::rtp && !row.incremental) {
    row.error = "rtp variant did not run incrementally";
  }
  std::uint64_t h = fnv1a(&r.virtual_cycles, sizeof r.virtual_cycles);
  const std::uint64_t td = r.trace.digest();
  h = fnv1a(&td, sizeof td, h);
  for (const auto& o : outs) h = digest_vec(o, h);
  row.digest = h;
  return row;
}

/// Batch `b` of the seeded variant stream. Cost-fresh ids are unique over
/// the run (kRepeatCosts + running counter), so each one compiles.
std::vector<Variant> make_batch(std::uint64_t seed, std::uint64_t b,
                                std::size_t n, int& fresh_counter) {
  std::mt19937_64 rng{seed * 1000003ull + b};
  std::vector<Variant> vs(n);
  for (Variant& v : vs) {
    const unsigned roll = static_cast<unsigned>(rng() % 100);
    v.rtp = 2 + static_cast<int>(rng() % 61);
    if (roll < 75) {
      v.kind = Kind::rtp;
    } else if (roll < 90) {
      v.kind = Kind::seed;
      v.data_seed = rng() | 1;
    } else if (roll < 95) {
      v.kind = Kind::cost_fresh;
      v.cost_id = kRepeatCosts + fresh_counter++;
    } else {
      v.kind = Kind::cost_repeat;
      v.cost_id = static_cast<int>(rng() % kRepeatCosts);
    }
  }
  return vs;
}

}  // namespace

void run_sweep_dse(const Options& o, Report& rep) {
  const int items = o.tiny ? 16 : 256;
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Long batches: a variant's latency then sums the queue ahead of it,
  // which averages out a single slow worker.
  const std::size_t batch = static_cast<std::size_t>(16 * workers);

  auto make = [&] {
    auto s = std::make_unique<State>();
    std::mt19937_64 rng{o.seed};
    s->base_in.resize(static_cast<std::size_t>(items));
    for (int& x : s->base_in) x = static_cast<int>(rng() % 20001) - 10000;
    build_graph(s->builder);
    s->view = s->builder.view();
    auto& cache = aiesim::CompiledGraphCache::instance();
    cache.clear();
    for (int c = 0; c < kRepeatCosts; ++c) {
      (void)cache.get_or_compile(s->view, cost_for(c), s->cfg.generated_io,
                                 s->cfg.placement, s->cfg.array_columns);
    }
    Outs outs;
    s->base_cycles =
        invoke_graph([&](auto&&... a) { return aiesim::simulate(s->view, s->cfg, a...); },
               s->base_in, kBaseRtp, outs)
            .virtual_cycles;
    s->runner = std::make_unique<SweepRunner>(workers);
    return s;
  };
  SetupTimes setups;
  auto st = setups.time(make);

  // The run's other set-ups run between batches, evenly over the run (as
  // on paper-*). Each one clears the compiled-graph cache and compiles the
  // kRepeatCosts models again, which leaves the cache as the first set-up
  // left it apart from cost-fresh entries no variant looks up again; its
  // hits and misses are kept out of compiled.hit_ratio.
  auto& cache = aiesim::CompiledGraphCache::instance();
  const int extra_setups = setup_count(o) - 1;
  int setups_done = 0;
  std::uint64_t setup_hits = 0, setup_misses = 0;
  auto extra_setup = [&] {
    const auto c0 = cache.stats();
    (void)setups.time(make);
    const auto c1 = cache.stats();
    setup_hits += c1.hits - c0.hits;
    setup_misses += c1.misses - c0.misses;
    ++setups_done;
  };
  const auto cache0 = cache.stats();
  const std::uint64_t created0 = st->pool.created(), reused0 = st->pool.reused();

  std::vector<double> lat_ms, queue_ms, batch_traced_ms, batch_plain_ms;
  std::vector<std::int64_t> done_ns;
  double wall_s = 0.0, busy_s = 0.0;
  std::uint64_t variants = 0, rtp_variants = 0, incremental = 0;
  std::uint64_t cone_sum = 0, cone_n = 0, batch0_digest = 0;
  int fresh_counter = 0;

  const std::int64_t t_begin = now_ns();
  const std::int64_t end = t_begin + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::uint64_t b = 0; b == 0 || now_ns() < end; ++b) {
    const bool traced = o.trace && b % 2 == 0;
    const std::vector<Variant> vs =
        make_batch(o.seed, b, batch, fresh_counter);
    double busy_before = 0.0;
    for (int w = 0; w < st->runner->workers(); ++w) {
      busy_before += st->runner->slot(w).busy_s;
    }
    std::uint64_t x = 0, sum = 0;  // order-independent batch digest
    Tracer::get().set_enabled(traced);
    const std::int64_t t0 = now_ns();
    {
      Scope s{"harness.batch", nullptr, b};
      st->runner->run_batch(
          vs.size(),
          [&](std::size_t i, SweepRunner::WorkerSlot&) {
            return run_variant(*st, vs[i], b * batch + i, items);
          },
          [&](std::size_t i, Row row) {
            const std::int64_t done = now_ns();
            ++rep.attempted;
            ++variants;
            if (!row.error.empty()) rep.fail("variant: " + row.error);
            if (!traced) {
              lat_ms.push_back(ms_between(t0, done));
              done_ns.push_back(done);
            }
            if (traced) queue_ms.push_back(ms_between(t0, row.started_ns));
            if (vs[i].kind == Kind::rtp) {
              ++rtp_variants;
              if (row.incremental) {
                ++incremental;
                cone_sum += row.cone;
                ++cone_n;
              }
            }
            x ^= row.digest;
            sum += row.digest * 0x9e3779b97f4a7c15ull;
          });
    }
    const double ms = ms_between(t0, now_ns());
    Tracer::get().set_enabled(false);
    wall_s += ms / 1e3;
    double busy_after = 0.0;
    for (int w = 0; w < st->runner->workers(); ++w) {
      busy_after += st->runner->slot(w).busy_s;
    }
    busy_s += busy_after - busy_before;
    (traced ? batch_traced_ms : batch_plain_ms).push_back(ms);
    if (b == 0) batch0_digest = x ^ sum;
    if (setups_done < extra_setups &&
        now_ns() >= t_begin + (end - t_begin) * (setups_done + 1) /
                                  (extra_setups + 1)) {
      extra_setup();
    }
  }
  while (setups_done < extra_setups) extra_setup();
  setups.report(rep);

  rep.set_exact("aiesim.virtual_cycles", st->base_cycles);
  rep.exact["resim.cone_kernels_mean"] =
      cone_n == 0 ? "0"
                  : std::to_string(static_cast<double>(cone_sum) /
                                   static_cast<double>(cone_n));
  rep.set_exact_hex("digest.batch0", batch0_digest);
  rep.info["samples"] = static_cast<double>(variants);

  if (!o.trace) {
    rep.set("throughput_per_s",
            windowed_rate(done_ns, std::vector<double>(done_ns.size(), 1.0),
                          {}, t_begin, end, windows_for(o.seconds)),
            "1/s");
    rep.set("latency_p50_ms", chunked_quantile(lat_ms, 0.5), "ms");
    rep.set("latency_p99_ms", chunked_quantile(lat_ms, 0.99), "ms");
    return;
  }
  const std::vector<Span> spans = Tracer::get().collect();
  const auto cache1 = cache.stats();
  const double hits =
      static_cast<double>(cache1.hits - cache0.hits - setup_hits);
  const double misses =
      static_cast<double>(cache1.misses - cache0.misses - setup_misses);
  const double created = static_cast<double>(st->pool.created() - created0);
  const double reused = static_cast<double>(st->pool.reused() - reused0);
  rep.set("compiled.compile_ms", span_median(rep, spans, "compiled.compile"), "ms");
  rep.set("compiled.hit_us", 1e3 * span_median(rep, spans, "compiled.hit"), "us");
  rep.set("compiled.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
  rep.set("resim.full_ms", span_median(rep, spans, "resim.full"), "ms");
  rep.set("resim.incr_ms", span_median(rep, spans, "resim.incr"), "ms");
  rep.set("resim.incremental_ratio",
          rtp_variants > 0 ? static_cast<double>(incremental) / rtp_variants
                           : 0.0,
          "ratio");
  rep.set("resim.cone_kernels_mean",
          cone_n > 0 ? static_cast<double>(cone_sum) / cone_n : 0.0, "count");
  rep.set("sweep.queue_wait_ms_p50",
          sample_quantile(rep, queue_ms, 0.5, "queue waits"), "ms");
  rep.set("sweep.queue_wait_ms_p99",
          sample_quantile(rep, queue_ms, 0.99, "queue waits"), "ms");
  rep.set("sweep.job_ms_p50", span_median(rep, spans, "sweep.job"), "ms");
  rep.set("sweep.lease_us_p50", 1e3 * span_median(rep, spans, "sweep.lease"),
          "us");
  rep.set("sweep.pool_warm_ratio",
          created + reused > 0 ? reused / (created + reused) : 0.0, "ratio");
  rep.set("sweep.worker_busy_ratio",
          wall_s > 0 ? busy_s / (workers * wall_s) : 0.0, "ratio");
  finish_trace(o, rep, spans, workers, true,
               median(batch_plain_ms) > 0
                   ? 100.0 * (median(batch_traced_ms) / median(batch_plain_ms) - 1.0)
                   : 0.0);
}

}  // namespace pb
