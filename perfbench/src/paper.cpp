// paper-functional and paper-cycle: the paper's four example graphs
// (bitonic, farrow, IIR, bilinear).
//
//   paper-functional  graph.run under ExecMode::coop and coop_mt
//                     (workers = nproc) at 1/kDivisor of the Table 2
//                     repetitions, closed loop, one caller.
//   paper-cycle       aiesim::simulate at DetailLevel::cycle (the Table 2
//                     aiesim column, a further 1/4 of the repetitions as in
//                     bench_table2) plus the Table 1 event-detail runs,
//                     hand-optimised and generated_io, 64 blocks each.
//
// Every output is checked against the app's scalar reference on the first
// round; later rounds must reproduce the first round's digest bit for bit.
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aie/cycle_model.hpp"
#include "aiesim/engine.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kDivisor = 64;        ///< share of the Table 2 repetitions
constexpr int kAiesimDivisor = 4;   ///< further share for the aiesim column
constexpr int kTable1Blocks = 64;   ///< Table 1 pipeline depth
constexpr std::size_t kTable1Warmup = 8;

/// Paper Table 1 processing time per block (ns): hand-optimised, extracted.
struct PaperT1 {
  double hand, extracted;
};

/// One app instance: its inputs, its output buffer and its scalar
/// reference outputs (computed at set-up). Inputs are replayed `reps`
/// times by every backend, so the reference covers the replayed stream
/// (stateful kernels carry state across reps).
class App {
 public:
  App(const char* name, int reps) : name_(name), reps_(reps) {}
  virtual ~App() = default;
  App(const App&) = delete;
  App& operator=(const App&) = delete;

  [[nodiscard]] const char* name() const { return name_; }

  virtual cgsim::RunResult run(cgsim::RunOptions opts) = 0;
  virtual aiesim::SimResult simulate(aiesim::SimConfig cfg) = 0;
  /// Calls the app's kernel functions directly on the same blocks, reps
  /// times, carrying kernel state as the graph does.
  virtual void direct() = 0;
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  [[nodiscard]] virtual std::size_t out_blocks() const = 0;
  /// Empty when the last output matches the scalar reference.
  [[nodiscard]] virtual std::string check() const = 0;
  [[nodiscard]] virtual PaperT1 paper_t1() const = 0;

 protected:
  const char* name_;
  int reps_;
};

std::string mismatch(const char* app, std::size_t at) {
  return std::string{app} + ": output differs from the reference at " +
         std::to_string(at);
}

bool approx_eq(float got, float want, float tol) {
  return std::fabs(got - want) <= tol * std::max(1.0f, std::fabs(want));
}

class Bitonic final : public App {
 public:
  using Block = apps::bitonic::Block;
  Bitonic(std::mt19937_64& rng, std::size_t blocks, int reps)
      : App("bitonic", reps), in_(blocks) {
    std::uniform_real_distribution<float> d{-100, 100};
    for (auto& b : in_) {
      for (unsigned i = 0; i < 16; ++i) b.set(i, d(rng));
    }
    out_.reserve(blocks * static_cast<std::size_t>(reps));
    direct_out_.resize(blocks);
    for (const Block& b : in_) {
      std::array<float, 16> a{};
      for (unsigned i = 0; i < 16; ++i) a[i] = b.get(i);
      want_.push_back(apps::bitonic::reference_sort(a));
    }
  }
  cgsim::RunResult run(cgsim::RunOptions opts) override {
    out_.clear();
    opts.repetitions = reps_;
    return apps::bitonic::graph.run(opts, in_, out_);
  }
  aiesim::SimResult simulate(aiesim::SimConfig cfg) override {
    out_.clear();
    cfg.repetitions = reps_;
    return aiesim::simulate(apps::bitonic::graph.view(), cfg, in_, out_);
  }
  void direct() override {
    for (int r = 0; r < reps_; ++r) {
      for (std::size_t b = 0; b < in_.size(); ++b) {
        direct_out_[b] = apps::bitonic::sort16(in_[b]);
      }
    }
  }
  std::uint64_t digest() const override { return digest_vec(out_); }
  std::size_t out_blocks() const override { return out_.size(); }
  std::string check() const override {
    if (out_.size() != in_.size() * static_cast<std::size_t>(reps_)) {
      return "bitonic: wrong output count";
    }
    for (std::size_t k = 0; k < out_.size(); ++k) {
      const auto& want = want_[k % want_.size()];
      for (unsigned i = 0; i < 16; ++i) {
        if (out_[k].get(i) != want[i]) return mismatch(name_, k);
      }
    }
    return {};
  }
  PaperT1 paper_t1() const override { return {3556.8, 4168.8}; }

 private:
  std::vector<Block> in_, out_, direct_out_;
  std::vector<std::array<float, 16>> want_;
};

class Farrow final : public App {
 public:
  Farrow(std::mt19937_64& rng, std::size_t blocks, int reps)
      : App("farrow", reps), in_(blocks), mu_(blocks) {
    std::uniform_int_distribution<int> dx{-20000, 20000};
    std::uniform_int_distribution<int> dmu{0, (1 << 14) - 1};
    for (std::size_t b = 0; b < blocks; ++b) {
      for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
        in_[b].s[i] = static_cast<std::int16_t>(dx(rng));
        mu_[b].mu[i] = static_cast<std::int16_t>(dmu(rng));
      }
    }
    out_.reserve(blocks * static_cast<std::size_t>(reps));
    std::vector<std::int16_t> x, m;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b < blocks; ++b) {
        x.insert(x.end(), in_[b].s.begin(), in_[b].s.end());
        m.insert(m.end(), mu_[b].mu.begin(), mu_[b].mu.end());
      }
    }
    want_ = apps::farrow::reference(x, m);
  }
  cgsim::RunResult run(cgsim::RunOptions opts) override {
    out_.clear();
    opts.repetitions = reps_;
    return apps::farrow::graph.run(opts, in_, mu_, out_);
  }
  aiesim::SimResult simulate(aiesim::SimConfig cfg) override {
    out_.clear();
    cfg.repetitions = reps_;
    return aiesim::simulate(apps::farrow::graph.view(), cfg, in_, mu_, out_);
  }
  void direct() override {
    apps::farrow::BranchState st{};
    for (int r = 0; r < reps_; ++r) {
      for (std::size_t b = 0; b < in_.size(); ++b) {
        direct_out_ = apps::farrow::combine(
            apps::farrow::branch_filters(in_[b], st), mu_[b]);
      }
    }
  }
  std::uint64_t digest() const override { return digest_vec(out_); }
  std::size_t out_blocks() const override { return out_.size(); }
  std::string check() const override {
    if (out_.size() * apps::farrow::kBlockSamples != want_.size()) {
      return "farrow: wrong output count";
    }
    for (std::size_t n = 0; n < want_.size(); ++n) {
      const std::size_t b = n / apps::farrow::kBlockSamples;
      if (out_[b].s[n % apps::farrow::kBlockSamples] != want_[n]) {
        return mismatch(name_, n);
      }
    }
    return {};
  }
  PaperT1 paper_t1() const override { return {912.8, 1019.0}; }

 private:
  std::vector<apps::farrow::SampleBlock> in_;
  std::vector<apps::farrow::MuBlock> mu_;
  std::vector<apps::farrow::SampleBlock> out_;
  std::vector<std::int16_t> want_;
  apps::farrow::SampleBlock direct_out_{};
};

class Iir final : public App {
 public:
  Iir(std::mt19937_64& rng, std::size_t blocks, int reps)
      : App("IIR", reps), in_(blocks) {
    std::uniform_real_distribution<float> d{-1, 1};
    for (auto& b : in_) {
      for (auto& s : b.samples) s = d(rng);
    }
    gain_ = std::uniform_real_distribution<float>{0.5f, 1.5f}(rng);
    out_.reserve(blocks * static_cast<std::size_t>(reps));
    std::vector<float> x;
    for (int r = 0; r < reps; ++r) {
      for (const auto& b : in_) {
        x.insert(x.end(), b.samples.begin(), b.samples.end());
      }
    }
    want_ = apps::iir::reference(x, apps::iir::kDefaultCoeffs, gain_);
  }
  cgsim::RunResult run(cgsim::RunOptions opts) override {
    out_.clear();
    opts.repetitions = reps_;
    return apps::iir::graph.run(opts, in_, gain_, out_);
  }
  aiesim::SimResult simulate(aiesim::SimConfig cfg) override {
    out_.clear();
    cfg.repetitions = reps_;
    return aiesim::simulate(apps::iir::graph.view(), cfg, in_, gain_, out_);
  }
  void direct() override {
    apps::iir::State st{};
    for (int r = 0; r < reps_; ++r) {
      for (std::size_t b = 0; b < in_.size(); ++b) {
        direct_out_ = apps::iir::process_block(in_[b], st,
                                               apps::iir::kDefaultCoeffs,
                                               gain_);
      }
    }
  }
  std::uint64_t digest() const override { return digest_vec(out_); }
  std::size_t out_blocks() const override { return out_.size(); }
  std::string check() const override {
    if (out_.size() * apps::iir::kBlockSamples != want_.size()) {
      return "IIR: wrong output count";
    }
    for (std::size_t n = 0; n < want_.size(); ++n) {
      const std::size_t b = n / apps::iir::kBlockSamples;
      if (!approx_eq(out_[b].samples[n % apps::iir::kBlockSamples], want_[n],
                 1e-4f)) {
        return mismatch(name_, n);
      }
    }
    return {};
  }
  PaperT1 paper_t1() const override { return {5410.0, 5385.0}; }

 private:
  std::vector<apps::iir::Block> in_, out_;
  std::vector<float> want_;
  apps::iir::Block direct_out_{};
  float gain_ = 1.0f;
};

class Bilinear final : public App {
 public:
  Bilinear(std::mt19937_64& rng, std::size_t packets, int reps)
      : App("bilinear", reps), in_(packets) {
    std::uniform_real_distribution<float> pix{0, 255};
    std::uniform_real_distribution<float> frac{0, 1};
    for (auto& p : in_) {
      for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
        p.p00.set(i, pix(rng));
        p.p01.set(i, pix(rng));
        p.p10.set(i, pix(rng));
        p.p11.set(i, pix(rng));
        p.fx.set(i, frac(rng));
        p.fy.set(i, frac(rng));
      }
    }
    out_.reserve(packets * static_cast<std::size_t>(reps));
    direct_out_.resize(packets);
    for (const auto& p : in_) want_.push_back(apps::bilinear::reference(p));
  }
  cgsim::RunResult run(cgsim::RunOptions opts) override {
    out_.clear();
    opts.repetitions = reps_;
    return apps::bilinear::graph.run(opts, in_, out_);
  }
  aiesim::SimResult simulate(aiesim::SimConfig cfg) override {
    out_.clear();
    cfg.repetitions = reps_;
    return aiesim::simulate(apps::bilinear::graph.view(), cfg, in_, out_);
  }
  void direct() override {
    for (int r = 0; r < reps_; ++r) {
      for (std::size_t k = 0; k < in_.size(); ++k) {
        direct_out_[k] = apps::bilinear::interpolate(in_[k]);
      }
    }
  }
  std::uint64_t digest() const override { return digest_vec(out_); }
  std::size_t out_blocks() const override { return out_.size(); }
  std::string check() const override {
    if (out_.size() != in_.size() * static_cast<std::size_t>(reps_)) {
      return "bilinear: wrong output count";
    }
    for (std::size_t k = 0; k < out_.size(); ++k) {
      const auto& want = want_[k % want_.size()];
      for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
        if (!approx_eq(out_[k].get(i), want[i], 1e-4f)) return mismatch(name_, k);
      }
    }
    return {};
  }
  PaperT1 paper_t1() const override { return {484.0, 567.2}; }

 private:
  std::vector<apps::bilinear::Packet> in_;
  std::vector<apps::bilinear::V> out_, direct_out_;
  std::vector<std::array<float, apps::bilinear::kLanes>> want_;
};

/// Table 2 base inputs (as bench_table2) and paper repetitions.
constexpr std::size_t kBase[4] = {512, 8, 8, 4096};
constexpr int kPaperReps[4] = {1024, 512, 256, 64};

/// The four apps, inputs drawn from one seeded stream. `divisor` scales
/// the paper repetitions; `blocks` (when nonzero) replaces the base
/// input sizes (the Table 1 runs use kTable1Blocks of each).
std::vector<std::unique_ptr<App>> make_apps(std::uint64_t seed, int divisor,
                                            std::size_t blocks = 0) {
  std::mt19937_64 rng{seed * 0x9E3779B97F4A7C15ull + divisor};
  auto reps = [&](int i) { return std::max(1, kPaperReps[i] / divisor); };
  auto n = [&](int i) { return blocks != 0 ? blocks : kBase[i]; };
  std::vector<std::unique_ptr<App>> v;
  v.push_back(std::make_unique<Bitonic>(rng, n(0), reps(0)));
  v.push_back(std::make_unique<Farrow>(rng, n(1), reps(1)));
  v.push_back(std::make_unique<Iir>(rng, n(2), reps(2)));
  v.push_back(std::make_unique<Bilinear>(rng, n(3), reps(3)));
  return v;
}

/// Per-op bookkeeping shared by both paper workloads: the first output of
/// each (app, mode) is checked against the scalar reference and its digest
/// becomes the one every later output must reproduce.
struct Verifier {
  std::map<std::string, std::uint64_t> digests;
  void check(Report& rep, App& app, const std::string& key) {
    ++rep.attempted;
    auto it = digests.find(key);
    if (it == digests.end()) {
      if (std::string err = app.check(); !err.empty()) {
        rep.fail(key + ": " + err);
        return;
      }
      digests[key] = app.digest();
    } else if (it->second != app.digest()) {
      rep.fail(key + ": digest changed between rounds");
    }
  }
};

/// Untraced calls, in call order: their (app, mode) group and latency,
/// end stamp and output blocks.
struct CallLog {
  GroupedLatency latency;
  std::vector<double> blocks, secs;
  std::vector<std::int64_t> stamp;

  void add(const std::string& name, double call_ms, std::size_t out_blocks) {
    latency.add(name, call_ms);
    stamp.push_back(now_ns());
    blocks.push_back(static_cast<double>(out_blocks));
    secs.push_back(call_ms / 1e3);
  }
  [[nodiscard]] std::size_t samples() const { return secs.size(); }
  /// Output blocks per second inside the calls, median over ~2 s windows.
  [[nodiscard]] double throughput(std::int64_t t0, double seconds) const {
    return windowed_rate(stamp, blocks, secs, t0,
                         t0 + static_cast<std::int64_t>(seconds * 1e9),
                         windows_for(seconds));
  }
};

/// Counts every AIE op the direct kernel calls record: aie.ops_total.
std::uint64_t count_ops(std::vector<std::unique_ptr<App>>& apps) {
  aie::OpCounter counter;
  {
    aie::ScopedCounter scoped{&counter};
    for (auto& a : apps) a->direct();
  }
  return counter.counts.total();
}

/// Runs `round(k)` until the deadline (at least once). In a traced run
/// even rounds record spans under a harness.round root and odd rounds run
/// untraced, so the two can be compared for trace.overhead_pct.
///
/// Between rounds it calls `setup()` setup_count(o) - 1 times, evenly over
/// the run: a set-up takes milliseconds, and the host's speed drifts over
/// seconds, so set-ups spread like this sample the same host states as the
/// timed calls instead of the first few milliseconds of the run.
template <class Round, class Setup>
void measure(const Options& o, Round&& round, Setup&& setup) {
  const std::int64_t begin = now_ns();
  const std::int64_t len = static_cast<std::int64_t>(o.seconds * 1e9);
  const int extra = setup_count(o) - 1;
  int setups = 0;
  for (std::uint64_t k = 0; k == 0 || now_ns() < begin + len; ++k) {
    const bool traced = o.trace && k % 2 == 0;
    Tracer::get().set_enabled(traced);
    {
      Scope s{"harness.round", nullptr, k};
      round(k, traced);
    }
    Tracer::get().set_enabled(false);
    if (setups < extra && now_ns() >= begin + len * (setups + 1) / (extra + 1)) {
      setup();
      ++setups;
    }
  }
  for (; setups < extra; ++setups) setup();
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& plain) {
  const double p = median(plain);
  return p > 0.0 ? 100.0 * (median(traced) / p - 1.0) : 0.0;
}

/// aie.kernel_ms.<app> and core.sync_share.<app> need the coop run of the
/// same blocks: sync share = 1 - direct kernel time / coop run wall.
void direct_metrics(Report& rep, const std::vector<Span>& spans,
                    const std::vector<std::unique_ptr<App>>& apps,
                    bool with_sync_share) {
  for (const auto& a : apps) {
    const double kernel =
        span_median(rep, spans, std::string{"aie.kernel."} + a->name());
    rep.set(std::string{"aie.kernel_ms."} + a->name(), kernel, "ms");
    if (with_sync_share) {
      const double coop =
          span_median(rep, spans, std::string{"core.coop.run."} + a->name());
      rep.set(std::string{"core.sync_share."} + a->name(),
              coop > 0.0 ? 1.0 - kernel / coop : 0.0, "ratio");
    }
  }
}

}  // namespace

void run_paper_functional(const Options& o, Report& rep) {
  const int divisor = o.tiny ? 1024 : kDivisor;
  auto make = [&] { return make_apps(o.seed, divisor); };
  SetupTimes setups;
  auto apps = std::make_unique<std::vector<std::unique_ptr<App>>>(
      setups.time(make));
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  Verifier verify;
  CallLog calls;
  std::uint64_t resumes_round0 = 0;
  std::vector<double> busy_ratio, round_traced_ms, round_plain_ms;
  std::uint64_t steals = 0;

  const std::int64_t t_begin = now_ns();
  measure(o, [&](std::uint64_t k, bool traced) {
    double round_ms = 0.0;
    std::uint64_t resumes = 0;
    for (auto& app : *apps) {
      for (const bool mt : {false, true}) {
        cgsim::RunOptions opts{mt ? cgsim::ExecMode::coop_mt
                                  : cgsim::ExecMode::coop};
        opts.workers = workers;
        const std::int64_t t0 = now_ns();
        cgsim::RunResult r;
        {
          Scope s{mt ? "core.coop_mt.run" : "core.coop.run", app->name(), k};
          r = app->run(opts);
        }
        const double ms = ms_between(t0, now_ns());
        const std::string key =
            std::string{app->name()} + (mt ? ".coop_mt" : ".coop");
        if (!traced) calls.add(key, ms, app->out_blocks());
        round_ms += ms;
        if (mt) {
          double busy = 0.0;
          for (const auto& w : r.worker_loads) busy += w.busy_s;
          if (!r.worker_loads.empty() && ms > 0.0) {
            busy_ratio.push_back(busy / (static_cast<double>(
                                             r.worker_loads.size()) *
                                         ms / 1e3));
          }
          steals += r.steals;
        } else {
          resumes += r.resumes;
        }
        verify.check(rep, *app, key);
      }
      if (traced) {
        Scope s{"aie.kernel", app->name(), k};
        app->direct();
      }
    }
    if (k == 0) {
      resumes_round0 = resumes;
    } else if (resumes != resumes_round0) {
      rep.fail("core.resumes differs between rounds");
    }
    (traced ? round_traced_ms : round_plain_ms).push_back(round_ms);
  }, [&] { (void)setups.time(make); });
  setups.report(rep);

  rep.set_exact("core.resumes", resumes_round0);
  rep.set_exact("aie.ops_total", count_ops(*apps));
  for (const auto& app : *apps) {
    rep.set_exact_hex(std::string{"digest."} + app->name(),
                      verify.digests[std::string{app->name()} + ".coop"]);
    if (verify.digests[std::string{app->name()} + ".coop"] !=
        verify.digests[std::string{app->name()} + ".coop_mt"]) {
      rep.fail(std::string{app->name()} + ": coop_mt digest != coop digest");
    }
  }
  rep.info["samples"] = static_cast<double>(calls.samples());

  if (!o.trace) {
    rep.set("throughput_per_s", calls.throughput(t_begin, o.seconds), "1/s");
    rep.set("latency_p50_ms", calls.latency.quantile(0.5), "ms");
    rep.set("latency_p99_ms", calls.latency.quantile(0.99), "ms");
    return;
  }
  const std::vector<Span> spans = Tracer::get().collect();
  for (const auto& app : *apps) {
    const std::string n = app->name();
    rep.set("core.coop.run_ms." + n, span_median(rep, spans, "core.coop.run." + n),
            "ms");
    rep.set("core.coop_mt.run_ms." + n,
            span_median(rep, spans, "core.coop_mt.run." + n), "ms");
  }
  direct_metrics(rep, spans, *apps, true);
  rep.set("core.coop_mt.busy_ratio",
          sample_median(rep, busy_ratio, "coop_mt worker loads"), "ratio");
  rep.set("core.coop_mt.steals", static_cast<double>(steals), "count");
  finish_trace(o, rep, spans, 1.0, false, overhead_pct(round_traced_ms, round_plain_ms));
}

void run_paper_cycle(const Options& o, Report& rep) {
  const int divisor = o.tiny ? 1024 : kDivisor;
  struct State {
    std::vector<std::unique_ptr<App>> table2, table1;
  };
  auto make = [&] {
    auto s = std::make_unique<State>();
    s->table2 = make_apps(o.seed, divisor * kAiesimDivisor);
    s->table1 = make_apps(o.seed, 1 << 20, o.tiny ? 16 : kTable1Blocks);
    return s;
  };
  SetupTimes setups;
  auto st = setups.time(make);

  Verifier verify;
  CallLog calls;
  std::vector<double> round_traced_ms, round_plain_ms, table1_ms;
  double cycle_sim_s = 0.0;
  std::uint64_t cycle_sim_cycles = 0, cycle_sim_resumes = 0;
  std::uint64_t cycles_round0 = 0, ops_round0 = 0, resumes_round0 = 0;
  double err_pct = 0.0;

  const std::int64_t t_begin = now_ns();
  measure(o, [&](std::uint64_t k, bool traced) {
    double round_ms = 0.0, t1_ms = 0.0, err_sum = 0.0;
    std::uint64_t cycles = 0, ops = 0, resumes = 0;
    auto sim = [&](App& app, const aiesim::SimConfig& cfg, const char* span,
                   const std::string& key, const std::string& lat_key) {
      const std::int64_t t0 = now_ns();
      aiesim::SimResult r;
      {
        Scope s{span, app.name(), k};
        r = app.simulate(cfg);
      }
      const double ms = ms_between(t0, now_ns());
      if (!traced) calls.add(lat_key, ms, app.out_blocks());
      round_ms += ms;
      cycles += r.virtual_cycles;
      resumes += r.run.resumes;
      for (const auto& t : r.tiles) ops += t.ops.total();
      verify.check(rep, app, key);
      return std::make_pair(r, ms);
    };
    for (auto& app : st->table2) {
      aiesim::SimConfig cfg;
      cfg.detail = aiesim::DetailLevel::cycle;
      const std::string key = std::string{app->name()} + ".cycle";
      const auto [r, ms] = sim(*app, cfg, "aiesim.simulate", key, key);
      cycle_sim_s += ms / 1e3;
      cycle_sim_cycles += r.virtual_cycles;
      cycle_sim_resumes += r.run.resumes;
      if (traced) {
        Scope s{"aie.kernel", app->name(), k};
        app->direct();
      }
    }
    for (auto& app : st->table1) {
      for (const bool gen : {false, true}) {
        aiesim::SimConfig cfg;
        cfg.generated_io = gen;
        const std::string key = std::string{app->name()} + ".table1";
        const auto [r, ms] = sim(*app, cfg, "aiesim.table1", key,
                                 key + (gen ? ".generated_io" : ".hand"));
        t1_ms += ms;
        const double ns = r.ns_per_iteration(cfg.aie_mhz, kTable1Warmup);
        const double paper =
            gen ? app->paper_t1().extracted : app->paper_t1().hand;
        err_sum += std::fabs(ns - paper) / paper;
        if (k == 0) {
          rep.info[std::string{"table1_ns."} + app->name() +
                   (gen ? ".generated_io" : ".hand")] = ns;
        }
      }
    }
    if (k == 0) {
      cycles_round0 = cycles;
      ops_round0 = ops;
      resumes_round0 = resumes;
      err_pct = 100.0 * err_sum / (2.0 * static_cast<double>(st->table1.size()));
    } else if (cycles != cycles_round0 || ops != ops_round0 ||
               resumes != resumes_round0) {
      rep.fail("simulated statistics differ between rounds");
    }
    (traced ? round_traced_ms : round_plain_ms).push_back(round_ms);
    if (traced) table1_ms.push_back(t1_ms);
  }, [&] { (void)setups.time(make); });
  setups.report(rep);

  rep.set_exact("aiesim.virtual_cycles", cycles_round0);
  rep.set_exact("aie.ops_total", ops_round0);
  rep.set_exact("core.resumes", resumes_round0);
  char err_buf[32];
  std::snprintf(err_buf, sizeof err_buf, "%.6f", err_pct);
  rep.exact["aiesim.model_err_pct"] = err_buf;
  for (const auto& app : st->table2) {
    rep.set_exact_hex(std::string{"digest."} + app->name(),
                      verify.digests[std::string{app->name()} + ".cycle"]);
  }
  rep.info["samples"] = static_cast<double>(calls.samples());
  rep.info["model_err_pct"] = err_pct;

  if (!o.trace) {
    rep.set("throughput_per_s", calls.throughput(t_begin, o.seconds), "1/s");
    rep.set("latency_p50_ms", calls.latency.quantile(0.5), "ms");
    rep.set("latency_p99_ms", calls.latency.quantile(0.99), "ms");
    return;
  }
  const std::vector<Span> spans = Tracer::get().collect();
  for (const auto& app : st->table2) {
    const std::string n = app->name();
    rep.set("aiesim.simulate_ms." + n,
            span_median(rep, spans, "aiesim.simulate." + n), "ms");
  }
  direct_metrics(rep, spans, st->table2, false);
  rep.set("aiesim.table1_ms", sample_median(rep, table1_ms, "Table 1 rounds"),
          "ms");
  rep.set("aiesim.model_err_pct", err_pct, "%");
  rep.set("aiesim.host_ns_per_cycle",
          cycle_sim_cycles > 0 ? cycle_sim_s * 1e9 / cycle_sim_cycles : 0.0,
          "ns");
  rep.set("aiesim.host_ns_per_resume",
          cycle_sim_resumes > 0 ? cycle_sim_s * 1e9 / cycle_sim_resumes : 0.0,
          "ns");
  finish_trace(o, rep, spans, 1.0, false, overhead_pct(round_traced_ms, round_plain_ms));
}

}  // namespace pb
