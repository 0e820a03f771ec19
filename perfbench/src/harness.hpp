// perfbench harness: options, sample statistics, the outside-in span
// tracer, and the per-run report every workload fills in.
//
// The benchmark measures the program from outside: spans are recorded
// around calls into each module's public functions, kept in memory, and
// written out as Chrome trace-event JSON when the run ends. A span's name
// starts with its layer ("core.", "aie.", "aiesim.", ...); spans named
// "harness.*" mark one measuring lane's unit of work and are the
// denominator of trace.coverage.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files (store, span file)
  bool tiny = false;           ///< self-check scale
};

/// Set-ups per run: setup_s is their median. One at self-check scale.
inline int setup_count(const Options& o) { return o.tiny ? 1 : 11; }

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// A run's figures are medians over its parts, so that a stall of the
// shared host (tens to hundreds of ms, seen on 4-thread VMs) moves one
// part rather than the whole run.

/// Samples per part for percentiles: p99 of 1000 leaves 10 beyond it.
inline constexpr std::size_t kChunk = 1000;

/// Quantile q of each run of kChunk consecutive samples (a short tail is
/// folded into the last part), then the median of those.
inline double chunked_quantile(const std::vector<double>& v, double q) {
  if (v.size() < 2 * kChunk) return quantile(v, q);
  std::vector<double> parts;
  const std::size_t n = v.size() / kChunk;
  for (std::size_t c = 0; c < n; ++c) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(c * kChunk);
    const auto e = c + 1 == n ? v.end() : b + static_cast<std::ptrdiff_t>(kChunk);
    parts.push_back(quantile(std::vector<double>(b, e), q));
  }
  return median(parts);
}

/// Latencies of operations of several kinds (groups), in completion
/// order. The groups' latencies differ by up to 100x, so a percentile of
/// the pooled samples would sit on a boundary between groups. Instead each
/// sample is divided by its group's median, and a percentile of those
/// ratios (over parts of kChunk samples, in order) scales the geometric
/// mean of the group medians.
struct GroupedLatency {
  std::map<std::string, std::size_t> group;
  std::vector<std::size_t> key;
  std::vector<double> ms;

  void add(const std::string& name, double x_ms) {
    key.push_back(group.emplace(name, group.size()).first->second);
    ms.push_back(x_ms);
  }
  [[nodiscard]] double quantile(double q) const {
    if (group.empty()) return 0.0;
    std::vector<std::vector<double>> by_group(group.size());
    for (std::size_t i = 0; i < ms.size(); ++i) by_group[key[i]].push_back(ms[i]);
    std::vector<double> group_median;
    double log_sum = 0.0;
    for (const auto& v : by_group) {
      group_median.push_back(median(v));
      log_sum += std::log(group_median.back());
    }
    std::vector<double> ratio;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      ratio.push_back(ms[i] / group_median[key[i]]);
    }
    return std::exp(log_sum / static_cast<double>(group.size())) *
           chunked_quantile(ratio, q);
  }
};

/// Work per unit of time over equal time windows of [t0, t1): in each
/// window, the summed `work` of the samples stamped in it over their
/// summed `cost` seconds (or over the window length when `cost` is
/// empty); the median over windows.
inline double windowed_rate(const std::vector<std::int64_t>& stamp,
                            const std::vector<double>& work,
                            const std::vector<double>& cost,
                            std::int64_t t0, std::int64_t t1,
                            int windows) {
  windows = std::max(1, windows);
  const double len = static_cast<double>(t1 - t0) / windows;
  std::vector<double> w(static_cast<std::size_t>(windows)),
      c(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    const auto k = static_cast<std::ptrdiff_t>(
        static_cast<double>(stamp[i] - t0) / len);
    if (k < 0 || k >= windows) continue;
    w[static_cast<std::size_t>(k)] += work[i];
    c[static_cast<std::size_t>(k)] += cost.empty() ? 0.0 : cost[i];
  }
  std::vector<double> rates;
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double secs = cost.empty() ? len / 1e9 : c[k];
    if (secs > 0) rates.push_back(w[k] / secs);
  }
  return median(rates);
}

/// Windows of about two seconds over a measured phase.
inline int windows_for(double seconds) {
  return std::max(1, static_cast<int>(seconds / 2.0));
}

inline double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over 8-byte words (then the tail bytes): the digest every
/// workload reports its outputs with. Word steps keep the check cheap
/// next to the runs it verifies.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t digest_vec(const std::vector<T>& v,
                         std::uint64_t h = 1469598103934665603ull) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

// ---------------------------------------------------------------------------
// Span tracer.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  ///< static string: "<layer>.<what>"
  const char* tag = nullptr;   ///< optional static suffix (an app name)
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: root on its thread
  std::uint32_t tid = 0;
  std::uint64_t req = 0;  ///< request / variant id shared by related spans

  [[nodiscard]] std::string full_name() const {
    return tag == nullptr ? std::string{name} : std::string{name} + "." + tag;
  }
};

/// Process-wide span store. Each thread appends to its own buffer (no
/// lock on the hot path); buffers are owned here so they outlive the
/// threads that filled them. Recording is off unless enabled().
class Tracer {
 public:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> stack;  ///< open span ids, innermost last
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }

  Buffer& local() {
    thread_local Buffer* tl = nullptr;
    if (tl == nullptr) {
      std::lock_guard lk{m_};
      bufs_.push_back(std::make_unique<Buffer>());
      tl = bufs_.back().get();
      tl->tid = static_cast<std::uint32_t>(bufs_.size());
      tl->spans.reserve(1 << 14);
    }
    return *tl;
  }

  std::uint32_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every recorded span. Call only once recording threads are quiet.
  [[nodiscard]] std::vector<Span> collect() const {
    std::lock_guard lk{m_};
    std::vector<Span> all;
    for (const auto& b : bufs_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex m_;
  std::vector<std::unique_ptr<Buffer>> bufs_;  // guarded by m_
};

/// RAII span around one call. Costs one relaxed load when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name, const char* tag = nullptr,
                 std::uint64_t req = 0) {
    Tracer& tr = Tracer::get();
    if (!tr.enabled()) return;
    buf_ = &tr.local();
    span_.name = name;
    span_.tag = tag;
    span_.req = req;
    span_.id = tr.next_id();
    span_.parent = buf_->stack.empty() ? 0 : buf_->stack.back();
    span_.tid = buf_->tid;
    buf_->stack.push_back(span_.id);
    span_.t0 = now_ns();
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    span_.t1 = now_ns();
    buf_->stack.pop_back();
    buf_->spans.push_back(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  Span span_{};
};

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run hands back to main(): operation counts, metrics, exact
/// counts (compared against the committed baseline by run.py) and the
/// first few failure messages.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> exact;  ///< decimal / hex strings
  std::map<std::string, double> info;        ///< printed, not gated
  std::mutex m;                              ///< guards fail() from lanes

  void set(const std::string& name, double v, const char* unit) {
    metrics[name] = Metric{v, unit};
  }
  void fail(const std::string& why) {
    std::lock_guard lk{m};
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void set_exact(const std::string& name, std::uint64_t v) {
    exact[name] = std::to_string(v);
  }
  void set_exact_hex(const std::string& name, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    exact[name] = buf;
  }
};

// ---------------------------------------------------------------------------
// Span analysis.
// ---------------------------------------------------------------------------

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap (they run on the parent's
/// thread, one after another), so the covered part is their summed
/// duration.
inline std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::size_t> at;
  for (std::size_t i = 0; i < spans.size(); ++i) at[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = ms_between(spans[i].t0, spans[i].t1);
  }
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = at.find(s.parent);
    if (it != at.end()) self[it->second] -= ms_between(s.t0, s.t1);
  }
  return self;
}

inline bool is_harness(const Span& s) {
  return std::string{s.name}.rfind("harness.", 0) == 0;
}

/// Durations (ms) of the spans with this full name.
inline std::vector<double> span_ms(const std::vector<Span>& spans,
                                   const std::string& full_name) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (s.full_name() == full_name) v.push_back(ms_between(s.t0, s.t1));
  }
  return v;
}

/// Quantile q of a per-layer sample; an empty sample means the layer's
/// spans were never recorded, which fails the run instead of reading 0.
inline double sample_quantile(Report& rep, const std::vector<double>& v,
                              double q, const std::string& what) {
  if (v.empty()) rep.fail("traced run recorded no " + what);
  return quantile(v, q);
}

inline double sample_median(Report& rep, const std::vector<double>& v,
                            const std::string& what) {
  return sample_quantile(rep, v, 0.5, what);
}

/// Median duration (ms) of the spans with this full name; none fails.
inline double span_median(Report& rep, const std::vector<Span>& spans,
                          const std::string& full_name) {
  return sample_median(rep, span_ms(spans, full_name), full_name + " spans");
}

/// trace.coverage: summed self time of the layer spans that run under a
/// harness span, over the summed harness span time x `lanes` (how many
/// threads work under one harness span). Layer spans on threads the
/// harness does not drive (e.g. a daemon's own workers) are reported as
/// metrics but are not part of the coverage sum -- unless `pool_roots`:
/// then root layer spans on other threads are the harness's own jobs
/// running on a worker pool (sweep-dse) and count.
inline double coverage(const std::vector<Span>& spans, double lanes,
                       bool pool_roots = false) {
  const std::vector<double> self = self_ms(spans);
  std::map<std::uint32_t, std::size_t> at;
  for (std::size_t i = 0; i < spans.size(); ++i) at[spans[i].id] = i;
  auto root_of = [&](std::size_t i) {
    while (spans[i].parent != 0) {
      auto it = at.find(spans[i].parent);
      if (it == at.end()) break;
      i = it->second;
    }
    return i;
  };
  double layer = 0.0, harness = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (is_harness(spans[i])) {
      harness += ms_between(spans[i].t0, spans[i].t1);
    } else if (is_harness(spans[root_of(i)]) || pool_roots) {
      layer += self[i];
    }
  }
  return harness > 0.0 ? layer / (harness * lanes) : 0.0;
}

/// Writes the spans as Chrome trace-event JSON (chrome://tracing and
/// Perfetto open it); ids, parents and request ids ride in "args".
inline bool write_span_file(const std::string& path,
                            const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) base = std::min(base, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %u, \"parent\": %u, \"req\": %llu}}%s\n",
                 s.full_name().c_str(), s.tid,
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.req),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// The set-up times of one run; setup_s is their median.
struct SetupTimes {
  std::vector<double> secs;

  /// Times one set-up; `make` returns its state object.
  template <class MakeState>
  auto time(MakeState&& make) {
    const std::int64_t t0 = now_ns();
    auto state = make();
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return state;
  }
  void report(Report& rep) const { rep.set("setup_s", median(secs), "s"); }
};

/// setup_count(o) set-ups back to back, each torn down before the next
/// starts; returns the last one's state.
template <class MakeState>
auto timed_setups(const Options& o, Report& rep, MakeState&& make) {
  SetupTimes times;
  decltype(make()) state{};
  for (int i = 0; i < setup_count(o); ++i) {
    state = {};
    state = times.time(make);
  }
  times.report(rep);
  return state;
}

}  // namespace pb
