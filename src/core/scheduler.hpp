// cgsim -- cooperative coroutine task scheduler (paper Section 3.8).
//
// Kernels are registered suspended and resumed FIFO until no coroutine can
// continue ("there is no explicit termination condition"). Channels hand
// coroutines back via Executor::make_ready exactly once per suspension, so
// the ready queue never holds duplicates.
//
// Besides the single-threaded Scheduler, this header provides the sharded
// execution layer used by ExecMode::coop_mt: one ShardExecutor (a
// cooperative scheduler plus a locked inbox for cross-shard wakes) per
// graph shard, and two interchangeable pools behind ShardPoolBase:
//
//   * ShardPool          -- one worker thread per shard, static balance
//                           (the original coop_mt engine).
//   * StealingShardPool  -- M workers over N >= M shards with bounded
//                           Chase-Lev deques of ready *shards*; idle
//                           workers steal whole shards from loaded ones
//                           (RunOptions::steal).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "steal.hpp"
#include "task.hpp"

namespace cgsim {

/// Flat circular FIFO of coroutine handles. The ready queue never holds
/// duplicates (channels complete each suspension exactly once), so its
/// occupancy is bounded by the task count; a power-of-two vector with
/// monotonic head/tail indices replaces std::deque's chunked allocation,
/// which showed up in the scheduling ablation.
class ReadyQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }

  void push(std::coroutine_handle<> h) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & mask_] = h;
  }

  /// Precondition: !empty().
  std::coroutine_handle<> pop() { return buf_[head_++ & mask_]; }

 private:
  void grow() {
    const std::size_t n = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<std::coroutine_handle<>> nb(n);
    const std::size_t count = tail_ - head_;
    for (std::size_t i = 0; i < count; ++i) nb[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(nb);
    mask_ = n - 1;
    head_ = 0;
    tail_ = count;
  }

  std::vector<std::coroutine_handle<>> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

class Scheduler final : public Executor {
 public:
  void make_ready(std::coroutine_handle<> h,
                  std::uint64_t not_before) override {
    // The plain cooperative scheduler has no notion of virtual time; a
    // nonzero lower bound here means a virtual-time backend is driving the
    // wrong executor and its schedule would silently degrade to FIFO.
    assert(not_before == 0 &&
           "virtual-time make_ready routed to the plain FIFO scheduler");
    (void)not_before;
    ready_.push(h);
  }

  /// Runs until quiescence. `on_finished(h)` is invoked once for every
  /// coroutine that runs to completion, so the runtime can propagate
  /// end-of-stream closure to its channels.
  template <class OnFinished>
  std::uint64_t run(OnFinished&& on_finished) {
    std::uint64_t resumes = 0;
    while (!ready_.empty()) {
      std::coroutine_handle<> h = ready_.pop();
      h.resume();
      ++resumes;
      if (h.done()) on_finished(h);
    }
    return resumes;
  }

  /// Like run(), but accumulates the wall-clock time spent *inside*
  /// coroutine resumptions into `resume_seconds`. The difference between
  /// the caller's total wall time and `resume_seconds` is pure scheduling
  /// overhead -- the quantity the paper's perf profile reports as
  /// "synchronization" (Section 5.2), since channel operations inline into
  /// the kernel coroutines and attribute to the kernel symbol.
  ///
  /// The clock is sampled once per iteration and the previous reading is
  /// reused as the interval start, so each loop pays one `now()` call
  /// instead of two. The queue bookkeeping between two samples is charged
  /// to the adjacent resume window -- the same attribution perf makes when
  /// inlined channel operations land on kernel symbols -- which keeps the
  /// instrumentation itself out of the "synchronization" bucket it is
  /// trying to measure.
  template <class OnFinished>
  std::uint64_t run_instrumented(OnFinished&& on_finished,
                                 double& resume_seconds) {
    std::uint64_t resumes = 0;
    resume_seconds = 0.0;
    auto last = std::chrono::steady_clock::now();
    while (!ready_.empty()) {
      std::coroutine_handle<> h = ready_.pop();
      h.resume();
      const auto t = std::chrono::steady_clock::now();
      resume_seconds += std::chrono::duration<double>(t - last).count();
      last = t;
      ++resumes;
      if (h.done()) on_finished(h);
    }
    return resumes;
  }

  [[nodiscard]] bool idle() const { return ready_.empty(); }
  [[nodiscard]] std::size_t pending() const { return ready_.size(); }

 private:
  ReadyQueue ready_;
};

// ---------------------------------------------------------------------------
// Sharded cooperative execution (ExecMode::coop_mt).
// ---------------------------------------------------------------------------

class ShardExecutor;

/// Global termination state shared by the workers of one coop_mt run.
///
/// Quiescence protocol (two phases, no sleeps):
///   phase 1 (announce): a worker whose local ready queue and inbox are
///     both empty increments `idle` and marks itself parked under its inbox
///     lock. A cross-shard wake targeting a parked worker decrements `idle`
///     on the sleeper's behalf *inside the same critical section* that
///     un-parks it, so `idle == n_shards` can only be observed while no
///     worker is running and no wake is in flight.
///   phase 2 (verify): the worker whose increment reached `n_shards`
///     re-checks every shard's inbox under its lock and then re-reads
///     `idle`; only if both still agree is `done` published and every
///     worker woken for shutdown. A failed verification simply parks --
///     whichever worker was still active repeats the protocol later.
struct ShardQuiescence {
  int n_shards = 1;
  std::atomic<int> idle{0};
  std::atomic<bool> done{false};
  std::vector<ShardExecutor*> shards;
};

/// Cooperative scheduler for one shard plus the cross-shard handoff path.
///
/// The owner worker thread runs the local ReadyQueue without any locking.
/// make_ready() from any other thread (a cross-shard channel completing a
/// waiter, routed here) lands in a mutex-guarded inbox; if the shard is
/// parked the poster un-parks it, takes over its idle-count decrement, and
/// notifies -- so idle shards sleep on a condition variable instead of
/// spinning (the pthreadChannel parking discipline).
class ShardExecutor final : public Executor {
 public:
  ShardExecutor(int shard, ShardQuiescence* q) : shard_(shard), q_(q) {}

  void make_ready(std::coroutine_handle<> h,
                  std::uint64_t not_before) override {
    assert(not_before == 0 &&
           "virtual-time make_ready routed to a shard executor");
    (void)not_before;
    if (std::this_thread::get_id() == owner_) {
      local_.push(h);
      return;
    }
    post_remote(h);
  }

  /// Pre-run registration from the controlling thread (workers not started
  /// yet, so the local queue is safe to touch).
  void seed(std::coroutine_handle<> h) { local_.push(h); }

  [[nodiscard]] int shard() const { return shard_; }
  /// Wall time spent sleeping on the condition variable during the last
  /// worker_loop; the pool subtracts it from wall time to get busy time.
  [[nodiscard]] double parked_seconds() const { return parked_s_; }

  /// Worker body; returns the number of coroutine resumptions performed.
  template <class OnFinished>
  std::uint64_t worker_loop(OnFinished&& on_finished) {
    owner_ = std::this_thread::get_id();
    parked_s_ = 0.0;
    std::uint64_t resumes = 0;
    for (;;) {
      while (!local_.empty()) {
        std::coroutine_handle<> h = local_.pop();
        h.resume();
        ++resumes;
        if (h.done()) on_finished(h);
      }
      if (drain_inbox()) continue;
      // Phase 1: announce idleness, then re-check the inbox under the lock
      // (a wake may have slipped in between the drain and the increment).
      const int n = q_->idle.fetch_add(1) + 1;
      std::unique_lock lk{m_};
      if (!inbox_.empty()) {
        lk.unlock();
        q_->idle.fetch_sub(1);
        continue;
      }
      parked_ = true;
      lk.unlock();
      if (n == q_->n_shards && verify_quiescent()) {
        announce_done();
        return resumes;
      }
      lk.lock();
      const auto park_t0 = std::chrono::steady_clock::now();
      cv_.wait(lk, [&] { return !parked_ || q_->done.load(); });
      parked_s_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - park_t0)
                       .count();
      if (parked_) {  // woken only by announce_done: global quiescence
        parked_ = false;
        return resumes;
      }
      // Woken with work: the poster already decremented the idle count.
    }
  }

 private:
  void post_remote(std::coroutine_handle<> h) {
    std::lock_guard lk{m_};
    inbox_.push_back(h);
    if (parked_) {
      // Take over the sleeper's idle decrement before it can run again, so
      // the global count never over-reports idleness.
      parked_ = false;
      q_->idle.fetch_sub(1);
      cv_.notify_one();
    }
  }

  /// Moves inbox arrivals onto the local ready queue. Owner thread only.
  bool drain_inbox() {
    std::lock_guard lk{m_};
    if (inbox_.empty()) return false;
    for (std::coroutine_handle<> h : inbox_) local_.push(h);
    inbox_.clear();
    return true;
  }

  /// Phase 2 of termination detection; see ShardQuiescence.
  [[nodiscard]] bool verify_quiescent() {
    for (ShardExecutor* s : q_->shards) {
      std::lock_guard lk{s->m_};
      if (!s->inbox_.empty()) return false;
    }
    // All inboxes observed empty; if nobody retracted an idle announcement
    // in the meantime the whole pool is quiescent.
    return q_->idle.load() == q_->n_shards;
  }

  void announce_done() {
    q_->done.store(true);
    for (ShardExecutor* s : q_->shards) {
      if (s == this) continue;
      std::lock_guard lk{s->m_};
      s->cv_.notify_one();
    }
  }

  int shard_;
  ShardQuiescence* q_;
  ReadyQueue local_;  // owner thread only
  std::thread::id owner_{};
  std::mutex m_;  // guards inbox_, parked_
  std::vector<std::coroutine_handle<>> inbox_;
  bool parked_ = false;
  double parked_s_ = 0.0;
  std::condition_variable cv_;
};

/// Thread-safe executor handed to cross-shard channels: completions may
/// fire on any worker thread, so each coroutine is routed to the shard
/// that owns it. The route table is built before the workers start and is
/// read-only during the run.
class RouterExecutor final : public Executor {
 public:
  void add_route(void* frame, Executor* target) { routes_[frame] = target; }

  void make_ready(std::coroutine_handle<> h,
                  std::uint64_t not_before) override {
    auto it = routes_.find(h.address());
    assert(it != routes_.end() && "coroutine has no registered home shard");
    it->second->make_ready(h, not_before);
  }

 private:
  std::unordered_map<void*, Executor*> routes_;
};

/// Common interface of the two coop_mt worker pools, so RuntimeContext can
/// select static (ShardPool) or work-stealing (StealingShardPool)
/// execution per run without duplicating the channel wiring.
class ShardPoolBase {
 public:
  using OnFinishedFn = std::function<void(std::coroutine_handle<>)>;

  virtual ~ShardPoolBase() = default;

  [[nodiscard]] virtual int n_shards() const = 0;
  [[nodiscard]] virtual int n_workers() const = 0;
  /// Executor homing the given shard's intra-shard channels.
  [[nodiscard]] virtual Executor& shard_exec(int s) = 0;
  /// Thread-safe executor for cross-shard channels.
  [[nodiscard]] virtual Executor& router() = 0;
  /// Registers a task with its home shard before the run starts.
  virtual void register_task(std::coroutine_handle<> h, int shard) = 0;
  /// Runs to global quiescence; returns the total resumption count.
  /// `on_finished` must be safe to call from any worker thread.
  virtual std::uint64_t run(const OnFinishedFn& on_finished) = 0;
  /// Successful shard steals over the last run (0 for static pools).
  [[nodiscard]] virtual std::uint64_t steals() const = 0;
  /// Per-worker statistics of the last run.
  [[nodiscard]] virtual const std::vector<WorkerLoad>& worker_loads()
      const = 0;
};

/// Fixed pool of shard workers for one coop_mt run: owns the per-shard
/// executors, the cross-shard router, and the quiescence state. One worker
/// thread per shard; balance is whatever the static LPT packing gave.
class ShardPool final : public ShardPoolBase {
 public:
  explicit ShardPool(int n_shards) {
    q_.n_shards = n_shards < 1 ? 1 : n_shards;
    shards_.reserve(static_cast<std::size_t>(q_.n_shards));
    for (int s = 0; s < q_.n_shards; ++s) {
      shards_.push_back(std::make_unique<ShardExecutor>(s, &q_));
      q_.shards.push_back(shards_.back().get());
    }
    loads_.resize(static_cast<std::size_t>(q_.n_shards));
  }

  [[nodiscard]] int n_shards() const override { return q_.n_shards; }
  [[nodiscard]] int n_workers() const override { return q_.n_shards; }
  [[nodiscard]] ShardExecutor& shard(int s) {
    return *shards_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] Executor& shard_exec(int s) override { return shard(s); }
  [[nodiscard]] Executor& router() override { return router_; }
  [[nodiscard]] std::uint64_t steals() const override { return 0; }
  [[nodiscard]] const std::vector<WorkerLoad>& worker_loads()
      const override {
    return loads_;
  }

  void register_task(std::coroutine_handle<> h, int shard) override {
    router_.add_route(h.address(), &this->shard(shard));
    this->shard(shard).seed(h);
  }

  /// Runs every shard worker to global quiescence and returns the total
  /// resumption count. `on_finished` must be safe to call from any worker
  /// thread (cgsim's closure bookkeeping touches only channels reachable
  /// from the finishing task, which are either shard-local or
  /// cross-shard-safe). The calling thread runs shard 0's worker loop
  /// itself and spawns one thread per further shard, so a one-shard
  /// partition spawns none. A caller that only waited in the join would
  /// leave its CPU idle while the new threads queue for one.
  std::uint64_t run(const OnFinishedFn& on_finished) override {
    q_.idle.store(0);
    q_.done.store(false);
    std::atomic<std::uint64_t> resumes{0};
    // noexcept: a throw on the calling thread terminates, as it would on a
    // spawned worker, instead of leaving the join waiting on shard 0.
    const auto work = [this, &resumes, &on_finished](
                          ShardExecutor* s) noexcept {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t n = s->worker_loop(on_finished);
      WorkerLoad& load = loads_[static_cast<std::size_t>(s->shard())];
      load = WorkerLoad{};
      load.resumes = n;
      load.busy_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count() -
                    s->parked_seconds();
      resumes.fetch_add(n);
    };
    {
      std::vector<std::jthread> workers;
      workers.reserve(shards_.size() - 1);
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        workers.emplace_back([&work, s = shards_[i].get()] { work(s); });
      }
      work(shards_.front().get());
    }  // join
    return resumes.load();
  }

 private:
  ShardQuiescence q_;
  std::vector<std::unique_ptr<ShardExecutor>> shards_;
  RouterExecutor router_;
  std::vector<WorkerLoad> loads_;
};

// ---------------------------------------------------------------------------
// Work-stealing shard execution (RunOptions::steal).
// ---------------------------------------------------------------------------

/// M worker threads over N >= M shards with per-worker bounded Chase-Lev
/// deques. Where ShardPool pins one worker per shard, this pool
/// over-partitions the graph (RuntimeContext uses ~4 shards per worker)
/// and lets idle workers steal ready shards from loaded workers.
///
/// The steal unit is a *shard*, not a task: intra-shard edges use the
/// single-threaded CoopChannel fast path, so two tasks of one shard must
/// never run concurrently. Migrating whole shards preserves that invariant
/// (at most one worker runs a shard at a time) while still rebalancing
/// dynamically. Results stay bit-identical to single-threaded coop
/// execution for the same reason cgsim graphs are deterministic at all --
/// blocking FIFO channels plus deterministic kernels form a Kahn process
/// network -- and the same-cycle FIFO contract holds because each shard's
/// ready queue and inbox are drained in FIFO order by whichever worker
/// runs the shard.
///
/// Shard state machine (posters transition under the shard's inbox mutex,
/// the acquiring worker CASes kQueued -> kRunning):
///
///   kIdle --post/seed--> kQueued --worker pops id--> kRunning
///   kRunning --drained, inbox empty--> kIdle
///   kRunning --inbox refilled during release--> kQueued (re-enqueued)
///
/// A shard is enqueued (in exactly one deque or the overflow list) iff
/// kQueued, so per-worker deque capacity next_pow2(n_shards + 1) can never
/// overflow. The release store leaving kRunning and the acquire CAS of the
/// next runner order successive runners of one shard, so its CoopChannel
/// state and ReadyQueue migrate safely between threads (TSan-visible
/// happens-before, no fences).
///
/// Termination is the two-phase counter protocol of ShardPool extended to
/// shard states: a worker that finds no runnable shard announces idleness;
/// the worker whose announcement completes the count verifies every shard
/// kIdle with an empty inbox, the overflow list empty, and the idle count
/// still full before publishing done. Parking uses one global
/// {mutex, condvar, epoch}: a worker snapshots the epoch before scanning
/// for work and sleeps only while the epoch is unchanged; posters bump the
/// epoch under the mutex after making work visible. A steal CAS that loses
/// a race can at worst leave the shard in the *active* victim's own deque
/// (only a worker's own thread pushes to its deque, so an idle worker's
/// deque is empty), hence no ready shard can be stranded with all workers
/// asleep.
class StealingShardPool final : public ShardPoolBase {
  enum : int { kIdle = 0, kQueued = 1, kRunning = 2 };

 public:
  /// Executor for one shard. Wakes from the shard's current runner go to
  /// the unlocked local ReadyQueue; wakes from any other thread land in
  /// the locked inbox (same split as ShardExecutor).
  class Shard final : public Executor {
   public:
    Shard(StealingShardPool* pool, int id) : pool_(pool), id_(id) {}

    void make_ready(std::coroutine_handle<> h,
                    std::uint64_t not_before) override {
      assert(not_before == 0 &&
             "virtual-time make_ready routed to a stealing shard executor");
      (void)not_before;
      if (runner_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id()) {
        local_.push(h);
        return;
      }
      pool_->post_remote(*this, h);
    }

   private:
    friend class StealingShardPool;
    StealingShardPool* pool_;
    int id_;
    ReadyQueue local_;  // current runner only
    std::mutex m_;      // guards inbox_ and poster-side state_ transitions
    std::vector<std::coroutine_handle<>> inbox_;
    std::atomic<int> state_{kIdle};
    std::atomic<std::thread::id> runner_{};
  };

  StealingShardPool(int n_shards, int n_workers) {
    n_shards_ = n_shards < 1 ? 1 : n_shards;
    n_workers_ = n_workers < 1 ? 1 : n_workers;
    if (n_workers_ > n_shards_) n_workers_ = n_shards_;
    shards_.reserve(static_cast<std::size_t>(n_shards_));
    for (int s = 0; s < n_shards_; ++s) {
      shards_.push_back(std::make_unique<Shard>(this, s));
    }
    const auto deque_cap = static_cast<std::size_t>(n_shards_) + 1;
    workers_.reserve(static_cast<std::size_t>(n_workers_));
    for (int i = 0; i < n_workers_; ++i) {
      workers_.push_back(std::make_unique<Worker>(i, deque_cap));
    }
    loads_.resize(static_cast<std::size_t>(n_workers_));
  }

  [[nodiscard]] int n_shards() const override { return n_shards_; }
  [[nodiscard]] int n_workers() const override { return n_workers_; }
  [[nodiscard]] Executor& shard_exec(int s) override {
    return *shards_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] Executor& router() override { return router_; }
  [[nodiscard]] std::uint64_t steals() const override { return steals_; }
  [[nodiscard]] const std::vector<WorkerLoad>& worker_loads()
      const override {
    return loads_;
  }

  /// Pre-run registration from the controlling thread (workers not
  /// started, so local queues and deques are safe to touch).
  void register_task(std::coroutine_handle<> h, int shard) override {
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    router_.add_route(h.address(), &s);
    s.local_.push(h);
    if (s.state_.load(std::memory_order_relaxed) == kIdle) {
      s.state_.store(kQueued, std::memory_order_relaxed);
      seeds_.push_back(shard);
    }
  }

  std::uint64_t run(const OnFinishedFn& on_finished) override {
    idle_.store(0);
    done_.store(false);
    // Deal seeded shards round-robin so the run starts balanced even
    // before any steal happens.
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const bool ok =
          workers_[i % workers_.size()]->deque.push_bottom(seeds_[i]);
      assert(ok && "seed overflowed a worker deque");
      (void)ok;
    }
    seeds_.clear();
    {
      std::vector<std::jthread> threads;
      threads.reserve(workers_.size());
      for (auto& w : workers_) {
        threads.emplace_back([this, &on_finished, worker = w.get()] {
          worker_main(*worker, on_finished);
        });
      }
    }  // join
    std::uint64_t resumes = 0;
    steals_ = 0;
    for (auto& w : workers_) {
      resumes += w->load.resumes;
      steals_ += w->load.steals;
      loads_[static_cast<std::size_t>(w->index)] = w->load;
    }
    return resumes;
  }

 private:
  struct Worker {
    Worker(int index, std::size_t deque_capacity)
        : index(index), deque(deque_capacity) {}
    int index;
    StealDeque<int> deque;
    WorkerLoad load;
  };

  /// Which pool/worker the current thread belongs to; lets posters push
  /// onto their own deque (the only thread allowed to) and everyone else
  /// fall back to the locked overflow list.
  struct Tls {
    StealingShardPool* pool;
    Worker* worker;
  };
  inline static thread_local Tls tls_{nullptr, nullptr};

  void post_remote(Shard& s, std::coroutine_handle<> h) {
    bool queue_it = false;
    {
      std::lock_guard lk{s.m_};
      s.inbox_.push_back(h);
      if (s.state_.load(std::memory_order_relaxed) == kIdle) {
        s.state_.store(kQueued, std::memory_order_relaxed);
        queue_it = true;
      }
      // kQueued: already in a deque/overflow and will drain the inbox when
      // run. kRunning: the runner's release-time inbox check is under this
      // same mutex, so it cannot miss the push. Neither case needs a wake.
    }
    if (queue_it) enqueue(s);
  }

  void enqueue(Shard& s) {
    if (tls_.pool == this && tls_.worker->deque.push_bottom(s.id_)) {
      signal_work();
      return;
    }
    // Non-worker thread (seeding helpers, finalizer-driven wakes) or a
    // full deque (impossible by capacity, kept as a safety net).
    {
      std::lock_guard lk{overflow_m_};
      overflow_.push_back(s.id_);
    }
    signal_work();
  }

  void signal_work() {
    // The epoch bump is under the park mutex so a sleeper's predicate
    // cannot miss it between its work scan and its wait.
    {
      std::lock_guard lk{park_m_};
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    park_cv_.notify_all();
  }

  Shard* find_work(Worker& w) {
    int id = -1;
    if (w.deque.pop_bottom(id)) return shards_[static_cast<std::size_t>(id)].get();
    {
      std::lock_guard lk{overflow_m_};
      if (!overflow_.empty()) {
        id = overflow_.front();
        overflow_.erase(overflow_.begin());  // FIFO; the list stays tiny
        return shards_[static_cast<std::size_t>(id)].get();
      }
    }
    const int nw = static_cast<int>(workers_.size());
    for (int i = 1; i < nw; ++i) {
      Worker& victim = *workers_[static_cast<std::size_t>((w.index + i) % nw)];
      ++w.load.steal_attempts;
      if (victim.deque.steal_top(id)) {
        ++w.load.steals;
        return shards_[static_cast<std::size_t>(id)].get();
      }
    }
    return nullptr;
  }

  void run_shard(Worker& w, Shard& s, const OnFinishedFn& on_finished) {
    int expected = kQueued;
    const bool acquired = s.state_.compare_exchange_strong(
        expected, kRunning, std::memory_order_acq_rel);
    assert(acquired && "dequeued shard was not kQueued");
    (void)acquired;
    s.runner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    for (;;) {
      {
        std::lock_guard lk{s.m_};
        for (std::coroutine_handle<> h : s.inbox_) s.local_.push(h);
        s.inbox_.clear();
      }
      if (s.local_.empty()) break;
      while (!s.local_.empty()) {
        std::coroutine_handle<> h = s.local_.pop();
        h.resume();
        ++w.load.resumes;
        if (h.done()) on_finished(h);
      }
    }
    // Drained. Release the shard; if the inbox refilled between the last
    // drain and here, requeue it (on our own deque -- thieves may take it).
    s.runner_.store(std::thread::id{}, std::memory_order_relaxed);
    bool requeue = false;
    {
      std::lock_guard lk{s.m_};
      if (s.inbox_.empty()) {
        s.state_.store(kIdle, std::memory_order_release);
      } else {
        s.state_.store(kQueued, std::memory_order_release);
        requeue = true;
      }
    }
    if (requeue) enqueue(s);
  }

  void worker_main(Worker& w, const OnFinishedFn& on_finished) {
    tls_ = Tls{this, &w};
    w.load = WorkerLoad{};
    const auto t_start = std::chrono::steady_clock::now();
    double parked_s = 0.0;
    for (;;) {
      const std::uint64_t e0 = epoch_.load(std::memory_order_seq_cst);
      if (Shard* s = find_work(w)) {
        run_shard(w, *s, on_finished);
        continue;
      }
      const int n = idle_.fetch_add(1, std::memory_order_seq_cst) + 1;
      if (n == n_workers_ && verify_quiescent()) {
        announce_done();
        break;
      }
      {
        std::unique_lock lk{park_m_};
        const auto t0 = std::chrono::steady_clock::now();
        park_cv_.wait(lk, [&] {
          return done_.load(std::memory_order_acquire) ||
                 epoch_.load(std::memory_order_relaxed) != e0;
        });
        parked_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      }
      idle_.fetch_sub(1, std::memory_order_seq_cst);
      if (done_.load(std::memory_order_acquire)) break;
    }
    tls_ = Tls{nullptr, nullptr};
    w.load.busy_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t_start)
                        .count() -
                    parked_s;
  }

  /// Phase 2 of termination: only trustworthy when called by the worker
  /// whose idle announcement completed the count.
  [[nodiscard]] bool verify_quiescent() {
    for (const auto& s : shards_) {
      std::lock_guard lk{s->m_};
      if (s->state_.load(std::memory_order_seq_cst) != kIdle ||
          !s->inbox_.empty()) {
        return false;
      }
    }
    {
      std::lock_guard lk{overflow_m_};
      if (!overflow_.empty()) return false;
    }
    // All shards idle and no queued work anywhere; if nobody retracted an
    // idle announcement in the meantime the pool is quiescent.
    return idle_.load(std::memory_order_seq_cst) == n_workers_;
  }

  void announce_done() {
    {
      std::lock_guard lk{park_m_};
      done_.store(true, std::memory_order_release);
    }
    park_cv_.notify_all();
  }

  int n_shards_ = 1;
  int n_workers_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> seeds_;  // shards queued during registration
  RouterExecutor router_;
  std::mutex overflow_m_;
  std::vector<int> overflow_;  // kQueued shards not in any worker's deque
  std::mutex park_m_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> idle_{0};
  std::atomic<bool> done_{false};
  std::uint64_t steals_ = 0;
  std::vector<WorkerLoad> loads_;
};

}  // namespace cgsim
