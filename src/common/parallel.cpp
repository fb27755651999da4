#include "common/parallel.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/mutex.hpp"

namespace nitho {
namespace {

// Relaxed is enough: the override is a plain size hint with no data guarded
// behind it, and Pool::run snapshots it exactly once per dispatch.
std::atomic<int> g_workers_override{0};

// Set while this thread runs tasks of a dispatch (Pool::work), so a
// parallel_for issued from inside a task runs inline instead of waiting
// for the pool it is part of.
thread_local bool t_in_pool_task = false;

// Read once: std::thread::hardware_concurrency() reads sysfs on every call
// (~3 us each on a 4-vCPU x86-64 VM), which every default-sized dispatch
// would otherwise pay.
int hardware_workers() {
  static const int n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return n;
}

// Lazily constructed, process-lifetime pool.  Tasks are dispatched as a
// single atomic counter over [0, n): workers race on fetch_add, which keeps
// scheduling overhead negligible for the coarse-grained tasks we run.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::int64_t n, const std::function<void(std::int64_t)>& fn,
           int workers) {
    if (n <= 0) return;
    if (workers <= 1 || n == 1 || t_in_pool_task) {
      for (std::int64_t i = 0; i < n; ++i) fn(i);
      return;
    }
    LockGuard run_lock(run_mutex_);  // one job at a time
    ensure_threads(workers - 1);
    job_fn_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    pending_.store(0, std::memory_order_relaxed);
    {
      LockGuard lk(mutex_);
      first_error_ = nullptr;
      ++epoch_;
      active_ = std::min<std::int64_t>(workers - 1,
                                       static_cast<std::int64_t>(threads_.size()));
      pending_.store(active_, std::memory_order_release);
    }
    cv_.notify_all();
    work();  // caller participates
    // Wait for helpers to finish.  pending_ is an atomic, not a guarded
    // field — the lock here only pairs the wait with done_cv_'s notify.
    UniqueLock lk(mutex_);
    while (pending_.load(std::memory_order_acquire) != 0) done_cv_.wait(lk);
    job_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  Pool() = default;
  ~Pool() {
    {
      LockGuard lk(mutex_);
      stop_ = true;
      ++epoch_;
    }
    cv_.notify_all();
    // threads_ is stable here: ensure_threads only runs under run_mutex_,
    // and no run() can be active while the process-lifetime pool dies.
    for (auto& t : threads_) t.join();
  }

  void ensure_threads(int n) NITHO_REQUIRES(run_mutex_) {
    LockGuard lk(mutex_);
    while (static_cast<int>(threads_.size()) < n) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      {
        UniqueLock lk(mutex_);
        while (!stop_ && epoch_ == seen_epoch) cv_.wait(lk);
        seen_epoch = epoch_;
        if (stop_) return;
        if (active_ <= 0) continue;  // not a participant this round
        --active_;
      }
      work();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lk(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void work() {
    const auto* fn = job_fn_;
    if (!fn) return;
    t_in_pool_task = true;
    for (;;) {
      std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= job_n_) break;
      try {
        (*fn)(i);
      } catch (...) {
        LockGuard lk(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    t_in_pool_task = false;
  }

  /// Serializes whole jobs; always taken before mutex_ (the only two-lock
  /// ordering in the codebase — DESIGN.md §14.3).
  Mutex run_mutex_ NITHO_ACQUIRED_BEFORE(mutex_);
  Mutex mutex_;
  CondVar cv_, done_cv_;
  /// Grown under mutex_ (ensure_threads), but read lock-free by run() —
  /// safe because ensure_threads is REQUIRES(run_mutex_) and run() holds
  /// it, so the vector cannot grow under a reader.  Left unannotated: the
  /// analysis cannot express "guarded by either of two locks".
  std::vector<std::thread> threads_;
  bool stop_ NITHO_GUARDED_BY(mutex_) = false;
  std::uint64_t epoch_ NITHO_GUARDED_BY(mutex_) = 0;
  std::int64_t active_ NITHO_GUARDED_BY(mutex_) = 0;
  std::atomic<std::int64_t> next_{0};
  std::atomic<std::int64_t> pending_{0};
  /// Epoch-published: written by run() before the epoch_ bump that wakes
  /// the workers, read by them only after observing the new epoch under
  /// mutex_ (and cleared only after pending_ drains).  That protocol, not a
  /// lock, is the guard — deliberately unannotated (common/mutex.hpp).
  const std::function<void(std::int64_t)>* job_fn_ = nullptr;
  std::int64_t job_n_ = 0;
  std::exception_ptr first_error_ NITHO_GUARDED_BY(mutex_);
};

}  // namespace

int parallel_workers() {
  const int n = g_workers_override.load(std::memory_order_relaxed);
  return n > 0 ? n : hardware_workers();
}

void set_parallel_workers(int n) {
  check(n >= 0, "worker override must be >= 0");
  g_workers_override.store(n, std::memory_order_relaxed);
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  Pool::instance().run(n, fn, parallel_workers());
}

void parallel_for_chunked(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  check(grain >= 1, "grain must be >= 1");
  const std::int64_t chunks = (n + grain - 1) / grain;
  parallel_for(chunks, [&](std::int64_t c) {
    const std::int64_t b = c * grain;
    fn(b, std::min(n, b + grain));
  });
}

}  // namespace nitho
