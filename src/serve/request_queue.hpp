#pragma once
// Bounded MPMC submission queue for the serving layer (DESIGN.md §7.3).
//
// One RequestQueue sits in front of each serving shard.  Producers are the
// client threads inside LithoServer::submit / try_submit; the single
// consumer is the shard's pinned worker (the queue itself supports multiple
// consumers — nothing in it assumes one).  The capacity bound is the
// server's backpressure mechanism: a full queue blocks push (or fails
// try_push), which throttles clients to the speed the shard can absorb
// instead of growing an unbounded backlog.
//
// Shutdown semantics: close() wakes every blocked producer and consumer.
// After close, push/try_push refuse new work (leaving the caller's request
// intact so its promise can be failed upstream), while pop continues to
// drain already-accepted requests and only then reports kClosed — accepted
// work is never dropped, which is what lets the server resolve every
// outstanding future on shutdown.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>

#include "common/mutex.hpp"
#include "math/grid.hpp"
#include "nitho/fast_litho.hpp"
#include "obs/metrics.hpp"

namespace nitho::serve {

/// What the client asked for: raw aerial intensity or the thresholded
/// resist pattern (binarize(aerial, snapshot->resist_threshold())).
enum class RequestKind { kAerial, kResist };

/// The error a shed request's future resolves with (DESIGN.md §9.1): the
/// server decided the request could not meet its deadline — at submit
/// (estimated wait already past the deadline) or on dequeue (the deadline
/// expired while the request sat in the queue).  A shed future always
/// resolves with this exception; sheds are never silent.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sentinel deadline: the request is never shed (PR 3 behavior, and the
/// default whenever no SloPolicy is installed).
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// One in-flight simulation request.  The kernel snapshot is captured at
/// submit time, so a request is always served by the kernels that were
/// current when the client submitted it, even if a hot-swap lands while it
/// waits in the queue or in a batcher bucket (DESIGN.md §7.4).
struct ServeRequest {
  RequestKind kind = RequestKind::kAerial;
  Grid<double> mask;
  int out_px = 0;
  std::shared_ptr<const FastLitho> litho;
  std::promise<Grid<double>> result;
  std::chrono::steady_clock::time_point enqueued_at{};
  /// Latest time at which the request may still be dequeued into a batch;
  /// kNoDeadline disables shedding for this request (DESIGN.md §9.1).
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  /// Tracing (DESIGN.md §12.3): set at submit when the server's tracer
  /// samples this request.  Untraced requests take no extra timestamps.
  bool traced = false;
  std::uint64_t trace_id = 0;
  /// Stamped by the shard worker at dequeue (traced requests only); splits
  /// the pre-compute span into queue-wait and batch-assembly.
  std::chrono::steady_clock::time_point dequeued_at{};
};

class RequestQueue {
 public:
  enum class PopResult { kItem, kTimeout, kClosed };
  /// try_push outcome: a full queue is retryable backpressure, a closed
  /// queue is terminal — callers must not treat them alike (a shed-and-
  /// retry loop against a stopped server would spin forever).
  enum class PushResult { kOk, kFull, kClosed };

  /// `pushed` counts every accepted request: it is bumped under the queue
  /// mutex inside the push itself, so a request is counted exactly once
  /// and before any consumer can pop it, and a refused push counts nothing
  /// (LithoServer passes its shard's `submitted` counter).  Borrowed; must
  /// outlive the queue.
  RequestQueue(std::size_t capacity, obs::Counter& pushed);

  /// Blocks while the queue is full (backpressure).  Returns false — with
  /// req left intact — iff the queue was closed before the push succeeded.
  bool push(ServeRequest& req);

  /// Non-blocking push; kFull / kClosed leave req intact.
  PushResult try_push(ServeRequest& req);

  /// Blocks until an item arrives or the queue is closed *and* drained.
  PopResult pop(ServeRequest& out);

  /// As pop, but gives up at `deadline` (the batcher's next flush time).
  PopResult pop_until(ServeRequest& out,
                      std::chrono::steady_clock::time_point deadline);

  /// Idempotent; wakes all waiters.  Items already accepted remain
  /// poppable — pop reports kClosed only once the queue is empty too.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }

 private:
  /// Files (and counts) the request unless the queue is closed; the caller
  /// still holds mu_ afterwards and is responsible for the not_empty_
  /// notify once the lock is dropped.
  bool push_locked(ServeRequest& req) NITHO_REQUIRES(mu_);

  const std::size_t capacity_;
  obs::Counter& pushed_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<ServeRequest> items_ NITHO_GUARDED_BY(mu_);
  bool closed_ NITHO_GUARDED_BY(mu_) = false;
};

}  // namespace nitho::serve
