#pragma once
// A small shared thread pool and a blocking parallel_for on top of it.
// Used to batch FFTs over SOCS kernels and masks (the paper's "hierarchical
// GPU acceleration" becomes hierarchical CPU parallelism here).

#include <cstdint>
#include <functional>

namespace nitho {

/// Number of workers in the shared pool (hardware concurrency, >= 1).
int parallel_workers();

/// Override the pool size (0 restores the hardware default).  Takes effect
/// for subsequent parallel_for calls; intended for benches that want serial
/// baselines.
///
/// Thread-safety: may be called concurrently with parallel_for (including
/// from other threads while a dispatch is in flight).  Each parallel_for
/// snapshots the worker count once at entry, so an in-flight dispatch is
/// never resized mid-run; the new value applies to dispatches that start
/// after the store.
void set_parallel_workers(int n);

/// Runs fn(i) for i in [0, n) across the shared pool and blocks until done.
/// fn must be safe to invoke concurrently for distinct i.  Exceptions thrown
/// by fn are captured and the first one is rethrown on the calling thread.
///
/// May be called from any plain thread (concurrent callers serialize on the
/// pool, one dispatch at a time — long-lived pinned threads such as the
/// serving shards coexist with the pool this way).  Called from inside a
/// parallel_for callback, it runs fn(0) .. fn(n-1) serially on the calling
/// thread: the shared pool does not nest, and a nested dispatch neither
/// waits for the pool it is part of nor spreads wider.  The nested tasks
/// share the calling thread's thread_local scratch (DESIGN.md §6.2), so a
/// task must not hold that scratch across a nested call.
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

/// Grain-size variant: fn(begin, end) over chunks.
void parallel_for_chunked(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace nitho
