// Unit tests for src/common: checks, RNG, flags, parallel_for.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/mutex.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace nitho {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Check, ThrowsWithMessageAndLocation) {
  try {
    check(false, "bad thing");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad thing"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.randint(0, 1000000) == b.randint(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, RandintInclusiveBounds) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.randint(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(1.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.08);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(child.randint(0, 1 << 30), parent.randint(0, 1 << 30));
}

TEST(Rng, ShufflePermutes) {
  Rng r(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  r.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Flags, ParsesAllSyntaxes) {
  const char* argv[] = {"prog",      "--alpha=3", "--beta", "7",
                        "--gamma",   "--name",    "hello",  "--rate=0.5"};
  Flags f(8, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get_int("beta", 0), 7);
  EXPECT_TRUE(f.get_bool("gamma"));
  EXPECT_EQ(f.get("name"), "hello");
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.5);
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get_int("missing", 42), 42);
}

TEST(Flags, BoolFalseValues) {
  const char* argv[] = {"prog", "--x=0", "--y=false"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_FALSE(f.get_bool("x", true));
  EXPECT_FALSE(f.get_bool("y", true));
}

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  const int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, HandlesEmptyAndSingle) {
  std::atomic<int> count{0};
  parallel_for(0, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  parallel_for(1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::int64_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, ReusableAfterException) {
  try {
    parallel_for(10, [&](std::int64_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  parallel_for(100, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, ChunkedCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunked(1000, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, WorkerOverride) {
  set_parallel_workers(1);
  EXPECT_EQ(parallel_workers(), 1);
  std::atomic<int> count{0};
  parallel_for(50, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
  set_parallel_workers(0);
  EXPECT_GE(parallel_workers(), 1);
}

TEST(Parallel, WorkerOverrideSafeConcurrentWithDispatch) {
  // set_parallel_workers is documented safe to call while parallel_for is
  // in flight on other threads (the serving shards and the shared pool
  // coexist this way): every dispatch must still cover its range exactly
  // once, whatever worker count it snapshot.  Run under the tsan preset,
  // this also proves the override itself is race-free.
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    int n = 1;
    while (!done.load(std::memory_order_relaxed)) {
      set_parallel_workers(n);
      n = n % 4 + 1;
    }
  });
  for (int round = 0; round < 50; ++round) {
    const int size = 257;
    std::vector<std::atomic<int>> hits(size);
    parallel_for(size, [&](std::int64_t i) { hits[i].fetch_add(1); });
    for (int i = 0; i < size; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
  done.store(true);
  toggler.join();
  set_parallel_workers(0);
}

TEST(Parallel, ConcurrentDispatchersFromPlainThreadsSerialize) {
  // Multiple long-lived threads (like pinned serving shards) may each call
  // parallel_for; dispatches serialize on the pool without deadlock or
  // lost indices.
  set_parallel_workers(2);
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::atomic<int>> hits(kThreads * kRounds * 7);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int base = (t * kRounds + r) * 7;
        parallel_for(7, [&](std::int64_t i) {
          hits[static_cast<std::size_t>(base + i)].fetch_add(1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
  set_parallel_workers(0);
}

TEST(Parallel, NestedDispatchRunsInlineOnTheCallingThread) {
  // A library call that uses the pool (eigh in GoldenEngine's constructor)
  // may itself run inside a task.  The inner dispatch must complete, cover
  // its range once, and stay on the task's thread instead of waiting for
  // the pool it is part of.
  set_parallel_workers(4);
  constexpr int kOuter = 8, kInner = 33;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign{0};
  parallel_for(kOuter, [&](std::int64_t o) {
    const std::thread::id self = std::this_thread::get_id();
    parallel_for_chunked(kInner, 4, [&](std::int64_t b, std::int64_t e) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
      }
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(foreign.load(), 0);
  // The pool still dispatches normally afterwards.
  std::atomic<int> count{0};
  parallel_for(100, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  set_parallel_workers(0);
}

TEST(Mutex, GuardsCountsAcrossContendingThreads) {
  // The annotated wrappers must behave exactly like the std primitives
  // they forward to: mutual exclusion (no lost increments), try_lock
  // refusal while held, and CondVar wakeups through UniqueLock.
  struct Counted {
    Mutex mu;
    long n NITHO_GUARDED_BY(mu) = 0;
  } state;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        LockGuard lk(state.mu);
        ++state.n;
      }
    });
  }
  for (auto& th : threads) th.join();
  LockGuard lk(state.mu);
  EXPECT_EQ(state.n, static_cast<long>(kThreads) * kIters);
}

TEST(Mutex, TryLockRefusesWhileHeld) {
  Mutex mu;
  mu.lock();
  std::thread probe([&] {
    EXPECT_FALSE(mu.try_lock());
  });
  probe.join();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(CondVar, ExplicitWaitLoopObservesNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu (local, so no annotation to attach)
  std::thread producer([&] {
    {
      LockGuard lk(mu);
      ready = true;
    }
    cv.notify_one();
  });
  {
    UniqueLock lk(mu);
    while (!ready) cv.wait(lk);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVar, WaitUntilTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  UniqueLock lk(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(cv.wait_until(lk, deadline), std::cv_status::timeout);
  EXPECT_TRUE(lk.owns_lock());  // a timed-out wait re-acquires
}

TEST(Timer, MeasuresForwardTime) {
  WallTimer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace nitho
