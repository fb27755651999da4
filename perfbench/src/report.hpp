#pragma once
// Result record of one benchmark run and its JSON rendering.
//
// A run prints exactly one result object as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {name: {"value": ..., "unit": ...}}}
// preceded by a provenance line ({"machine": {...}}) so every number carries
// the hardware, SIMD arm, compiler and seed it was measured with.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Cleared by any output check that fails, even one not tied to a
  /// countable operation (e.g. a training loss that did not decrease).
  bool checks_passed = true;
  std::vector<Metric> metrics;
  /// Provenance of the measurement itself (host steal, reps kept), added
  /// to the machine block.
  std::vector<std::pair<std::string, std::string>> notes;

  void add(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; a false `ok` counts it as failed.
  void count(bool ok);
  /// correct = every check passed, nothing failed and every metric finite.
  bool correct() const;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// Non-finite values render as null (and make correct() false).
std::string to_json(const Report& r);

/// Flat {"machine": {...}} provenance object from (key, value) pairs;
/// values are emitted as JSON strings.
std::string machine_json(
    const std::vector<std::pair<std::string, std::string>>& fields);

/// Nearest-rank percentile (ceil(p/100 * n) - 1) of an unsorted sample;
/// NaN when empty.
double percentile(std::vector<double> v, double p);
/// Middle value (mean of the two middles for even n); NaN when empty.
double median(std::vector<double> v);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Tail latency of a sample in the order it was taken: the p99 of each
/// consecutive window of kTailWindow samples, then the median over windows
/// (one window when there are fewer).  Every window has 10 samples beyond
/// its p99, and the median keeps one burst of host preemption from setting
/// the whole run's number.
constexpr std::size_t kTailWindow = 1000;
double windowed_p99(const std::vector<double>& lat);

/// Cumulative CPU time of the host ("cpu" line of /proc/stat, in clock
/// ticks): the share the hypervisor gave to other guests (steal) and the
/// total.  Zeros when the counters cannot be read.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks host_ticks();
/// Share of the host CPU time between two readings that was stolen; 0 when
/// no time passed or the counters are unavailable.
double steal_share(const HostTicks& from, const HostTicks& to);

/// A rep measured while the host stole more than this share of its CPU time
/// is discarded: a guest whose vCPUs are descheduled runs its parallel
/// sections at the pace of the slowest one (README.md, "Noise").
constexpr double kMaxSteal = 0.01;

/// One fixed-work rep: the operations it completed and the seconds they
/// took (a set-up is one operation), the latency of each operation in it
/// (ms), and the host steal share while it ran.
struct Rep {
  double ops = 1.0;
  double seconds = 0.0;
  std::vector<double> latency_ms;
  double steal = 0.0;

  double rate() const { return ops / seconds; }
};

/// Summary over the reps of a run.  Reps with steal above kMaxSteal are
/// left out, unless fewer than `min_clean` reps are clean; then the
/// `min_clean` least stolen reps count and `stolen_kept` is set.
struct RepSummary {
  /// Operations per second over every kept rep together.  Rep rates can
  /// fall into two modes (tile_serve's closed loop runs at ~11k or ~17k
  /// req/s rep by rep), and a median of such a mix jumps from one mode to
  /// the other with the mix; the total moves in proportion to it.
  double rate = 0.0;
  double median_s = 0.0;  ///< median rep duration (set-up time)
  double p50_ms = 0.0;    ///< over the latencies of every kept rep, in order
  double p99_ms = 0.0;    ///< windowed_p99 of the same
  std::size_t reps = 0;
  std::size_t kept = 0;
  bool stolen_kept = false;
};
RepSummary summarize(const std::vector<Rep>& reps, std::size_t min_clean);

/// Adds the summary's provenance (reps kept, mean steal) to r.notes.
void note_reps(Report& r, const std::vector<Rep>& reps,
               const RepSummary& s);

}  // namespace perfbench
