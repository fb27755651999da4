#include "obs/metrics.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace nitho::obs {

std::size_t nearest_rank_index(std::size_t n, int percent) {
  check(n >= 1, "nearest_rank_index: empty sample");
  check(percent >= 1 && percent <= 100, "nearest_rank_index: percent range");
  // ceil((percent/100) * n) - 1 without floating point: a double product
  // like 0.99 * 100 rounds up to 99.000...014, whose ceil would skip a rank.
  const std::size_t p = static_cast<std::size_t>(percent);
  return (p * n + 99) / 100 - 1;
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

int LogHistogram::bucket_index(double v) {
  // NaN, zero and negatives clamp into the bottom bucket (comparison with
  // NaN is false, so !(v > 0) catches it too).
  if (!(v > 0.0)) return 0;
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  (void)m;
  const int octave = (e - 1) - kMinExp;  // floor(log2 v) - kMinExp
  if (octave < 0) return 0;
  if (octave >= kOctaves) return kBuckets - 1;
  // Position within the octave: v / 2^floor(log2 v) in [1, 2).  The
  // division by a power of two and the subtraction are exact in binary
  // floating point, so values sitting exactly on a subbucket edge
  // (2^e · (1 + s/kSub)) index their own bucket — the edge-exactness
  // tests in tests/test_obs.cpp pin this.
  const double frac = std::ldexp(v, -(e - 1)) - 1.0;  // in [0, 1)
  int sub = static_cast<int>(frac * kSub);
  if (sub >= kSub) sub = kSub - 1;  // paranoia against frac == 1.0 rounding
  return octave * kSub + sub;
}

double LogHistogram::bucket_lower(int i) {
  check(i >= 0 && i < kBuckets, "bucket_lower: index range");
  const int octave = i / kSub;
  const int sub = i % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, kMinExp + octave);
}

double LogHistogram::bucket_upper(int i) {
  check(i >= 0 && i < kBuckets, "bucket_upper: index range");
  const int octave = i / kSub;
  const int sub = i % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSub,
                    kMinExp + octave);
}

void LogHistogram::record(double v) {
  counts_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot s;
  s.counts.resize(kBuckets);
  // count_ is read first: it is incremented after the bucket, so the sum
  // of the bucket reads below can only be >= this count, never behind it
  // in a way that strands a rank past the last bucket.
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    s.counts[static_cast<std::size_t>(i)] =
        counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSnapshot::quantile(int percent) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t rank = nearest_rank_index(count, percent) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const int b = static_cast<int>(i);
      return 0.5 * (LogHistogram::bucket_lower(b) +
                    LogHistogram::bucket_upper(b));
    }
  }
  // A racing record() can leave count ahead of the bucket copies; the
  // highest populated bucket is the best answer for the tail rank.
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (counts[i] > 0) {
      const int b = static_cast<int>(i);
      return 0.5 * (LogHistogram::bucket_lower(b) +
                    LogHistogram::bucket_upper(b));
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double HistogramSnapshot::mean() const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(count);
}

HistogramSnapshot& HistogramSnapshot::operator+=(
    const HistogramSnapshot& other) {
  if (counts.empty()) counts.resize(LogHistogram::kBuckets);
  check(other.counts.empty() || other.counts.size() == counts.size(),
        "HistogramSnapshot: merging mismatched bucket layouts");
  for (std::size_t i = 0; i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  return *this;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               MetricKind kind) {
  check(!name.empty(), "metric name must not be empty");
  LockGuard lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        e.hist = std::make_unique<LogHistogram>();
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  }
  check(it->second.kind == kind,
        "metric '" + name + "' already registered as a different kind");
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *entry(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *entry(name, MetricKind::kGauge).gauge;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  return *entry(name, MetricKind::kHistogram).hist;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  LockGuard lk(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricValue v;
    v.name = name;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        v.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        v.value = e.gauge->value();
        break;
      case MetricKind::kHistogram:
        v.hist = e.hist->snapshot();
        break;
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;  // std::map iteration is already name-sorted
}

std::size_t MetricsRegistry::size() const {
  LockGuard lk(mu_);
  return entries_.size();
}

bool MetricsRegistry::contains(const std::string& name) const {
  LockGuard lk(mu_);
  return entries_.count(name) != 0;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace nitho::obs
