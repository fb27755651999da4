#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::count(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

bool Report::correct() const {
  if (!checks_passed || failed != 0 || attempted < 1) return false;
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

std::string to_json(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string machine_json(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{\"machine\": {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", " : "") + json_string(fields[i].first) + ": " +
           json_string(fields[i].second);
  }
  return out + "}}";
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user/nice.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return HostTicks{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double windowed_p99(const std::vector<double>& lat) {
  const std::size_t windows =
      std::max<std::size_t>(1, lat.size() / kTailWindow);
  const auto len = static_cast<std::ptrdiff_t>(lat.size() / windows);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = lat.begin() + static_cast<std::ptrdiff_t>(w) * len;
    p99s.push_back(percentile(std::vector<double>(first, first + len), 99));
  }
  return median(p99s);
}

RepSummary summarize(const std::vector<Rep>& reps, std::size_t min_clean) {
  RepSummary s;
  s.reps = reps.size();
  // The clean reps, or the least stolen `min_clean` when too few are clean;
  // kept in the order they ran, for the windowed p99.
  std::vector<std::size_t> order(reps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reps[a].steal < reps[b].steal;
                   });
  std::size_t keep = static_cast<std::size_t>(
      std::count_if(reps.begin(), reps.end(),
                    [](const Rep& r) { return r.steal <= kMaxSteal; }));
  keep = std::max(keep, std::min(std::max<std::size_t>(1, min_clean),
                                 reps.size()));
  order.resize(keep);
  s.kept = keep;
  s.stolen_kept = keep > 0 && reps[order.back()].steal > kMaxSteal;
  std::sort(order.begin(), order.end());
  std::vector<double> seconds, lat;
  double ops = 0.0;
  for (const std::size_t i : order) {
    ops += reps[i].ops;
    seconds.push_back(reps[i].seconds);
    lat.insert(lat.end(), reps[i].latency_ms.begin(),
               reps[i].latency_ms.end());
  }
  s.rate = ops / std::accumulate(seconds.begin(), seconds.end(), 0.0);
  s.median_s = median(seconds);
  s.p50_ms = percentile(lat, 50);
  s.p99_ms = windowed_p99(lat);
  return s;
}

void note_reps(Report& r, const std::vector<Rep>& reps,
               const RepSummary& s) {
  double steal = 0.0;
  for (const Rep& x : reps) steal += x.steal;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f",
                reps.empty() ? 0.0 : steal / static_cast<double>(reps.size()));
  r.notes.emplace_back("steal_share", buf);
  r.notes.emplace_back("reps", std::to_string(s.reps));
  r.notes.emplace_back("reps_kept", std::to_string(s.kept));
  r.notes.emplace_back("stolen_reps_kept", s.stolen_kept ? "1" : "0");
}

}  // namespace perfbench
