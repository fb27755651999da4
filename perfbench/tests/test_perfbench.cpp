// Self-tests of the benchmark's own code: the metric/JSON writer, the rep
// summary and the output check.  Run by `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "check.hpp"
#include "common/rng.hpp"
#include "report.hpp"
#include "serve/server.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void test_json() {
  perfbench::Report r;
  r.count(true);
  r.count(true);
  r.add("latency_ms", 1.25, "ms");
  r.add("odd\"name", 2.0, "1/s");
  expect(r.correct(), "clean report is correct");
  expect(perfbench::to_json(r) ==
             "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"odd\\\"name\": {\"value\": 2, \"unit\": \"1/s\"}}}",
         "json layout and escaping");

  perfbench::Report bad = r;
  bad.count(false);
  expect(!bad.correct() && bad.attempted == 3 && bad.failed == 1,
         "a failed operation makes the run incorrect");
  perfbench::Report nan = r;
  nan.add("x", std::numeric_limits<double>::quiet_NaN(), "ms");
  expect(!nan.correct(), "a non-finite metric makes the run incorrect");
  expect(perfbench::to_json(nan).find("\"value\": null") != std::string::npos,
         "non-finite renders as null");
  perfbench::Report empty;
  expect(!empty.correct(), "a run that attempted nothing is not correct");
  expect(perfbench::machine_json({{"seed", "7"}, {"simd_arm", "avx2"}}) ==
             "{\"machine\": {\"seed\": \"7\", \"simd_arm\": \"avx2\"}}",
         "machine block");
}

void test_stats() {
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 99) == 990, "nearest-rank p99");
  expect(perfbench::percentile(v, 50) == 500, "nearest-rank p50");
  expect(perfbench::percentile({5}, 99) == 5, "single-sample p99");
  expect(std::isnan(perfbench::percentile({}, 50)), "empty percentile is NaN");
  expect(perfbench::peak_rss_mb() > 0, "peak rss is measured");

  // windowed_p99: one window of 1000 with a slow burst does not set the
  // tail of three.
  std::vector<double> lat(3000, 1.0);
  for (int i = 0; i < 50; ++i) lat[static_cast<std::size_t>(i)] = 100.0;
  expect(perfbench::windowed_p99(lat) == 1.0, "a burst in one window");
  expect(perfbench::windowed_p99({1, 2, 3}) == 3, "fewer than a window");
}

void test_steal() {
  const perfbench::HostTicks a{10, 1000}, b{15, 1100};
  expect(perfbench::steal_share(a, b) == 0.05, "steal share");
  expect(perfbench::steal_share(b, b) == 0.0, "no time passed");
  expect(perfbench::host_ticks().total >= perfbench::host_ticks().steal,
         "host ticks");

  std::vector<perfbench::Rep> reps(5);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    reps[i].ops = 10.0 + static_cast<double>(i);
    reps[i].seconds = 1.0;
    reps[i].latency_ms = {1.0, 2.0};
  }
  reps[4].seconds = 10.0;  // a rep the host stole from: slow, long tail
  reps[4].latency_ms = {50.0, 60.0};
  reps[4].steal = 0.2;
  reps[3].steal = 0.2;
  perfbench::RepSummary s = perfbench::summarize(reps, 3);
  expect(s.kept == 3 && !s.stolen_kept, "stolen reps dropped");
  expect(s.rate == 11.0 && s.median_s == 1.0 && s.p99_ms == 2.0,
         "summary of the kept reps");
  reps[3].steal = 0.1;
  s = perfbench::summarize(reps, 4);
  expect(s.kept == 4 && s.stolen_kept && s.rate == 11.5 && s.p99_ms == 2.0,
         "too few clean reps: the least stolen count");

  // A rate over reps in two modes is their total, not the median rep: one
  // more fast rep out of five moves it by a step, not from mode to mode.
  std::vector<perfbench::Rep> modes(5);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    modes[i].ops = i < 2 ? 20.0 : 10.0;
  }
  for (perfbench::Rep& x : modes) x.seconds = 1.0;
  expect(perfbench::summarize(modes, 1).rate == 14.0, "rate of a mix");
}

void test_output_check() {
  using namespace nitho;
  Rng rng(3);
  std::vector<Grid<cd>> kernels;
  for (int k = 0; k < 4; ++k) {
    Grid<cd> g(5, 5);
    for (auto& z : g) z = cd(rng.normal(), rng.normal());
    kernels.push_back(std::move(g));
  }
  const auto shared = std::make_shared<const std::vector<Grid<cd>>>(kernels);
  const FastLitho ref(shared, 0.25);
  Grid<double> mask(32, 32, 0.0);
  for (int y = 8; y < 20; ++y)
    for (int x = 4; x < 28; ++x) mask(y, x) = 1.0;

  // The benchmark's own path: operations are counted as they complete,
  // then the kept samples are checked; one ulp off in one pixel of one
  // result is one failed operation.
  serve::LithoServer server{FastLitho(shared, 0.25)};
  perfbench::Report r;
  std::vector<perfbench::ServedSample> samples;
  for (const auto kind : {serve::RequestKind::kAerial,
                          serve::RequestKind::kResist}) {
    samples.push_back(
        {&ref, &mask, 16, kind, server.submit(mask, 16, kind).get()});
    r.count(true);
  }
  perfbench::Report clean = r;
  expect(perfbench::check_served(samples, clean) == 0 && clean.correct(),
         "served results match direct calls");
  samples[1].result(3, 5) = std::nextafter(samples[1].result(3, 5), 2.0);
  expect(perfbench::check_served(samples, r) == 1, "one mismatch found");
  expect(r.attempted == 2 && r.failed == 1,
         "a corrupted result counts as one failed operation");
  expect(!r.correct(), "a corrupted result makes the run incorrect");
  expect(!perfbench::same_bits(Grid<double>(2, 2, 0.0),
                               Grid<double>(2, 3, 0.0)),
         "shape mismatch is not the same bits");

  expect(perfbench::loss_decreased({1.0, 0.5, 0.2}), "decreasing loss passes");
  expect(!perfbench::loss_decreased({1.0, 1.5}), "increasing loss fails");
  expect(!perfbench::loss_decreased({1.0}), "a single loss fails");
  expect(!perfbench::loss_decreased(
             {1.0, std::numeric_limits<double>::infinity(), 0.5}),
         "a non-finite loss fails");
}

}  // namespace

int main() {
  test_json();
  test_stats();
  test_steal();
  test_output_check();
  if (g_failures == 0) std::printf("perfbench self-test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
