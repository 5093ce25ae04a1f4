// Statistics, the result file and the harness self-test.
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <numeric>

#include "common/rng.h"
#include "harness.h"

namespace e2e {

namespace {

template <typename T>
T NearestRank(std::vector<T>* values, double p) {
  if (values->empty()) return T{};
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = values->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values->begin(), nth, values->end());
  return *nth;
}

int64_t TimespecNs(const timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

uint32_t ExactPercentile(std::vector<uint32_t>* values, double p) {
  return NearestRank(values, p);
}

double ExactPercentile(std::vector<double>* values, double p) {
  return NearestRank(values, p);
}

int64_t SampleStride(int64_t n, int64_t target) {
  if (n <= 0 || target <= 0) return 1;
  // ceil(n / K) <= target  <=>  K >= ceil(n / target).
  return std::max<int64_t>(1, (n + target - 1) / target);
}

std::pair<int64_t, int64_t> WindowRange(int64_t n, size_t windows,
                                        size_t w) {
  const int64_t k = static_cast<int64_t>(windows);
  const int64_t i = static_cast<int64_t>(w);
  return {n * i / k, n * (i + 1) / k};
}

double SelfTime(double span_ns, double children_ns) {
  return std::max(0.0, span_ns - children_ns);
}

double ReplayGap(double replay_ns, double in_run_ns) {
  return in_run_ns > 0.0 ? std::fabs(replay_ns - in_run_ns) / in_run_ns
                         : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double QuietDecile(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t k = values.size() / 10;
  return lower_is_better ? values[k] : values[values.size() - 1 - k];
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return TimespecNs(ts);
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

CpuPin::CpuPin() {
  const int cpu = sched_getcpu();
  if (cpu < 0 ||
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), name + " is not a finite number");
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::Info(const std::string& name, const std::string& value) {
  info_.emplace_back(name, value);
}

void Report::Print() const {
  for (const auto& [name, value] : info_) {
    std::printf("%-34s %s\n", name.c_str(), value.c_str());
  }
  for (const Entry& m : metrics_) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
}

bool Report::WriteJson(const std::string& path, int64_t attempted,
                       int64_t failed) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %" PRId64
                  ", \"failed\": %" PRId64 ",\n \"info\": {",
               correct() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < info_.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i > 0 ? ", " : "",
                 JsonString(info_[i].first).c_str(),
                 JsonString(info_[i].second).c_str());
  }
  std::fprintf(f, "},\n \"failures\": [");
  for (size_t i = 0; i < failures_.size(); ++i) {
    std::fprintf(f, "%s%s", i > 0 ? ", " : "",
                 JsonString(failures_[i]).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // JSON has no NaN or infinity; Metric already failed the run for one.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::fprintf(f, "%s\n  %s: {\"value\": %.17g, \"unit\": %s}",
                 i > 0 ? "," : "", JsonString(m.name).c_str(), v,
                 JsonString(m.unit).c_str());
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

int RunSelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Exact nearest-rank percentiles on a shuffled 1..1000.
  std::vector<uint32_t> v(1000);
  std::iota(v.begin(), v.end(), 1u);
  scrpqo::Pcg32 rng(7);
  rng.Shuffle(&v);
  expect(ExactPercentile(&v, 0.50) == 500, "p50 of 1..1000 is 500");
  expect(ExactPercentile(&v, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(ExactPercentile(&v, 1.0) == 1000, "p100 of 1..1000 is 1000");
  std::vector<uint32_t> one = {42};
  expect(ExactPercentile(&one, 0.99) == 42, "p99 of one sample is it");
  std::vector<double> d = {3.0, 1.0, 2.0, 4.0};
  expect(ExactPercentile(&d, 0.5) == 2.0, "p50 of {1,2,3,4} is 2");
  expect(Median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of {1,2,3,4} is 2.5");

  std::vector<double> windows(20);
  std::iota(windows.begin(), windows.end(), 1.0);
  rng.Shuffle(&windows);
  expect(QuietDecile(windows, true) == 3.0,
         "quiet decile of 20 is the 3rd best");
  expect(QuietDecile(windows, false) == 18.0,
         "quiet decile counts from the high end when higher is better");
  expect(QuietDecile({7.0}, true) == 7.0, "quiet decile of one window is it");

  // The 1-in-K sampler never exceeds its target and gets within one
  // stride of it.
  bool sampler_ok = true;
  for (int64_t n : {1, 999, 1000, 1001, 1500000, 10000000}) {
    for (int64_t target : {1, 7, 1000, 16384}) {
      int64_t k = SampleStride(n, target);
      int64_t count = (n + k - 1) / k;  // indices 0, k, 2k, ... below n
      if (count > target || (k > 1 && (n + k - 2) / (k - 1) <= target)) {
        sampler_ok = false;
      }
    }
  }
  expect(sampler_ok, "1-in-K stride is the smallest within the target");

  // Stream determinism and seed sensitivity.
  auto a = MakeStream(11, 16, 1024, 0, 100000);
  auto b = MakeStream(11, 16, 1024, 0, 100000);
  auto c = MakeStream(12, 16, 1024, 0, 100000);
  expect(StreamHash(a) == StreamHash(b), "same seed, same stream hash");
  expect(StreamHash(a) != StreamHash(c), "other seed, other stream hash");
  bool in_range = std::all_of(a.begin(), a.end(), [](uint32_t x) {
    return DecisionTemplate(x) < 16 && DecisionInstance(x) < 1024;
  });
  expect(in_range, "pool stream stays inside templates x pool");
  auto fresh = MakeStream(11, 4, 0, 256, 10000);
  std::vector<uint32_t> sorted = fresh;
  std::sort(sorted.begin(), sorted.end());
  bool distinct =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
      std::all_of(fresh.begin(), fresh.end(),
                  [](uint32_t x) { return DecisionInstance(x) >= 256; });
  expect(distinct, "fresh stream never repeats and skips warm instances");

  // Windows tile the stream exactly.
  bool tiles = true;
  for (int64_t n : {0, 7, 20, 1000003}) {
    int64_t next = 0;
    for (size_t w = 0; w < kWindows; ++w) {
      const auto [begin, end] = WindowRange(n, kWindows, w);
      tiles = tiles && begin == next && end >= begin;
      next = end;
    }
    tiles = tiles && next == n;
  }
  expect(tiles, "windows cover the timed phase once, in order");

  // Self time and replay gap.
  expect(SelfTime(1000.0, 700.0) == 300.0, "self time subtracts children");
  expect(SelfTime(1000.0, 1200.0) == 0.0, "self time never negative");
  expect(std::fabs(ReplayGap(115.0, 100.0) - 0.15) < 1e-12,
         "replay gap is relative to the in-run time");
  expect(std::fabs(ReplayGap(85.0, 100.0) - 0.15) < 1e-12,
         "replay gap is symmetric");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
