#include "common.h"

#include <dirent.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace slickbench {

void SleepUntil(uint64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

namespace {
std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

void PinTo(int tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof(one), &one);
}
}  // namespace

Placement::Placement() {
  CPU_ZERO(&all_);
  sched_getaffinity(0, sizeof(all_), &all_);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_)) cpus.push_back(c);
  }
  enabled_ = cpus.size() >= 4;
  if (enabled_) {
    system_cpu_ = cpus.front();
    harness_cpu_ = cpus.back();
  }
  known_ = ThreadIds();
}

void Placement::PinNewThreads() {
  if (!enabled_) return;
  for (int tid : ThreadIds()) {
    if (!std::binary_search(known_.begin(), known_.end(), tid)) PinTo(tid, system_cpu_);
  }
}

void Placement::PinSelfToSystem() {
  if (enabled_) PinTo(0, system_cpu_);
}

void Placement::PinSelfToHarness() {
  if (enabled_) PinTo(0, harness_cpu_);
}

void Placement::ReleaseSelf() { sched_setaffinity(0, sizeof(all_), &all_); }

namespace {
Usage FromRusage(const rusage& ru) {
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}
}  // namespace

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return FromRusage(ru);
}

Usage ThreadUsage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return FromRusage(ru);
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.cpu_s - b.cpu_s, a.csw - b.csw};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void Latencies::Add(uint64_t ns) {
  if (ns < kBins) {
    ++bins_[ns];
  } else {
    big_.push_back(ns);
  }
  ++n_;
  sum_ += static_cast<double>(ns);
}

double Latencies::Quantile(double q) {
  if (n_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
  double below = 0.0;
  for (uint64_t v = 0; v < kBins; ++v) {
    if (bins_[v] == 0) continue;
    const auto c = static_cast<double>(bins_[v]);
    if (below + c > target) {
      return static_cast<double>(v) - 0.5 + (target - below) / c;
    }
    below += c;
  }
  std::sort(big_.begin(), big_.end());
  for (std::size_t i = 0; i < big_.size();) {
    std::size_t j = i;
    while (j < big_.size() && big_[j] == big_[i]) ++j;
    const auto c = static_cast<double>(j - i);
    if (below + c > target) {
      return static_cast<double>(big_[i]) - 0.5 + (target - below) / c;
    }
    below += c;
    i = j;
  }
  return static_cast<double>(big_.empty() ? 0 : big_.back()) + 0.5;
}

double SegmentedQuantile(const std::vector<uint64_t>& samples,
                         std::size_t per_segment, double q) {
  std::vector<double> values;
  std::size_t begin = 0;
  while (begin < samples.size()) {
    std::size_t end = std::min(samples.size(), begin + per_segment);
    if (samples.size() - end < per_segment / 2) end = samples.size();
    Latencies seg;
    for (std::size_t i = begin; i < end; ++i) seg.Add(samples[i]);
    values.push_back(seg.Quantile(q));
    begin = end;
  }
  return Median(values);
}

double RateWindows::MedianRate(uint64_t window_ns) const {
  if (marks_.size() < 2) return 0.0;
  const auto rate = [](const Point& a, const Point& b) {
    return static_cast<double>(b.count - a.count) * 1e9 /
           static_cast<double>(b.t_ns - a.t_ns);
  };
  std::vector<double> rates;
  std::size_t start = 0;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    if (marks_[i].t_ns - marks_[start].t_ns >= window_ns) {
      rates.push_back(rate(marks_[start], marks_[i]));
      start = i;
    }
  }
  return rates.empty() ? rate(marks_.front(), marks_.back()) : Median(rates);
}

void Results::Set(const std::string& name, double value, const char* unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Results::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Results::Info(const std::string& key, const std::string& value) {
  for (auto& kv : info_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  info_.emplace_back(key, value);
}

void Results::Fail(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  failures_.push_back(why);
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

bool Results::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"correct\": %s,\n  \"attempted\": %llu,\n",
               failed_ == 0 ? "true" : "false",
               static_cast<unsigned long long>(attempted_));
  std::fprintf(f, "  \"failed\": %llu,\n  \"failures\": [",
               static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ", JsonString(failures_[i]).c_str());
  }
  std::fprintf(f, "],\n  \"info\": {");
  for (std::size_t i = 0; i < info_.size(); ++i) {
    std::fprintf(f, "%s\n    %s: %s", i == 0 ? "" : ",",
                 JsonString(info_[i].first).c_str(),
                 JsonString(info_[i].second).c_str());
  }
  std::fprintf(f, "\n  },\n  \"metrics\": {");
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 i == 0 ? "" : ",", JsonString(metrics_[i].name).c_str(),
                 JsonNumber(metrics_[i].value).c_str(),
                 JsonString(metrics_[i].unit).c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

void Results::Print(std::FILE* f) const {
  for (const auto& [k, v] : info_) std::fprintf(f, "# %s: %s\n", k.c_str(), v.c_str());
  for (const Metric& m : metrics_) {
    std::fprintf(f, "%-36s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& why : failures_) std::fprintf(f, "FAILED: %s\n", why.c_str());
  std::fprintf(f, "attempted %llu failed %llu\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
}

}  // namespace slickbench
