#pragma once

// Shared infrastructure for the reproduction benches: tiny flag parser,
// steady-clock timing, aligned table output, and the synthetic energy
// series standing in for the DEBS12 dataset (see DESIGN.md).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "stream/dataset.h"
#include "stream/synthetic.h"

namespace slick::bench {

/// Minimal --key=value flag parser (no external deps in bench binaries).
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      const char* eq = std::strchr(arg + 2, '=');
      if (eq == nullptr) {
        kv_.push_back({std::string(arg + 2), "1"});
      } else {
        kv_.push_back({std::string(arg + 2, eq), std::string(eq + 1)});
      }
    }
  }

  uint64_t GetU64(const char* name, uint64_t def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : std::strtoull(v->c_str(), nullptr, 10);
  }

  double GetDouble(const char* name, double def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
  }

  std::string GetString(const char* name, const char* def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : *v;
  }

  /// Flag names passed but never read by a Get* call, in argv order: the
  /// typos and retired flags a driver would otherwise silently ignore.
  std::vector<std::string> Unread() const {
    std::vector<std::string> names;
    for (const Flag& f : kv_) {
      if (!f.read) names.push_back(f.name);
    }
    return names;
  }

 private:
  struct Flag {
    std::string name;
    std::string value;
    mutable bool read = false;
  };

  const std::string* Find(const char* name) const {
    const std::string* found = nullptr;
    for (const Flag& f : kv_) {
      if (f.name != name) continue;
      f.read = true;
      if (found == nullptr) found = &f.value;
    }
    return found;
  }

  std::vector<Flag> kv_;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The benchmark data: one energy channel of the synthetic DEBS12-like
/// stream. Benches cycle through it when they need more tuples than
/// `count`.
inline std::vector<double> EnergySeries(std::size_t count, uint64_t seed,
                                        int channel = 0) {
  stream::SyntheticSensorSource src(seed);
  return src.MakeEnergySeries(count, channel);
}

/// Like EnergySeries, honouring a --data=<file> flag (CSV column
/// `channel`, or a .bin cache) so the real DEBS12 dump can drive the
/// benches; falls back to the synthetic stream.
inline std::vector<double> BenchSeries(const Flags& flags, std::size_t count,
                                       uint64_t seed, int channel = 0) {
  return stream::LoadOrSynthesize(flags.GetString("data", ""), count, seed,
                                  channel);
}

/// Keeps results alive so the optimizer cannot delete the measured loop.
struct Checksum {
  double value = 0.0;
  void Add(double x) { value += x; }
  void Report() const { std::printf("# checksum %.6g\n", value); }
};

inline void PrintHeader(const char* title, const char* cols) {
  std::printf("\n== %s ==\n%s\n", title, cols);
}

/// Machine-readable results: every bench accepts --json=<path> and, when
/// set, writes an array of rows with the shared schema
///
///   {"bench": "<name>", "config": {"key": "value", ...},
///    "tuples_per_sec": <num>, "p50_ns": <num|null>, "p99_ns": <num|null>}
///
/// tools/bench_summary.py merges these files into the committed
/// BENCH_<name>.json snapshots and gates CI on them. The human-readable
/// table output is unchanged — the report is purely additive.
class JsonReport {
 public:
  JsonReport(const Flags& flags, const char* bench)
      : path_(flags.GetString("json", "")), bench_(bench) {}

  bool enabled() const { return !path_.empty(); }

  /// Stringifies a numeric config value (config values are all strings so
  /// the schema stays uniform across benches).
  static std::string Num(uint64_t v) { return std::to_string(v); }

  /// Appends one result row. Negative percentiles emit JSON null — the
  /// convention for throughput-only benches.
  void Row(std::initializer_list<std::pair<const char*, std::string>> config,
           double tuples_per_sec, double p50_ns = -1.0,
           double p99_ns = -1.0) {
    if (!enabled()) return;
    std::string row = "{\"bench\":\"" + bench_ + "\",\"config\":{";
    bool first = true;
    for (const auto& [k, v] : config) {
      if (!first) row += ",";
      first = false;
      row += "\"";
      row += k;
      row += "\":\"";
      row += v;
      row += "\"";
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "},\"tuples_per_sec\":%.1f",
                  tuples_per_sec);
    row += buf;
    AppendNsField(row, "p50_ns", p50_ns);
    AppendNsField(row, "p99_ns", p99_ns);
    row += "}";
    rows_.push_back(std::move(row));
  }

  /// Writes the accumulated array to the --json path; no-op when disabled.
  void Write() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json report: cannot open %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fputs(rows_[i].c_str(), f);
      std::fputs(i + 1 < rows_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  static void AppendNsField(std::string& row, const char* key, double v) {
    char buf[96];
    if (v < 0.0) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":null", key);
    } else {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%.1f", key, v);
    }
    row += buf;
  }

  std::string path_;
  std::string bench_;
  std::vector<std::string> rows_;
};

}  // namespace slick::bench

