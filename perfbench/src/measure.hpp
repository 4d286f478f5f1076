// Measurement plumbing shared by the three workloads: wall clocks,
// nearest-rank percentiles, in-memory span records, peak RSS, and the JSON
// document the perfbench binary prints for perfbench/run.py.
//
// Spans are recorded by the benchmark around calls into a layer's public
// functions; nothing here reaches inside the library.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double MsBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

// The time point `seconds` from now.
[[nodiscard]] inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
// empty. Same definition as the library's PercentileOfSorted.
[[nodiscard]] double Percentile(std::vector<double> samples, double p);
[[nodiscard]] double Median(std::vector<double> samples);

// Leaf spans of one traced run, kept in memory and summarised at exit.
// `Add` accumulates a span's duration under its name; the leaf spans of an
// op add up to the op's latency.
class SpanLog {
 public:
  void Add(const std::string& name, double ms) {
    Entry& e = entries_[name];
    e.total_ms += ms;
    ++e.count;
  }
  [[nodiscard]] double Total(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.total_ms;
  }
  [[nodiscard]] long Count(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.count;
  }
  // Mean duration per recorded span of `name`; 0 when none.
  [[nodiscard]] double Mean(const std::string& name) const {
    const long count = Count(name);
    return count > 0 ? Total(name) / static_cast<double>(count) : 0.0;
  }
  // Sum over every recorded span.
  [[nodiscard]] double Sum() const {
    double s = 0.0;
    for (const auto& [name, e] : entries_) s += e.total_ms;
    return s;
  }
  // Work counters recorded at the same boundaries (rounds, messages, ...).
  void AddCount(const std::string& name, double value) {
    counts_[name] += value;
  }
  [[nodiscard]] double CountTotal(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

 private:
  struct Entry {
    double total_ms = 0.0;
    long count = 0;
  };
  std::map<std::string, Entry> entries_;
  std::map<std::string, double> counts_;
};

// Runs `f` and records its wall time under `name`; returns f's result.
template <class F>
decltype(auto) Span(SpanLog& log, const std::string& name, F&& f) {
  struct Guard {
    SpanLog& log;
    const std::string& name;
    Clock::time_point start = Clock::now();
    ~Guard() { log.Add(name, MsSince(start)); }
  } guard{log, name};
  return f();
}

// VmHWM of a process in MiB (pid 0 = this process); 0 when unreadable.
[[nodiscard]] double PeakRssMb(pid_t pid = 0);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// One run's result. `info` carries diagnostics run.py prints but does not
// report as metrics (sample counts, accounting detail, error_rate).
// `bypassed` names the per-layer metrics of layers the workload does not
// exercise; run.py reports those as 0.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> bypassed;
  std::vector<std::string> failures;  // first few failure descriptions
  [[nodiscard]] bool Correct() const { return failed == 0; }
  void Fail(const std::string& why);
};

[[nodiscard]] std::string ToJson(const Outcome& outcome);

// Span accounting of a traced run: per group of ops (a solver and input
// form, or a request class), the untraced time of the ops against the time
// their leaf spans cover. One run of a multi-threaded simulator unit can
// take twice as long as the next, so each group drops its most extreme
// ops on both sides (kTrim of them each way) before summing; a stage
// without a span shifts most ops of its group one way and still shows.
class Accounting {
 public:
  void Add(const std::string& group, double untraced_ms, double spans_ms) {
    groups_[group].push_back({untraced_ms, spans_ms});
  }
  // Share of the untraced time no span covers, over the kept ops of every
  // group.
  [[nodiscard]] double Overall() const;
  // Records each group's share in `out.info` and fails the run when the
  // whole or any group of at least kMinOps ops is off by more than `bound`.
  void Check(Outcome& out, double bound) const;

  static constexpr std::size_t kMinOps = 8;
  static constexpr double kTrim = 0.05;

 private:
  struct Op {
    double untraced = 0.0;
    double spans = 0.0;
  };
  // (untraced, spans) sums over a group's ops minus its trimmed extremes.
  static std::pair<double, double> TrimmedSums(std::vector<Op> ops);
  std::map<std::string, std::vector<Op>> groups_;
};

}  // namespace perfbench
