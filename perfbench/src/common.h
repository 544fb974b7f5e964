//===- perfbench/src/common.h - Shared benchmark machinery -------*- C++ -*-===//
///
/// \file
/// Timing, statistics, the seeded input generator, the span recorder of
/// the traced mode, and the result line every workload prints.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Time of process start (static initialization of the driver).
Clock::time_point processStart();

/// Seeded xorshift64* generator: the same seed gives the same inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed);
  uint64_t next();
  double unit(); ///< [0, 1)
  float uni(float Lo, float Hi) { return Lo + (Hi - Lo) * float(unit()); }
  int64_t below(int64_t N) { return int64_t(next() % uint64_t(N)); }

private:
  uint64_t S;
};

double median(std::vector<double> V);
/// Linear-interpolated quantile, Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Traced mode: spans recorded around calls into the library's modules.
//===----------------------------------------------------------------------===//

struct SpanRec {
  const char *Name;
  double T0, T1; ///< Seconds since process start.
  uint64_t Req;  ///< Serving request id, 0 when none.
  uint32_t Tid;
};

/// Collects spans in memory while armed; written out when the run ends.
class Tracer {
public:
  bool armed() const { return Armed; }
  void arm(bool On) { Armed = On; }
  void record(const SpanRec &R);
  /// Adds one sample of a per-layer count or size (averaged per run).
  void count(const std::string &Name, double V);

  /// Mean duration in seconds of the spans named \p Name (0 if none).
  double meanSeconds(const std::string &Name) const;
  double meanCount(const std::string &Name) const;
  size_t spans() const { return Spans.size(); }

  /// Writes a Chrome trace-event file.
  bool writeChrome(const std::string &Path) const;
  /// Prints each span name's count, total and self time (duration minus
  /// the part its children on the same thread cover).
  void printSelfTimes() const;

private:
  bool Armed = false;
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
  std::map<std::string, std::pair<double, uint64_t>> Counts;
};

Tracer &tracer();

/// RAII span: records [construction, destruction) when the tracer is armed.
class Span {
public:
  explicit Span(const char *Name, uint64_t Req = 0);
  ~Span();
  /// Names the span after the fact (e.g. by the cache tier it ended in).
  void rename(const char *N) { Name = N; }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Req;
  double T0 = -1;
};

//===----------------------------------------------------------------------===//
// The result line.
//===----------------------------------------------------------------------===//

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void metric(const std::string &Name, double V, const std::string &Unit) {
    Metrics.push_back({Name, {V, Unit}});
  }
  /// Records a failed output check (correct becomes false).
  void reject(const std::string &What);
  /// Prints the JSON line (the last line of standard output).
  void print() const;
};

/// Options common to every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RunDir;   ///< Private scratch directory of this run.
  std::string TraceOut; ///< Chrome trace path (traced mode).
};

/// Records the end-to-end metrics from each program group's per-operation
/// median ratios: dense_rel (geometric mean over the four paper programs)
/// and sparse_rel (the sparse chain); the per-group geometric means are
/// kept for the traced mode's per-layer metrics.
void reportGroups(RunResult &R,
                  const std::map<std::string, std::vector<double>> &ByGroup);

/// Per-layer metrics every workload reports in traced mode (same names on
/// every workload; see README.md).
void emitLayerMetrics(RunResult &R);

} // namespace pb

#endif // PERFBENCH_COMMON_H
