//===- perfbench/src/common.cpp -------------------------------------------===//

#include "common.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace pb {

namespace {
const Clock::time_point Start = Clock::now();
} // namespace

Clock::time_point processStart() { return Start; }

Rng::Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull) {
  if (S == 0)
    S = 1;
  next();
}

uint64_t Rng::next() {
  S ^= S >> 12;
  S ^= S << 25;
  S ^= S >> 27;
  return S * 0x2545f4914f6cdd1dull;
}

double Rng::unit() { return double(next() >> 11) * 0x1.0p-53; }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &tracer() {
  static Tracer T;
  return T;
}

void Tracer::record(const SpanRec &R) {
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back(R);
}

void Tracer::count(const std::string &Name, double V) {
  std::lock_guard<std::mutex> L(Mu);
  auto &[Sum, N] = Counts[Name];
  Sum += V;
  ++N;
}

double Tracer::meanSeconds(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  double Sum = 0;
  uint64_t N = 0;
  for (const SpanRec &S : Spans)
    if (Name == S.Name) {
      Sum += S.T1 - S.T0;
      ++N;
    }
  return N ? Sum / double(N) : 0;
}

double Tracer::meanCount(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Counts.find(Name);
  return It == Counts.end() || It->second.second == 0
             ? 0
             : It->second.first / double(It->second.second);
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f",
                 S.Name, S.Tid, S.T0 * 1e6, (S.T1 - S.T0) * 1e6);
    if (S.Req)
      std::fprintf(F, ",\"args\":{\"req\":%llu}",
                   static_cast<unsigned long long>(S.Req));
    std::fprintf(F, "}%s\n", I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

void Tracer::printSelfTimes() const {
  std::vector<SpanRec> V;
  {
    std::lock_guard<std::mutex> L(Mu);
    V = Spans;
  }
  // Per thread, in start order (outer first on ties): a span's self time is
  // its duration minus the durations of the spans directly inside it.
  std::sort(V.begin(), V.end(), [](const SpanRec &A, const SpanRec &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.T0 != B.T0)
      return A.T0 < B.T0;
    return A.T1 > B.T1;
  });
  std::map<std::string, std::array<double, 3>> Rows; // count, total, self
  std::vector<size_t> Stack;
  std::vector<double> Self(V.size());
  for (size_t I = 0; I < V.size(); ++I) {
    while (!Stack.empty() && (V[Stack.back()].Tid != V[I].Tid ||
                              V[Stack.back()].T1 <= V[I].T0))
      Stack.pop_back();
    Self[I] = V[I].T1 - V[I].T0;
    if (!Stack.empty())
      Self[Stack.back()] -= V[I].T1 - V[I].T0;
    Stack.push_back(I);
  }
  for (size_t I = 0; I < V.size(); ++I) {
    auto &R = Rows[V[I].Name];
    R[0] += 1;
    R[1] += V[I].T1 - V[I].T0;
    R[2] += Self[I];
  }
  std::printf("%-26s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto &[Name, R] : Rows)
    std::printf("%-26s %10.0f %14.3f %14.3f\n", Name.c_str(), R[0],
                R[1] * 1e3, R[2] * 1e3);
}

Span::Span(const char *Name, uint64_t Req) : Name(Name), Req(Req) {
  if (tracer().armed())
    T0 = secondsSince(processStart());
}

Span::~Span() {
  if (T0 < 0)
    return;
  const double T1 = secondsSince(processStart());
  const uint32_t Tid = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
  tracer().record({Name, T0, T1, Req, Tid});
}

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

void RunResult::reject(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

void RunResult::print() const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const auto &[Name, VU] = Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g", VU.first);
    S += (I ? ", \"" : "\"") + Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + VU.second + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

void reportGroups(RunResult &R,
                  const std::map<std::string, std::vector<double>> &ByGroup) {
  std::vector<double> Dense;
  for (const char *G : {"subdivnet", "longformer", "softras", "gat"}) {
    const std::vector<double> &V = ByGroup.at(G);
    Dense.insert(Dense.end(), V.begin(), V.end());
    tracer().count(std::string(G) + "_rel", geomean(V));
  }
  R.metric("dense_rel", geomean(Dense), "x");
  R.metric("sparse_rel", geomean(ByGroup.at("sparse")), "x");
}

void emitLayerMetrics(RunResult &R) {
  const Tracer &T = tracer();
  for (const char *G : {"subdivnet", "longformer", "softras", "gat"})
    R.metric(std::string(G) + "_rel", T.meanCount(std::string(G) + "_rel"),
             "x");
  R.metric("frontend.build_us", T.meanSeconds("frontend.build") * 1e6, "us");
  R.metric("autoschedule.ms", T.meanSeconds("autoschedule") * 1e3, "ms");
  R.metric("codegen.emit_ms", T.meanSeconds("codegen.emit") * 1e3, "ms");
  R.metric("codegen.source_kb", T.meanCount("codegen.source_kb"), "KB");
  R.metric("codegen.simd_loops", T.meanCount("codegen.simd_loops"), "count");
  R.metric("jit.miss_s", T.meanSeconds("jit.miss"), "s");
  R.metric("kernel_cache.disk_hit_ms",
           T.meanSeconds("kernel_cache.disk_hit") * 1e3, "ms");
  R.metric("kernel_cache.key_us", T.meanSeconds("kernel_cache.key") * 1e6,
           "us");
  R.metric("rt.run_us", T.meanSeconds("rt.run") * 1e6, "us");
  R.metric("rt.parallel_fors_per_call",
           T.meanCount("rt.parallel_fors_per_call"), "count");
  R.metric("rt.allocs_per_call", T.meanCount("rt.allocs_per_call"), "count");
  R.metric("rt.peak_kb", T.meanCount("rt.peak_kb"), "KB");
  R.metric("op_us", T.meanSeconds("op") * 1e6, "us");
  R.metric("ref.op_us", T.meanSeconds("ref.op") * 1e6, "us");
}

} // namespace pb
