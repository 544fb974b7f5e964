//===- perfbench/src/main.cpp - Benchmark driver --------------------------===//
//
// perfbench --workload kernels|serve --seed N --seconds S --trace 0|1
//           --run-dir DIR [--trace-out FILE]
// perfbench --selftest --run-dir DIR
//
// Prints one JSON result line last on standard output: the end-to-end
// metrics untraced, the per-layer metrics traced (see README.md).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "codegen/kernel_cache.h"

#include "runs.h"

using namespace pb;

int main(int Argc, char **Argv) {
  Options O;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Val();
    else if (A == "--seed")
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Val().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Val() == "1";
    else if (A == "--run-dir")
      O.RunDir = Val();
    else if (A == "--trace-out")
      O.TraceOut = Val();
    else if (A == "--selftest")
      SelfTest = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
      return 2;
    }
  }
  if (O.RunDir.empty()) {
    std::fprintf(stderr, "perfbench: --run-dir is required\n");
    return 2;
  }
  // One kernel-pool worker everywhere (the pool's completion handshake
  // races with more than one), and a private, empty kernel cache.
  setenv("FT_NUM_THREADS", "1", 1);
  const std::string Cache = O.RunDir + "/cache";
  std::filesystem::create_directories(Cache);
  setenv("FT_CACHE_DIR", Cache.c_str(), 1);
  setenv("FT_CACHE", "1", 1);
  // The compiler identity every cache key hashes is probed once per
  // process; probe it here so per-layer key times leave it out.
  (void)ft::kernel_cache::compilerId();

  if (SelfTest)
    return runSelfTest(O);

  RunResult R;
  tracer().arm(O.Trace);
  int Rc = 2;
  if (O.Workload == "kernels")
    Rc = runKernels(O, R);
  else if (O.Workload == "serve")
    Rc = runServe(O, R);
  else
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
  if (Rc != 0)
    return Rc;
  if (O.Trace) {
    tracer().printSelfTimes();
    if (!O.TraceOut.empty()) {
      if (!tracer().writeChrome(O.TraceOut))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     O.TraceOut.c_str());
      else
        std::printf("trace: %s (%zu spans)\n", O.TraceOut.c_str(),
                    tracer().spans());
    }
    R.Metrics.clear();
    emitLayerMetrics(R);
  }
  R.print();
  return 0;
}
