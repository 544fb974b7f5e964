//===- perfbench/src/runs.h - The workloads ----------------------*- C++ -*-===//
///
/// \file
/// One entry point per workload. Each fills \p R (end-to-end metrics, the
/// operation counts and the check verdict) and returns a process exit code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNS_H
#define PERFBENCH_RUNS_H

#include "common.h"

namespace pb {

int runKernels(const Options &O, RunResult &R);
int runServe(const Options &O, RunResult &R);
/// Feeds every output check a deliberately wrong output; nonzero unless
/// every check rejects it (and accepts the correct one).
int runSelfTest(const Options &O);

} // namespace pb

#endif // PERFBENCH_RUNS_H
