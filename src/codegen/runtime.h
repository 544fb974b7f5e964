//===- codegen/runtime.h - The kernel runtime, host side ---------*- C++ -*-===//
///
/// \file
/// The runtime every JIT-compiled kernel reaches through its `const ft_rt *`
/// argument (codegen/rt/ft_runtime.h). It is built once, into this library:
/// one process-wide thread pool backs the parallel regions of every kernel,
/// and each loaded kernel owns its counters and its profile table here,
/// where the host reads them directly.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_RUNTIME_H
#define FT_CODEGEN_RUNTIME_H

#include <memory>
#include <mutex>
#include <vector>

#include "codegen/rt/ft_runtime.h"

namespace ft::rt {

/// Pool size for an FT_NUM_THREADS value \p Env (null or empty = unset) on
/// a host with \p Hw hardware threads: Env when it parses as an integer,
/// clamped to [1, 256]; otherwise Hw, at least 1.
int parseNumThreads(const char *Env, unsigned Hw);

/// Threads of the process-wide pool, callers included: parseNumThreads of
/// the environment, read once. The pool spawns numThreads() - 1 threads on
/// the first region that needs them, and never more.
int numThreads();

/// One loaded kernel's runtime state: its counters and profile table.
class KernelState {
  struct Lane;

public:
  /// \p ProfSlots profile slots per lane; 0 = the kernel is not profiled.
  explicit KernelState(uint32_t ProfSlots);
  ~KernelState();

  /// The ft_rt of one kernel invocation; counts the invocation. A profiled
  /// kernel leases a caller lane for the invocation's lifetime, so any
  /// number of invocations of one kernel may run at once.
  class Invocation {
  public:
    explicit Invocation(KernelState &S);
    ~Invocation();
    Invocation(const Invocation &) = delete;
    Invocation &operator=(const Invocation &) = delete;
    const ft_rt *abi() const { return &Rt; }

  private:
    KernelState &S;
    Lane *L = nullptr;
    ft_rt Rt;
  };

  uint64_t stat(StatField F) const;

  /// Every lane's counters summed slot by slot, Ns in nanoseconds. Exact
  /// once the invocations it should cover have returned.
  std::vector<ft_prof_entry> profile() const;

private:
  uint64_t Stats[kNumFields] = {};
  const uint32_t Slots;
  /// Lane w of pool thread w (index 0 unused: callers lease their lane).
  std::vector<std::vector<ft_prof_entry>> PoolLanes;
  mutable std::mutex Mu; ///< Guards CallerLanes and Free.
  std::vector<std::unique_ptr<Lane>> CallerLanes;
  std::vector<Lane *> Free;
};

} // namespace ft::rt

#endif // FT_CODEGEN_RUNTIME_H
