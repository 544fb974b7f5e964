//===- codegen/rt/ft_runtime.h - Kernel ABI and helpers ---------*- C++ -*-===//
///
/// \file
/// The one header a JIT-compiled kernel includes, kept at libc weight so
/// the host compiler parses almost nothing but the kernel itself. It holds
/// the C ABI through which a kernel reaches the runtime (thread pool,
/// counters, profile table, clock — all of it lives in the freetensor
/// library, codegen/runtime.cpp), plus the inline helpers the emitted code
/// calls: Python-style integer division, atomic reductions (Fig. 13(e)),
/// min/max, sigmoid, heap tensors, and the reference GEMM of the `as_lib`
/// schedule.
///
/// A kernel is `extern "C" void <sym>(void **params, const ft_rt *rt)`.
/// The kernel keeps no state of its own: no statics, no thread-locals.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_RT_FT_RUNTIME_H
#define FT_CODEGEN_RT_FT_RUNTIME_H

#include <cmath>
#include <cstdint>
#include <cstdlib>

/// Counters for one instrumented statement (a For, a GemmCall, or the
/// kernel body itself). Hot inner loops are timed on 1 in 64 invocations;
/// TimedCalls/TimedIters record which share of the work Ns covers, so the
/// host extrapolates EstNs = Ns * Iters / TimedIters. Calls and Iters are
/// always exact.
struct ft_prof_entry {
  uint64_t Calls;      ///< Times the statement was entered.
  uint64_t Iters;      ///< Loop iterations executed (1/call for gemm).
  uint64_t Ns;         ///< Clock ticks over the timed entries only.
  uint64_t TimedCalls; ///< Entries covered by Ns.
  uint64_t TimedIters; ///< Iterations covered by Ns.
};

/// One chunk [begin, end) of a parallel region, run on profile lane `lane`.
typedef void (*ft_chunk_fn)(void *ctx, int64_t begin, int64_t end, int lane);

/// What Kernel::run hands a kernel for one invocation.
struct ft_rt {
  /// This kernel's counters, indexed by ft::rt::StatField; updated with
  /// relaxed atomics.
  uint64_t *stats;
  /// Profile lanes (null unless the kernel is profiled): lanes[0] belongs
  /// to this invocation's caller, lanes[w] to pool thread w. A lane is only
  /// ever written by one thread at a time, so its counters need no atomics.
  ft_prof_entry *const *lanes;
  /// Runs fn over [begin, end) in chunks on the process-wide pool and
  /// returns when every chunk has finished.
  void (*parallel_for)(const ft_rt *rt, int64_t begin, int64_t end,
                       ft_chunk_fn fn, void *ctx);
  /// Profile clock for targets without a cycle counter.
  uint64_t (*clock)(void);
};

namespace ft {
namespace rt {

/// Index of each counter in ft_rt::stats (see ft::KernelRtStats).
enum StatField : uint32_t {
  FInvocations = 0, ///< Kernel entry calls.
  FParallelFors,    ///< Parallel regions run.
  FParallelIters,   ///< Iterations across regions.
  FGemmCalls,       ///< Library gemm invocations.
  FCurrentBytes,    ///< Live kernel-allocated tensor bytes right now.
  FPeakBytes,       ///< High-water mark of FCurrentBytes.
  FTotalAllocBytes, ///< Cumulative bytes ever allocated.
  FAllocCount,      ///< Number of tracked allocations.
  kNumFields,
};

inline void count(const ft_rt *Rt, StatField F, uint64_t N) {
  __atomic_fetch_add(&Rt->stats[F], N, __ATOMIC_RELAXED);
}

/// Zero-filled storage of a heap-backed tensor for the tensor's scope.
/// With a non-null \p Track (profile mode) its bytes are accounted in the
/// kernel's memory counters.
template <typename T> struct HeapBuf {
  T *Data;
  uint64_t Bytes;
  const ft_rt *Track;
  HeapBuf(int64_t N, const ft_rt *Track)
      : Data(static_cast<T *>(std::calloc(N > 0 ? N : 1, sizeof(T)))),
        Bytes(uint64_t(N > 0 ? N : 0) * sizeof(T)), Track(Track) {
    if (!Data)
      __builtin_trap();
    if (!Track)
      return;
    count(Track, FAllocCount, 1);
    count(Track, FTotalAllocBytes, Bytes);
    uint64_t *S = Track->stats;
    uint64_t Cur =
        __atomic_add_fetch(&S[FCurrentBytes], Bytes, __ATOMIC_RELAXED);
    uint64_t Peak = __atomic_load_n(&S[FPeakBytes], __ATOMIC_RELAXED);
    while (Cur > Peak &&
           !__atomic_compare_exchange_n(&S[FPeakBytes], &Peak, Cur, true,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
  }
  ~HeapBuf() {
    if (Track)
      __atomic_fetch_sub(&Track->stats[FCurrentBytes], Bytes,
                         __ATOMIC_RELAXED);
    std::free(Data);
  }
  HeapBuf(const HeapBuf &) = delete;
  HeapBuf &operator=(const HeapBuf &) = delete;
};

/// Runs Body(chunkBegin, chunkEnd, lane) over [Begin, End) on the pool:
/// one indirect call per chunk, the loop itself stays inline in Body.
template <typename Body>
inline void parallelFor(const ft_rt *Rt, int64_t Begin, int64_t End,
                        Body B) {
  Rt->parallel_for(
      Rt, Begin, End,
      [](void *Ctx, int64_t CB, int64_t CE, int Lane) {
        (*static_cast<Body *>(Ctx))(CB, CE, Lane);
      },
      &B);
}

/// Timestamp for the instrumentation brackets. On x86 this is rdtsc — a
/// plain instruction, not a call, so the sampled bracket does not clobber
/// vector registers and the compiler stays free to keep accumulators in
/// registers across the surrounding loops. The host converts ticks to
/// nanoseconds when it reads the table.
inline uint64_t profClock(const ft_rt *Rt) {
#if defined(__x86_64__) || defined(__i386__)
  (void)Rt;
  return __builtin_ia32_rdtsc();
#else
  return Rt->clock();
#endif
}

/// Floor division / modulo with Python semantics (divisor sign).
inline int64_t floorDiv(int64_t A, int64_t B) {
  int64_t Q = A / B, R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    --Q;
  return Q;
}

inline int64_t floorMod(int64_t A, int64_t B) {
  int64_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    R += B;
  return R;
}

/// Same results as std::min/std::max, NaN ordering included.
template <typename T> inline T min(T A, T B) { return B < A ? B : A; }
template <typename T> inline T max(T A, T B) { return A < B ? B : A; }

/// Atomic read-modify-write via compare-exchange (works for any scalar).
template <typename T, typename OpFn>
inline void atomicRmw(T *Addr, T Val, OpFn Op) {
  T Old;
  __atomic_load(Addr, &Old, __ATOMIC_RELAXED);
  T New = Op(Old, Val);
  while (!__atomic_compare_exchange(Addr, &Old, &New, true, __ATOMIC_RELAXED,
                                    __ATOMIC_RELAXED))
    New = Op(Old, Val);
}

template <typename T> inline void atomicAdd(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A + B; });
}
template <typename T> inline void atomicMul(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A * B; });
}
template <typename T> inline void atomicMin(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A < B ? A : B; });
}
template <typename T> inline void atomicMax(T *Addr, T Val) {
  atomicRmw(Addr, Val, [](T A, T B) { return A > B ? A : B; });
}

template <typename T> inline T sigmoid(T X) {
  return T(1) / (T(1) + std::exp(-X));
}

/// C[M x N] += op(A) * op(B), row-major, with a register-blocked k-inner
/// loop. The "vendor library" of the as_lib schedule.
template <typename T>
inline void gemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
                 const T *A, const T *B, T *C) {
  auto AAt = [&](int64_t I, int64_t Kk) {
    return TransA ? A[Kk * M + I] : A[I * K + Kk];
  };
  auto BAt = [&](int64_t Kk, int64_t J) {
    return TransB ? B[J * K + Kk] : B[Kk * N + J];
  };
  constexpr int64_t Tile = 48;
  for (int64_t I0 = 0; I0 < M; I0 += Tile)
    for (int64_t K0 = 0; K0 < K; K0 += Tile)
      for (int64_t I = I0; I < min(M, I0 + Tile); ++I)
        for (int64_t Kk = K0; Kk < min(K, K0 + Tile); ++Kk) {
          T AV = AAt(I, Kk);
          for (int64_t J = 0; J < N; ++J)
            C[I * N + J] += AV * BAt(Kk, J);
        }
}

} // namespace rt
} // namespace ft

#endif // FT_CODEGEN_RT_FT_RUNTIME_H
