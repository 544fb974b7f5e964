//===- codegen/runtime.cpp - The process-wide kernel runtime --------------===//

#include "codegen/runtime.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <pthread.h>
#include <thread>

using namespace ft;
using namespace ft::rt;

namespace {

/// The profile lane of the running thread: pool thread w owns lane w; any
/// other thread runs its chunks on lane 0, the lane its invocation leased.
thread_local int ThisLane = 0;

/// One parallel region, on its caller's stack. Next and Done are guarded
/// by the pool mutex, so the caller sees the last chunk finish only after
/// the thread that ran it has let go of the region.
struct Region {
  ft_chunk_fn Fn;
  void *Ctx;
  int64_t Begin, End, Chunk;
  int NumChunks;
  int Next = 0; ///< First chunk nobody has claimed.
  int Done = 0; ///< Chunks finished.
};

/// Regions with unclaimed chunks, served by numThreads() - 1 threads. The
/// caller of a region claims its unstarted chunks itself, so a region
/// finishes even while every pool thread is busy: nested regions and
/// regions of many kernels at once cannot wait on each other.
class Pool {
public:
  explicit Pool(int N) {
    for (int W = 1; W < N; ++W) {
      Threads.emplace_back([this, W] { work(W); });
      pthread_setname_np(Threads.back().native_handle(), "ft-pool");
    }
  }

  void run(Region &R) {
    std::unique_lock<std::mutex> L(Mu);
    Open.push_back(&R);
    WorkCv.notify_all();
    while (R.Next < R.NumChunks)
      runChunk(R, ThisLane, L);
    DoneCv.wait(L, [&] { return R.Done == R.NumChunks; });
  }

private:
  /// Claims R's next chunk and runs it unlocked on \p Lane.
  void runChunk(Region &R, int Lane, std::unique_lock<std::mutex> &L) {
    int C = R.Next++;
    if (R.Next == R.NumChunks)
      Open.erase(std::find(Open.begin(), Open.end(), &R));
    L.unlock();
    int64_t B = R.Begin + C * R.Chunk;
    R.Fn(R.Ctx, B, std::min(R.End, B + R.Chunk), Lane);
    L.lock();
    if (++R.Done == R.NumChunks)
      DoneCv.notify_all();
  }

  void work(int W) {
    ThisLane = W;
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      WorkCv.wait(L, [&] { return !Open.empty(); });
      runChunk(*Open.front(), W, L);
    }
  }

  std::mutex Mu;
  std::condition_variable WorkCv, DoneCv;
  std::vector<Region *> Open; ///< Guarded by Mu.
  std::vector<std::thread> Threads;
};

/// Intentionally leaked with its threads running (never joined): a kernel
/// may run from another static's destructor at exit.
Pool &pool() {
  static Pool *P = new Pool(numThreads());
  return *P;
}

void parallelForAbi(const ft_rt *Rt, int64_t Begin, int64_t End,
                    ft_chunk_fn Fn, void *Ctx) {
  int64_t N = End - Begin;
  if (N <= 0)
    return;
  count(Rt, FParallelFors, 1);
  count(Rt, FParallelIters, static_cast<uint64_t>(N));
  int Workers = numThreads();
  if (N < Workers || Workers <= 1) {
    Fn(Ctx, Begin, End, ThisLane);
    return;
  }
  int64_t Chunk = (N + Workers - 1) / Workers;
  Region R{Fn, Ctx, Begin, End, Chunk,
           static_cast<int>((N + Chunk - 1) / Chunk)};
  pool().run(R);
}

uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds per profClock() tick, calibrated once against the steady
/// clock over a ~2 ms window.
double nsPerTick() {
#if defined(__x86_64__) || defined(__i386__)
  static const double NsPerTick = [] {
    uint64_t T0 = steadyNs(), C0 = __builtin_ia32_rdtsc();
    uint64_t T1;
    while ((T1 = steadyNs()) - T0 < 2'000'000) {
    }
    uint64_t C1 = __builtin_ia32_rdtsc();
    return C1 > C0 ? double(T1 - T0) / double(C1 - C0) : 1.0;
  }();
  return NsPerTick;
#else
  return 1.0;
#endif
}

} // namespace

int ft::rt::parseNumThreads(const char *Env, unsigned Hw) {
  if (Env != nullptr && Env[0] != '\0') {
    char *End = nullptr;
    long V = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0')
      return static_cast<int>(V < 1 ? 1 : (V > 256 ? 256 : V));
  }
  return Hw < 1 ? 1 : static_cast<int>(Hw);
}

int ft::rt::numThreads() {
  static const int N = parseNumThreads(std::getenv("FT_NUM_THREADS"),
                                       std::thread::hardware_concurrency());
  return N;
}

/// A caller lane plus the lane table an invocation holding it passes in.
struct KernelState::Lane {
  std::vector<ft_prof_entry> Own;
  std::vector<ft_prof_entry *> Table; ///< [0] = Own, [w] = pool lane w.
};

KernelState::KernelState(uint32_t ProfSlots) : Slots(ProfSlots) {
  if (Slots > 0)
    PoolLanes.assign(numThreads(), std::vector<ft_prof_entry>(Slots));
}

KernelState::~KernelState() = default;

KernelState::Invocation::Invocation(KernelState &S)
    : S(S), Rt{S.Stats, nullptr, parallelForAbi, steadyNs} {
  count(&Rt, FInvocations, 1);
  if (S.Slots == 0)
    return;
  std::lock_guard<std::mutex> G(S.Mu);
  if (S.Free.empty()) {
    auto New = std::make_unique<Lane>();
    New->Own.resize(S.Slots);
    New->Table.push_back(New->Own.data());
    for (size_t W = 1; W < S.PoolLanes.size(); ++W)
      New->Table.push_back(S.PoolLanes[W].data());
    S.Free.push_back(New.get());
    S.CallerLanes.push_back(std::move(New));
  }
  L = S.Free.back();
  S.Free.pop_back();
  Rt.lanes = L->Table.data();
}

KernelState::Invocation::~Invocation() {
  if (!L)
    return;
  std::lock_guard<std::mutex> G(S.Mu);
  S.Free.push_back(L);
}

uint64_t KernelState::stat(StatField F) const {
  return __atomic_load_n(&Stats[F], __ATOMIC_RELAXED);
}

std::vector<ft_prof_entry> KernelState::profile() const {
  std::vector<ft_prof_entry> Sum(Slots, ft_prof_entry{});
  auto Add = [&](const std::vector<ft_prof_entry> &Lane) {
    for (uint32_t I = 0; I < Slots; ++I) {
      Sum[I].Calls += Lane[I].Calls;
      Sum[I].Iters += Lane[I].Iters;
      Sum[I].Ns += Lane[I].Ns;
      Sum[I].TimedCalls += Lane[I].TimedCalls;
      Sum[I].TimedIters += Lane[I].TimedIters;
    }
  };
  for (size_t W = 1; W < PoolLanes.size(); ++W)
    Add(PoolLanes[W]);
  std::lock_guard<std::mutex> G(Mu);
  for (const auto &L : CallerLanes)
    Add(L->Own);
  for (ft_prof_entry &E : Sum)
    E.Ns = static_cast<uint64_t>(double(E.Ns) * nsPerTick());
  return Sum;
}
