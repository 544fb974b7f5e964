//===- tests/concurrency_test.cpp - Cross-layer thread-safety -------------===//
//
// The thread-safety guarantees the serving runtime leans on, tested at the
// layer that provides each one:
//
//   - metrics:: counters are relaxed atomics: concurrent increments from
//     many threads lose nothing, and concurrent first-use registration of
//     the same / different names is safe;
//   - the kernel cache's in-process LRU survives a concurrent
//     lookup/insert/evict storm (same and distinct keys, tiny capacity)
//     with its bound intact and every handle it returns still runnable;
//   - N threads compiling the same program concurrently all succeed and
//     agree bit-for-bit (first-writer-wins insert, shared handles);
//   - kernels share one process-wide pool (FT_NUM_THREADS, set by ctest):
//     two profiled kernels at once, and one profiled kernel run from four
//     threads at once, keep exact profile counts and outputs; thousands of
//     short regions all finish; and eight loaded kernels add no threads
//     beyond the pool's FT_NUM_THREADS - 1.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "codegen/profile.h"
#include "codegen/runtime.h"
#include "frontend/builder.h"
#include "schedule/schedule.h"
#include "support/metrics.h"

using namespace ft;

namespace {

Func makeAxpy(double Scale, const std::string &Prefix = "") {
  FunctionBuilder B(Prefix + "axpy");
  View X = B.input(Prefix + "x", {makeIntConst(256)});
  View Y = B.output(Prefix + "y", {makeIntConst(256)});
  B.loop(Prefix + "i", 0, 256, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(Scale) + makeFloatConst(1.0));
  });
  return B.build();
}

std::vector<float> runOnce(const Kernel &K, const Func &F) {
  Buffer X(DataType::Float32, {256}), Y(DataType::Float32, {256});
  for (int64_t I = 0; I < X.numel(); ++I)
    X.setF(I, std::sin(0.37 * double(I)));
  std::map<std::string, Buffer *> Args = {{F.Params[0], &X},
                                          {F.Params[1], &Y}};
  Status S = K.run(Args);
  EXPECT_TRUE(S.ok()) << S.message();
  return std::vector<float>(Y.as<float>(), Y.as<float>() + Y.numel());
}

class ConcurrencyTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftconc.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    kernel_cache::memReset();
  }
  void TearDown() override {
    ::unsetenv("FT_CACHE_DIR");
    ::unsetenv("FT_CACHE");
    kernel_cache::memReset();
    std::system(("rm -rf '" + Dir + "'").c_str());
  }
  std::string Dir;
};

} // namespace

//===--------------------------------------------------------------------===//
// Metrics counters under contention.
//===--------------------------------------------------------------------===//

TEST(MetricsConcurrencyTest, ConcurrentIncrementsAreExact) {
  metrics::Counter &C = metrics::counter("test/concurrent_adds");
  const uint64_t Before = C.load();

  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 100000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([] {
      // Resolve inside the thread: registration itself must be racy-safe.
      metrics::Counter &Mine = metrics::counter("test/concurrent_adds");
      for (uint64_t I = 0; I < kAdds; ++I)
        Mine.fetch_add(1);
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(C.load() - Before, kThreads * kAdds);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsStableRefs) {
  constexpr int kThreads = 8;
  std::vector<metrics::Counter *> Seen(kThreads, nullptr);
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &Seen] {
      // Everyone races to create a mix of names; the shared one must
      // resolve to a single instance for all threads.
      metrics::counter("test/reg_private_" + std::to_string(T)).fetch_add(1);
      Seen[T] = &metrics::counter("test/reg_shared");
      Seen[T]->fetch_add(1);
    });
  for (std::thread &T : Ts)
    T.join();

  for (int T = 1; T < kThreads; ++T)
    EXPECT_EQ(Seen[T], Seen[0]);
  EXPECT_GE(metrics::counter("test/reg_shared").load(), (uint64_t)kThreads);
}

//===--------------------------------------------------------------------===//
// Kernel-cache memory tier under a lookup/insert/evict storm.
//===--------------------------------------------------------------------===//

TEST_F(ConcurrencyTest, MemTierSurvivesConcurrentStorm) {
  // A few real kernels to shuffle through the LRU; handles are copyable,
  // so many logical keys can share one loaded library.
  std::vector<Kernel> Kernels;
  Func F = makeAxpy(3.0);
  std::vector<float> Want;
  for (double Scale : {3.0, 4.0, 5.0}) {
    auto K = Kernel::compile(makeAxpy(Scale), "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    Kernels.push_back(*K);
    if (Scale == 3.0)
      Want = runOnce(*K, F);
  }

  constexpr size_t kCap = 8;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr uint64_t kKeySpace = 32; // 4x the capacity => constant eviction
  std::atomic<bool> Failed{false};

  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &Kernels, &Failed] {
      uint64_t S = 0x9e3779b9u * (T + 1);
      for (int I = 0; I < kIters && !Failed.load(); ++I) {
        S ^= S << 13;
        S ^= S >> 7;
        S ^= S << 17;
        uint64_t Key = S % kKeySpace;
        switch (S % 4) {
        case 0:
        case 1: // lookups dominate, as in real serving
          (void)kernel_cache::memLookup(Key);
          break;
        case 2:
          kernel_cache::memInsert(Key, Kernels[Key % Kernels.size()], kCap);
          break;
        default:
          if (kernel_cache::memSize() > kCap)
            Failed.store(true);
          break;
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_FALSE(Failed.load()) << "LRU bound violated under concurrency";
  EXPECT_LE(kernel_cache::memSize(), kCap);

  // Any handle still resident must be runnable (no use-after-eviction).
  for (uint64_t Key = 0; Key < kKeySpace; ++Key)
    if (std::optional<Kernel> K = kernel_cache::memLookup(Key))
      if (Key % Kernels.size() == 0) {
        std::vector<float> Got = runOnce(*K, F);
        EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                                 Want.size() * sizeof(float)));
        break;
      }
}

TEST_F(ConcurrencyTest, ConcurrentCompilesOfSameProgramAgree) {
  Func F = makeAxpy(6.0);
  constexpr int kThreads = 4;
  std::vector<std::optional<Kernel>> Ks(kThreads);
  std::vector<std::string> Errs(kThreads);

  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &F, &Ks, &Errs] {
      auto R = Kernel::compile(F, "-O1");
      if (R.ok())
        Ks[T] = *R;
      else
        Errs[T] = R.message();
    });
  for (std::thread &T : Ts)
    T.join();

  std::vector<float> Want;
  for (int T = 0; T < kThreads; ++T) {
    ASSERT_TRUE(Ks[T].has_value()) << Errs[T];
    std::vector<float> Got = runOnce(*Ks[T], F);
    if (T == 0)
      Want = Got;
    else
      EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                               Want.size() * sizeof(float)));
  }
  // Exactly one resident entry for the shared program afterwards.
  EXPECT_LE(kernel_cache::memSize(), 1u);
}

//===--------------------------------------------------------------------===//
// Kernels on the one process-wide pool.
//===--------------------------------------------------------------------===//

namespace {

/// A profiled kernel computing y = a * Scale + 1 over N elements with its
/// one loop parallelized.
struct ParallelAxpy {
  int64_t N = 0;
  double Scale = 0;
  int64_t LoopId = -1;
  std::optional<Kernel> K;

  ParallelAxpy(const std::string &Name, int64_t N, double Scale,
               bool Profile = true)
      : N(N), Scale(Scale) {
    FunctionBuilder B(Name);
    View A = B.input("a", {makeIntConst(N)});
    View Y = B.output("y", {makeIntConst(N)});
    LoopId = B.loop(
        "i", 0, N,
        [&](Expr I) {
          Y[I].assign(A[I].load() * makeFloatConst(Scale) +
                      makeFloatConst(1.0));
        },
        "rows");
    Schedule S(B.build());
    EXPECT_TRUE(S.parallelize(LoopId).ok());
    CodegenOptions Opts;
    Opts.Profile = Profile;
    auto R = Kernel::compile(S.func(), Opts, "-O1");
    EXPECT_TRUE(R.ok()) << R.message();
    if (R.ok())
      K = *R;
  }

  /// Runs the kernel \p Runs times on fresh buffers; returns y.
  std::vector<float> run(uint64_t Runs) const {
    Buffer A(DataType::Float32, {N}), Y(DataType::Float32, {N});
    for (int64_t I = 0; I < N; ++I)
      A.setF(I, float(I) * 0.25f);
    std::map<std::string, Buffer *> Args = {{"a", &A}, {"y", &Y}};
    for (uint64_t R = 0; R < Runs; ++R)
      EXPECT_TRUE(K->run(Args).ok());
    for (int64_t I = 0; I < N; ++I)
      EXPECT_NEAR(Y.as<float>()[I], float(I) * 0.25f * float(Scale) + 1.0f,
                  1e-4);
    return std::vector<float>(Y.as<float>(), Y.as<float>() + N);
  }

  /// Profile and runtime counters are exact for \p Runs invocations.
  void expectExactCounts(uint64_t Runs) const {
    profile::KernelProfile Prof = K->profileNow();
    const profile::LoopSample *Loop = Prof.sample(LoopId);
    ASSERT_NE(Loop, nullptr);
    EXPECT_EQ(Prof.sample(-1)->Calls, Runs);
    EXPECT_EQ(Loop->Calls, Runs);
    EXPECT_EQ(Loop->Iters, Runs * uint64_t(N));
    KernelRtStats St = K->rtStats();
    ASSERT_TRUE(St.Valid);
    EXPECT_EQ(St.Invocations, Runs);
    EXPECT_EQ(St.ParallelFors, Runs);
    EXPECT_EQ(St.ParallelIters, Runs * uint64_t(N));
  }
};

/// Threads of this process, from /proc/self/task; with \p Name, only the
/// threads of that name.
int countThreads(const std::string &Name = "") {
  int N = 0;
  if (DIR *D = ::opendir("/proc/self/task")) {
    while (const dirent *E = ::readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      std::ifstream Comm(std::string("/proc/self/task/") + E->d_name +
                         "/comm");
      std::string Got;
      std::getline(Comm, Got);
      N += Name.empty() || Got == Name;
    }
    ::closedir(D);
  }
  return N;
}

} // namespace

TEST_F(ConcurrencyTest, TwoProfiledKernelsSharingThePoolKeepExactCounts) {
  std::vector<ParallelAxpy> Ks;
  Ks.emplace_back("pool0", 4096, 2.0);
  Ks.emplace_back("pool1", 4096, 3.0);
  ASSERT_TRUE(Ks[0].K && Ks[1].K);

  const uint64_t Runs = 20;
  std::vector<std::thread> Ts;
  for (const ParallelAxpy &P : Ks)
    Ts.emplace_back([&P] { P.run(Runs); });
  for (std::thread &T : Ts)
    T.join();

  // Both kernels ran at once on the shared pool; each one's profile lanes
  // and runtime counters stay exact.
  for (const ParallelAxpy &P : Ks)
    P.expectExactCounts(Runs);
}

TEST_F(ConcurrencyTest, OneProfiledKernelRunFromFourThreadsIsExact) {
  ParallelAxpy P("reentrant", 4096, 1.5);
  ASSERT_TRUE(P.K);
  const std::vector<float> Want = P.run(1);

  constexpr int kCallers = 4;
  const uint64_t Runs = 25;
  std::vector<std::vector<float>> Got(kCallers);
  std::vector<std::thread> Ts;
  for (int T = 0; T < kCallers; ++T)
    Ts.emplace_back([&, T] { Got[T] = P.run(Runs); });
  for (std::thread &T : Ts)
    T.join();

  for (const std::vector<float> &G : Got)
    EXPECT_EQ(0, std::memcmp(Want.data(), G.data(), Want.size() * 4));
  P.expectExactCounts(1 + kCallers * Runs);
}

TEST_F(ConcurrencyTest, ThousandsOfShortRegionsAllFinish) {
  // Tiny regions maximize the share of time spent in the pool's hand-off,
  // where a completion race between a chunk and its caller would show.
  ParallelAxpy P("short", 64, 2.0, /*Profile=*/false);
  ASSERT_TRUE(P.K);
  const uint64_t Runs = 5000;
  P.run(Runs);
  EXPECT_EQ(P.K->rtStats().ParallelFors, Runs);
  EXPECT_EQ(P.K->rtStats().ParallelIters, Runs * 64);
}

TEST_F(ConcurrencyTest, EightKernelsShareOnePoolOfThreads) {
  // Start the pool (if no earlier test has) with one region of its own.
  rt::KernelState S(0);
  {
    rt::KernelState::Invocation Inv(S);
    rt::parallelFor(Inv.abi(), 0, 1024, [](int64_t, int64_t, int) {});
  }
  const int Before = countThreads();

  std::vector<ParallelAxpy> Ks;
  for (int I = 0; I < 8; ++I)
    Ks.emplace_back("eight" + std::to_string(I), 1024, 1.0 + I,
                    /*Profile=*/false);
  for (const ParallelAxpy &P : Ks) {
    ASSERT_TRUE(P.K);
    P.run(2);
  }
  // Loading and running kernels adds no threads: the pool's
  // FT_NUM_THREADS - 1 are all there are.
  EXPECT_EQ(countThreads(), Before);
  EXPECT_EQ(countThreads("ft-pool"), rt::numThreads() - 1);
}

// Also run with FT_NUM_THREADS=1 (ctest concurrency_test_serial), where
// every region runs inline on its caller.
TEST_F(ConcurrencyTest, ComputesCorrectlyAtConfiguredPoolSize) {
  EXPECT_EQ(rt::numThreads(),
            rt::parseNumThreads(std::getenv("FT_NUM_THREADS"),
                                std::thread::hardware_concurrency()));
  Func F = makeAxpy(2.0);
  Schedule S(F);
  // makeAxpy's single loop is the only one; find and parallelize it.
  int64_t LoopId = -1;
  std::function<void(const Stmt &)> Find = [&](const Stmt &St) {
    if (auto L = dyn_cast<ForNode>(St)) {
      LoopId = L->Id;
      return;
    }
    if (auto Seq = dyn_cast<StmtSeqNode>(St))
      for (const Stmt &Sub : Seq->Stmts)
        Find(Sub);
    if (auto D = dyn_cast<VarDefNode>(St))
      Find(D->Body);
  };
  Find(F.Body);
  ASSERT_GE(LoopId, 0);
  ASSERT_TRUE(S.parallelize(LoopId).ok());

  auto K = Kernel::compile(S.func(), CodegenOptions{}, "-O1");
  ASSERT_TRUE(K.ok()) << K.message();
  std::vector<float> Got = runOnce(*K, F);
  for (int64_t I = 0; I < 256; ++I)
    EXPECT_NEAR(Got[size_t(I)], std::sin(0.37 * double(I)) * 2.0 + 1.0, 1e-5);
  EXPECT_EQ(K->rtStats().ParallelFors, 1u);
}

//===----------------------------------------------------------------------===//
// Histogram record path under contention (telemetry-plane PR): the
// wait-free record() loses nothing — counts, sums, and bucket totals are
// exact across racing threads, and min/max converge to the true extremes.
//===----------------------------------------------------------------------===//

TEST_F(ConcurrencyTest, HistogramConcurrentRecordsAreExact) {
  metrics::Histogram &H = metrics::histogram("test/conc_hist");
  H.reset();

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([T, &H] {
      // Thread T records values T*1000 .. T*1000+kPerThread-1: every
      // thread hits a distinct range, together spanning many buckets.
      for (uint64_t I = 0; I < kPerThread; ++I)
        H.record(uint64_t(T) * 1000 + I);
    });
  for (std::thread &T : Ts)
    T.join();

  metrics::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, uint64_t(kThreads) * kPerThread);

  uint64_t WantSum = 0, BucketSum = 0;
  for (int T = 0; T < kThreads; ++T)
    for (uint64_t I = 0; I < kPerThread; ++I)
      WantSum += uint64_t(T) * 1000 + I;
  EXPECT_EQ(S.Sum, WantSum);
  for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
    BucketSum += S.Buckets[I];
  EXPECT_EQ(BucketSum, S.Count);
  EXPECT_EQ(S.Min, 0u);
  EXPECT_EQ(S.Max, uint64_t(kThreads - 1) * 1000 + kPerThread - 1);
  H.reset();
}
