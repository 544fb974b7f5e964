//===- tests/runtime_test.cpp - Runtime library & support utilities --------===//
//
// Covers the pieces every generated kernel uses (the process-wide pool
// behind parallelFor, atomics, integer division, GEMM) and the small
// support utilities.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <gtest/gtest.h>

#include "codegen/runtime.h"
#include "support/error.h"
#include "support/string_utils.h"

using namespace ft;

namespace {

/// Runs Fn(i) for i in [Begin, End) through the pool, as a kernel would.
template <typename F>
void forEach(rt::KernelState &S, int64_t Begin, int64_t End, F Fn) {
  rt::KernelState::Invocation Inv(S);
  rt::parallelFor(Inv.abi(), Begin, End, [&](int64_t B, int64_t E, int) {
    for (int64_t I = B; I < E; ++I)
      Fn(I);
  });
}

TEST(RuntimeTest, ParallelForCoversRangeExactlyOnce) {
  rt::KernelState S(0);
  std::vector<std::atomic<int>> Hits(1000);
  forEach(S, 0, 1000, [&](int64_t I) { Hits[I].fetch_add(1); });
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
  // Empty and negative ranges are no-ops.
  bool Ran = false;
  forEach(S, 5, 5, [&](int64_t) { Ran = true; });
  forEach(S, 5, 3, [&](int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
  EXPECT_EQ(S.stat(rt::FInvocations), 3u);
  EXPECT_EQ(S.stat(rt::FParallelFors), 1u);
  EXPECT_EQ(S.stat(rt::FParallelIters), 1000u);
}

TEST(RuntimeTest, ParallelForNestedCalls) {
  rt::KernelState S(0);
  std::atomic<int64_t> Sum{0};
  forEach(S, 0, 10, [&](int64_t I) {
    forEach(S, 0, 10, [&](int64_t J) { Sum.fetch_add(I * 10 + J); });
  });
  EXPECT_EQ(Sum.load(), 100 * 99 / 2);
  EXPECT_EQ(S.stat(rt::FParallelFors), 11u);
}

TEST(RuntimeTest, AtomicReductions) {
  rt::KernelState S(0);
  float Acc = 0;
  forEach(S, 0, 500, [&](int64_t) { rt::atomicAdd(&Acc, 1.0f); });
  EXPECT_FLOAT_EQ(Acc, 500.0f);

  float Mx = -1e30f, Mn = 1e30f;
  forEach(S, 0, 100, [&](int64_t I) {
    rt::atomicMax(&Mx, float(I));
    rt::atomicMin(&Mn, float(I));
  });
  EXPECT_FLOAT_EQ(Mx, 99.0f);
  EXPECT_FLOAT_EQ(Mn, 0.0f);

  double Prod = 1.0;
  for (int I = 0; I < 10; ++I)
    rt::atomicMul(&Prod, 2.0);
  EXPECT_DOUBLE_EQ(Prod, 1024.0);
}

TEST(RuntimeTest, MinMaxMatchStd) {
  EXPECT_EQ(rt::min<int64_t>(3, -2), -2);
  EXPECT_EQ(rt::max<int64_t>(3, -2), 3);
  const float NaN = std::nanf("");
  // std::min/max return the first argument unless the second compares
  // strictly smaller/larger; NaN ordering must not change.
  EXPECT_TRUE(std::isnan(rt::min(NaN, 1.0f)));
  EXPECT_EQ(rt::min(1.0f, NaN), 1.0f);
  EXPECT_TRUE(std::isnan(rt::max(NaN, 1.0f)));
  EXPECT_EQ(rt::max(1.0f, NaN), 1.0f);
}

TEST(RuntimeTest, FloorDivModMatchPython) {
  EXPECT_EQ(rt::floorDiv(7, 2), 3);
  EXPECT_EQ(rt::floorDiv(-7, 2), -4);
  EXPECT_EQ(rt::floorDiv(7, -2), -4);
  EXPECT_EQ(rt::floorMod(-7, 2), 1);
  EXPECT_EQ(rt::floorMod(7, -2), -1);
  EXPECT_EQ(rt::floorMod(-6, 3), 0);
}

TEST(RuntimeTest, GemmAllTransposeCombinations) {
  // A = [[1,2,3],[4,5,6]] (2x3), B = [[1,0],[0,1],[1,1]] (3x2).
  std::vector<float> A{1, 2, 3, 4, 5, 6};
  std::vector<float> B{1, 0, 0, 1, 1, 1};
  std::vector<float> AT{1, 4, 2, 5, 3, 6}; // 3x2
  std::vector<float> BT{1, 0, 1, 0, 1, 1}; // 2x3
  std::vector<float> Want{4, 5, 10, 11};   // A @ B

  for (int Mode = 0; Mode < 4; ++Mode) {
    bool TA = Mode & 1, TB = Mode & 2;
    std::vector<float> C(4, 0.0f);
    rt::gemm<float>(TA, TB, 2, 2, 3, (TA ? AT : A).data(),
                    (TB ? BT : B).data(), C.data());
    for (int I = 0; I < 4; ++I)
      EXPECT_FLOAT_EQ(C[I], Want[I]) << "mode " << Mode << " elt " << I;
  }
}

TEST(RuntimeTest, GemmAccumulates) {
  std::vector<float> A{1, 0, 0, 1}, B{2, 0, 0, 2};
  std::vector<float> C{5, 5, 5, 5};
  rt::gemm<float>(false, false, 2, 2, 2, A.data(), B.data(), C.data());
  EXPECT_FLOAT_EQ(C[0], 7);
  EXPECT_FLOAT_EQ(C[1], 5);
}

TEST(RuntimeTest, GemmLargerThanTile) {
  // Exercise the blocking path (Tile = 48).
  const int64_t N = 70;
  std::vector<float> A(N * N), B(N * N), C(N * N, 0.0f);
  for (int64_t I = 0; I < N * N; ++I) {
    A[I] = float((I * 7) % 5) - 2;
    B[I] = float((I * 3) % 7) - 3;
  }
  rt::gemm<float>(false, false, N, N, N, A.data(), B.data(), C.data());
  // Spot-check a few entries against a direct computation.
  for (int64_t I : {int64_t(0), int64_t(33), N - 1})
    for (int64_t J : {int64_t(0), int64_t(47), N - 1}) {
      float Want = 0;
      for (int64_t K = 0; K < N; ++K)
        Want += A[I * N + K] * B[K * N + J];
      EXPECT_FLOAT_EQ(C[I * N + J], Want) << I << "," << J;
    }
}

TEST(RuntimeTest, Sigmoid) {
  EXPECT_NEAR(rt::sigmoid(0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(rt::sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(rt::sigmoid(-100.0f), 0.0f, 1e-6);
}

//===--------------------------------------------------------------------===//
// Support utilities.
//===--------------------------------------------------------------------===//

TEST(SupportTest, StatusAndResult) {
  Status Ok;
  EXPECT_TRUE(Ok.ok());
  EXPECT_TRUE(static_cast<bool>(Ok));
  Status Err = Status::error("boom");
  EXPECT_FALSE(Err.ok());
  EXPECT_EQ(Err.message(), "boom");

  Result<int> R(42);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 42);
  Result<int> E = Result<int>::error("nope");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "nope");
  EXPECT_FALSE(E.status().ok());
}

TEST(SupportTest, StringUtils) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(fmtDouble(1.5), "1.5");
  EXPECT_EQ(fmtDouble(-std::numeric_limits<double>::infinity()),
            "(-INFINITY)");
  EXPECT_EQ(fmtDouble(std::numeric_limits<double>::infinity()), "INFINITY");

  std::set<std::string> Used{"x", "x.1"};
  auto IsUsed = [&](const std::string &N) { return Used.count(N) > 0; };
  EXPECT_EQ(freshName("y", IsUsed), "y");
  EXPECT_EQ(freshName("x", IsUsed), "x.2");
}

} // namespace
