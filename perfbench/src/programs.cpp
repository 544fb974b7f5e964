//===- perfbench/src/programs.cpp -----------------------------------------===//

#include "programs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "autoschedule/autoschedule.h"
#include "codegen/codegen.h"
#include "codegen/kernel_cache.h"
#include "ir/expr.h"
#include "workloads/sparse_workloads.h"
#include "workloads/workloads.h"

#include "naive.h"

namespace pb {

using namespace ft;
using namespace ft::workloads;

const char *nameOf(Prog P) {
  static const char *Names[] = {"subdivnet", "longformer", "softras", "gat",
                                "sddmm",     "segsoftmax", "spmm"};
  return Names[P];
}

Buffer randF(Rng &R, std::vector<int64_t> Shape, float Lo, float Hi) {
  Buffer B(DataType::Float32, std::move(Shape));
  for (int64_t I = 0; I < B.numel(); ++I)
    B.as<float>()[I] = R.uni(Lo, Hi);
  return B;
}

Buffer randIdx(Rng &R, std::vector<int64_t> Shape, int64_t Hi) {
  Buffer B(DataType::Int64, std::move(Shape));
  for (int64_t I = 0; I < B.numel(); ++I)
    B.as<int64_t>()[I] = R.below(Hi);
  return B;
}

Csr skewedCsr(Rng &R, int64_t Rows, int64_t AvgDeg) {
  std::vector<int64_t> Ptr(Rows + 1, 0), Idx;
  std::vector<float> Val;
  for (int64_t I = 0; I < Rows; ++I) {
    int64_t Deg = 0;
    if (R.below(8) != 0) {
      const double U = 1.0 - R.unit(); // (0, 1]
      Deg = std::min<int64_t>(16 * AvgDeg,
                              int64_t(0.25 * double(AvgDeg) * std::pow(U, -0.75)));
    }
    for (int64_t J = 0; J < Deg; ++J) {
      Idx.push_back(R.below(Rows));
      Val.push_back(R.uni(-1, 1));
    }
    Ptr[I + 1] = int64_t(Idx.size());
  }
  Csr G;
  G.Rows = Rows;
  G.Nnz = int64_t(Idx.size());
  G.Ptr = Buffer::fromI64({Rows + 1}, Ptr);
  G.Idx = Buffer::fromI64({G.Nnz}, Idx);
  G.Val = Buffer::fromF32({G.Nnz}, Val);
  return G;
}

Dataset makeDataset(uint64_t Seed) {
  using namespace sz;
  Rng R(Seed);
  Dataset D;
  D.SubE = randF(R, {SubFaces, SubFeats}, -1, 1);
  D.SubAdj = randIdx(R, {SubFaces, 3}, SubFaces);
  D.SubY = Buffer(DataType::Float32, {SubFaces, SubFeats});
  D.Q = randF(R, {LfSeq, LfFeats}, -0.5, 0.5);
  D.K = randF(R, {LfSeq, LfFeats}, -0.5, 0.5);
  D.V = randF(R, {LfSeq, LfFeats}, -0.5, 0.5);
  D.LfY = Buffer(DataType::Float32, {LfSeq, LfFeats});
  D.Verts = Buffer(DataType::Float32, {SrFaces, 3, 2});
  for (int64_t F = 0; F < SrFaces; ++F) {
    const float Cx = R.uni(0, 1), Cy = R.uni(0, 1);
    for (int64_t J = 0; J < 3; ++J) {
      D.Verts.as<float>()[(F * 3 + J) * 2] = Cx + R.uni(-0.15f, 0.15f);
      D.Verts.as<float>()[(F * 3 + J) * 2 + 1] = Cy + R.uni(-0.15f, 0.15f);
    }
  }
  D.Px = Buffer(DataType::Float32, {SrImg * SrImg});
  D.Py = Buffer(DataType::Float32, {SrImg * SrImg});
  for (int64_t P = 0; P < SrImg * SrImg; ++P) {
    D.Px.as<float>()[P] = (float(P % SrImg) + 0.5f) / float(SrImg);
    D.Py.as<float>()[P] = (float(P / SrImg) + 0.5f) / float(SrImg);
  }
  D.Img = Buffer(DataType::Float32, {SrImg * SrImg});
  D.H = randF(R, {GatNodes, GatFeats}, -0.5, 0.5);
  D.GAdj = randIdx(R, {GatNodes, GatDeg}, GatNodes);
  D.A1 = randF(R, {GatFeats}, -0.3f, 0.3f);
  D.A2 = randF(R, {GatFeats}, -0.3f, 0.3f);
  D.GatY = Buffer(DataType::Float32, {GatNodes, GatFeats});
  D.G = skewedCsr(R, GraphNodes, GraphAvgDeg);
  D.Da = randF(R, {GraphNodes, GraphFeats}, -0.5, 0.5);
  D.Db = randF(R, {GraphNodes, GraphFeats}, -0.5, 0.5);
  D.Logits = Buffer(DataType::Float32, {D.G.Nnz});
  D.Hs = randF(R, {GraphNodes, GraphFeats}, -1, 1);
  for (int64_t I = 0; I < GraphNodes; ++I)
    D.Hs.as<float>()[I * GraphFeats] = 1.0f;
  D.Y1 = Buffer(DataType::Float32, {GraphNodes, GraphFeats});
  D.Y2 = Buffer(DataType::Float32, {GraphNodes, GraphFeats});
  return D;
}

Func buildProg(Prog P, const Dataset &D) {
  using namespace sz;
  Span S("frontend.build");
  switch (P) {
  case Subdivnet:
    return buildSubdivNet({SubFaces, SubFeats});
  case Longformer:
    return buildLongformer({LfSeq, LfFeats, LfW});
  case Softras:
    return buildSoftRas({SrFaces, SrImg, SrImg, float(SrSigma)});
  case Gat:
    return buildGAT({GatNodes, GatFeats, GatDeg});
  case Sddmm:
    return buildSDDMM({GraphNodes, GraphNodes, GraphFeats, GraphAvgDeg, 0},
                      D.G.Nnz);
  case Segsoftmax:
    return buildSegSoftmax({GraphNodes, GraphFeats, GraphAvgDeg, 0}, D.G.Nnz);
  case Spmm:
    return buildSpMM({GraphNodes, GraphNodes, GraphFeats, GraphAvgDeg, 0},
                     D.G.Nnz);
  }
  std::abort();
}

ArgMap argsOf(Prog P, Dataset &D) {
  switch (P) {
  case Subdivnet:
    return {{"e", &D.SubE}, {"adj", &D.SubAdj}, {"y", &D.SubY}};
  case Longformer:
    return {{"Q", &D.Q}, {"K", &D.K}, {"V", &D.V}, {"y", &D.LfY}};
  case Softras:
    return {{"verts", &D.Verts}, {"px", &D.Px}, {"py", &D.Py}, {"img", &D.Img}};
  case Gat:
    return {{"h", &D.H}, {"adj", &D.GAdj}, {"a1", &D.A1}, {"a2", &D.A2},
            {"y", &D.GatY}};
  case Sddmm:
    return {{"indptr", &D.G.Ptr}, {"indices", &D.G.Idx}, {"val", &D.G.Val},
            {"a", &D.Da},         {"b", &D.Db},          {"out_val", &D.Logits}};
  case Segsoftmax:
    return {{"indptr", &D.G.Ptr}, {"indices", &D.G.Idx}, {"e", &D.Logits},
            {"h", &D.Hs},         {"y", &D.Y1}};
  case Spmm:
    return {{"indptr", &D.G.Ptr}, {"indices", &D.G.Idx}, {"val", &D.G.Val},
            {"x", &D.Y1},         {"y", &D.Y2}};
  }
  std::abort();
}

Buffer &outOf(Prog P, Dataset &D) {
  Buffer *Outs[] = {&D.SubY, &D.LfY, &D.Img, &D.GatY, &D.Logits, &D.Y1, &D.Y2};
  return *Outs[P];
}

int64_t outSize(Prog P, const Dataset &D) {
  return outOf(P, const_cast<Dataset &>(D)).numel();
}

void naiveRun(Prog P, const Dataset &D, float *Out) {
  using namespace sz;
  const int64_t *Ptr = D.G.Ptr.as<int64_t>(), *Idx = D.G.Idx.as<int64_t>();
  switch (P) {
  case Subdivnet:
    return naive::subdivnet<float>(SubFaces, SubFeats, D.SubE.as<float>(),
                                   D.SubAdj.as<int64_t>(), Out);
  case Longformer:
    return naive::longformer<float>(LfSeq, LfFeats, LfW, D.Q.as<float>(),
                                    D.K.as<float>(), D.V.as<float>(), Out);
  case Softras:
    return naive::softras<float>(SrFaces, SrImg * SrImg, SrSigma,
                                 D.Verts.as<float>(), D.Px.as<float>(),
                                 D.Py.as<float>(), Out);
  case Gat:
    return naive::gat(GatNodes, GatFeats, GatDeg, D.H.as<float>(),
                      D.GAdj.as<int64_t>(), D.A1.as<float>(), D.A2.as<float>(),
                      Out);
  case Sddmm:
    return naive::sddmm(GraphNodes, GraphFeats, Ptr, Idx, D.G.Val.as<float>(),
                        D.Da.as<float>(), D.Db.as<float>(), Out);
  case Segsoftmax:
    return naive::segsoftmax(GraphNodes, GraphFeats, Ptr, Idx,
                             D.Logits.as<float>(), D.Hs.as<float>(), Out);
  case Spmm:
    return naive::spmm(GraphNodes, GraphFeats, Ptr, Idx, D.G.Val.as<float>(),
                       D.Y1.as<float>(), Out);
  }
}

Func schedule(const Func &F) {
  Span S("autoschedule");
  return autoScheduleFunc(F);
}

Kernel compileScheduled(const Func &In, const std::string &OptFlags) {
  if (tracer().armed()) {
    {
      Span S("codegen.emit");
      std::string Src = generateCpp(In);
      tracer().count("codegen.source_kb", double(Src.size()) / 1024.0);
      size_t Simd = 0;
      for (size_t At = Src.find("omp simd"); At != std::string::npos;
           At = Src.find("omp simd", At + 1))
        ++Simd;
      tracer().count("codegen.simd_loops", double(Simd));
    }
    Span S("kernel_cache.key");
    (void)kernel_cache::cacheKey(In, {}, OptFlags);
  }
  Span S("jit.miss");
  Result<Kernel> K = Kernel::compile(In, {}, OptFlags);
  if (!K.ok()) {
    std::fprintf(stderr, "perfbench: compile of %s failed: %s\n",
                 In.Name.c_str(), K.message().c_str());
    std::exit(3);
  }
  if (K->cacheTier() != KernelCacheTier::Compiled)
    S.rename(K->cacheTier() == KernelCacheTier::Disk ? "kernel_cache.disk_hit"
                                                     : "kernel_cache.mem_hit");
  return *K;
}

std::vector<Kernel> compileAll(const std::vector<CompileJob> &Jobs,
                               int Threads) {
  std::vector<Kernel> Out(Jobs.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();)
      Out[I] = compileScheduled(Jobs[I].In, Jobs[I].OptFlags);
  };
  std::vector<std::thread> Pool;
  for (int T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

bool runKernel(const Kernel &K, const ArgMap &Args) {
  Span S("rt.run");
  Status St = K.run(Args);
  if (!St.ok())
    std::fprintf(stderr, "perfbench: kernel run failed: %s\n",
                 St.message().c_str());
  return St.ok();
}

void countRtStats(const Kernel &K, const KernelRtStats &Before) {
  KernelRtStats A = K.rtStats();
  if (!A.Valid || A.Invocations <= Before.Invocations)
    return;
  const double Calls = double(A.Invocations - Before.Invocations);
  tracer().count("rt.parallel_fors_per_call",
                 double(A.ParallelFors - Before.ParallelFors) / Calls);
  tracer().count("rt.allocs_per_call",
                 double(A.AllocCount - Before.AllocCount) / Calls);
  tracer().count("rt.peak_kb", double(A.PeakBytes) / 1024.0);
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

bool checkClose(RunResult &R, const std::string &What, const float *Got,
                const float *Want, int64_t N, double Rtol, double Atol) {
  for (int64_t I = 0; I < N; ++I) {
    const double G = Got[I], W = Want[I];
    if (!(std::abs(G - W) <= Atol + Rtol * std::abs(W))) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "%s: element %lld is %.9g, want %.9g",
                    What.c_str(), static_cast<long long>(I), G, W);
      R.reject(Buf);
      return false;
    }
  }
  return true;
}

bool checkProg(RunResult &R, Prog P, const Dataset &D, const float *Got) {
  const int64_t N = outSize(P, D);
  std::vector<float> Want(N);
  naiveRun(P, D, Want.data());
  return checkClose(R, nameOf(P), Got, Want.data(), N, 1e-3, 1e-4) &&
         checkInvariants(R, P, D, Got);
}

bool checkInvariants(RunResult &R, Prog P, const Dataset &D,
                     const float *Got) {
  using namespace sz;
  if (P == Gat) {
    const float *H = D.H.as<float>();
    const int64_t *Adj = D.GAdj.as<int64_t>();
    for (int64_t I = 0; I < GatNodes; ++I)
      for (int64_t K = 0; K < GatFeats; ++K) {
        float Lo = 1e30f, Hi = -1e30f;
        for (int64_t M = 0; M < GatDeg; ++M) {
          Lo = std::min(Lo, H[Adj[I * GatDeg + M] * GatFeats + K]);
          Hi = std::max(Hi, H[Adj[I * GatDeg + M] * GatFeats + K]);
        }
        const float Y = Got[I * GatFeats + K];
        if (!(Y >= Lo - 1e-5f && Y <= Hi + 1e-5f)) {
          R.reject("gat: row " + std::to_string(I) +
                   " leaves its neighbours' feature range");
          return false;
        }
      }
  }
  if (P == Softras)
    for (int64_t I = 0; I < SrImg * SrImg; ++I)
      if (!(Got[I] >= 0.0f && Got[I] <= 1.0f)) {
        R.reject("softras: pixel " + std::to_string(I) + " outside [0, 1]");
        return false;
      }
  if (P == Segsoftmax) {
    const int64_t *Ptr = D.G.Ptr.as<int64_t>();
    for (int64_t I = 0; I < GraphNodes; ++I) {
      const double Want = Ptr[I + 1] > Ptr[I] ? 1.0 : 0.0;
      if (!(std::abs(Got[I * GraphFeats] - Want) <= 1e-4)) {
        R.reject("segsoftmax: weights of row " + std::to_string(I) +
                 " sum to " + std::to_string(Got[I * GraphFeats]));
        return false;
      }
    }
  }
  return true;
}

void poison(Buffer &B) {
  float *X = B.as<float>();
  std::fill(X, X + B.numel(), std::numeric_limits<float>::quiet_NaN());
}

bool produceChecked(const std::vector<Buffer *> &Outs,
                    const std::function<bool()> &Produce,
                    const std::function<void()> &Check) {
  for (Buffer *B : Outs)
    poison(*B);
  if (!Produce())
    return false;
  Check();
  return true;
}

bool checkMiss(RunResult &R, const std::string &What, KernelCacheTier T) {
  if (T == KernelCacheTier::Compiled)
    return true;
  R.reject(What + ": cold compile was a cache " + nameOf(T) + " hit");
  return false;
}

bool checkBitIdentical(RunResult &R, const std::string &What,
                       const Buffer &First, const Buffer &Again) {
  if (First.sizeBytes() == Again.sizeBytes() &&
      std::memcmp(First.raw(), Again.raw(), First.sizeBytes()) == 0)
    return true;
  R.reject(What + ": disk re-acquisition gave different outputs");
  return false;
}

bool checkReacquired(RunResult &R, const std::string &What, Buffer &Out,
                     const std::function<bool()> &First,
                     const std::function<bool()> &Again) {
  if (!First()) {
    R.reject(What + ": the cold-compiled kernel failed to run");
    return false;
  }
  const Buffer Kept = Out;
  poison(Out);
  if (!Again()) {
    R.reject(What + ": the re-acquired kernel failed to run");
    return false;
  }
  return checkBitIdentical(R, What, Kept, Out);
}

bool checkJitServed(RunResult &R, const std::string &What, bool ServedByJit) {
  if (!ServedByJit)
    R.reject(What + ": a warm request was served by the interpreter");
  return ServedByJit;
}

bool checkGrad(RunResult &R, const GradCheck &C) {
  std::vector<std::vector<double>> X;
  for (const Buffer *B : C.Inputs)
    X.emplace_back(B->as<float>(), B->as<float>() + B->numel());
  std::vector<double> YP, YM;
  const double Step = 1e-6;
  for (size_t T = 0; T < X.size(); ++T)
    for (int64_t At : C.Picks[T]) {
      const double X0 = X[T][At];
      X[T][At] = X0 + Step;
      C.Fwd64(X, YP);
      X[T][At] = X0 - Step;
      C.Fwd64(X, YM);
      X[T][At] = X0;
      double Fd = 0;
      for (size_t I = 0; I < YP.size(); ++I)
        Fd += double(C.Wts[I]) * (YP[I] - YM[I]);
      Fd /= 2 * Step;
      const double G = C.Grads[T][At];
      if (!(std::abs(G - Fd) <= 1e-3 + 2e-3 * std::abs(Fd))) {
        char Buf[200];
        std::snprintf(Buf, sizeof(Buf),
                      "%s: gradient of input %zu entry %lld is %.9g, central "
                      "difference %.9g",
                      C.Name.c_str(), T, static_cast<long long>(At), G, Fd);
        R.reject(Buf);
        return false;
      }
    }
  return true;
}

GradCheck gradCheckFor(Prog P, const Dataset &D, Rng &Pick, int Samples) {
  using namespace sz;
  GradCheck C;
  C.Name = std::string(nameOf(P)) + " grad";
  int64_t NOut = 0;
  switch (P) {
  case Subdivnet: {
    C.Names = {"e"};
    C.Inputs = {&D.SubE};
    const int64_t *Adj = D.SubAdj.as<int64_t>();
    C.Fwd64 = [Adj](const std::vector<std::vector<double>> &X,
                    std::vector<double> &Y) {
      Y.resize(SubFaces * SubFeats);
      naive::subdivnet<double>(SubFaces, SubFeats, X[0].data(), Adj, Y.data());
    };
    NOut = SubFaces * SubFeats;
    break;
  }
  case Longformer:
    C.Names = {"Q", "K", "V"};
    C.Inputs = {&D.Q, &D.K, &D.V};
    C.Fwd64 = [](const std::vector<std::vector<double>> &X,
                 std::vector<double> &Y) {
      Y.resize(LfSeq * LfFeats);
      naive::longformer<double>(LfSeq, LfFeats, LfW, X[0].data(), X[1].data(),
                                X[2].data(), Y.data());
    };
    NOut = LfSeq * LfFeats;
    break;
  case Softras: {
    C.Names = {"verts"};
    C.Inputs = {&D.Verts};
    const float *Px = D.Px.as<float>(), *Py = D.Py.as<float>();
    C.Fwd64 = [Px, Py](const std::vector<std::vector<double>> &X,
                       std::vector<double> &Y) {
      const int64_t NP = SrImg * SrImg;
      std::vector<double> PX(Px, Px + NP), PY(Py, Py + NP);
      Y.resize(NP);
      naive::softras<double>(SrFaces, NP, SrSigma, X[0].data(), PX.data(),
                             PY.data(), Y.data());
    };
    NOut = SrImg * SrImg;
    break;
  }
  default:
    std::abort();
  }
  for (const Buffer *B : C.Inputs) {
    std::vector<int64_t> Ix;
    for (int S = 0; S < Samples && S < B->numel(); ++S)
      Ix.push_back(Samples >= B->numel() ? S : Pick.below(B->numel()));
    C.Picks.push_back(std::move(Ix));
  }
  for (int64_t I = 0; I < NOut; ++I)
    C.Wts.push_back(Pick.uni(-1, 1));
  return C;
}

//===----------------------------------------------------------------------===//
// Reverse mode
//===----------------------------------------------------------------------===//

namespace {

std::vector<int64_t> constShape(const Func &F, const std::string &Name) {
  std::vector<int64_t> Shape;
  for (const Expr &E : findVarDef(F.Body, Name)->Info.Shape) {
    auto IC = dyn_cast<IntConstNode>(E);
    ftAssert(IC != nullptr, "tape " + Name + " is not constant-shaped");
    Shape.push_back(IC->Val);
  }
  return Shape;
}

} // namespace

void bindGrad(GradOp &Op, Dataset &D) {
  const ArgMap Primal = argsOf(Op.P, D);
  const std::string Out = Op.G.SeedNames.begin()->first;
  auto Bind = [&](const std::string &Name) -> Buffer * {
    if (auto It = Primal.find(Name); It != Primal.end() && Name != Out)
      return It->second;
    auto It = Op.Own.find(Name);
    if (It != Op.Own.end())
      return &It->second;
    std::vector<int64_t> Shape;
    DataType DT = DataType::Float32;
    if (Name == Out) {
      Shape = Primal.at(Out)->shape();
    } else if (auto S = Op.G.SeedNames.find(Out);
               S != Op.G.SeedNames.end() && S->second == Name) {
      Buffer Seed = Buffer::fromF32(Primal.at(Out)->shape(), Op.Check.Wts);
      return &Op.Own.emplace(Name, std::move(Seed)).first->second;
    } else {
      for (const auto &[X, GName] : Op.G.GradNames)
        if (GName == Name)
          Shape = Primal.at(X)->shape();
      if (Shape.empty()) { // a tape
        Shape = constShape(Op.G.Forward, Name);
        DT = findVarDef(Op.G.Forward.Body, Name)->Info.Dtype;
      }
    }
    return &Op.Own.emplace(Name, Buffer(DT, Shape)).first->second;
  };
  for (const std::string &N : Op.G.Forward.Params)
    Op.FwdArgs[N] = Bind(N);
  for (const std::string &N : Op.G.Backward.Params)
    Op.BwdArgs[N] = Bind(N);
  for (const std::string &X : Op.Check.Names)
    Op.Check.Grads.push_back(Op.Own.at(Op.G.GradNames.at(X)).as<float>());
}

Buffer &gradOut(GradOp &Op) {
  return Op.Own.at(Op.G.SeedNames.begin()->first);
}

bool runGrad(const GradOp &Op) {
  return runKernel(Op.Fwd, Op.FwdArgs) && runKernel(Op.Bwd, Op.BwdArgs);
}

} // namespace pb
