//===- perfbench/src/programs.h - Programs, inputs and checks ----*- C++ -*-===//
///
/// \file
/// The seven static programs the kernels workload runs (the
/// four paper programs and the three sparse kernels of the GNN chain), the
/// seeded inputs they run on, the calls into the library that take a
/// program from the DSL to a loaded kernel, and the output checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autodiff/grad.h"
#include "codegen/jit.h"
#include "interp/buffer.h"
#include "ir/func.h"

#include "common.h"

namespace pb {

using ft::Buffer;
using ArgMap = std::map<std::string, Buffer *>;

/// Problem sizes (CPU-sized; the paper's shapes are GPU-scale).
namespace sz {
inline constexpr int64_t SubFaces = 4096, SubFeats = 64;
inline constexpr int64_t LfSeq = 512, LfFeats = 64, LfW = 32;
inline constexpr int64_t SrFaces = 128, SrImg = 32;
inline constexpr double SrSigma = 0.05;
inline constexpr int64_t GatNodes = 2048, GatFeats = 32, GatDeg = 8;
inline constexpr int64_t GraphNodes = 2048, GraphFeats = 64, GraphAvgDeg = 16;
} // namespace sz

enum Prog { Subdivnet, Longformer, Softras, Gat, Sddmm, Segsoftmax, Spmm };
inline constexpr Prog AllProgs[] = {Subdivnet, Longformer, Softras, Gat,
                                    Sddmm,     Segsoftmax, Spmm};
const char *nameOf(Prog P);

/// The program groups ratios are reported by: the four paper programs
/// (pooled into dense_rel), and "sparse" for the SDDMM -> segment-softmax
/// -> SpMM chain (sparse_rel).
inline constexpr const char *Groups[] = {"subdivnet", "longformer", "softras",
                                         "gat", "sparse"};

Buffer randF(Rng &R, std::vector<int64_t> Shape, float Lo, float Hi);
Buffer randIdx(Rng &R, std::vector<int64_t> Shape, int64_t Hi);

/// A CSR graph with skewed row degrees: one row in eight is empty, the
/// rest draw floor(AvgDeg/4 * u^-3/4), u uniform, capped at 16 * AvgDeg
/// (a heavy tail with mean about AvgDeg). Columns are uniform.
struct Csr {
  int64_t Rows = 0, Nnz = 0;
  Buffer Ptr, Idx, Val;
};
Csr skewedCsr(Rng &R, int64_t Rows, int64_t AvgDeg);

/// Every buffer the seven programs read and write, drawn from one seed.
/// The sparse chain shares one graph: SDDMM writes edge logits, which
/// segment-softmax normalizes to aggregate `Hs` into Y1, which SpMM
/// propagates into Y2. Column 0 of Hs is all ones, so column 0 of Y1 is a
/// segment's softmax weight sum.
struct Dataset {
  Buffer SubE, SubAdj, SubY;
  Buffer Q, K, V, LfY;
  Buffer Verts, Px, Py, Img;
  Buffer H, GAdj, A1, A2, GatY;
  Csr G;
  Buffer Da, Db, Logits, Hs, Y1, Y2;
};
Dataset makeDataset(uint64_t Seed);

/// Builds \p P's DSL program (a "frontend.build" span).
ft::Func buildProg(Prog P, const Dataset &D);
ArgMap argsOf(Prog P, Dataset &D);
Buffer &outOf(Prog P, Dataset &D);
int64_t outSize(Prog P, const Dataset &D);
/// The reference computation of \p P on \p D's inputs into \p Out.
void naiveRun(Prog P, const Dataset &D, float *Out);

/// autoScheduleFunc in an "autoschedule" span.
ft::Func schedule(const ft::Func &F);
/// Kernel::compile of an already scheduled program, in a span named by the
/// cache tier it ended in ("jit.miss", "kernel_cache.disk_hit" or
/// "kernel_cache.mem_hit"). In traced mode also times generateCpp and
/// cacheKey on the same program and records its source size and `omp simd`
/// loops. Exits the run on a compile error.
ft::Kernel compileScheduled(const ft::Func &In, const std::string &OptFlags);
/// One program to compile and the host-compiler flags to compile it with.
struct CompileJob {
  ft::Func In;
  std::string OptFlags;
};
/// compileScheduled over \p Jobs on up to \p Threads threads.
std::vector<ft::Kernel> compileAll(const std::vector<CompileJob> &Jobs,
                                   int Threads);
/// Runs \p K once (an "rt.run" span); false on a run error.
bool runKernel(const ft::Kernel &K, const ArgMap &Args);
/// Records per-call runtime counters of \p K since \p Before.
void countRtStats(const ft::Kernel &K, const ft::KernelRtStats &Before);

//===----------------------------------------------------------------------===//
// Checks. Each returns true when the output is accepted; a rejection is
// recorded in \p R.
//===----------------------------------------------------------------------===//

bool checkClose(RunResult &R, const std::string &What, const float *Got,
                const float *Want, int64_t N, double Rtol, double Atol);
/// \p Got against the reference computed from \p D, then checkInvariants.
bool checkProg(RunResult &R, Prog P, const Dataset &D, const float *Got);
/// The program's invariants: GAT rows within their neighbours' min/max
/// (the attention weights sum to 1), SoftRas pixels in [0, 1],
/// segment-softmax weight sums equal to 1 on non-empty rows.
bool checkInvariants(RunResult &R, Prog P, const Dataset &D,
                     const float *Got);
/// Fills \p B with NaN.
void poison(Buffer &B);
/// Fills \p Outs with NaN, runs \p Produce and, when it succeeds, \p Check.
/// An output that Produce leaves unwritten then fails Check instead of
/// passing on what an earlier run left in the buffer. Returns Produce's
/// result.
bool produceChecked(const std::vector<Buffer *> &Outs,
                    const std::function<bool()> &Produce,
                    const std::function<void()> &Check);
/// A cold compile must have run the host compiler.
bool checkMiss(RunResult &R, const std::string &What, ft::KernelCacheTier T);
/// A disk re-acquisition must reproduce the first handle's output exactly.
bool checkBitIdentical(RunResult &R, const std::string &What,
                       const Buffer &First, const Buffer &Again);
/// Runs \p First (the kernel compiled cold) into \p Out, keeps a copy, then
/// runs \p Again (the kernel re-acquired from disk) into Out filled with NaN
/// and checks the two outputs with checkBitIdentical. A failed run is a
/// rejection.
bool checkReacquired(RunResult &R, const std::string &What, Buffer &Out,
                     const std::function<bool()> &First,
                     const std::function<bool()> &Again);
/// A served request must have been answered by the JIT tier.
bool checkJitServed(RunResult &R, const std::string &What, bool ServedByJit);

/// Gradient of L = sum(Wts * y) from a reverse-mode program, checked on
/// \p Samples seeded entries of each input against central differences of
/// the double-precision reference forward \p Fwd64.
struct GradCheck {
  std::string Name;
  std::vector<std::string> Names;          ///< Differentiated inputs...
  std::vector<const Buffer *> Inputs;      ///< ...and their buffers.
  std::vector<const float *> Grads;        ///< Their gradients.
  std::vector<std::vector<int64_t>> Picks; ///< Seeded flat indices.
  std::vector<float> Wts;                  ///< Output weights.
  std::function<void(const std::vector<std::vector<double>> &,
                     std::vector<double> &)>
      Fwd64;
};
bool checkGrad(RunResult &R, const GradCheck &C);

/// The double-precision forward of a differentiable program on the given
/// inputs (in Inputs order) and the entries to probe.
GradCheck gradCheckFor(Prog P, const Dataset &D, Rng &Pick, int Samples);

/// A reverse-mode pair of one differentiable program with its own tapes,
/// output seed, gradients and forward output; the primal inputs are the
/// Dataset's.
struct GradOp {
  Prog P;
  ft::GradResult G;
  ft::Kernel Fwd, Bwd;
  std::map<std::string, Buffer> Own;
  ArgMap FwdArgs, BwdArgs;
  GradCheck Check;
};
/// Binds \p Op's buffers (inputs from \p D, everything else owned, the
/// output seed from Op.Check.Wts) and points Op.Check.Grads at the
/// gradients.
void bindGrad(GradOp &Op, Dataset &D);
/// The forward output of \p Op.
Buffer &gradOut(GradOp &Op);
/// Op.Fwd then Op.Bwd; false on a run error.
bool runGrad(const GradOp &Op);

} // namespace pb

#endif // PERFBENCH_PROGRAMS_H
