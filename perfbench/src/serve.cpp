//===- perfbench/src/serve.cpp - The `serve` workload ---------------------===//
//
// A warm serve::Executor answers small requests on the shape-generic forms
// of the four paper programs and the sparse chain. The input sets of each
// program span several shapes, one specialization bucket each; every
// bucket's specialization lands in set-up (compiled ahead into the private
// disk cache, then nominated by the executor itself). Each request is
// timed next to the same request answered by a
// reference dispatcher the benchmark owns (RefServer below) that runs the
// benchmark's naive loops. First
// one closed-loop client alternates executor and reference requests; then
// a few concurrent clients load each side in alternating slices. A group's
// metric is the geometric mean of its lone and concurrent latency ratios,
// so a change that helps lone requests but costs concurrent throughput
// shows.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>

#include "analysis/extents.h"
#include "analysis/ragged.h"
#include "codegen/kernel_cache.h"
#include "pass/simplify.h"
#include "pass/specialize.h"
#include "serve/serve.h"
#include "workloads/sparse_workloads.h"
#include "workloads/workloads.h"

#include "naive.h"
#include "programs.h"
#include "runs.h"

namespace pb {

using namespace ft;
using namespace ft::workloads;

namespace {

constexpr int Clients = 3;      ///< Concurrent clients (<= nproc).
constexpr int Sets = 12;        ///< Input sets per group.
constexpr int64_t Feats = 16;   ///< Feature width of every served program.
constexpr int64_t GraphM = 64;  ///< Nodes of every served graph.
constexpr int64_t SrSide = 8;   ///< SoftRas image side (64 pixels).
constexpr int64_t LfW = 4, GatDeg = 4;
constexpr double SliceSec = 0.25; ///< Concurrent-phase slice length.
constexpr int NGroups = 5;
constexpr int ExecSide = 0, RefSide = 1; ///< Whose output buffers.

/// The extents the input sets of each dense program draw from (SubdivNet
/// faces, Longformer tokens, SoftRas faces, GAT nodes), one
/// specialization bucket each: at most Config::SpecializeMax (4) per
/// program, and each divides Sets, so every extent gets the same number of
/// sets whatever the seed.
const std::vector<int64_t> DenseExtents[4] = {
    {48, 64, 80, 96}, {32, 48, 64}, {8, 12, 16}, {48, 64, 96}};
/// The sparse sets' nnz octaves (Lo, 2 Lo], one bucket each, and the mean
/// row degree their graphs are drawn with.
constexpr int64_t NnzLo[] = {64, 128}, NnzDeg[] = {2, 3};
constexpr int NBuckets[NGroups] = {4, 3, 3, 3, 2};

int groupOf(Prog P) { return P >= Sddmm ? 4 : int(P); }

/// A dense group is one program; the sparse group is the chain.
std::vector<Prog> progsOf(int G) {
  return G < 4 ? std::vector<Prog>{Prog(G)}
               : std::vector<Prog>{Sddmm, Segsoftmax, Spmm};
}

/// One request's inputs and the reference outputs of each of its stages.
struct InputSet {
  std::map<std::string, Buffer> In;
  std::vector<std::vector<float>> Want;
};

/// Output buffers of one (client, set): the stage outputs of its group.
using OutBufs = std::vector<Buffer>;

std::vector<Buffer *> ptrs(OutBufs &Out) {
  std::vector<Buffer *> P;
  for (Buffer &B : Out)
    P.push_back(&B);
  return P;
}

/// The reference dispatcher: the executor's serving policy when this
/// benchmark was written (a worker takes the oldest request, then collects
/// same-program requests for a fixed 200 us window, at most 16, and runs
/// them back to back), implemented plainly over one mutex and condition
/// variable, in front of the benchmark's naive loops. Like the executor's
/// latency, its latency is mostly that timed window, so their ratio is
/// steady; removing the executor's window shows as a large drop.
class RefServer {
public:
  static constexpr auto Window = std::chrono::microseconds(200);
  static constexpr size_t MaxBatch = 16;

  explicit RefServer(int N) {
    for (int I = 0; I < N; ++I)
      Workers.emplace_back([this] { loop(); });
  }
  ~RefServer() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Cv.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }
  RefServer(const RefServer &) = delete;
  RefServer &operator=(const RefServer &) = delete;

  /// Runs \p Job, a request for program \p Key, and waits for it.
  void run(int Key, std::function<void()> Job) {
    std::packaged_task<void()> Task(std::move(Job));
    std::future<void> Done = Task.get_future();
    {
      std::lock_guard<std::mutex> L(Mu);
      Q.push_back({Key, std::move(Task)});
    }
    Cv.notify_all();
    Done.get();
  }

private:
  struct Job {
    int Key;
    std::packaged_task<void()> Task;
  };

  /// Moves queued jobs for \p Key into \p Batch (caller holds Mu).
  void take(int Key, std::vector<Job> &Batch) {
    for (auto It = Q.begin(); It != Q.end() && Batch.size() < MaxBatch;)
      if (It->Key == Key) {
        Batch.push_back(std::move(*It));
        It = Q.erase(It);
      } else {
        ++It;
      }
  }

  void loop() {
    std::vector<Job> Batch;
    for (;;) {
      Batch.clear();
      {
        std::unique_lock<std::mutex> L(Mu);
        Cv.wait(L, [&] { return Stop || !Q.empty(); });
        if (Q.empty())
          return;
        Batch.push_back(std::move(Q.front()));
        Q.pop_front();
        const int Key = Batch.front().Key;
        const Clock::time_point Deadline = Clock::now() + Window;
        for (;;) {
          take(Key, Batch);
          if (Batch.size() >= MaxBatch || Stop)
            break;
          if (Cv.wait_until(L, Deadline) == std::cv_status::timeout) {
            take(Key, Batch);
            break;
          }
        }
      }
      for (Job &J : Batch)
        J.Task();
    }
  }
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Job> Q;
  bool Stop = false;
  std::vector<std::thread> Workers;
};

/// Per-request observations of the executor side.
struct ReqStats {
  std::vector<double> SubmitUs, QueueUs, ExecUs, WakeUs, Batch;
  uint64_t Specialized = 0, Served = 0;
};

class ServeBench {
public:
  ServeBench(const Options &O, RunResult &R) : O(O), R(R) {}
  int run();

private:
  void makeInputs();
  int64_t extentOf(Prog P, int Set) const {
    return DenseExtents[P][Bucket[P][Set]];
  }
  ArgMap argsFor(Prog P, int Set, OutBufs &Out);
  /// \p P specialized to \p Set's shape bucket as the executor does it:
  /// dense extents folded, ragged ones kept symbolic, then simplified and
  /// autoscheduled.
  Func specialized(Prog P, int Set);
  /// One group request through the executor; false on a failed submit or
  /// response. \p Lat gets the client-observed seconds.
  bool execRequest(int G, int Set, OutBufs &Out, double &Lat, ReqStats &St);
  /// The same request through the reference dispatcher.
  void refRequest(int G, int Set, OutBufs &Out, double &Lat);
  /// execRequest and refRequest into outputs filled with NaN, each stage
  /// output then checked against the set's reference (recorded in \p Rc).
  bool checkedExec(RunResult &Rc, int G, int Set, OutBufs &Out,
                   const std::string &Who, double &Lat, ReqStats &St);
  void checkedRef(RunResult &Rc, int G, int Set, OutBufs &Out,
                  const std::string &Who, double &Lat);
  void naiveStage(Prog P, int Set, const OutBufs &Out, float *Dst);
  /// Each stage output of \p Out against the set's reference.
  void checkOut(RunResult &Rc, int G, int Set, const OutBufs &Out,
                const std::string &Who);
  OutBufs &outs(int Side, int Client, int G, int Set) {
    return OutStore[((Side * Clients + Client) * NGroups + G) * Sets + Set];
  }

  const Options &O;
  RunResult &R;
  std::map<Prog, Func> F;
  int Bucket[NGroups][Sets]; ///< The seeded shape bucket of each set.
  InputSet In[NGroups][Sets];
  std::vector<OutBufs> OutStore;
  serve::Config Cfg = serve::Config::fromEnv();
  std::unique_ptr<serve::Executor> Ex;
  std::unique_ptr<RefServer> Ref;
  std::atomic<uint64_t> Failed{0}, NotJit{0};
};

void ServeBench::makeInputs() {
  Rng Rg(O.Seed ^ 0x7365727665ull);
  // Each group's sets take the buckets in a seeded order, every bucket
  // Sets / NBuckets times.
  for (int G = 0; G < NGroups; ++G) {
    int Perm[Sets];
    for (int S = 0; S < Sets; ++S)
      Perm[S] = S;
    for (int S = Sets - 1; S > 0; --S)
      std::swap(Perm[S], Perm[Rg.below(S + 1)]);
    for (int S = 0; S < Sets; ++S)
      Bucket[G][S] = Perm[S] % NBuckets[G];
  }
  for (int S = 0; S < Sets; ++S) {
    auto &Sub = In[Subdivnet][S].In;
    const int64_t NS = extentOf(Subdivnet, S);
    Sub.emplace("n", Buffer::scalarI64(NS));
    Sub.emplace("e", randF(Rg, {NS, Feats}, -1, 1));
    Sub.emplace("adj", randIdx(Rg, {NS, 3}, NS));
    auto &Lf = In[Longformer][S].In;
    const int64_t NL = extentOf(Longformer, S);
    Lf.emplace("n", Buffer::scalarI64(NL));
    for (const char *X : {"Q", "K", "V"})
      Lf.emplace(X, randF(Rg, {NL, Feats}, -0.5, 0.5));
    auto &Sr = In[Softras][S].In;
    const int64_t NF = extentOf(Softras, S), NP = SrSide * SrSide;
    Sr.emplace("nf", Buffer::scalarI64(NF));
    Sr.emplace("np", Buffer::scalarI64(NP));
    Buffer Verts(DataType::Float32, {NF, 3, 2});
    for (int64_t I = 0; I < NF; ++I) {
      const float Cx = Rg.uni(0, 1), Cy = Rg.uni(0, 1);
      for (int64_t J = 0; J < 3; ++J) {
        Verts.as<float>()[(I * 3 + J) * 2] = Cx + Rg.uni(-0.3f, 0.3f);
        Verts.as<float>()[(I * 3 + J) * 2 + 1] = Cy + Rg.uni(-0.3f, 0.3f);
      }
    }
    Sr.emplace("verts", std::move(Verts));
    Buffer Px(DataType::Float32, {NP}), Py(DataType::Float32, {NP});
    for (int64_t P = 0; P < NP; ++P) {
      Px.as<float>()[P] = (float(P % SrSide) + 0.5f) / float(SrSide);
      Py.as<float>()[P] = (float(P / SrSide) + 0.5f) / float(SrSide);
    }
    Sr.emplace("px", std::move(Px));
    Sr.emplace("py", std::move(Py));
    auto &Ga = In[Gat][S].In;
    const int64_t NG = extentOf(Gat, S);
    Ga.emplace("n", Buffer::scalarI64(NG));
    Ga.emplace("h", randF(Rg, {NG, Feats}, -0.5, 0.5));
    Ga.emplace("adj", randIdx(Rg, {NG, GatDeg}, NG));
    Ga.emplace("a1", randF(Rg, {Feats}, -0.3f, 0.3f));
    Ga.emplace("a2", randF(Rg, {Feats}, -0.3f, 0.3f));
    // The set's nnz octave is its specialization bucket.
    const int Oct = Bucket[4][S];
    Csr G;
    do
      G = skewedCsr(Rg, GraphM, NnzDeg[Oct]);
    while (G.Nnz <= NnzLo[Oct] || G.Nnz > 2 * NnzLo[Oct]);
    auto &Sp = In[4][S].In;
    Sp.emplace("m", Buffer::scalarI64(GraphM));
    Sp.emplace("nnz", Buffer::scalarI64(G.Nnz));
    Sp.emplace("indptr", std::move(G.Ptr));
    Sp.emplace("indices", std::move(G.Idx));
    Sp.emplace("val", std::move(G.Val));
    Sp.emplace("a", randF(Rg, {GraphM, Feats}, -0.5, 0.5));
    Sp.emplace("b", randF(Rg, {GraphM, Feats}, -0.5, 0.5));
    Sp.emplace("h", randF(Rg, {GraphM, Feats}, -1, 1));
  }
  // Output buffers per (side, client, group, set); reference outputs per
  // set.
  auto Fresh = [&](int G, int S) {
    OutBufs B;
    switch (G) {
    case Subdivnet:
    case Longformer:
    case Gat:
      B.emplace_back(DataType::Float32,
                     std::vector<int64_t>{extentOf(Prog(G), S), Feats});
      break;
    case Softras:
      B.emplace_back(DataType::Float32, std::vector<int64_t>{SrSide * SrSide});
      break;
    default:
      B.emplace_back(DataType::Float32, In[4][S].In.at("val").shape());
      B.emplace_back(DataType::Float32, std::vector<int64_t>{GraphM, Feats});
      B.emplace_back(DataType::Float32, std::vector<int64_t>{GraphM, Feats});
    }
    return B;
  };
  for (int Side = 0; Side < 2; ++Side)
    for (int C = 0; C < Clients; ++C)
      for (int G = 0; G < NGroups; ++G)
        for (int S = 0; S < Sets; ++S)
          OutStore.push_back(Fresh(G, S));
  for (int G = 0; G < NGroups; ++G)
    for (int S = 0; S < Sets; ++S) {
      OutBufs Tmp = outs(ExecSide, 0, G, S);
      std::vector<Prog> Ps = progsOf(G);
      for (size_t K = 0; K < Ps.size(); ++K) {
        naiveStage(Ps[K], S, Tmp, Tmp[K].as<float>());
        In[G][S].Want.emplace_back(Tmp[K].as<float>(),
                                   Tmp[K].as<float>() + Tmp[K].numel());
      }
    }
}

void ServeBench::naiveStage(Prog P, int Set, const OutBufs &Out, float *Dst) {
  const auto &I = In[groupOf(P)][Set].In;
  auto F32 = [&](const char *N) { return I.at(N).as<float>(); };
  auto I64 = [&](const char *N) { return I.at(N).as<int64_t>(); };
  switch (P) {
  case Subdivnet:
    return naive::subdivnet<float>(extentOf(P, Set), Feats, F32("e"), I64("adj"),
                                   Dst);
  case Longformer:
    return naive::longformer<float>(extentOf(P, Set), Feats, LfW, F32("Q"),
                                    F32("K"), F32("V"), Dst);
  case Softras:
    return naive::softras<float>(extentOf(P, Set), SrSide * SrSide, 0.05,
                                 F32("verts"), F32("px"), F32("py"), Dst);
  case Gat:
    return naive::gat(extentOf(P, Set), Feats, GatDeg, F32("h"), I64("adj"),
                      F32("a1"), F32("a2"), Dst);
  case Sddmm:
    return naive::sddmm(GraphM, Feats, I64("indptr"), I64("indices"),
                        F32("val"), F32("a"), F32("b"), Dst);
  case Segsoftmax:
    return naive::segsoftmax(GraphM, Feats, I64("indptr"), I64("indices"),
                             Out[0].as<float>(), F32("h"), Dst);
  case Spmm:
    return naive::spmm(GraphM, Feats, I64("indptr"), I64("indices"),
                       F32("val"), Out[1].as<float>(), Dst);
  }
}

ArgMap ServeBench::argsFor(Prog P, int Set, OutBufs &Out) {
  ArgMap A;
  for (auto &[N, B] : In[groupOf(P)][Set].In)
    A[N] = &B;
  switch (P) {
  case Subdivnet:
  case Longformer:
  case Gat:
    A["y"] = &Out[0];
    break;
  case Softras:
    A["img"] = &Out[0];
    break;
  case Sddmm:
    A["out_val"] = &Out[0];
    A.erase("h");
    break;
  case Segsoftmax:
    A["e"] = &Out[0];
    A["y"] = &Out[1];
    for (const char *X : {"val", "a", "b"})
      A.erase(X);
    break;
  case Spmm:
    A["x"] = &Out[1];
    A["y"] = &Out[2];
    for (const char *X : {"a", "b", "h"})
      A.erase(X);
    break;
  }
  return A;
}

Func ServeBench::specialized(Prog P, int Set) {
  const ArgMap A = argsFor(P, Set, outs(ExecSide, 0, groupOf(P), Set));
  std::map<std::string, int64_t> Ext;
  (void)bindExtentArgs(extentParamsOf(F.at(P)), A, Ext);
  for (const std::string &N : analyzeRagged(F.at(P)).RaggedExtents)
    Ext.erase(N);
  return schedule(simplify(specializeFunc(F.at(P), Ext)));
}

bool ServeBench::execRequest(int G, int Set, OutBufs &Out, double &Lat,
                             ReqStats &St) {
  Span Op("op");
  const Clock::time_point T0 = Clock::now();
  bool Ok = true;
  for (Prog P : progsOf(G)) {
    const ArgMap A = argsFor(P, Set, Out);
    const double S0 = secondsSince(processStart());
    const Clock::time_point A0 = Clock::now();
    auto Fut = Ex->submit(F.at(P), A);
    const double SubmitSec = secondsSince(A0);
    if (!Fut.ok()) {
      std::fprintf(stderr, "perfbench: submit failed: %s\n",
                   Fut.message().c_str());
      Ok = false;
      break;
    }
    const serve::Response Resp = (*Fut).get();
    const double Total = secondsSince(A0);
    if (!Resp.S.ok()) {
      std::fprintf(stderr, "perfbench: %s request failed: %s\n", nameOf(P),
                   Resp.S.message().c_str());
      Ok = false;
      break;
    }
    if (Resp.ServedBy != serve::Tier::Jit)
      ++NotJit;
    St.SubmitUs.push_back(SubmitSec * 1e6);
    St.QueueUs.push_back(Resp.QueueSec * 1e6);
    St.ExecUs.push_back((Resp.LatencySec - Resp.QueueSec) * 1e6);
    St.WakeUs.push_back((Total - Resp.LatencySec) * 1e6);
    St.Batch.push_back(Resp.BatchSize);
    St.Specialized += Resp.Specialized;
    ++St.Served;
    if (tracer().armed()) {
      const double S1 = secondsSince(processStart());
      const uint32_t Tid = uint32_t(
          std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
      tracer().record({"serve.request", S0, S1, Resp.ReqId, Tid});
      tracer().record({"serve.submit", S0, S0 + SubmitSec, Resp.ReqId, Tid});
    }
  }
  Lat = secondsSince(T0);
  if (!Ok)
    ++Failed;
  return Ok;
}

void ServeBench::refRequest(int G, int Set, OutBufs &Out, double &Lat) {
  Span Op("ref.op");
  const Clock::time_point T0 = Clock::now();
  std::vector<Prog> Ps = progsOf(G);
  for (size_t K = 0; K < Ps.size(); ++K)
    Ref->run(int(Ps[K]),
             [&, K] { naiveStage(Ps[K], Set, Out, Out[K].as<float>()); });
  Lat = secondsSince(T0);
}

bool ServeBench::checkedExec(RunResult &Rc, int G, int Set, OutBufs &Out,
                             const std::string &Who, double &Lat,
                             ReqStats &St) {
  return produceChecked(
      ptrs(Out), [&] { return execRequest(G, Set, Out, Lat, St); },
      [&] { checkOut(Rc, G, Set, Out, Who); });
}

void ServeBench::checkedRef(RunResult &Rc, int G, int Set, OutBufs &Out,
                            const std::string &Who, double &Lat) {
  produceChecked(
      ptrs(Out),
      [&] {
        refRequest(G, Set, Out, Lat);
        return true;
      },
      [&] { checkOut(Rc, G, Set, Out, Who); });
}

void ServeBench::checkOut(RunResult &Rc, int G, int Set, const OutBufs &Out,
                          const std::string &Who) {
  const std::vector<Prog> Ps = progsOf(G);
  for (size_t K = 0; K < Ps.size(); ++K)
    if (!checkClose(Rc, Who + " " + nameOf(Ps[K]) + " set " +
                           std::to_string(Set),
                    Out[K].as<float>(), In[G][Set].Want[K].data(),
                    Out[K].numel(), 1e-3, 1e-4))
      return;
}

int ServeBench::run() {
  {
    Span S("frontend.build");
    F[Subdivnet] = buildSubdivNetDyn({0, Feats});
    F[Longformer] = buildLongformerDyn({0, Feats, LfW});
    F[Softras] = buildSoftRasDyn({0, 0, 0, 0.05f});
    F[Gat] = buildGATDyn({0, Feats, GatDeg});
    F[Sddmm] = buildSDDMMDyn({GraphM, GraphM, Feats, 3, 0});
    F[Segsoftmax] = buildSegSoftmaxDyn({GraphM, Feats, 3, 0});
    F[Spmm] = buildSpMMDyn({GraphM, GraphM, Feats, 3, 0});
  }
  makeInputs();

  // Pre-warm the generic kernels and every bucket's specialization into
  // the private disk cache in parallel: the executor then finds the generic
  // kernels on first sight, and its own background compile of each
  // nominated specialization (one compiler thread) re-acquires it from
  // disk.
  std::vector<CompileJob> Jobs;
  std::vector<std::pair<Prog, int>> SpecOf; // (program, a set of the bucket)
  for (Prog P : AllProgs)
    Jobs.push_back({F.at(P), Cfg.OptFlags});
  for (Prog P : AllProgs) {
    const int G = groupOf(P);
    for (int B = 0; B < NBuckets[G]; ++B) {
      const int Set =
          int(std::find(Bucket[G], Bucket[G] + Sets, B) - Bucket[G]);
      Jobs.push_back({specialized(P, Set), Cfg.SpecOptFlags});
      SpecOf.push_back({P, Set});
    }
  }
  const int Threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const std::vector<Kernel> Ks = compileAll(Jobs, Threads);
  Cfg.RtThreadBudget = Cfg.Threads; // one kernel-pool worker per kernel
  Ex = std::make_unique<serve::Executor>(Cfg);
  Ref = std::make_unique<RefServer>(Cfg.Threads);

  // Warm-up: every set SpecializeAfter + 2 times, so every bucket crosses
  // the executor's nomination threshold; drain() waits for the
  // specializations to land. Its requests are not layer samples.
  const bool Traced = tracer().armed();
  tracer().arm(false);
  ReqStats Warm;
  double Lat = 0;
  for (uint64_t W = 0; W < (Cfg.SpecializeAfter + 2) * Sets; ++W)
    for (int G = 0; G < NGroups; ++G)
      if (!execRequest(G, int(W % Sets), outs(ExecSide, 0, G, int(W % Sets)),
                       Lat, Warm))
        return 3;
  Ex->drain();
  NotJit = 0; // the first requests may precede the generic kernel's load
  for (int S = 0; S < Sets; ++S)
    for (int G = 0; G < NGroups; ++G)
      if (!checkedExec(R, G, S, outs(ExecSide, 0, G, S), "warm-up", Lat,
                       Warm))
        return 3;

  tracer().arm(Traced);
  if (Traced) {
    // The specialized programs through Kernel::run directly, and the
    // generic ones re-acquired from disk.
    for (size_t I = 0; I < SpecOf.size(); ++I) {
      const auto [P, Set] = SpecOf[I];
      const Kernel &K = Ks[std::size(AllProgs) + I];
      const ArgMap A = argsFor(P, Set, outs(ExecSide, 0, groupOf(P), Set));
      const KernelRtStats Before = K.rtStats();
      for (int N = 0; N < 200; ++N)
        runKernel(K, A);
      countRtStats(K, Before);
    }
    kernel_cache::memReset();
    for (Prog P : AllProgs)
      (void)compileScheduled(F.at(P), Cfg.OptFlags);
  }

  // Lone phase: one closed-loop client, executor and reference requests
  // alternating, for the first half of the run.
  std::vector<double> LoneRatio[NGroups], ConcRatio[NGroups];
  std::vector<double> TracedRatios, UntracedRatios, LoneLatUs;
  ReqStats Lone, Conc;
  const Clock::time_point T0 = Clock::now();
  R.metric("setup_s", secondsSince(processStart()), "s");
  for (uint64_t Round = 0; secondsSince(T0) < O.Seconds / 2; ++Round) {
    const bool Arm = Traced && Round % 2 == 1;
    tracer().arm(Arm);
    for (int G = 0; G < NGroups; ++G) {
      const int Set = int((Round + G) % Sets);
      if (Arm) {
        Span S("kernel_cache.key");
        for (Prog P : progsOf(G))
          (void)kernel_cache::cacheKey(F.at(P), {}, Cfg.OptFlags);
      }
      double TE = 0, TR = 0;
      bool Ok = true;
      auto Exec = [&] {
        Ok = checkedExec(R, G, Set, outs(ExecSide, 0, G, Set), "lone client",
                         TE, Lone);
      };
      auto Refr = [&] {
        checkedRef(R, G, Set, outs(RefSide, 0, G, Set), "lone reference",
                   TR);
      };
      if ((Round + G) % 2 == 0) {
        Exec();
        Refr();
      } else {
        Refr();
        Exec();
      }
      ++R.Attempted;
      if (!Ok)
        continue;
      LoneRatio[G].push_back(TE / TR);
      (Arm ? TracedRatios : UntracedRatios).push_back(TE / TR);
      LoneLatUs.push_back(TE * 1e6);
    }
  }
  tracer().arm(false);

  // Concurrent phase: Clients closed-loop clients on each side in
  // alternating slices. Client C uses its own sets (C, C + Clients, ...)
  // and each side its own output buffers, checked after every request.
  uint64_t ConcDone = 0;
  double ConcSec = 0;
  for (uint64_t Pair = 0; secondsSince(T0) < O.Seconds; ++Pair) {
    std::vector<double> Med[2][NGroups];
    for (int Half = 0; Half < 2; ++Half) {
      const bool UseExec = (Pair + Half) % 2 == 0;
      std::vector<double> Lats[Clients][NGroups];
      ReqStats Part[Clients];
      uint64_t Tried[Clients] = {};
      RunResult Checks[Clients];
      const Clock::time_point S0 = Clock::now();
      std::vector<std::thread> Ts;
      for (int C = 0; C < Clients; ++C)
        Ts.emplace_back([&, C] {
          Rng Pick(O.Seed * 31 + Pair * 7 + C);
          const std::string Who = "client " + std::to_string(C),
                            RefWho = "reference " + Who;
          for (uint64_t K = 0; secondsSince(S0) < SliceSec; ++K) {
            const int G = int(Pick.below(NGroups));
            const int Set = C + Clients * int(K % (Sets / Clients));
            double L = 0;
            if (UseExec) {
              ++Tried[C];
              if (!checkedExec(Checks[C], G, Set, outs(ExecSide, C, G, Set),
                               Who, L, Part[C]))
                continue;
            } else {
              checkedRef(Checks[C], G, Set, outs(RefSide, C, G, Set),
                         RefWho, L);
            }
            Lats[C][G].push_back(L);
          }
        });
      for (std::thread &T : Ts)
        T.join();
      const double Sec = secondsSince(S0);
      for (int G = 0; G < NGroups; ++G) {
        std::vector<double> All;
        for (int C = 0; C < Clients; ++C)
          All.insert(All.end(), Lats[C][G].begin(), Lats[C][G].end());
        if (!All.empty())
          Med[UseExec ? 0 : 1][G].push_back(median(All));
      }
      for (int C = 0; C < Clients; ++C)
        R.Correct = R.Correct && Checks[C].Correct;
      if (UseExec) {
        for (int C = 0; C < Clients; ++C) {
          R.Attempted += Tried[C];
          ConcDone += Lats[C][0].size() + Lats[C][1].size() + Lats[C][2].size() +
                      Lats[C][3].size() + Lats[C][4].size();
          Conc.Batch.insert(Conc.Batch.end(), Part[C].Batch.begin(),
                            Part[C].Batch.end());
          Conc.Specialized += Part[C].Specialized;
          Conc.Served += Part[C].Served;
        }
        ConcSec += Sec;
      }
    }
    for (int G = 0; G < NGroups; ++G)
      if (!Med[0][G].empty() && !Med[1][G].empty())
        ConcRatio[G].push_back(Med[0][G][0] / Med[1][G][0]);
  }
  R.Failed += Failed.load();
  checkJitServed(R, "serve", NotJit.load() == 0);

  std::map<std::string, std::vector<double>> ByGroup;
  for (int G = 0; G < NGroups; ++G)
    ByGroup[Groups[G]] = {median(LoneRatio[G]), median(ConcRatio[G])};
  reportGroups(R, ByGroup);

  if (Traced) {
    std::printf("%-12s %12s %12s\n", "group", "lone_ratio", "conc_ratio");
    for (int G = 0; G < NGroups; ++G)
      std::printf("%-12s %12.3f %12.3f\n", Groups[G], median(LoneRatio[G]),
                  median(ConcRatio[G]));
    std::printf("serve.p50_us %.1f\n", median(LoneLatUs));
    std::printf("serve.rps %.0f\n", double(ConcDone) / ConcSec);
    std::printf("serve.submit_us %.2f\n", median(Lone.SubmitUs));
    std::printf("serve.queue_us %.2f\n", median(Lone.QueueUs));
    std::printf("serve.exec_us %.2f\n", median(Lone.ExecUs));
    std::printf("serve.wake_us %.2f\n", median(Lone.WakeUs));
    std::printf("serve.spec_share %.3f\n",
                double(Lone.Specialized + Conc.Specialized) /
                    double(Lone.Served + Conc.Served));
    std::printf("serve.batch_size %.3f\n", mean(Conc.Batch));
    std::printf("trace overhead: %+.2f%% (median traced/untraced ratio)\n",
                (median(TracedRatios) / median(UntracedRatios) - 1) * 100);
  }
  return 0;
}

} // namespace

int runServe(const Options &O, RunResult &R) { return ServeBench(O, R).run(); }

} // namespace pb
