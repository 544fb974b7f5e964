//===- perfbench/src/selftest.cpp - Do the output checks catch faults? ----===//
//
// Feeds every output check the benchmark uses a correct output (it must be
// accepted) and a deliberately wrong one (it must be rejected): one
// perturbed element per forward output, one broken invariant per program
// invariant, one perturbed gradient entry per differentiated input, two
// clients' output buffers swapped, a served request and a disk
// re-acquisition that leave their output unwritten, a cold compile that hit
// the cache, a disk re-acquisition that differs, and a request served by
// the interpreter. Exits nonzero unless every verdict is right.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <thread>

#include "autoschedule/autoschedule.h"

#include "programs.h"
#include "runs.h"

namespace pb {

using namespace ft;

int runSelfTest(const Options &O) {
  int Wrong = 0;
  auto Expect = [&](const std::string &What, bool Accepted, bool Want) {
    const bool Right = Accepted == Want;
    Wrong += !Right;
    std::printf("%-46s %-8s %s\n", What.c_str(),
                Accepted ? "accepted" : "rejected", Right ? "ok" : "WRONG");
  };
  Dataset D = makeDataset(O.Seed);
  Rng Pick(O.Seed ^ 0x73656c66ull);

  // Forward outputs: the reference output itself, then one element off.
  for (Prog P : AllProgs) {
    std::vector<float> Out(outSize(P, D));
    naiveRun(P, D, Out.data());
    // Later stages of the chain read the earlier stages' outputs.
    if (P == Sddmm || P == Segsoftmax)
      std::copy(Out.begin(), Out.end(), outOf(P, D).as<float>());
    RunResult R;
    Expect(std::string(nameOf(P)) + " forward, correct",
           checkProg(R, P, D, Out.data()), true);
    const int64_t At = Pick.below(int64_t(Out.size()));
    Out[At] += 0.01f + 0.01f * std::abs(Out[At]);
    Expect(std::string(nameOf(P)) + " forward, one element perturbed",
           checkProg(R, P, D, Out.data()), false);
  }

  // Invariants, each broken alone.
  {
    RunResult R;
    std::vector<float> Out(outSize(Gat, D));
    naiveRun(Gat, D, Out.data());
    Out[Pick.below(int64_t(Out.size()))] = 2.0f; // |h| <= 0.5
    Expect("gat invariant, row outside neighbour range",
           checkInvariants(R, Gat, D, Out.data()), false);
    Out.assign(outSize(Softras, D), 0.5f);
    Out[Pick.below(int64_t(Out.size()))] = 1.01f;
    Expect("softras invariant, pixel above 1",
           checkInvariants(R, Softras, D, Out.data()), false);
    Out.resize(outSize(Segsoftmax, D));
    naiveRun(Segsoftmax, D, Out.data());
    const int64_t *Ptr = D.G.Ptr.as<int64_t>();
    int64_t Row = Pick.below(sz::GraphNodes);
    while (Ptr[Row + 1] == Ptr[Row])
      Row = (Row + 1) % sz::GraphNodes;
    Out[Row * sz::GraphFeats] = 0.99f;
    Expect("segsoftmax invariant, weights sum to 0.99",
           checkInvariants(R, Segsoftmax, D, Out.data()), false);
  }

  // Gradients from the real reverse-mode kernels, bound as the kernels
  // workload binds them, then one entry off.
  std::vector<GradOp> Grads;
  std::vector<CompileJob> Jobs;
  for (Prog P : {Subdivnet, Longformer, Softras}) {
    GradCheck Check = gradCheckFor(P, D, Pick, 8);
    Result<GradResult> G =
        grad(buildProg(P, D), Check.Names, TapeStrategy::Selective);
    if (!G.ok()) {
      std::fprintf(stderr, "perfbench: grad failed: %s\n", G.message().c_str());
      return 3;
    }
    Grads.push_back({P, *G, {}, {}, {}, {}, {}, std::move(Check)});
    Jobs.push_back({autoScheduleFunc(G->Forward), "-O3"});
    Jobs.push_back({autoScheduleFunc(G->Backward), "-O3"});
  }
  const std::vector<Kernel> Ks = compileAll(
      Jobs, std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  for (size_t I = 0; I < Grads.size(); ++I) {
    GradOp &G = Grads[I];
    G.Fwd = Ks[2 * I];
    G.Bwd = Ks[2 * I + 1];
    bindGrad(G, D);
    if (!runGrad(G))
      return 3;
    const GradCheck &C = G.Check;
    RunResult R;
    Expect(C.Name + ", correct", checkGrad(R, C), true);
    const size_t T = size_t(Pick.below(int64_t(C.Names.size())));
    float &Entry = G.Own.at(G.G.GradNames.at(C.Names[T]))
                       .as<float>()[C.Picks[T][Pick.below(
                           int64_t(C.Picks[T].size()))]];
    Entry += 0.05f + 0.05f * std::abs(Entry);
    Expect(C.Name + ", one entry perturbed", checkGrad(R, C), false);
  }

  // Two clients' output buffers swapped: each client checks its own
  // output against the reference for its own inputs.
  {
    Dataset D2 = makeDataset(O.Seed + 1);
    std::vector<float> A(outSize(Longformer, D)), B(outSize(Longformer, D));
    naiveRun(Longformer, D, A.data());
    naiveRun(Longformer, D2, B.data());
    RunResult R;
    Expect("serve clients, own outputs",
           checkClose(R, "client 0", A.data(), A.data(), A.size(), 1e-3,
                      1e-4) &&
               checkClose(R, "client 1", B.data(), B.data(), B.size(), 1e-3,
                          1e-4),
           true);
    Expect("serve clients, output buffers swapped",
           checkClose(R, "client 0", B.data(), A.data(), A.size(), 1e-3,
                      1e-4) ||
               checkClose(R, "client 1", A.data(), B.data(), B.size(), 1e-3,
                          1e-4),
           false);
  }

  // Outputs a producer leaves unwritten, in buffers an earlier run filled
  // correctly: a served request through the same poison-run-check wiring
  // the serve workload uses, and a kernel re-acquired from disk.
  {
    std::vector<float> Want(outSize(Longformer, D));
    naiveRun(Longformer, D, Want.data());
    Buffer Out = Buffer::fromF32({int64_t(Want.size())}, Want);
    auto Write = [&] {
      std::copy(Want.begin(), Want.end(), Out.as<float>());
      return true;
    };
    auto Skip = [] { return true; };
    RunResult R;
    for (bool Writes : {true, false}) {
      bool Accepted = false;
      produceChecked({&Out}, Writes ? std::function<bool()>(Write) : Skip,
                     [&] {
                       Accepted = checkClose(R, "request", Out.as<float>(),
                                             Want.data(), Out.numel(), 1e-3,
                                             1e-4);
                     });
      Expect(Writes ? "served request, output written"
                    : "served request, output left unwritten",
             Accepted, Writes);
      Expect(Writes ? "disk re-acquisition, output written"
                    : "disk re-acquisition, output left unwritten",
             checkReacquired(R, "x", Out, Write,
                             Writes ? std::function<bool()>(Write) : Skip),
             Writes);
    }
  }

  // Cache tiers and bit identity.
  {
    RunResult R;
    Expect("cold compile, miss", checkMiss(R, "x", KernelCacheTier::Compiled),
           true);
    Expect("cold compile, disk hit", checkMiss(R, "x", KernelCacheTier::Disk),
           false);
    Expect("cold compile, memory hit",
           checkMiss(R, "x", KernelCacheTier::Memory), false);
    Buffer First = D.SubE, Again = D.SubE;
    Expect("disk re-acquisition, identical",
           checkBitIdentical(R, "x", First, Again), true);
    Again.as<float>()[Pick.below(Again.numel())] += 1e-6f;
    Expect("disk re-acquisition, one element differs",
           checkBitIdentical(R, "x", First, Again), false);
    Expect("served by the JIT", checkJitServed(R, "x", true), true);
    Expect("served by the interpreter", checkJitServed(R, "x", false), false);
  }

  std::printf("selftest: %s (%d wrong verdicts)\n", Wrong ? "FAILED" : "passed",
              Wrong);
  return Wrong ? 1 : 0;
}

} // namespace pb
