//===- codegen/codegen.h - C++ source emission -------------------*- C++ -*-===//
///
/// \file
/// Lowers a scheduled Func to a self-contained C++ translation unit (the
/// CPU backend of paper §4.3: "we generate OpenMP or CUDA code from the AST
/// and invoke dedicated backend compilers"). Parallel loops lower to the
/// runtime thread pool, vectorize/unroll properties become pragmas, atomic
/// reductions become CAS loops, and GemmCall becomes a library call.
///
/// The kernel ABI is `extern "C" void <name>(void **params, const ft_rt *rt)`
/// with one pointer per Func parameter, in order, and the runtime handle of
/// codegen/rt/ft_runtime.h.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_CODEGEN_H
#define FT_CODEGEN_CODEGEN_H

#include <string>
#include <vector>

#include "ir/func.h"

namespace ft {

/// Code-generation switches.
struct CodegenOptions {
  /// Instrument the emitted kernel with the statement-level profiler:
  /// every For (and GemmCall) gets per-thread call/iteration/time counters
  /// keyed by its StmtNode::Id (hot leaf loops are timed on a 1-in-64 call
  /// sample) in the profile lanes the runtime handle provides, and
  /// kernel-allocated tensors are wrapped in live-byte tracking. Off by
  /// default; the profile-off emission is byte-identical to a build
  /// without this option.
  bool Profile = false;
};

/// Emits a complete C++ source file implementing \p F.
std::string generateCpp(const Func &F, const CodegenOptions &Opts);
std::string generateCpp(const Func &F);

/// Statement id of each profile slot of \p F's instrumented kernel: slot 0
/// is the kernel body (-1), then every For and GemmCall in pre-order.
std::vector<int64_t> profileSlotIds(const Func &F);

/// The exported symbol name of the kernel generated for \p F.
std::string kernelSymbol(const Func &F);

} // namespace ft

#endif // FT_CODEGEN_CODEGEN_H
