//===- tests/kernel_cache_test.cpp - Two-tier kernel cache ----------------===//
//
// The content-addressed kernel cache (codegen/kernel_cache.h) end to end,
// against a private temporary cache directory:
//   - warm hits (memory and disk tier) produce bit-identical outputs;
//   - OptFlags / Profile changes miss (profiled and plain kernels can never
//     share an entry);
//   - a corrupted on-disk entry is evicted and recompiled, not crashed on;
//   - alpha-renamed Funcs share a fingerprint, different programs don't;
//   - the memory tier is LRU-bounded by FT_CACHE_MEM_ENTRIES;
//   - FT_CACHE=0 disables everything;
//   - JIT scratch files go under $TMPDIR.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include "codegen/jit.h"
#include "codegen/kernel_cache.h"
#include "frontend/builder.h"
#include "ir/compare.h"

using namespace ft;

namespace {

/// An elementwise kernel whose constant \p Scale makes distinct programs.
Func makeAxpy(double Scale, const std::string &Prefix = "") {
  FunctionBuilder B(Prefix + "axpy");
  View X = B.input(Prefix + "x", {makeIntConst(256)});
  View Y = B.output(Prefix + "y", {makeIntConst(256)});
  B.loop(Prefix + "i", 0, 256, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(Scale) + makeFloatConst(1.0));
  });
  return B.build();
}

void seed(Buffer &B) {
  for (int64_t I = 0; I < B.numel(); ++I)
    B.setF(I, std::sin(0.37 * double(I)));
}

std::vector<float> runOnce(const Kernel &K, const Func &F) {
  Buffer X(DataType::Float32, {256}), Y(DataType::Float32, {256});
  seed(X);
  std::map<std::string, Buffer *> Args = {{F.Params[0], &X},
                                          {F.Params[1], &Y}};
  Status S = K.run(Args);
  EXPECT_TRUE(S.ok()) << S.message();
  return std::vector<float>(Y.as<float>(), Y.as<float>() + Y.numel());
}

/// Each test gets a fresh private cache directory and a clean memory tier.
class KernelCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/ftcache.XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ::setenv("FT_CACHE_DIR", Dir.c_str(), 1);
    ::setenv("FT_CACHE", "1", 1);
    ::unsetenv("FT_CACHE_MEM_ENTRIES");
    kernel_cache::memReset();
  }
  void TearDown() override {
    ::unsetenv("FT_CACHE_DIR");
    ::unsetenv("FT_CACHE");
    ::unsetenv("FT_CACHE_MEM_ENTRIES");
    kernel_cache::memReset();
    std::system(("rm -rf '" + Dir + "'").c_str());
  }
  std::string Dir;
};

} // namespace

TEST_F(KernelCacheTest, WarmHitsAreBitIdentical) {
  Func F = makeAxpy(3.0);

  auto Cold = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Cold.ok()) << Cold.message();
  EXPECT_EQ(Cold->cacheTier(), KernelCacheTier::Compiled);
  std::vector<float> Want = runOnce(*Cold, F);

  // Second compile in the same process: memory tier.
  auto Mem = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Mem.ok()) << Mem.message();
  EXPECT_EQ(Mem->cacheTier(), KernelCacheTier::Memory);
  std::vector<float> GotMem = runOnce(*Mem, F);
  ASSERT_EQ(Want.size(), GotMem.size());
  EXPECT_EQ(0, std::memcmp(Want.data(), GotMem.data(),
                           Want.size() * sizeof(float)));

  // Dropping the memory tier forces the on-disk object.
  kernel_cache::memReset();
  auto Disk = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Disk.ok()) << Disk.message();
  EXPECT_EQ(Disk->cacheTier(), KernelCacheTier::Disk);
  std::vector<float> GotDisk = runOnce(*Disk, F);
  EXPECT_EQ(0, std::memcmp(Want.data(), GotDisk.data(),
                           Want.size() * sizeof(float)));
  // The stored generated source keeps Kernel::source() working on hits.
  EXPECT_EQ(Cold->source(), Disk->source());
  // Disk hits must be much cheaper than compiles; both are recorded.
  EXPECT_GT(Cold->compileSeconds(), Disk->compileSeconds());
}

TEST_F(KernelCacheTest, KeyChangesWithFlagsProfileAndProgram) {
  Func F = makeAxpy(3.0);
  CodegenOptions Plain, Prof;
  Prof.Profile = true;

  auto K0 = kernel_cache::cacheKey(F, Plain, "-O2");
  EXPECT_NE(K0.Full, kernel_cache::cacheKey(F, Plain, "-O3").Full);
  EXPECT_NE(K0.Full, kernel_cache::cacheKey(F, Prof, "-O2").Full);
  EXPECT_NE(K0.Full, kernel_cache::cacheKey(makeAxpy(4.0), Plain, "-O2").Full);

  // Fingerprints agree for alpha-renamed twins; the profiled/plain split
  // and the flags live in the Full key only.
  EXPECT_EQ(K0.Fingerprint, kernel_cache::cacheKey(F, Prof, "-O3").Fingerprint);
}

TEST_F(KernelCacheTest, ProfiledAndPlainNeverShareAnEntry) {
  Func F = makeAxpy(2.0);
  auto Plain = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Plain.ok()) << Plain.message();
  ASSERT_FALSE(Plain->profiled());

  // Same program compiled for profiling right after a plain compile: must
  // not reuse the plain entry in either tier.
  CodegenOptions Prof;
  Prof.Profile = true;
  auto P1 = Kernel::compile(F, Prof, "-O2");
  ASSERT_TRUE(P1.ok()) << P1.message();
  EXPECT_TRUE(P1->profiled());
  EXPECT_EQ(P1->cacheTier(), KernelCacheTier::Compiled);

  // A second profiled compile may reuse the stored profiled object (disk
  // tier) but never the in-process handle (profile counters would merge).
  auto P2 = Kernel::compile(F, Prof, "-O2");
  ASSERT_TRUE(P2.ok()) << P2.message();
  EXPECT_TRUE(P2->profiled());
  EXPECT_NE(P2->cacheTier(), KernelCacheTier::Memory);
}

TEST_F(KernelCacheTest, CorruptDiskEntryIsEvictedAndRecompiled) {
  Func F = makeAxpy(5.0);
  auto Cold = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Cold.ok()) << Cold.message();
  std::vector<float> Want = runOnce(*Cold, F);

  // Truncate/garbage the stored object, then force the disk path.
  kernel_cache::Key K = kernel_cache::cacheKey(F, CodegenOptions{}, "-O2");
  std::string So = Dir + "/" + K.hex() + ".so";
  {
    std::ofstream Out(So, std::ios::binary | std::ios::trunc);
    Out << "this is not an ELF object";
  }
  kernel_cache::memReset();

  auto Again = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Again.ok()) << Again.message();
  EXPECT_EQ(Again->cacheTier(), KernelCacheTier::Compiled); // fell back
  std::vector<float> Got = runOnce(*Again, F);
  EXPECT_EQ(0,
            std::memcmp(Want.data(), Got.data(), Want.size() * sizeof(float)));

  // The republished entry is healthy again.
  kernel_cache::memReset();
  auto Healed = Kernel::compile(F, "-O2");
  ASSERT_TRUE(Healed.ok()) << Healed.message();
  EXPECT_EQ(Healed->cacheTier(), KernelCacheTier::Disk);
}

TEST_F(KernelCacheTest, AlphaRenamedFuncsHitTheSameFingerprint) {
  Func A = makeAxpy(3.0);
  Func B = makeAxpy(3.0, "ren_");
  EXPECT_EQ(fingerprint(A), fingerprint(B));
  EXPECT_NE(fingerprint(A), fingerprint(makeAxpy(3.5)));

  // The Full key still differs (symbol and parameter names are part of the
  // compiled artifact), so a rename compiles fresh — correctness over reuse.
  CodegenOptions Opts;
  auto KA = kernel_cache::cacheKey(A, Opts, "-O2");
  auto KB = kernel_cache::cacheKey(B, Opts, "-O2");
  EXPECT_EQ(KA.Fingerprint, KB.Fingerprint);
  EXPECT_NE(KA.Full, KB.Full);
}

TEST_F(KernelCacheTest, MemoryTierIsLruBounded) {
  ::setenv("FT_CACHE_MEM_ENTRIES", "2", 1);
  for (double Scale : {1.0, 2.0, 3.0, 4.0}) {
    auto K = Kernel::compile(makeAxpy(Scale), "-O1");
    ASSERT_TRUE(K.ok()) << K.message();
    EXPECT_LE(kernel_cache::memSize(), 2u);
  }
  EXPECT_EQ(kernel_cache::memSize(), 2u);

  // The two most recent entries are resident; the oldest was evicted to
  // disk only.
  auto Recent = Kernel::compile(makeAxpy(4.0), "-O1");
  ASSERT_TRUE(Recent.ok());
  EXPECT_EQ(Recent->cacheTier(), KernelCacheTier::Memory);
  auto Evicted = Kernel::compile(makeAxpy(1.0), "-O1");
  ASSERT_TRUE(Evicted.ok());
  EXPECT_EQ(Evicted->cacheTier(), KernelCacheTier::Disk);
}

TEST_F(KernelCacheTest, DisabledCacheAlwaysCompiles) {
  ::setenv("FT_CACHE", "0", 1);
  Func F = makeAxpy(7.0);
  auto K1 = Kernel::compile(F, "-O1");
  ASSERT_TRUE(K1.ok()) << K1.message();
  EXPECT_EQ(K1->cacheTier(), KernelCacheTier::Compiled);
  auto K2 = Kernel::compile(F, "-O1");
  ASSERT_TRUE(K2.ok()) << K2.message();
  EXPECT_EQ(K2->cacheTier(), KernelCacheTier::Compiled);
  EXPECT_EQ(kernel_cache::memSize(), 0u);
}

TEST_F(KernelCacheTest, JitScratchHonoursTmpdir) {
  ::setenv("FT_CACHE", "0", 1);
  const char *Old = std::getenv("TMPDIR");
  const std::string Saved = Old ? Old : "";
  auto Restore = [&] {
    if (Old)
      ::setenv("TMPDIR", Saved.c_str(), 1);
    else
      ::unsetenv("TMPDIR");
  };

  // A TMPDIR that cannot hold the scratch directory fails the compile,
  // and the error names where the JIT tried to write.
  const std::string Missing = Dir + "/no/such/dir";
  ::setenv("TMPDIR", Missing.c_str(), 1);
  auto Bad = Kernel::compile(makeAxpy(9.0), "-O0");
  Restore();
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find(Missing), std::string::npos) << Bad.message();

  // A writable TMPDIR works, and the scratch directory is gone afterwards.
  const std::string Scratch = Dir + "/scratch";
  ASSERT_EQ(::mkdir(Scratch.c_str(), 0755), 0);
  ::setenv("TMPDIR", Scratch.c_str(), 1);
  auto Good = Kernel::compile(makeAxpy(9.0), "-O0");
  Restore();
  ASSERT_TRUE(Good.ok()) << Good.message();
  EXPECT_EQ(::rmdir(Scratch.c_str()), 0) << "JIT scratch left behind";
}
