// Equivalence tests for the launch-plan enumeration cache
// (rt::RuntimeConfig::enableEnumerationCache): only the pure enumeration is
// memoized — tracker queries, transfer decisions, and tracker updates stay
// live — so repeated launches must produce byte-identical buffers and
// identical resolution/transfer statistics with the cache on or off.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "ir/builder.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

RuntimeConfig cacheCfg(int gpus, bool cache) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.enableEnumerationCache = cache;
  return cfg;
}

TEST(EnumCache, HotspotRepeatedLaunchesAreBitIdentical) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  // n = 64 gives a 4x4 grid: every GPU count below yields a non-empty
  // partition per device, so the first launch misses exactly `gpus` times.
  const i64 n = 64;
  const int iters = 9;
  Rng rng(31);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  for (int gpus : {1, 3, 4}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      std::vector<double> temp = init;
      apps::runHotspot(rt, n, iters, temp.data(), power.data());
      return std::make_pair(temp, rt.stats());
    };
    auto [tempOff, statsOff] = run(false);
    auto [tempOn, statsOn] = run(true);
    EXPECT_EQ(tempOn, tempOff) << gpus << " GPUs";
    // The replayed plans feed the trackers the same ranges the live
    // enumeration would, so the resolution and transfer counters agree.
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    EXPECT_EQ(statsOn.logicalRowsResolved, statsOff.logicalRowsResolved) << gpus;
    EXPECT_EQ(statsOff.enumCacheHits, 0);
    EXPECT_EQ(statsOff.enumCacheMisses, 0);
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
    EXPECT_GT(statsOn.enumCacheMisses, 0) << gpus;
    // The iterative ping-pong relaunches one configuration: after the first
    // launch materializes a plan per partition, everything is a hit.
    EXPECT_EQ(statsOn.enumCacheMisses, gpus) << gpus;
    EXPECT_EQ(statsOn.enumCacheEvictions, 0) << gpus;
  }
}

TEST(EnumCache, MatmulMatchesReferenceWithCache) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 n = 32;
  Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  std::vector<double> expect(static_cast<std::size_t>(n * n));
  apps::refMatmul(n, a, b, expect);

  for (int gpus : {1, 3, 8}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      std::vector<double> c(static_cast<std::size_t>(n * n), -1.0);
      apps::runMatmul(rt, n, a.data(), b.data(), c.data());
      return std::make_pair(c, rt.stats());
    };
    auto [cOff, statsOff] = run(false);
    auto [cOn, statsOn] = run(true);
    EXPECT_EQ(cOn, expect) << gpus << " GPUs";
    EXPECT_EQ(cOn, cOff) << gpus << " GPUs";
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    // A one-shot launch still replays its plan in the tracker-update loop.
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
  }
}

TEST(EnumCache, InstrumentedScatterIsUnaffectedByCache) {
  // Instrumented writes bypass the enumerators entirely; the static read
  // maps (idx, in) still go through the cache.
  ir::KernelBuilder kb("scatter");
  auto n = kb.scalar("n", ir::Type::I64);
  auto idx = kb.array("idx", ir::Type::I64, {n});
  auto in = kb.array("in", ir::Type::F64, {n});
  auto out = kb.array("out", ir::Type::F64, {n});
  auto i = kb.let("i", kb.globalId(ir::Axis::X));
  kb.iff(ir::lt(i, n), [&] { kb.store(out, kb.load(idx, i), kb.load(in, i)); });
  ir::Module mod;
  mod.addKernel(kb.build());
  analysis::AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);

  const i64 count = 512;
  Rng rng(17);
  std::vector<i64> perm(static_cast<std::size_t>(count));
  std::iota(perm.begin(), perm.end(), 0);
  for (i64 k = count - 1; k > 0; --k)
    std::swap(perm[static_cast<std::size_t>(k)],
              perm[static_cast<std::size_t>(rng.range(0, k))]);
  std::vector<double> src(static_cast<std::size_t>(count));
  for (i64 k = 0; k < count; ++k)
    src[static_cast<std::size_t>(k)] = 100.0 + static_cast<double>(k);

  for (int gpus : {1, 4}) {
    auto run = [&](bool cache) {
      Runtime rt(cacheCfg(gpus, cache), model, mod);
      VirtualBuffer* dIdx = rt.malloc(count * 8);
      VirtualBuffer* dIn = rt.malloc(count * 8);
      VirtualBuffer* dOut = rt.malloc(count * 8);
      rt.memcpy(dIdx, perm.data(), count * 8, MemcpyKind::HostToDevice);
      rt.memcpy(dIn, src.data(), count * 8, MemcpyKind::HostToDevice);
      LaunchArg args[] = {LaunchArg::ofInt(count), LaunchArg::ofBuffer(dIdx),
                          LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
      // Launch twice so read plans are replayed against evolved trackers.
      rt.launch("scatter", {count / 64, 1, 1}, {64, 1, 1}, args);
      rt.launch("scatter", {count / 64, 1, 1}, {64, 1, 1}, args);
      std::vector<double> host(static_cast<std::size_t>(count), -1.0);
      rt.memcpy(host.data(), dOut, count * 8, MemcpyKind::DeviceToHost);
      return std::make_pair(host, rt.stats());
    };
    auto [outOff, statsOff] = run(false);
    auto [outOn, statsOn] = run(true);
    EXPECT_EQ(outOn, outOff) << gpus << " GPUs";
    EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies) << gpus;
    EXPECT_EQ(statsOn.rangesResolved, statsOff.rangesResolved) << gpus;
    EXPECT_GT(statsOn.enumCacheHits, 0) << gpus;
    for (i64 k = 0; k < count; ++k)
      ASSERT_EQ(outOn[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])],
                src[static_cast<std::size_t>(k)]);
  }
}

TEST(EnumCache, SharedCopyTrackingComposesWithCache) {
  // Sharer-set decisions are made against the live tracker during replay,
  // so the shared-copy extension behaves identically with the cache on.
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 n = 256;
  auto run = [&](bool cache) {
    RuntimeConfig cfg = cacheCfg(4, cache);
    cfg.trackSharedCopies = true;
    Runtime rt(cfg, model, mod);
    std::vector<double> px(n, 1), py(n, 2), pz(n, 3), vx(n, 0), vy(n, 0),
        vz(n, 0), mass(n, 1);
    apps::NBodyState st{px.data(), py.data(), pz.data(),
                        vx.data(), vy.data(), vz.data(), mass.data()};
    apps::runNBody(rt, n, 4, st);
    return std::make_pair(px, rt.stats());
  };
  auto [pxOff, statsOff] = run(false);
  auto [pxOn, statsOn] = run(true);
  EXPECT_EQ(pxOn, pxOff);
  EXPECT_EQ(statsOn.sharedCopyHits, statsOff.sharedCopyHits);
  EXPECT_EQ(statsOn.peerCopies, statsOff.peerCopies);
  EXPECT_GT(statsOn.sharedCopyHits, 0);
  EXPECT_GT(statsOn.enumCacheHits, 0);
}

TEST(EnumCache, BoundedCacheEvictsFifoAndStaysCorrect) {
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  const i64 n = 64;  // 4x4 grid: four non-empty partitions on four GPUs
  const int iters = 6;
  Rng rng(77);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 50.0;
  for (auto& v : power) v = rng.uniform();

  auto run = [&](bool cache, i64 capacity) {
    RuntimeConfig cfg = cacheCfg(4, cache);
    cfg.enumerationCachePlansPerKernel = capacity;
    Runtime rt(cfg, model, mod);
    std::vector<double> temp = init;
    apps::runHotspot(rt, n, iters, temp.data(), power.data());
    return std::make_pair(temp, rt.stats());
  };
  auto [tempOff, statsOff] = run(false, 64);
  // A capacity of 1 cannot hold the four per-partition plans of one launch:
  // every lookup evicts, so the cache degrades to materialize-and-replay
  // but must stay functionally identical.
  auto [tempTiny, statsTiny] = run(true, 1);
  EXPECT_EQ(tempTiny, tempOff);
  EXPECT_EQ(statsTiny.peerCopies, statsOff.peerCopies);
  EXPECT_EQ(statsTiny.rangesResolved, statsOff.rangesResolved);
  EXPECT_GT(statsTiny.enumCacheEvictions, 0);
  // A roomy cache holds all plans: misses only on the first launch and no
  // evictions.
  auto [tempBig, statsBig] = run(true, 64);
  EXPECT_EQ(tempBig, tempOff);
  EXPECT_EQ(statsBig.enumCacheEvictions, 0);
  EXPECT_EQ(statsBig.enumCacheMisses, 4);
}

TEST(EnumCache, FailedEnumerationLeavesNoPlanBehind) {
  // A launch whose enumeration overflows fails before its plan exists; the
  // cache must not keep a placeholder that a relaunch would replay as an
  // empty plan.  n = 2^62 makes the row stride of the flattened hotspot
  // arrays overflow 64 bits on the first row past zero.
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  RuntimeConfig cfg = cacheCfg(2, /*cache=*/true);
  cfg.mode = sim::ExecutionMode::TimingOnly;
  Runtime rt(cfg, model, mod);
  VirtualBuffer* src = rt.malloc(64);
  VirtualBuffer* pw = rt.malloc(64);
  VirtualBuffer* dst = rt.malloc(64);
  LaunchArg args[] = {LaunchArg::ofInt(i64{1} << 62), LaunchArg::ofFloat(0.1),
                      LaunchArg::ofFloat(0.1), LaunchArg::ofBuffer(src),
                      LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)};
  for (int attempt = 0; attempt < 2; ++attempt)
    EXPECT_THROW(rt.launch("hotspot", {2, 2, 1}, {8, 8, 1}, args),
                 OverflowError)
        << "attempt=" << attempt;
  EXPECT_EQ(rt.stats().enumCacheHits, 0);
}

}  // namespace
}  // namespace polypart::rt
