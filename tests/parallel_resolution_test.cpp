// Determinism suite for the parallel resolution engine
// (rt::RuntimeConfig::resolutionThreads): the three-phase engine — parallel
// plan materialization, per-buffer sharded tracker phases, ordered commit —
// must leave functional results, modeled timing, RuntimeStats, MachineStats,
// and tracker state byte-identical for every thread count, with the
// enumeration cache on or off.  Wall-clock/task meta-counters are the
// documented exception (see RuntimeStats).

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

const ir::Module& benchModule() {
  static ir::Module mod = apps::buildBenchmarkModule();
  return mod;
}

const ApplicationModel& benchModel() {
  static ApplicationModel model = analysis::analyzeModule(benchModule());
  return model;
}

RuntimeConfig engineCfg(int gpus, int threads, bool cache) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.resolutionThreads = threads;
  cfg.enableEnumerationCache = cache;
  return cfg;
}

struct AppRun {
  std::vector<double> bytes;  // D2H-gathered results
  RuntimeStats stats;
  sim::MachineStats machine;
  double simSeconds = 0;
};

AppRun runApp(apps::Benchmark b, int threads, bool cache, int gpus) {
  Runtime rt(engineCfg(gpus, threads, cache), benchModel(), benchModule());
  AppRun out;
  switch (b) {
    case apps::Benchmark::Hotspot: {
      const i64 n = 64;
      Rng rng(11);
      std::vector<double> temp(static_cast<std::size_t>(n * n));
      std::vector<double> power(static_cast<std::size_t>(n * n));
      for (auto& v : temp) v = rng.uniform() * 100.0;
      for (auto& v : power) v = rng.uniform();
      apps::runHotspot(rt, n, 8, temp.data(), power.data());
      out.bytes = std::move(temp);
      break;
    }
    case apps::Benchmark::NBody: {
      const i64 n = 192;
      Rng rng(23);
      std::vector<double> px(n), py(n), pz(n), vx(n, 0), vy(n, 0), vz(n, 0),
          mass(n, 1.0);
      for (i64 i = 0; i < n; ++i) {
        px[static_cast<std::size_t>(i)] = rng.uniform();
        py[static_cast<std::size_t>(i)] = rng.uniform();
        pz[static_cast<std::size_t>(i)] = rng.uniform();
      }
      apps::NBodyState st{px.data(), py.data(), pz.data(),
                          vx.data(), vy.data(), vz.data(), mass.data()};
      apps::runNBody(rt, n, 4, st);
      out.bytes = px;
      out.bytes.insert(out.bytes.end(), vx.begin(), vx.end());
      break;
    }
    case apps::Benchmark::Matmul: {
      const i64 n = 48;
      Rng rng(7);
      std::vector<double> a(static_cast<std::size_t>(n * n));
      std::vector<double> bm(static_cast<std::size_t>(n * n));
      for (auto& v : a) v = rng.uniform();
      for (auto& v : bm) v = rng.uniform();
      std::vector<double> c(static_cast<std::size_t>(n * n), -1.0);
      apps::runMatmul(rt, n, a.data(), bm.data(), c.data());
      out.bytes = std::move(c);
      break;
    }
  }
  out.stats = rt.stats();
  out.machine = rt.machineStats();
  out.simSeconds = rt.elapsedSeconds();
  return out;
}

TEST(ParallelResolution, ExampleAppsAreByteIdenticalAcrossThreadCounts) {
  for (apps::Benchmark b :
       {apps::Benchmark::Hotspot, apps::Benchmark::NBody, apps::Benchmark::Matmul}) {
    for (bool cache : {false, true}) {
      AppRun serial = runApp(b, /*threads=*/0, cache, /*gpus=*/4);
      for (int threads : {1, 4}) {
        AppRun par = runApp(b, threads, cache, 4);
        EXPECT_EQ(par.bytes, serial.bytes)
            << apps::benchmarkName(b) << " threads=" << threads
            << " cache=" << cache;
        EXPECT_EQ(deterministicStats(par.stats),
                  deterministicStats(serial.stats))
            << apps::benchmarkName(b) << " threads=" << threads
            << " cache=" << cache;
        EXPECT_EQ(par.machine, serial.machine)
            << apps::benchmarkName(b) << " threads=" << threads
            << " cache=" << cache;
        EXPECT_EQ(par.simSeconds, serial.simSeconds)
            << apps::benchmarkName(b) << " threads=" << threads
            << " cache=" << cache;
        if (threads > 0) {
          EXPECT_GT(par.stats.resolutionTasks, 0);
        }
      }
    }
  }
}

/// Tracker dump: every segment with owner and sharer set.
using TrackerDump = std::vector<std::tuple<i64, i64, int, u64>>;

TrackerDump dumpTracker(const VirtualBuffer* vb) {
  TrackerDump dump;
  vb->tracker().querySharers(0, vb->bytes(),
                             [&](i64 b, i64 e, Owner o, u64 sharers) {
                               dump.emplace_back(b, e, o, sharers);
                             });
  return dump;
}

/// Runs a hotspot ping-pong with buffers held open so the final tracker
/// state of every virtual buffer can be compared across engine configs.
struct TrackerRun {
  std::vector<TrackerDump> trackers;
  std::vector<double> gathered;
  RuntimeStats stats;
};

TrackerRun runTrackedHotspot(int threads, bool cache, bool sharedCopies) {
  const i64 n = 64;
  const i64 cells = n * n;
  Rng rng(101);
  std::vector<double> temp(static_cast<std::size_t>(cells));
  std::vector<double> power(static_cast<std::size_t>(cells));
  for (auto& v : temp) v = rng.uniform() * 80.0;
  for (auto& v : power) v = rng.uniform();

  RuntimeConfig cfg = engineCfg(4, threads, cache);
  cfg.trackSharedCopies = sharedCopies;
  Runtime rt(cfg, benchModel(), benchModule());
  VirtualBuffer* t0 = rt.malloc(cells * 8);
  VirtualBuffer* t1 = rt.malloc(cells * 8);
  VirtualBuffer* pw = rt.malloc(cells * 8);
  rt.memcpy(t0, temp.data(), cells * 8, MemcpyKind::HostToDevice);
  rt.memcpy(pw, power.data(), cells * 8, MemcpyKind::HostToDevice);

  const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  for (int it = 0; it < 5; ++it) {
    LaunchArg args[] = {LaunchArg::ofInt(n),      LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),  LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", {blocks, blocks, 1}, {apps::kBlock2D, apps::kBlock2D, 1},
              args);
    std::swap(src, dst);
  }
  TrackerRun out;
  out.gathered.assign(static_cast<std::size_t>(cells), -1.0);
  rt.memcpy(out.gathered.data(), src, cells * 8, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  out.trackers = {dumpTracker(t0), dumpTracker(t1), dumpTracker(pw)};
  out.stats = rt.stats();
  rt.free(t0);
  rt.free(t1);
  rt.free(pw);
  return out;
}

TEST(ParallelResolution, TrackerStateAndGatherBytesIdentical) {
  for (bool cache : {false, true}) {
    for (bool sharedCopies : {false, true}) {
      TrackerRun serial = runTrackedHotspot(0, cache, sharedCopies);
      for (int threads : {1, 4}) {
        TrackerRun par = runTrackedHotspot(threads, cache, sharedCopies);
        EXPECT_EQ(par.trackers, serial.trackers)
            << "threads=" << threads << " cache=" << cache
            << " sharedCopies=" << sharedCopies;
        EXPECT_EQ(par.gathered, serial.gathered)
            << "threads=" << threads << " cache=" << cache
            << " sharedCopies=" << sharedCopies;
        EXPECT_EQ(deterministicStats(par.stats),
                  deterministicStats(serial.stats))
            << "threads=" << threads << " cache=" << cache
            << " sharedCopies=" << sharedCopies;
      }
    }
  }
}

TEST(ParallelResolution, SharedCopyHitsAreDeterministic) {
  // Hotspot's ping-pong writes invalidate replicas every iteration, so it
  // never re-reads a still-valid peer copy; n-body's broadcast position
  // reads do.  This pins the sharer-set fast path (tracker hit, no machine
  // traffic) to identical counters under the sharded engine.
  auto run = [&](int threads) {
    const i64 n = 192;
    Rng rng(23);
    std::vector<double> px(n), py(n), pz(n), vx(n, 0), vy(n, 0), vz(n, 0),
        mass(n, 1.0);
    for (i64 i = 0; i < n; ++i) {
      px[static_cast<std::size_t>(i)] = rng.uniform();
      py[static_cast<std::size_t>(i)] = rng.uniform();
      pz[static_cast<std::size_t>(i)] = rng.uniform();
    }
    RuntimeConfig cfg = engineCfg(4, threads, /*cache=*/true);
    cfg.trackSharedCopies = true;
    Runtime rt(cfg, benchModel(), benchModule());
    apps::NBodyState st{px.data(), py.data(), pz.data(),
                        vx.data(), vy.data(), vz.data(), mass.data()};
    apps::runNBody(rt, n, 4, st);
    return std::make_pair(px, rt.stats());
  };
  auto [bytes0, stats0] = run(0);
  EXPECT_GT(stats0.sharedCopyHits, 0);
  for (int threads : {1, 4}) {
    auto [bytesN, statsN] = run(threads);
    EXPECT_EQ(bytesN, bytes0) << threads;
    EXPECT_EQ(deterministicStats(statsN), deterministicStats(stats0))
        << threads;
  }
}

TEST(ParallelResolution, EvictionThrashKeepsCountersIdentical) {
  // A plan-cache capacity smaller than the partitions of one launch forces
  // the miss→evict→insert path on every acquisition; the parallel engine
  // must replay the serial FIFO accounting exactly.
  auto run = [&](int threads) {
    const i64 n = 64;
    Rng rng(55);
    std::vector<double> temp(static_cast<std::size_t>(n * n));
    std::vector<double> power(static_cast<std::size_t>(n * n));
    for (auto& v : temp) v = rng.uniform() * 50.0;
    for (auto& v : power) v = rng.uniform();
    RuntimeConfig cfg = engineCfg(4, threads, /*cache=*/true);
    cfg.enumerationCachePlansPerKernel = 1;
    Runtime rt(cfg, benchModel(), benchModule());
    apps::runHotspot(rt, n, 6, temp.data(), power.data());
    return std::make_pair(temp, rt.stats());
  };
  auto [bytes0, stats0] = run(0);
  for (int threads : {1, 4}) {
    auto [bytesN, statsN] = run(threads);
    EXPECT_EQ(bytesN, bytes0) << threads;
    EXPECT_EQ(deterministicStats(statsN), deterministicStats(stats0))
        << threads;
    EXPECT_GT(statsN.enumCacheEvictions, 0) << threads;
  }
}

TEST(ParallelResolution, ResolutionWallTimeIsCountedOnce) {
  // resolutionWallSeconds is accumulated by non-overlapping RAII windows
  // (Runtime::ResolutionTimer asserts non-nesting at runtime); the parallel
  // window is a sub-interval of a resolution window, so its wall time can
  // never exceed the resolution total.  A double-counted overlap would show
  // up here as parallelWallSeconds > resolutionWallSeconds.
  for (int threads : {1, 4}) {
    AppRun par = runApp(apps::Benchmark::Hotspot, threads, /*cache=*/true, 4);
    EXPECT_GT(par.stats.resolutionWallSeconds, 0.0) << threads;
    EXPECT_GT(par.stats.resolutionTasks, 0) << threads;
    EXPECT_LE(par.stats.parallelWallSeconds, par.stats.resolutionWallSeconds)
        << threads;
  }
}

TEST(ParallelResolution, SerialModeHasNoParallelMetaCounters) {
  // At 0 threads the engine runs its tasks inline, off the pool: the pool
  // meta-counters must stay exactly zero while the resolution wall clock
  // still accumulates.
  AppRun serial = runApp(apps::Benchmark::Hotspot, /*threads=*/0,
                         /*cache=*/true, 4);
  EXPECT_GT(serial.stats.resolutionWallSeconds, 0.0);
  EXPECT_EQ(serial.stats.resolutionTasks, 0);
  EXPECT_EQ(serial.stats.parallelWallSeconds, 0.0);
}

TEST(ParallelResolution, BetaConfigurationIsDeterministicToo) {
  // β mode (transfers off, resolution on) exercises the no-transfer branch
  // of the sharded read phase: decisions are recorded but nothing is issued.
  auto run = [&](int threads) {
    const i64 n = 64;
    RuntimeConfig cfg = engineCfg(4, threads, /*cache=*/true);
    cfg.mode = sim::ExecutionMode::TimingOnly;
    cfg.enableTransfers = false;
    Runtime rt(cfg, benchModel(), benchModule());
    apps::runHotspot(rt, n, 6, nullptr, nullptr);
    return std::make_pair(rt.stats(), rt.elapsedSeconds());
  };
  auto [stats0, sim0] = run(0);
  for (int threads : {1, 4}) {
    auto [statsN, simN] = run(threads);
    EXPECT_EQ(deterministicStats(statsN), deterministicStats(stats0))
        << threads;
    EXPECT_EQ(simN, sim0) << threads;
    EXPECT_EQ(statsN.peerCopies, 0) << threads;
  }
}

}  // namespace
}  // namespace polypart::rt
