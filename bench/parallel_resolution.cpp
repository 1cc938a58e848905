// Thread scaling of the parallel dependency-resolution engine (beyond the
// paper).
//
// The paper's runtime resolves dependencies serially: for every launch it
// walks the (GPU partition, array) pairs, enumerates the polyhedral access
// ranges, and queries/updates the segment trackers one after another
// (Section 8.3).  The engine behind rt::RuntimeConfig::resolutionThreads
// splits each launch into three phases — parallel plan materialization,
// per-buffer sharded tracker queries/updates, deterministic ordered commit —
// so the real host-side resolution work spreads over a worker pool while
// functional results, modeled time, and statistics stay byte-identical.
//
// This bench runs the figure-reproduction workloads with the enumeration
// cache OFF (modeling the paper's per-launch enumeration, where resolution
// work is heaviest) over a 1..N thread sweep and prints the real resolution
// wall time plus the speedup against inline resolution (0 threads).  A
// Functional-mode equivalence check re-verifies byte-identical results
// before reporting.

#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "support/rng.h"

namespace {

using namespace polypart;
using namespace polypart::benchutil;

struct ScalingRun {
  i64 launches = 0;
  double resolveSeconds = 0;   // real wall time inside resolution
  double parallelSeconds = 0;  // real wall time inside parallelFor regions
  i64 tasks = 0;
  double simSeconds = 0;
};

ScalingRun runWorkload(apps::Benchmark b, i64 n, int iters, int gpus,
                       int threads) {
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  cfg.enableEnumerationCache = false;  // paper mode: re-enumerate every launch
  cfg.resolutionThreads = threads;
  rt::Runtime rt(cfg, model(), module());
  switch (b) {
    case apps::Benchmark::Hotspot:
      apps::runHotspot(rt, n, iters, nullptr, nullptr);
      break;
    case apps::Benchmark::NBody: {
      apps::NBodyState st{nullptr, nullptr, nullptr, nullptr,
                          nullptr, nullptr, nullptr};
      apps::runNBody(rt, n, iters, st);
      break;
    }
    case apps::Benchmark::Matmul:
      apps::runMatmul(rt, n, nullptr, nullptr, nullptr);
      break;
  }
  return ScalingRun{rt.stats().launches, rt.stats().resolutionWallSeconds,
                    rt.stats().parallelWallSeconds, rt.stats().resolutionTasks,
                    rt.elapsedSeconds()};
}

/// Functional-mode equivalence: the threaded engine must produce
/// byte-identical buffers and identical (canonicalized) statistics.
bool checkEquivalence() {
  const i64 n = 64;
  const int iters = 10;
  Rng rng(77);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  auto run = [&](int threads, std::vector<double>& temp, rt::RuntimeStats& st) {
    rt::RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.resolutionThreads = threads;
    rt::Runtime rt(cfg, model(), module());
    temp = init;
    apps::runHotspot(rt, n, iters, temp.data(), power.data());
    st = rt::deterministicStats(rt.stats());
  };
  std::vector<double> tempSerial, tempPar;
  rt::RuntimeStats statsSerial, statsPar;
  run(0, tempSerial, statsSerial);
  run(4, tempPar, statsPar);
  return tempPar == tempSerial && statsPar == statsSerial;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parseItersScale(argc, argv);

  openBenchReport("parallel_resolution");
  printHeader("Parallel dependency resolution: thread scaling",
              "polypart extension (beyond the paper); serial baseline is the "
              "Section 8.3 resolution loop");

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Host threads available: %u\n", cores);
  if (cores <= 1)
    std::printf("NOTE: single hardware thread — worker counts > 1 time-slice "
                "one core, so\nexpect flat or slightly worse wall time; the "
                "sweep still exercises the\nthreaded engine end to end.\n");

  struct Config {
    apps::Benchmark bench;
    i64 n;
    int iters;
    int gpus;
  };
  const Config configs[] = {
      {apps::Benchmark::Hotspot, 8192, 200, 16},
      {apps::Benchmark::NBody, 65536, 100, 8},
      {apps::Benchmark::Matmul, 4096, 40, 16},
  };
  const int threadSweep[] = {0, 1, 2, 4, 8};

  std::printf("\n  %-8s %-7s %4s %8s %9s %14s %14s %10s %8s\n", "Bench",
              "Size", "GPUs", "threads", "launches", "resolve [ms]",
              "parallel [ms]", "tasks", "speedup");
  for (const Config& c : configs) {
    int iters = static_cast<int>(static_cast<double>(c.iters) * scale);
    if (iters < 1) iters = 1;
    double serialWall = 0;
    for (int threads : threadSweep) {
      ScalingRun r = runWorkload(c.bench, c.n, iters, c.gpus, threads);
      if (threads == 0) serialWall = r.resolveSeconds;
      std::printf("  %-8s %-7lld %4d %8d %9lld %14.2f %14.2f %10lld %7.2fx\n",
                  apps::benchmarkName(c.bench), static_cast<long long>(c.n),
                  c.gpus, threads, static_cast<long long>(r.launches),
                  1e3 * r.resolveSeconds, 1e3 * r.parallelSeconds,
                  static_cast<long long>(r.tasks),
                  serialWall / r.resolveSeconds);
      std::fflush(stdout);
      json::Value& row = benchRow();
      row["benchmark"] = apps::benchmarkName(c.bench);
      row["n"] = c.n;
      row["gpus"] = c.gpus;
      row["threads"] = threads;
      row["launches"] = r.launches;
      row["resolutionWallSeconds"] = r.resolveSeconds;
      row["parallelWallSeconds"] = r.parallelSeconds;
      row["resolutionTasks"] = r.tasks;
      row["speedup"] = serialWall / r.resolveSeconds;
    }
  }

  std::printf("\nFunctional equivalence (Hotspot 64^2, 4 GPUs, 4 threads vs "
              "serial): ");
  if (!checkEquivalence()) {
    std::printf("MISMATCH\n");
    return 1;
  }
  std::printf("byte-identical\n");
  std::printf("\nExpectation: with >= 4 physical cores the resolution wall "
              "time drops\n>= 2x at 4 threads on the multi-GPU configs (one "
              "task per partition or\nper buffer); modeled simulation time is "
              "identical at every thread count\nbecause the ordered commit "
              "replays machine events in the serial order.\n");
  return 0;
}
