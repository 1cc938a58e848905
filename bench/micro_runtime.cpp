// Microbenchmarks for the runtime substrate: B-tree map primitives and the
// end-to-end per-launch dependency-resolution path (enumerate + tracker
// query/update), the quantity behind the paper's "patterns" overhead
// (Section 9.2).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "rt/btree.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace {

using namespace polypart;

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    rt::BTreeMap<i64, i64> t;
    for (int i = 0; i < state.range(0); ++i) t.insert(rng.range(0, 1 << 20), i);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(100)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  rt::BTreeMap<i64, i64> t;
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) t.insert(rng.range(0, 1 << 20), i);
  for (auto _ : state) {
    auto it = t.floorEntry(rng.range(0, 1 << 20));
    benchmark::DoNotOptimize(it.atEnd());
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_LaunchResolution(benchmark::State& state) {
  // One full partitioned hotspot launch on G simulated GPUs: enumerators,
  // tracker queries, tracker updates, modeled copies.  The enumeration cache
  // is off so the loop measures the paper's per-launch enumeration, not a
  // plan replay (bench/cache_repeat_launch covers the cached path).
  const int gpus = static_cast<int>(state.range(0));
  static ir::Module mod = apps::buildBenchmarkModule();
  static analysis::ApplicationModel model = analysis::analyzeModule(mod);
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  cfg.enableEnumerationCache = false;
  rt::Runtime rt(cfg, model, mod);
  const i64 n = 4096;
  rt::VirtualBuffer* t0 = rt.malloc(n * n * 8);
  rt::VirtualBuffer* t1 = rt.malloc(n * n * 8);
  rt::VirtualBuffer* pw = rt.malloc(n * n * 8);
  rt.memcpy(t0, nullptr, n * n * 8, rt::MemcpyKind::HostToDevice);
  rt.memcpy(pw, nullptr, n * n * 8, rt::MemcpyKind::HostToDevice);
  ir::Dim3 grid{n / 16, n / 16, 1}, block{16, 16, 1};
  rt::VirtualBuffer* src = t0;
  rt::VirtualBuffer* dst = t1;
  for (auto _ : state) {
    rt::LaunchArg args[] = {rt::LaunchArg::ofInt(n), rt::LaunchArg::ofFloat(0.1),
                            rt::LaunchArg::ofFloat(0.1), rt::LaunchArg::ofBuffer(src),
                            rt::LaunchArg::ofBuffer(pw), rt::LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", grid, block, args);
    std::swap(src, dst);
  }
  state.counters["ranges/launch"] =
      static_cast<double>(rt.stats().rangesResolved) /
      static_cast<double>(rt.stats().launches);
}
BENCHMARK(BM_LaunchResolution)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_MemcpyGather(benchmark::State& state) {
  static ir::Module mod = apps::buildBenchmarkModule();
  static analysis::ApplicationModel model = analysis::analyzeModule(mod);
  rt::RuntimeConfig cfg;
  cfg.numGpus = 16;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  rt::Runtime rt(cfg, model, mod);
  const i64 bytes = 64 << 20;
  rt::VirtualBuffer* vb = rt.malloc(bytes);
  rt.memcpy(vb, nullptr, bytes, rt::MemcpyKind::HostToDevice);
  for (auto _ : state) {
    rt.memcpy(nullptr, vb, bytes, rt::MemcpyKind::DeviceToHost);
  }
}
BENCHMARK(BM_MemcpyGather)->Unit(benchmark::kMicrosecond);

}  // namespace

PP_MICROBENCH_MAIN()
