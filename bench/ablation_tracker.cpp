// Ablation: tracker data structure (DESIGN.md choice #2).
//
// The paper bases the segment list on a B-tree map (Section 8.1).  This
// bench compares the B-tree tracker against a std::map-backed tracker on the
// operation mix the runtime produces: interval updates and range queries
// with heavy coalescing.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "rt/tracker.h"
#include "support/rng.h"

namespace {

using namespace polypart;
using rt::SegmentTracker;
using rt::SegmentTrackerStdMap;

/// The runtime's steady-state mix: partition-aligned updates (kernel write
/// sets), halo-sized queries, and occasional fragmented updates (memcopies).
template <typename Tracker>
void trackerWorkload(Tracker& t, Rng& rng, i64 size, int gpus) {
  const i64 chunk = size / gpus;
  // Kernel launch: per-GPU write-set updates.
  for (int g = 0; g < gpus; ++g)
    t.update(g * chunk, (g + 1) * chunk, g);
  // Next launch: halo queries plus occasional random small updates.
  for (int g = 0; g < gpus; ++g) {
    i64 lo = std::max<i64>(0, g * chunk - 4096);
    i64 hi = std::min<i64>(size, (g + 1) * chunk + 4096);
    t.query(lo, hi, [&](i64, i64, rt::Owner) { benchmark::DoNotOptimize(g); });
  }
  if (rng.chance(0.25)) {
    i64 b = rng.range(0, size - 8192);
    t.update(b, b + 8192, static_cast<rt::Owner>(rng.range(0, gpus - 1)));
  }
}

template <typename Tracker>
void BM_Tracker(benchmark::State& state) {
  const i64 size = 1 << 30;
  const int gpus = static_cast<int>(state.range(0));
  Tracker t(size);
  Rng rng(99);
  for (auto _ : state) trackerWorkload(t, rng, size, gpus);
  state.counters["segments"] = static_cast<double>(t.segmentCount());
}

/// Adversarial fragmentation: many small interleaved-owner updates.
template <typename Tracker>
void BM_TrackerFragmented(benchmark::State& state) {
  const i64 size = 1 << 24;
  Tracker t(size);
  Rng rng(7);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      i64 b = rng.range(0, size - 256);
      t.update(b, b + rng.range(1, 256), static_cast<rt::Owner>(rng.range(0, 15)));
    }
    i64 q = rng.range(0, size - 65536);
    t.query(q, q + 65536, [&](i64 x, i64, rt::Owner) { benchmark::DoNotOptimize(x); });
  }
  state.counters["segments"] = static_cast<double>(t.segmentCount());
}

}  // namespace

BENCHMARK_TEMPLATE(BM_Tracker, SegmentTracker)->Arg(4)->Arg(16)->Name("tracker_btree");
BENCHMARK_TEMPLATE(BM_Tracker, SegmentTrackerStdMap)->Arg(4)->Arg(16)->Name("tracker_stdmap");
BENCHMARK_TEMPLATE(BM_TrackerFragmented, SegmentTracker)->Name("tracker_btree_fragmented");
BENCHMARK_TEMPLATE(BM_TrackerFragmented, SegmentTrackerStdMap)->Name("tracker_stdmap_fragmented");

PP_MICROBENCH_MAIN()
