// Differential fuzzing of the inspector–executor against randomized
// indirection structures (duplicate indices, empty rows, out-of-order
// columns, degenerate frontiers).
//
// The coverage contract under test: the inspection walk's per-device
// footprints must cover every access the partitioned interpreter performs.
// A missed element would leave that gather source stale on the executing
// device, so running each case under BOTH fallback modes and comparing
// against the CPU reference detects any coverage hole byte-for-byte.  On
// top of the differential check, the walk's access count is pinned against
// the analytically known gather count of each workload.
//
// Seeds follow tests/fuzz_util.h; a failing case replays alone via
// POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "fuzz_util.h"
#include "rt/runtime.h"

namespace polypart::rt {
namespace {

const ir::Module& fuzzModule() {
  static ir::Module m = apps::buildIrregularModule();
  return m;
}

const analysis::ApplicationModel& fuzzModel() {
  static analysis::ApplicationModel m = analysis::analyzeModule(fuzzModule());
  return m;
}

struct RandomCsr {
  i64 n = 0;
  std::vector<i64> rowPtr;
  std::vector<i64> colIdx;
  std::vector<double> vals;
  i64 nnz() const { return static_cast<i64>(colIdx.size()); }
};

/// Adversarial CSR: a random share of rows are empty, the rest draw a random
/// number of columns uniformly (duplicates and arbitrary order included —
/// nothing sorts or dedups them).
RandomCsr makeRandomCsr(fuzz::SeededRng& rng, i64 n) {
  RandomCsr a;
  a.n = n;
  a.rowPtr.push_back(0);
  for (i64 r = 0; r < n; ++r) {
    if (rng.range(0, 3) != 0) {  // ~25% empty rows
      const i64 deg = rng.range(1, 9);
      for (i64 d = 0; d < deg; ++d) {
        a.colIdx.push_back(rng.range(0, n - 1));
        a.vals.push_back(rng.uniform() - 0.5);
      }
    }
    a.rowPtr.push_back(a.nnz());
  }
  return a;
}

TEST(InspectorFuzz, SpmvFootprintsCoverEveryGatherSource) {
  const int cases = fuzz::caseCount(25);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(31, c));
    const i64 n = rng.range(17, 200);
    RandomCsr a = makeRandomCsr(rng, n);
    if (a.nnz() == 0) continue;
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform() * 4 - 2;
    std::vector<double> expect(static_cast<std::size_t>(n));
    apps::refSpmv(a.rowPtr, a.colIdx, a.vals, x, expect);
    const apps::CsrMatrix view{n, n, a.nnz(), a.rowPtr.data(), a.colIdx.data(),
                               a.vals.data()};

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(n), -3.0);
      apps::runSpmv(rt, view, x.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
      if (inspector) {
        ASSERT_EQ(rt.stats().inspectorRuns, 1) << rng.replay();
        // Independent oracle: x is gathered once per stored nonzero.
        ASSERT_EQ(rt.stats().inspectedElements, a.nnz()) << rng.replay();
      }
    }
  }
}

TEST(InspectorFuzz, BfsFrontiersWithDuplicatesAndEmptyRows) {
  const int cases = fuzz::caseCount(25);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(32, c));
    const i64 n = rng.range(9, 150);
    RandomCsr g = makeRandomCsr(rng, n);
    // Frontier of random nodes: duplicates are likely, order is arbitrary,
    // and an empty frontier is a legal degenerate case.
    const i64 nfront = rng.range(1, n);
    std::vector<i64> front(static_cast<std::size_t>(nfront));
    for (auto& u : front) u = rng.range(0, n - 1);
    std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
    apps::refBfsPush(g.rowPtr, g.colIdx, front, expect);

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(n), 0.0);
      apps::runBfsPush(rt, n, g.nnz(), g.rowPtr.data(), g.colIdx.data(),
                       nfront, front.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
      if (inspector) {
        ASSERT_EQ(rt.stats().inspectedElements, 2 * nfront) << rng.replay();
      }
    }
  }
}

TEST(InspectorFuzz, HistogramCollisionsAcrossPartitions) {
  const int cases = fuzz::caseCount(20);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(33, c));
    const i64 nkeys = rng.range(5, 400);
    // Few bins relative to keys: heavy cross-partition collisions, the
    // worst case for the serialized read-modify-write gather path.
    const i64 nbins = rng.range(1, 16);
    std::vector<i64> keys(static_cast<std::size_t>(nkeys));
    for (auto& k : keys) k = rng.range(0, nbins - 1);
    std::vector<double> expect(static_cast<std::size_t>(nbins), 0.0);
    apps::refHistogram(keys, expect);

    const int gpus = static_cast<int>(rng.range(2, 8));
    for (bool inspector : {false, true}) {
      RuntimeConfig cfg;
      cfg.numGpus = gpus;
      cfg.mode = sim::ExecutionMode::Functional;
      cfg.inspectorExecutor = inspector;
      Runtime rt(cfg, fuzzModel(), fuzzModule());
      std::vector<double> got(static_cast<std::size_t>(nbins), 0.0);
      apps::runHistogram(rt, nkeys, nbins, keys.data(), got.data());
      ASSERT_EQ(got, expect)
          << rng.replay() << ", " << gpus << " GPUs, inspector=" << inspector;
    }
  }
}

}  // namespace
}  // namespace polypart::rt
