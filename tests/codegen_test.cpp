// Tests for enumerator generation (paper Section 6): range extraction for
// grid partitions, the full-row coalescing optimization, the C emission of
// the Section 6.2 interface, and trace-based exactness properties.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "apps/kernels.h"
#include "codegen/enumerator.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/transform.h"

namespace polypart::codegen {
namespace {

using analysis::KernelModel;
using ir::ArgValue;
using ir::Dim3;
using ir::GridPartition;
using ir::KernelPtr;
using ir::LaunchConfig;

std::vector<std::pair<i64, i64>> collect(const Enumerator& e,
                                         const PartitionTuple& part,
                                         const LaunchConfig& cfg,
                                         std::span<const i64> scalars) {
  std::vector<std::pair<i64, i64>> out;
  e.enumerate(part, cfg, scalars, [&](i64 b, i64 en) { out.emplace_back(b, en); });
  return out;
}

const Enumerator& find(const std::vector<Enumerator>& es, std::size_t arg,
                       bool write) {
  for (const Enumerator& e : es)
    if (e.argIndex() == arg && e.isWrite() == write) return e;
  throw Error("enumerator not found");
}

TEST(Codegen, SaxpyReadRanges) {
  KernelModel m = analysis::analyzeKernel(*apps::buildSaxpy());
  auto es = buildEnumerators(m);
  const Enumerator& xRead = find(es, 2, false);
  // n = 1000, blocks of 128, grid 8; partition blocks [2, 5).
  LaunchConfig cfg{{8, 1, 1}, {128, 1, 1}};
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{2, 0, 0}, {5, 1, 1}}, cfg.block);
  i64 scalars[] = {1000};
  auto ranges = collect(xRead, part, cfg, scalars);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 256);
  EXPECT_EQ(ranges[0].second, 640);

  // The last partition is clipped by the n < gridDim*blockDim guard.
  PartitionTuple tail = PartitionTuple::fromBlocks(
      GridPartition{{5, 0, 0}, {8, 1, 1}}, cfg.block);
  auto tailRanges = collect(xRead, tail, cfg, scalars);
  ASSERT_EQ(tailRanges.size(), 1u);
  EXPECT_EQ(tailRanges[0].first, 640);
  EXPECT_EQ(tailRanges[0].second, 1000);
}

TEST(Codegen, HotspotHaloAndCoalescing) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  const Enumerator& tinRead = find(es, 3, false);
  const Enumerator& toutWrite = find(es, 5, true);
  EXPECT_TRUE(toutWrite.exact());

  // n = 64, 8x8 blocks, 8x8 grid.  Partition: block rows [2, 4) => thread
  // rows [16, 32); the read set must include halo rows 15 and 32.
  LaunchConfig cfg{{8, 8, 1}, {8, 8, 1}};
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{0, 2, 0}, {8, 4, 1}}, cfg.block);
  i64 scalars[] = {64};

  auto ranges = collect(tinRead, part, cfg, scalars);
  // Full-row coalescing: rows 15..32 of a 64-wide array are one range.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 15 * 64);
  EXPECT_EQ(ranges[0].second, 33 * 64);

  auto writes = collect(toutWrite, part, cfg, scalars);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].first, 16 * 64);
  EXPECT_EQ(writes[0].second, 32 * 64);
}

TEST(Codegen, CoalescingMatchesPerRowEnumeration) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  LaunchConfig cfg{{4, 4, 1}, {8, 8, 1}};
  i64 scalars[] = {30};  // grid overhang: 32 threads cover 30 cells
  for (i64 lo = 0; lo < 4; ++lo) {
    for (i64 hi = lo + 1; hi <= 4; ++hi) {
      PartitionTuple part = PartitionTuple::fromBlocks(
          GridPartition{{0, lo, 0}, {4, hi, 1}}, cfg.block);
      for (const Enumerator& e : es) {
        Enumerator perRow = e;
        perRow.coalesce = false;
        std::set<i64> a, b;
        e.enumerate(part, cfg, scalars, [&](i64 x, i64 y) {
          for (i64 v = x; v < y; ++v) a.insert(v);
        });
        perRow.enumerate(part, cfg, scalars, [&](i64 x, i64 y) {
          for (i64 v = x; v < y; ++v) b.insert(v);
        });
        if (e.isWrite()) {
          // Writes must be identical: coalescing may not change the set.
          EXPECT_EQ(a, b) << e.name() << " partition [" << lo << "," << hi << ")";
        } else {
          // The read hull may add elements but never lose any.
          for (i64 v : b)
            EXPECT_TRUE(a.count(v))
                << e.name() << " lost element " << v << " with coalescing";
        }
      }
    }
  }
}

TEST(Codegen, MatmulBReadIsFullMatrix) {
  KernelModel m = analysis::analyzeKernel(*apps::buildMatmul());
  auto es = buildEnumerators(m);
  const Enumerator& bRead = find(es, 2, false);
  LaunchConfig cfg{{4, 4, 1}, {4, 4, 1}};
  i64 scalars[] = {16};
  // Any row partition reads all of B (column-wise access, Section 9.1).
  PartitionTuple part = PartitionTuple::fromBlocks(
      GridPartition{{0, 1, 0}, {4, 2, 1}}, cfg.block);
  auto ranges = collect(bRead, part, cfg, scalars);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 16 * 16);
  // A only needs the partition's rows.
  const Enumerator& aRead = find(es, 1, false);
  auto aRanges = collect(aRead, part, cfg, scalars);
  ASSERT_EQ(aRanges.size(), 1u);
  EXPECT_EQ(aRanges[0].first, 4 * 16);
  EXPECT_EQ(aRanges[0].second, 8 * 16);
}

/// Property: for every benchmark kernel and several partitions, the write
/// enumerator's ranges equal exactly the flat indices the partitioned kernel
/// writes, and the read enumerator's ranges cover all reads.
TEST(Codegen, RangesMatchPartitionedExecutionTrace) {
  struct Case {
    KernelPtr kernel;
    LaunchConfig cfg;
    std::vector<i64> scalarValues;  // i64 scalars in declaration order
  };
  std::vector<Case> cases;
  cases.push_back({apps::buildSaxpy(), {{6, 1, 1}, {16, 1, 1}}, {90}});
  cases.push_back({apps::buildHotspot(), {{3, 3, 1}, {4, 4, 1}}, {11}});
  cases.push_back({apps::buildMatmul(), {{3, 3, 1}, {4, 4, 1}}, {10}});
  cases.push_back({apps::buildNBodyForces(), {{4, 1, 1}, {4, 1, 1}}, {14}});

  for (const Case& c : cases) {
    KernelModel model = analysis::analyzeKernel(*c.kernel);
    auto es = buildEnumerators(model);
    ir::KernelPtr part = ir::partitionKernel(*c.kernel);
    analysis::PartitionStrategy strat = model.strategy;

    // Split the grid along the strategy axis into two partitions.
    Dim3 g = c.cfg.grid;
    i64 extent = strat == analysis::PartitionStrategy::SplitY ? g.y : g.x;
    i64 mid = extent / 2;
    for (int piece = 0; piece < 2; ++piece) {
      GridPartition gp{{0, 0, 0}, {g.x, g.y, g.z}};
      if (strat == analysis::PartitionStrategy::SplitY) {
        gp.lo.y = piece == 0 ? 0 : mid;
        gp.hi.y = piece == 0 ? mid : g.y;
      } else {
        gp.lo.x = piece == 0 ? 0 : mid;
        gp.hi.x = piece == 0 ? mid : g.x;
      }

      // Allocate argument buffers large enough for each array.
      std::vector<std::vector<double>> storage;
      std::vector<ArgValue> args;
      std::size_t scalarIdx = 0;
      i64 n = c.scalarValues[0];
      for (const ir::Param& p : c.kernel->params()) {
        if (p.isArray) {
          std::size_t elems = static_cast<std::size_t>(
              p.shape.size() == 2 ? n * n : n);
          storage.emplace_back(elems, 1.0);
          args.push_back(ArgValue::ofBuffer(storage.back().data(),
                                            static_cast<i64>(elems)));
        } else if (p.type == ir::Type::I64) {
          args.push_back(ArgValue::ofInt(c.scalarValues[scalarIdx++]));
        } else {
          args.push_back(ArgValue::ofFloat(0.25));
        }
      }
      // Partition arguments: min x,y,z then max x,y,z (Section 7).
      std::vector<ArgValue> partArgs = args;
      partArgs.push_back(ArgValue::ofInt(gp.lo.x));
      partArgs.push_back(ArgValue::ofInt(gp.lo.y));
      partArgs.push_back(ArgValue::ofInt(gp.lo.z));
      partArgs.push_back(ArgValue::ofInt(gp.hi.x));
      partArgs.push_back(ArgValue::ofInt(gp.hi.y));
      partArgs.push_back(ArgValue::ofInt(gp.hi.z));

      std::map<std::size_t, std::set<i64>> readsSeen, writesSeen;
      ir::AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 flat,
                                   std::span<const i64, 12>) {
        (isWrite ? writesSeen : readsSeen)[arg].insert(flat);
      };
      LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                           c.cfg.block};
      ir::execute(*part, partCfg, partArgs, obs);

      PartitionTuple tuple = PartitionTuple::fromBlocks(gp, c.cfg.block);
      for (const Enumerator& e : es) {
        std::set<i64> enumerated;
        e.enumerate(tuple, c.cfg, c.scalarValues, [&](i64 b, i64 en) {
          for (i64 v = b; v < en; ++v) enumerated.insert(v);
        });
        if (e.isWrite()) {
          EXPECT_EQ(enumerated, writesSeen[e.argIndex()])
              << e.name() << " piece " << piece << " of kernel "
              << c.kernel->name();
        } else {
          const std::set<i64>& seen = readsSeen[e.argIndex()];
          for (i64 v : seen)
            EXPECT_TRUE(enumerated.count(v))
                << e.name() << " missing read of element " << v;
        }
      }
    }
  }
}

TEST(Codegen, EmitCHasPaperInterface) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  const Enumerator& tinRead = find(es, 3, false);
  std::string src = tinRead.emitC();
  EXPECT_NE(src.find("void hotspot_arg3_read(const int64_t* partition"), std::string::npos);
  EXPECT_NE(src.find("polypart_range_cb cb"), std::string::npos);
  EXPECT_NE(src.find("boyLo"), std::string::npos);
  // Write enumerators follow the same naming rule.
  const Enumerator& toutWrite = find(es, 5, true);
  EXPECT_EQ(toutWrite.name(), "hotspot_arg5_write");
}

TEST(Codegen, CountElementsMatchesRanges) {
  KernelModel m = analysis::analyzeKernel(*apps::buildSaxpy());
  auto es = buildEnumerators(m);
  const Enumerator& yWrite = find(es, 3, true);
  LaunchConfig cfg{{8, 1, 1}, {64, 1, 1}};
  i64 scalars[] = {500};
  PartitionTuple all = PartitionTuple::fromBlocks(
      GridPartition{{0, 0, 0}, {8, 1, 1}}, cfg.block);
  EXPECT_EQ(yWrite.countElements(all, cfg, scalars), 500);
}

/// A 1-D kernel with a scalar-deep halo read (a[i] and a[i - g]): with g and
/// n near 2^62 the access-set extent sums past the 64-bit range even though
/// every range endpoint is representable.
ir::KernelPtr buildDeepHalo() {
  ir::KernelBuilder b("deephalo");
  auto n = b.scalar("n", ir::Type::I64);
  auto g = b.scalar("g", ir::Type::I64);
  auto a = b.array("a", ir::Type::F64, {n});
  auto out = b.array("out", ir::Type::F64, {n});
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] {
    b.store(out, i, b.load(a, i) + b.load(a, i - g));
  });
  return b.build();
}

TEST(Codegen, CountElementsNearOverflowKernel) {
  KernelModel m = analysis::analyzeKernel(*buildDeepHalo());
  auto es = buildEnumerators(m);
  const Enumerator& aRead = find(es, 2, false);

  // Small case: the halo read [-10, 90) is clipped to the declared shape
  // and merged with [0, 100) — overlapping disjuncts are counted once.
  {
    LaunchConfig cfg{{4, 1, 1}, {32, 1, 1}};
    i64 scalars[] = {100, 10};
    PartitionTuple all = PartitionTuple::fromBlocks(
        GridPartition{{0, 0, 0}, {4, 1, 1}}, cfg.block);
    EXPECT_EQ(aRead.countElements(all, cfg, scalars), 100);
  }

  // Near-overflow case: n = 9e18 (97.6 % of the i64 range).  The merged
  // read set is one range [0, 9e18); the count must come back exact — the
  // previous implementation accumulated `e - b` in unchecked 64-bit
  // arithmetic and only stayed correct here by the (unverified) global
  // argument that merged shape-clipped ranges cannot sum past 2^63.  The
  // 128-bit accumulation checks that argument and throws a diagnosable
  // OverflowError instead of wrapping if it is ever violated.
  const i64 big = i64{9000000000000000000};  // 1024 * 8789062500000000
  LaunchConfig cfg{{big / 1024, 1, 1}, {1024, 1, 1}};
  i64 scalars[] = {big, 1000};
  PartitionTuple all = PartitionTuple::fromBlocks(
      GridPartition{{0, 0, 0}, {big / 1024, 1, 1}}, cfg.block);
  MaterializedRanges mat;
  ASSERT_NO_THROW(mat = aRead.materialize(all, cfg, scalars));
  ASSERT_EQ(mat.ranges.size(), 1u);
  EXPECT_EQ(mat.ranges[0], (std::pair<i64, i64>{0, big}));
  EXPECT_EQ(aRead.countElements(all, cfg, scalars), big);
}

/// Flat indices of argument `arg` that the partitioned clone of `kernel`
/// writes over partition `gp` (interpreter access walk).  Every i64 scalar
/// is `n`, every f64 scalar 0.25, every array n (1-D) or n*n (2-D) long.
std::set<i64> observedWrites(const ir::Kernel& kernel, const LaunchConfig& cfg,
                             i64 n, const GridPartition& gp, std::size_t arg) {
  std::vector<std::vector<double>> storage;
  std::vector<ArgValue> args;
  for (const ir::Param& p : kernel.params()) {
    if (p.isArray) {
      storage.emplace_back(static_cast<std::size_t>(p.shape.size() == 2 ? n * n : n),
                           1.0);
      args.push_back(ArgValue::ofBuffer(storage.back().data(),
                                        static_cast<i64>(storage.back().size())));
    } else if (p.type == ir::Type::I64) {
      args.push_back(ArgValue::ofInt(n));
    } else {
      args.push_back(ArgValue::ofFloat(0.25));
    }
  }
  for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
    args.push_back(ArgValue::ofInt(v));
  std::set<i64> seen;
  LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                       cfg.block};
  ir::execute(*ir::partitionKernel(kernel), partCfg, args,
              [&](std::size_t a, bool isWrite, i64 flat, std::span<const i64, 12>) {
                if (isWrite && a == arg) seen.insert(flat);
              });
  return seen;
}

/// The paper's even split of the y block rows over `gpus` devices.
GridPartition rowSlab(const LaunchConfig& cfg, int gpus, int gpu) {
  return GridPartition{{0, cfg.grid.y * gpu / gpus, 0},
                       {cfg.grid.x, cfg.grid.y * (gpu + 1) / gpus, 1}};
}

std::set<i64> elements(const std::vector<std::pair<i64, i64>>& ranges) {
  std::set<i64> out;
  for (const auto& [b, e] : ranges)
    for (i64 v = b; v < e; ++v) out.insert(v);
  return out;
}

/// Hotspot's `tout` write is a union of five disjuncts (interior plus four
/// border strips) that tiles the grid: its simple hull is proven equal to
/// the union, so coalescing enumerates one nest.  Reads never take this
/// path (they use the runtime rectangular hull).
TEST(Codegen, HotspotWriteHullIsProvenExact) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  EXPECT_TRUE(find(es, 5, true).exactHull());
  EXPECT_TRUE(find(es, 5, true).exact());
  EXPECT_FALSE(find(es, 3, false).exactHull());
  EXPECT_FALSE(find(es, 4, false).exactHull());
  // Single-disjunct writes have nothing to prove.
  KernelModel saxpy = analysis::analyzeKernel(*apps::buildSaxpy());
  EXPECT_FALSE(find(buildEnumerators(saxpy), 3, true).exactHull());
}

/// Every partition of a 16-device row split: the hull path's ranges cover
/// exactly the elements the partitioned kernel writes, in every tier.  A
/// small n keeps the interpreter walk cheap; 4x4 blocks give 16 block rows.
TEST(Codegen, HotspotWriteHullMatchesInterpreterWalk) {
  ir::KernelPtr k = apps::buildHotspot();
  KernelModel m = analysis::analyzeKernel(*k);
  auto es = buildEnumerators(m);
  Enumerator tout = find(es, 5, true);
  ASSERT_TRUE(tout.exactHull());
  const i64 n = 61;
  LaunchConfig cfg{{16, 16, 1}, {4, 4, 1}};
  i64 scalars[] = {n};
  for (int gpu = 0; gpu < 16; ++gpu) {
    GridPartition gp = rowSlab(cfg, 16, gpu);
    std::set<i64> truth = observedWrites(*k, cfg, n, gp, 5);
    PartitionTuple part = PartitionTuple::fromBlocks(gp, cfg.block);
    for (EnumTier tier :
         {EnumTier::Interpret, EnumTier::Bytecode, EnumTier::Specialized}) {
      tout.tier = tier;
      MaterializedRanges mat = tout.materialize(part, cfg, scalars);
      EXPECT_EQ(elements(mat.ranges), truth)
          << "partition " << gpu << " tier " << enumTierName(tier);
      // One block row of full array rows: a single contiguous range.
      EXPECT_EQ(mat.ranges.size(), truth.empty() ? 0u : 1u) << "partition " << gpu;
    }
  }
}

/// Table 1 Large on 16 devices: the hull path reports exactly the work
/// accounting of the per-disjunct walk (coalesce = false walks every row of
/// every disjunct) — 16 ranges and 110592 logical rows per launch — so
/// modeled time does not move.
TEST(Codegen, HotspotWriteHullKeepsWorkAccountingAtTableOneLarge) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  auto es = buildEnumerators(m);
  const i64 n = 36864;
  LaunchConfig cfg{{n / 16, n / 16, 1}, {16, 16, 1}};
  i64 scalars[] = {n};
  Enumerator hull = find(es, 5, true);
  Enumerator perRow = hull;
  perRow.coalesce = false;
  for (EnumTier tier :
       {EnumTier::Interpret, EnumTier::Bytecode, EnumTier::Specialized}) {
    hull.tier = perRow.tier = tier;
    EnumInfo launch;
    for (int gpu = 0; gpu < 16; ++gpu) {
      PartitionTuple part = PartitionTuple::fromBlocks(rowSlab(cfg, 16, gpu), cfg.block);
      MaterializedRanges a = hull.materialize(part, cfg, scalars);
      MaterializedRanges b = perRow.materialize(part, cfg, scalars);
      EXPECT_EQ(a.ranges, b.ranges) << "partition " << gpu;
      EXPECT_EQ(a.info, b.info) << "partition " << gpu;
      launch.ranges += a.info.ranges;
      launch.logicalRows += a.info.logicalRows;
    }
    EXPECT_EQ(launch.ranges, 16) << enumTierName(tier);
    EXPECT_EQ(launch.logicalRows, 110592) << enumTierName(tier);
  }
}

/// A kernel that writes only the border of its grid: the hull (the whole
/// grid) strictly contains the union, so nothing is proven and the write is
/// enumerated per disjunct, still exactly.
TEST(Codegen, BorderOnlyWriteIsNotHulled) {
  ir::KernelBuilder b("border");
  auto n = b.scalar("n", ir::Type::I64);
  auto out = b.array("out", ir::Type::F64, {n, n});
  auto x = b.let("x", b.globalId(ir::Axis::X));
  auto y = b.let("y", b.globalId(ir::Axis::Y));
  b.iff(ir::land(ir::lt(x, n), ir::lt(y, n)), [&] {
    b.iff(ir::land(ir::land(ir::ge(x, ir::iconst(1)), ir::le(x, n - ir::iconst(2))),
                   ir::land(ir::ge(y, ir::iconst(1)), ir::le(y, n - ir::iconst(2)))),
          [&] {}, [&] { b.store(out, y * n + x, ir::fconst(1.0)); });
  });
  ir::KernelPtr k = b.build();
  KernelModel m = analysis::analyzeKernel(*k);
  auto es = buildEnumerators(m);
  const Enumerator& w = find(es, 1, true);
  EXPECT_TRUE(w.exact());
  EXPECT_FALSE(w.exactHull());
  const i64 n0 = 21;
  LaunchConfig cfg{{6, 6, 1}, {4, 4, 1}};
  i64 scalars[] = {n0};
  for (int gpu = 0; gpu < 3; ++gpu) {
    GridPartition gp = rowSlab(cfg, 3, gpu);
    PartitionTuple part = PartitionTuple::fromBlocks(gp, cfg.block);
    MaterializedRanges mat = w.materialize(part, cfg, scalars);
    EXPECT_EQ(elements(mat.ranges), observedWrites(*k, cfg, n0, gp, 1))
        << "partition " << gpu;
    // Interior rows contribute their two border cells, not a full row.
    EXPECT_GT(mat.ranges.size(), 1u) << "partition " << gpu;
  }
}

/// Without coalescing the proven hull is not used: the paper's per-row walk
/// of every disjunct runs, and merging yields the same ranges and the same
/// accounting as the hull path.
TEST(Codegen, CoalesceOffKeepsPerDisjunctWalk) {
  ir::KernelPtr k = apps::buildHotspot();
  KernelModel m = analysis::analyzeKernel(*k);
  Enumerator tout = find(buildEnumerators(m), 5, true);
  const i64 n = 29;
  LaunchConfig cfg{{8, 8, 1}, {4, 4, 1}};
  i64 scalars[] = {n};
  for (int gpu = 0; gpu < 4; ++gpu) {
    GridPartition gp = rowSlab(cfg, 4, gpu);
    PartitionTuple part = PartitionTuple::fromBlocks(gp, cfg.block);
    tout.coalesce = false;
    std::vector<std::pair<i64, i64>> perRow;
    EnumInfo perRowInfo;
    i64 callbacks = 0;
    tout.enumerate(part, cfg, scalars,
                   [&](i64 b, i64 e) {
                     ++callbacks;
                     perRow.emplace_back(b, e);
                   },
                   &perRowInfo);
    tout.coalesce = true;
    MaterializedRanges hull = tout.materialize(part, cfg, scalars);
    EXPECT_EQ(perRow, hull.ranges) << "partition " << gpu;
    EXPECT_EQ(perRowInfo, hull.info) << "partition " << gpu;
    EXPECT_EQ(elements(perRow), observedWrites(*k, cfg, n, gp, 5));
    // Logical rows are the per-disjunct rows: more than the block rows the
    // partition spans (every interior row is split into three pieces).
    EXPECT_GT(perRowInfo.logicalRows, gp.hi.y * 4 - gp.lo.y * 4);
  }
}

/// Splits "f(a, g(b, c), d)"-style argument text at top-level commas.
std::vector<std::string> topLevelArgs(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    if (!(c == ' ' && cur.empty())) cur += c;
  }
  out.push_back(cur);
  return out;
}

/// buildScan re-embeds every projection's rows; duplicates are dropped, so
/// the generated Hotspot write evaluates each guard and each min/max
/// argument once.
TEST(Codegen, HotspotWriteHasNoRepeatedGuardOrBoundTerm) {
  KernelModel m = analysis::analyzeKernel(*apps::buildHotspot());
  std::string src = find(buildEnumerators(m), 5, true).emitC();
  std::size_t guardLines = 0, calls = 0;
  std::size_t pos = 0;
  while (pos < src.size()) {
    std::size_t nl = src.find('\n', pos);
    std::string line = src.substr(pos, nl - pos);
    pos = nl == std::string::npos ? src.size() : nl + 1;
    // Guards: "if (g0 >= 0 && g1 >= 0 && ...) {".
    std::size_t at = line.find("if ((");
    if (at != std::string::npos) {
      ++guardLines;
      std::set<std::string> seen;
      std::string conds = line.substr(at + 4);
      for (std::size_t p = 0, q; p < conds.size(); p = q + 4) {
        q = conds.find(" && ", p);
        if (q == std::string::npos) q = conds.size();
        std::string g = conds.substr(p, q - p);
        EXPECT_TRUE(seen.insert(g).second) << "repeated guard " << g;
      }
    }
    // Bounds: every max(...)/min(...) call's arguments are distinct.
    for (const char* fn : {"max(", "min("}) {
      for (std::size_t f = line.find(fn); f != std::string::npos;
           f = line.find(fn, f + 1)) {
        ++calls;
        std::size_t open = f + 3;
        int depth = 0;
        std::size_t close = open;
        for (; close < line.size(); ++close) {
          if (line[close] == '(') ++depth;
          if (line[close] == ')' && --depth == 0) break;
        }
        std::vector<std::string> args =
            topLevelArgs(line.substr(open + 1, close - open - 1));
        std::set<std::string> unique(args.begin(), args.end());
        EXPECT_EQ(unique.size(), args.size()) << "repeated term in " << line;
      }
    }
  }
  EXPECT_EQ(guardLines, 6u);  // five disjuncts plus the hull
  EXPECT_GT(calls, 0u);
}

/// Satellite contract: a materialized plan replayed later must be
/// bit-identical to a live enumerate() call — same ranges in the same order
/// and the same work accounting — for every execution tier and coalescing
/// setting (the runtime's enumeration cache stores MaterializedRanges and
/// charges modeled time from its EnumInfo).
TEST(Codegen, MaterializeReplayMatchesLiveEnumerate) {
  for (const ir::KernelPtr& k :
       {apps::buildSaxpy(), apps::buildHotspot(), apps::buildMatmul()}) {
    KernelModel m = analysis::analyzeKernel(*k);
    auto es = buildEnumerators(m);
    LaunchConfig cfg{{4, 4, 1}, {8, 8, 1}};
    i64 scalars[] = {23};
    PartitionTuple part = PartitionTuple::fromBlocks(
        GridPartition{{1, 0, 0}, {4, 3, 1}}, cfg.block);
    for (Enumerator e : es) {
      for (EnumTier tier :
           {EnumTier::Interpret, EnumTier::Bytecode, EnumTier::Specialized}) {
        for (bool coalesce : {true, false}) {
          e.tier = tier;
          e.coalesce = coalesce;
          MaterializedRanges mat = e.materialize(part, cfg, scalars);
          std::vector<std::pair<i64, i64>> live;
          EnumInfo info;
          e.enumerate(part, cfg, scalars,
                      [&](i64 b, i64 en) { live.emplace_back(b, en); }, &info);
          EXPECT_EQ(mat.ranges, live)
              << e.name() << " tier " << enumTierName(tier);
          EXPECT_EQ(mat.info, info)
              << e.name() << " tier " << enumTierName(tier)
              << ": work accounting diverges between materialize and replay";
        }
      }
    }
  }
}

/// The bytecode and specialized tiers must emit byte-identical ranges and
/// accounting to the interpreter, including on repeated specialized calls
/// that hit the per-enumerator program cache.
TEST(Codegen, ExecutionTiersAreByteIdentical) {
  for (const ir::KernelPtr& k :
       {apps::buildSaxpy(), apps::buildHotspot(), apps::buildMatmul(),
        apps::buildNBodyForces()}) {
    KernelModel m = analysis::analyzeKernel(*k);
    auto es = buildEnumerators(m);
    LaunchConfig cfg{{6, 3, 1}, {8, 8, 1}};
    i64 scalars[] = {37};
    for (i64 lo = 0; lo < 3; ++lo) {
      PartitionTuple part = PartitionTuple::fromBlocks(
          GridPartition{{lo, lo / 2, 0}, {6, 3, 1}}, cfg.block);
      for (Enumerator e : es) {
        e.tier = EnumTier::Interpret;
        MaterializedRanges ref = e.materialize(part, cfg, scalars);
        e.tier = EnumTier::Bytecode;
        MaterializedRanges vm = e.materialize(part, cfg, scalars);
        EXPECT_EQ(ref.ranges, vm.ranges) << e.name() << " bytecode";
        EXPECT_EQ(ref.info, vm.info) << e.name() << " bytecode";
        e.tier = EnumTier::Specialized;
        MaterializedRanges spec = e.materialize(part, cfg, scalars);
        MaterializedRanges specHit = e.materialize(part, cfg, scalars);
        EXPECT_EQ(ref.ranges, spec.ranges) << e.name() << " specialized";
        EXPECT_EQ(ref.info, spec.info) << e.name() << " specialized";
        EXPECT_EQ(spec.ranges, specHit.ranges)
            << e.name() << " specialized cache hit";
        EXPECT_EQ(spec.info, specHit.info)
            << e.name() << " specialized cache hit";
      }
    }
  }
}

}  // namespace
}  // namespace polypart::codegen
