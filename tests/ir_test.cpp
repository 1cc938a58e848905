// Unit tests for the kernel IR: builder, verifier, interpreter, cost model,
// and the partitioning transformation (paper Section 7).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ir/builder.h"
#include "ir/cost.h"
#include "ir/interp.h"
#include "ir/program.h"
#include "ir/transform.h"
#include "ir/verify.h"

namespace polypart::ir {
namespace {

KernelPtr makeSaxpy() {
  KernelBuilder b("saxpy");
  auto n = b.scalar("n", Type::I64);
  auto a = b.scalar("a", Type::F64);
  auto x = b.array("x", Type::F64);
  auto y = b.array("y", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  b.iff(lt(i, n), [&] { b.store(y, i, a * b.load(x, i) + b.load(y, i)); });
  return b.build();
}

TEST(IrBuilder, SaxpyStructure) {
  KernelPtr k = makeSaxpy();
  EXPECT_EQ(k->name(), "saxpy");
  EXPECT_EQ(k->numParams(), 4u);
  EXPECT_EQ(k->arrayParamIndices(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(k->scalarParamIndices(), (std::vector<std::size_t>{0, 1}));
  std::string src = k->str();
  EXPECT_NE(src.find("__global__ void saxpy"), std::string::npos);
  EXPECT_NE(src.find("threadIdx.x"), std::string::npos);
}

TEST(IrInterp, SaxpyComputesCorrectly) {
  KernelPtr k = makeSaxpy();
  const i64 n = 1000;
  std::vector<double> x(n), y(n), expect(n);
  for (i64 i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<double>(i);
    y[static_cast<std::size_t>(i)] = 2.0 * static_cast<double>(i);
    expect[static_cast<std::size_t>(i)] = 3.0 * static_cast<double>(i) +
                                          2.0 * static_cast<double>(i);
  }
  ArgValue args[] = {
      ArgValue::ofInt(n), ArgValue::ofFloat(3.0),
      ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n)};
  // Grid overhang: 4 blocks of 256 threads cover 1024 > 1000 threads.
  execute(*k, LaunchConfig{{4, 1, 1}, {256, 1, 1}}, args);
  EXPECT_EQ(y, expect);
}

TEST(IrInterp, OutOfBoundsThrows) {
  KernelBuilder b("oob");
  auto x = b.array("x", Type::F64);
  b.store(x, b.globalId(Axis::X) + iconst(100), fconst(1.0));
  KernelPtr k = b.build();
  std::vector<double> buf(10);
  ArgValue args[] = {ArgValue::ofBuffer(buf.data(), 10)};
  EXPECT_THROW(execute(*k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args), Error);
}

TEST(IrInterp, SequentialLoopAndAccumulator) {
  // sum[i] = sum of m[i*cols .. i*cols+cols)
  KernelBuilder b("rowsum");
  auto cols = b.scalar("cols", Type::I64);
  auto m = b.array("m", Type::F64);
  auto sum = b.array("sum", Type::F64);
  auto i = b.let("i", b.globalId(Axis::X));
  auto acc = b.let("acc", fconst(0.0));
  b.forLoop("j", iconst(0), cols, [&](ExprPtr j) {
    b.assign(acc, acc + b.load(m, i * cols + j));
  });
  b.store(sum, i, acc);
  KernelPtr k = b.build();

  const i64 rows = 8, ncols = 5;
  std::vector<double> mat(static_cast<std::size_t>(rows * ncols));
  std::iota(mat.begin(), mat.end(), 0.0);
  std::vector<double> out(static_cast<std::size_t>(rows), -1.0);
  ArgValue args[] = {ArgValue::ofInt(ncols), ArgValue::ofBuffer(mat.data(), rows * ncols),
                     ArgValue::ofBuffer(out.data(), rows)};
  execute(*k, LaunchConfig{{2, 1, 1}, {4, 1, 1}}, args);
  for (i64 r = 0; r < rows; ++r) {
    double want = 0;
    for (i64 c = 0; c < ncols; ++c) want += static_cast<double>(r * ncols + c);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)], want);
  }
}

// -- lowered-program semantics (DESIGN.md "Functional execution") ----------

struct Access {
  std::size_t arg;
  bool isWrite;
  i64 index;
  bool operator==(const Access&) const = default;
};

/// Runs a one-thread launch of `body` over (x: f64[len], xi: i64[len]) and
/// records every observed access.
std::vector<Access> runObserved(const StmtPtr& body, std::vector<double>& x,
                                std::vector<i64>& xi) {
  Kernel k("probe", {{"x", true, Type::F64, {}}, {"xi", true, Type::I64, {}}}, body);
  std::vector<Access> seen;
  AccessObserver obs = [&](std::size_t arg, bool isWrite, i64 idx,
                           std::span<const i64, 12>) {
    seen.push_back({arg, isWrite, idx});
  };
  ArgValue args[] = {ArgValue::ofBuffer(x.data(), static_cast<i64>(x.size())),
                     ArgValue::ofBuffer(xi.data(), static_cast<i64>(xi.size()))};
  execute(k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args, obs);
  return seen;
}

ExprPtr loadX(i64 i) { return Expr::load(0, Type::F64, iconst(i)); }
ExprPtr loadXi(i64 i) { return Expr::load(1, Type::I64, iconst(i)); }

TEST(IrInterp, StoreIsObservedBeforeItsValueIsEvaluated) {
  // x[0] = x[1] + 1: the index, then the store's observer call and bounds
  // check, then the value (whose load is therefore observed second).
  std::vector<double> x = {5.0, 7.0};
  std::vector<i64> xi = {0};
  auto seen = runObserved(Stmt::store(0, iconst(0), loadX(1) + fconst(1.0)), x, xi);
  EXPECT_EQ(seen, (std::vector<Access>{{0, true, 0}, {0, false, 1}}));
  EXPECT_EQ(x[0], 8.0);

  // An out-of-bounds store throws before its value is evaluated.
  EXPECT_THROW(runObserved(Stmt::store(0, iconst(2), loadX(1)), x, xi), Error);
}

TEST(IrInterp, SelectEvaluatesOnlyTheTakenArm) {
  // The untaken arm loads far out of bounds; it must not run.
  std::vector<double> x = {0.0};
  std::vector<i64> xi = {1};
  auto seen = runObserved(
      Stmt::store(0, iconst(0),
                  Expr::select(loadXi(0), fconst(3.0), loadX(100))),
      x, xi);
  EXPECT_EQ(x[0], 3.0);
  EXPECT_EQ(seen, (std::vector<Access>{{0, true, 0}, {1, false, 0}}));
}

TEST(IrInterp, AndOrEvaluateBothOperands) {
  // No short circuit: the right operand's out-of-bounds load throws even
  // when the left operand already decides the result.
  std::vector<double> x = {0.0};
  std::vector<i64> xi = {0};
  for (BinOp op : {BinOp::And, BinOp::Or}) {
    ExprPtr left = iconst(op == BinOp::And ? 0 : 1);
    StmtPtr s = Stmt::store(1, iconst(0), Expr::binary(op, left, loadXi(100)));
    try {
      runObserved(s, x, xi);
      ADD_FAILURE() << binOpName(op) << " short-circuited";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(),
                   "out-of-bounds load in kernel 'probe' on 'xi' index 100 of 1");
    }
  }
}

TEST(IrInterp, ShadowedLetsInNestedBlocks) {
  // Built without the verifier, which rejects shadowing; execution scopes
  // each let to its block like C does.
  auto a = [] { return Expr::local("a", Type::I64); };
  auto put = [](i64 i, ExprPtr v) {
    return Stmt::store(1, iconst(i), std::move(v));
  };
  StmtPtr body = Stmt::block({
      Stmt::let("a", iconst(1)),
      Stmt::block({
          Stmt::let("a", iconst(2)),
          put(0, a()),
          Stmt::block({Stmt::let("a", a() + iconst(10)), put(1, a())}),
          put(2, a()),
      }),
      put(3, a()),
  });
  std::vector<double> x = {0.0};
  std::vector<i64> xi(4, -1);
  runObserved(body, x, xi);
  EXPECT_EQ(xi, (std::vector<i64>{2, 12, 2, 1}));
}

TEST(IrInterp, AssignInsideLoopsWritesTheEnclosingLocal) {
  auto acc = [] { return Expr::local("acc", Type::I64); };
  auto j = [] { return Expr::local("j", Type::I64); };
  auto m = [] { return Expr::local("m", Type::I64); };
  StmtPtr body = Stmt::block({
      // acc accumulates through a let scoped to each iteration.
      Stmt::let("acc", iconst(0)),
      Stmt::forLoop("j", iconst(0), iconst(4),
                    Stmt::block({Stmt::let("t", j() * iconst(2)),
                                 Stmt::assign("acc", acc() + Expr::local("t", Type::I64))})),
      Stmt::store(1, iconst(0), acc()),
      // Assigning the loop variable does not change the trip sequence.
      Stmt::forLoop("j", iconst(1), iconst(4),
                    Stmt::block({Stmt::store(1, j(), j()),
                                 Stmt::assign("j", iconst(100))})),
      // The bound is evaluated once: growing m inside the loop adds no trips.
      Stmt::let("m", iconst(2)),
      Stmt::forLoop("j", iconst(0), m(),
                    Stmt::assign("m", m() + iconst(1))),
      Stmt::store(1, iconst(4), m()),
  });
  std::vector<double> x = {0.0};
  std::vector<i64> xi(5, -1);
  runObserved(body, x, xi);
  EXPECT_EQ(xi, (std::vector<i64>{12, 1, 2, 3, 4}));
}

TEST(IrInterp, ZeroTripLoopsRunNoIterations) {
  // Both bodies would store out of bounds if they ran once.
  StmtPtr body = Stmt::block({
      Stmt::forLoop("j", iconst(5), iconst(2),
                    Stmt::store(0, iconst(99), fconst(1.0))),
      Stmt::forLoop("j", iconst(3), iconst(3),
                    Stmt::store(0, iconst(99), fconst(1.0))),
      Stmt::store(0, iconst(0), fconst(2.0)),
  });
  std::vector<double> x = {0.0};
  std::vector<i64> xi = {0};
  EXPECT_EQ(runObserved(body, x, xi), (std::vector<Access>{{0, true, 0}}));
  EXPECT_EQ(x[0], 2.0);
}

TEST(IrInterp, IntegerArithmeticWrapsAndDivisionFaultsThrow) {
  // xi[0] = xi[1] + xi[2] wraps; xi[3] = xi[1] / xi[2] may fault.
  StmtPtr body = Stmt::block({
      Stmt::store(1, iconst(0), loadXi(1) + loadXi(2)),
      Stmt::store(1, iconst(3), loadXi(1) / loadXi(2)),
  });
  std::vector<double> x = {0.0};
  std::vector<i64> xi = {0, INT64_MAX, 1, 0};
  runObserved(body, x, xi);
  EXPECT_EQ(xi[0], INT64_MIN);
  EXPECT_EQ(xi[3], INT64_MAX);

  auto divError = [&](i64 a, i64 b, BinOp op) -> std::string {
    std::vector<i64> v = {0, a, b, 0};
    try {
      runObserved(Stmt::store(1, iconst(3), Expr::binary(op, loadXi(1), loadXi(2))),
                  x, v);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(divError(7, 0, BinOp::Div), "integer division by zero in kernel 'probe'");
  EXPECT_EQ(divError(7, 0, BinOp::Rem), "integer remainder by zero in kernel 'probe'");
  EXPECT_EQ(divError(INT64_MIN, -1, BinOp::Div),
            "integer division overflow (INT64_MIN / -1) in kernel 'probe'");
  EXPECT_EQ(divError(INT64_MIN, -1, BinOp::Rem),
            "integer remainder overflow (INT64_MIN / -1) in kernel 'probe'");
  EXPECT_EQ(divError(-7, 2, BinOp::Rem), "no error");
}

TEST(IrInterp, MalformedArgumentsThrow) {
  KernelPtr k = makeSaxpy();
  std::vector<double> x(4), y(4);
  auto message = [&](std::vector<ArgValue> args) -> std::string {
    try {
      execute(*k, LaunchConfig{{1, 1, 1}, {4, 1, 1}}, args);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  const ArgValue bx = ArgValue::ofBuffer(x.data(), 4), by = ArgValue::ofBuffer(y.data(), 4);
  EXPECT_EQ(message({ArgValue::ofInt(4), ArgValue::ofFloat(2.0), bx}),
            "kernel 'saxpy' expects 4 arguments, got 3");
  EXPECT_EQ(message({ArgValue::ofInt(4), bx, bx, by}),
            "kernel 'saxpy': parameter 'a' expects a scalar, got an array");
  EXPECT_EQ(message({ArgValue::ofInt(4), ArgValue::ofFloat(2.0), ArgValue::ofInt(0), by}),
            "kernel 'saxpy': parameter 'x' expects an array, got a scalar");
  EXPECT_EQ(message({ArgValue::ofFloat(4.0), ArgValue::ofFloat(2.0), bx, by}),
            "kernel 'saxpy': parameter 'n' expects i64, got f64");
  EXPECT_EQ(message({ArgValue::ofInt(4), ArgValue::ofFloat(2.0), bx, by}), "no error");
}

TEST(IrInterp, KernelsTheLoweringCannotTypeThrow) {
  // The tree walker aborted on these when it reached them; the lowering
  // rejects them up front with an Error, and keeps rejecting them.
  Kernel k("ghost", {{"x", true, Type::F64, {}}},
           Stmt::store(0, Expr::local("g", Type::I64), fconst(0.0)));
  std::vector<double> x(1);
  ArgValue args[] = {ArgValue::ofBuffer(x.data(), 1)};
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      execute(k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args);
      ADD_FAILURE() << "undefined local accepted";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "kernel 'ghost': use of undefined local 'g'");
    }
  }
}

TEST(IrInterp, ProgramIsBuiltOnceAndShared) {
  KernelPtr k = makeSaxpy();
  const Program& p = k->program();
  EXPECT_EQ(&p, &k->program());
  EXPECT_EQ(p.threadCode.back().op, Op::Halt);
}

TEST(IrVerify, RejectsUndefinedLocal) {
  KernelBuilder b("bad");
  auto x = b.array("x", Type::F64);
  b.store(x, Expr::local("ghost", Type::I64), fconst(0.0));
  EXPECT_THROW(b.build(), Error);
}

TEST(IrVerify, RejectsTypeMismatchedStore) {
  KernelBuilder b("bad2");
  auto x = b.array("x", Type::F64);
  b.store(x, iconst(0), iconst(1));  // storing i64 into f64 array
  EXPECT_THROW(b.build(), Error);
}

TEST(IrVerify, RejectsDuplicateParams) {
  KernelBuilder b("bad3");
  b.scalar("n", Type::I64);
  auto x = b.array("n", Type::F64);
  b.store(x, iconst(0), fconst(0.0));
  EXPECT_THROW(b.build(), Error);
}

TEST(IrTransform, PartitionAppendsParamsAndRewrites) {
  KernelPtr k = makeSaxpy();
  KernelPtr p = partitionKernel(*k);
  EXPECT_EQ(p->name(), "saxpy__part");
  ASSERT_EQ(p->numParams(), 10u);
  EXPECT_EQ(p->param(4).name, "__part_min_x");
  EXPECT_EQ(p->param(9).name, "__part_max_z");
  std::string src = p->str();
  // blockIdx.x must now appear offset by the partition minimum.
  EXPECT_NE(src.find("arg4 + blockIdx.x"), std::string::npos);
}

TEST(IrTransform, PartitionedHalvesEqualWhole) {
  KernelPtr k = makeSaxpy();
  KernelPtr part = partitionKernel(*k);
  const i64 n = 2048;
  auto runFull = [&] {
    std::vector<double> x(n), y(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;
      y[static_cast<std::size_t>(i)] = static_cast<double>(i);
    }
    ArgValue args[] = {ArgValue::ofInt(n), ArgValue::ofFloat(1.5),
                       ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n)};
    execute(*k, LaunchConfig{{8, 1, 1}, {256, 1, 1}}, args);
    return y;
  };
  auto runParts = [&] {
    std::vector<double> x(n), y(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;
      y[static_cast<std::size_t>(i)] = static_cast<double>(i);
    }
    // Two partitions of the 8-block grid: [0,3) and [3,8).
    for (auto [lo, hi] : {std::pair<i64, i64>{0, 3}, {3, 8}}) {
      ArgValue args[] = {ArgValue::ofInt(n), ArgValue::ofFloat(1.5),
                         ArgValue::ofBuffer(x.data(), n), ArgValue::ofBuffer(y.data(), n),
                         // min x,y,z then max x,y,z (Eq. 10 grid config).
                         ArgValue::ofInt(lo), ArgValue::ofInt(0), ArgValue::ofInt(0),
                         ArgValue::ofInt(8), ArgValue::ofInt(1), ArgValue::ofInt(1)};
      execute(*part, LaunchConfig{{hi - lo, 1, 1}, {256, 1, 1}}, args);
    }
    return y;
  };
  EXPECT_EQ(runFull(), runParts());
}

TEST(IrCost, SaxpyCounts) {
  KernelPtr k = makeSaxpy();
  ArgValue args[] = {ArgValue::ofInt(1 << 20), ArgValue::ofFloat(2.0),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 1 << 20),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 1 << 20)};
  ThreadCost c = estimateThreadCost(*k, LaunchConfig{{4096, 1, 1}, {256, 1, 1}}, args);
  EXPECT_DOUBLE_EQ(c.loads, 2);
  EXPECT_DOUBLE_EQ(c.stores, 1);
  EXPECT_DOUBLE_EQ(c.flops, 2);  // one multiply, one add
}

TEST(IrCost, LoopTripCountsScaleCost) {
  KernelBuilder b("loopy");
  auto n = b.scalar("n", Type::I64);
  auto x = b.array("x", Type::F64);
  auto acc = b.let("acc", fconst(0.0));
  b.forLoop("j", iconst(0), n, [&](ExprPtr j) {
    b.assign(acc, acc + b.load(x, j));
  });
  b.store(x, iconst(0), acc);
  KernelPtr k = b.build();
  ArgValue args[] = {ArgValue::ofInt(100),
                     ArgValue::ofBuffer(reinterpret_cast<void*>(8), 100)};
  ThreadCost c = estimateThreadCost(*k, LaunchConfig{{1, 1, 1}, {1, 1, 1}}, args);
  EXPECT_DOUBLE_EQ(c.loads, 100);
  EXPECT_DOUBLE_EQ(c.flops, 100);
}

}  // namespace
}  // namespace polypart::ir
