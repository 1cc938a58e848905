// Differential fuzzing of ir::execute — the lowered register program
// (ir/program.h) — against the tree-walking interpreter it replaced
// (tests/tree_walker.h).
//
// Each case runs the same launch three times: the tree walker with an
// access observer, the program with an observer, and the program without
// one.  All three must leave identical output bytes and throw the same
// Error text (or none); the two observed runs must report identical event
// streams: argument, read/write, flat index and all 12 builtins, in order.
//
// Kernels come from three sources: random kernels over every IR construct
// (shadowed lets, loops that assign their own variable, zero-trip loops,
// selects, casts, math, integer division that may fault, loads that may
// fall out of bounds); the random affine kernels of tests/fuzz_kernels.h,
// plain and partitioned; and all eight application kernels, plain and
// partitioned over random partition boxes.
//
// Seeds follow tests/fuzz_util.h; a failing case replays alone via
// POLYPART_FUZZ_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <thread>
#include <vector>

#include "apps/kernels.h"
#include "fuzz_kernels.h"
#include "fuzz_util.h"
#include "ir/interp.h"
#include "ir/transform.h"
#include "tree_walker.h"

namespace polypart::ir {
namespace {

struct Event {
  std::size_t arg = 0;
  bool isWrite = false;
  i64 index = 0;
  std::array<i64, 12> builtins{};
  bool operator==(const Event&) const = default;
};

std::string describe(const Event& e) {
  std::string s = std::string(e.isWrite ? "store" : "load") + " arg " +
                  std::to_string(e.arg) + " index " + std::to_string(e.index) +
                  " builtins";
  for (i64 b : e.builtins) s += " " + std::to_string(b);
  return s;
}

/// A launch's inputs: one scalar or one raw 8-byte-element buffer per
/// parameter (f64 arrays hold the bit patterns of their doubles).
struct Inputs {
  std::vector<Value> scalars;
  std::vector<std::vector<i64>> arrays;
};

struct Outcome {
  std::vector<std::vector<i64>> arrays;
  std::vector<Event> events;
  std::string error;  // empty when the launch completed
};

using Executor = void (*)(const Kernel&, const LaunchConfig&,
                          std::span<const ArgValue>, const AccessObserver&);

Outcome runLaunch(Executor exec, const Kernel& k, const LaunchConfig& cfg,
                  const Inputs& in, bool observe) {
  Outcome out;
  out.arrays = in.arrays;
  std::vector<ArgValue> args;
  for (std::size_t i = 0; i < k.numParams(); ++i) {
    if (k.param(i).isArray)
      args.push_back(ArgValue::ofBuffer(out.arrays[i].data(),
                                        static_cast<i64>(out.arrays[i].size())));
    else
      args.push_back(ArgValue{in.scalars[i], nullptr, 0});
  }
  AccessObserver observer;
  if (observe)
    observer = [&](std::size_t arg, bool isWrite, i64 index,
                   std::span<const i64, 12> builtins) {
      Event e{arg, isWrite, index, {}};
      std::copy(builtins.begin(), builtins.end(), e.builtins.begin());
      out.events.push_back(e);
    };
  try {
    exec(k, cfg, args, observer);
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

void programExecute(const Kernel& k, const LaunchConfig& cfg,
                    std::span<const ArgValue> args, const AccessObserver& obs) {
  execute(k, cfg, args, obs);
}

void oracleExecute(const Kernel& k, const LaunchConfig& cfg,
                   std::span<const ArgValue> args, const AccessObserver& obs) {
  oracle::treeWalkExecute(k, cfg, args, obs);
}

/// Runs the three executions and checks they agree; returns whether the
/// launch threw (so sweeps can report how much of each ran to completion).
bool expectSameBehaviour(const Kernel& k, const LaunchConfig& cfg,
                         const Inputs& in, const std::string& what) {
  Outcome want = runLaunch(&oracleExecute, k, cfg, in, true);
  Outcome got = runLaunch(&programExecute, k, cfg, in, true);
  Outcome blind = runLaunch(&programExecute, k, cfg, in, false);
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(blind.error, want.error) << what;
  EXPECT_TRUE(got.arrays == want.arrays) << what << ": output bytes differ";
  EXPECT_TRUE(blind.arrays == want.arrays)
      << what << ": output bytes differ without an observer";
  EXPECT_EQ(got.events.size(), want.events.size()) << what;
  const std::size_t n = std::min(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got.events[i] == want.events[i]) continue;
    ADD_FAILURE() << what << ": event " << i << " differs: got "
                  << describe(got.events[i]) << ", want "
                  << describe(want.events[i]);
    break;
  }
  return !want.error.empty();
}

i64 doubleBits(double d) { return std::bit_cast<i64>(d); }

// -- random kernels over every construct -------------------------------------

/// Generates well-typed kernels straight from the Stmt/Expr factories (not
/// KernelBuilder, whose verifier rejects shadowing), so shadowed lets and
/// loop variables are covered.  Parameters: n (i64), s (f64), ai (i64[]),
/// af (f64[]), out (f64[]), outi (i64[]); every array has `len` elements
/// unless the case shrinks one.
class RandomKernel {
 public:
  RandomKernel(fuzz::SeededRng& rng, i64 len, bool faults)
      : rng_(rng), len_(len), faults_(faults) {}

  KernelPtr build(const std::string& name) {
    std::vector<Param> params = {
        {"n", false, Type::I64, {}},   {"s", false, Type::F64, {}},
        {"ai", true, Type::I64, {}},   {"af", true, Type::F64, {}},
        {"out", true, Type::F64, {}},  {"outi", true, Type::I64, {}}};
    return std::make_shared<Kernel>(name, std::move(params), block(3));
  }

 private:
  static constexpr const char* kNames[] = {"a", "b", "c", "d", "e", "i", "j"};

  const char* name() { return kNames[rng_.range(0, 6)]; }

  ExprPtr intLeaf() {
    switch (rng_.range(0, 5)) {
      case 0: return Expr::arg(0, Type::I64);
      case 1: return Expr::builtinVar(static_cast<Builtin>(rng_.range(0, 11)));
      case 2:
        if (ExprPtr l = local(Type::I64)) return l;
        [[fallthrough]];
      case 3:
        if (rng_.chance(0.1)) {
          const i64 extremes[] = {INT64_MIN, INT64_MAX, -1, INT64_MIN + 1};
          return iconst(extremes[rng_.range(0, 3)]);
        }
        [[fallthrough]];
      default: return iconst(rng_.range(-3, 5));
    }
  }

  ExprPtr floatLeaf() {
    switch (rng_.range(0, 3)) {
      case 0: return Expr::arg(1, Type::F64);
      case 1:
        if (ExprPtr l = local(Type::F64)) return l;
        [[fallthrough]];
      default: {
        if (rng_.chance(0.1)) {
          const double extremes[] = {0.0, -0.0, 1e308, -1e19};
          return fconst(extremes[rng_.range(0, 3)]);
        }
        return fconst(static_cast<double>(rng_.range(-16, 16)) / 4.0);
      }
    }
  }

  ExprPtr local(Type t) {
    // The innermost binding of each name decides its type.
    std::vector<std::string> names, seen;
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (std::find(seen.begin(), seen.end(), it->first) != seen.end()) continue;
      seen.push_back(it->first);
      if (it->second == t) names.push_back(it->first);
    }
    if (names.empty()) return nullptr;
    return Expr::local(names[static_cast<std::size_t>(
                           rng_.range(0, static_cast<i64>(names.size()) - 1))],
                       t);
  }

  ExprPtr index(int depth) {
    ExprPtr e = expr(Type::I64, depth);
    if (faults_ && rng_.chance(0.1)) return e;
    return Expr::binary(BinOp::Max, iconst(0),
                        Expr::binary(BinOp::Min, e, iconst(len_ - 1)));
  }

  ExprPtr divisor(int depth) {
    ExprPtr d = expr(Type::I64, depth);
    if (faults_ && rng_.chance(0.3)) return d;
    return Expr::select(lor(eq(d, iconst(0)), eq(d, iconst(-1))), iconst(3), d);
  }

  ExprPtr expr(Type t, int depth) {
    if (depth <= 0 || rng_.chance(0.25)) return t == Type::I64 ? intLeaf() : floatLeaf();
    const int d = depth - 1;
    if (t == Type::I64) {
      switch (rng_.range(0, 8)) {
        case 0: {
          const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min,
                               BinOp::Max};
          return Expr::binary(ops[rng_.range(0, 4)], expr(t, d), expr(t, d));
        }
        case 1:
          return Expr::binary(rng_.chance(0.5) ? BinOp::Div : BinOp::Rem,
                              expr(t, d), divisor(d));
        case 2: {
          const BinOp ops[] = {BinOp::Eq, BinOp::Ne, BinOp::Lt,
                               BinOp::Le, BinOp::Gt, BinOp::Ge};
          Type ot = rng_.chance(0.5) ? Type::I64 : Type::F64;
          return Expr::binary(ops[rng_.range(0, 5)], expr(ot, d), expr(ot, d));
        }
        case 3:
          return Expr::binary(rng_.chance(0.5) ? BinOp::And : BinOp::Or,
                              expr(t, d), expr(t, d));
        case 4:
          return Expr::unary(rng_.chance(0.5) ? UnOp::Neg : UnOp::Not, expr(t, d));
        case 5: return Expr::select(expr(Type::I64, d), expr(t, d), expr(t, d));
        case 6: return Expr::cast(Type::I64, expr(Type::F64, d));
        default: return Expr::load(2, Type::I64, index(d));
      }
    }
    switch (rng_.range(0, 6)) {
      case 0: {
        const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                             BinOp::Min, BinOp::Max};
        return Expr::binary(ops[rng_.range(0, 5)], expr(t, d), expr(t, d));
      }
      case 1: return Expr::unary(UnOp::Neg, expr(t, d));
      case 2: return Expr::select(expr(Type::I64, d), expr(t, d), expr(t, d));
      case 3: return Expr::cast(Type::F64, expr(Type::I64, d));
      case 4: {
        const MathFn fns[] = {MathFn::Sqrt, MathFn::Rsqrt, MathFn::Exp,
                              MathFn::Fabs};
        return Expr::math(fns[rng_.range(0, 3)], expr(t, d));
      }
      default:
        return Expr::load(rng_.chance(0.5) ? 3 : 4, Type::F64, index(d));
    }
  }

  // Loop bounds in [-2, 4]: at most six trips, often none.
  ExprPtr bound(i64 lo, i64 hi) {
    return Expr::binary(BinOp::Max, iconst(lo),
                        Expr::binary(BinOp::Min, expr(Type::I64, 2), iconst(hi)));
  }

  StmtPtr stmt(int depth) {
    switch (rng_.range(0, depth > 0 ? 6 : 2)) {
      case 0: {
        Type t = rng_.chance(0.5) ? Type::I64 : Type::F64;
        // A bare local as the value makes the new name an alias candidate.
        ExprPtr v = rng_.chance(0.25) ? local(t) : nullptr;
        if (!v) v = expr(t, 3);
        std::string n = name();
        scope_.emplace_back(n, t);
        return Stmt::let(n, std::move(v));
      }
      case 1: {
        Type t = rng_.chance(0.5) ? Type::I64 : Type::F64;
        ExprPtr target = local(t);
        if (target) return Stmt::assign(target->localName(), expr(t, 3));
        [[fallthrough]];
      }
      case 2: {
        const bool f = rng_.chance(0.6);
        return Stmt::store(f ? 4 : 5, index(2), expr(f ? Type::F64 : Type::I64, 3));
      }
      case 3: {
        ExprPtr c = expr(Type::I64, 2);
        StmtPtr then = block(depth - 1);
        StmtPtr otherwise = rng_.chance(0.5) ? block(depth - 1) : nullptr;
        return Stmt::ifThen(std::move(c), std::move(then), std::move(otherwise));
      }
      case 4: {
        ExprPtr lo = bound(-2, 2), hi = bound(-2, 4);
        std::string v = name();
        const std::size_t mark = scope_.size();
        scope_.emplace_back(v, Type::I64);
        // Sometimes the body is a bare statement, not a block.
        StmtPtr body = rng_.chance(0.3) ? stmt(depth - 1) : block(depth - 1);
        scope_.resize(mark);
        return Stmt::forLoop(v, std::move(lo), std::move(hi), std::move(body));
      }
      default: return block(depth - 1);
    }
  }

  StmtPtr block(int depth) {
    const std::size_t mark = scope_.size();
    std::vector<StmtPtr> body;
    const i64 n = rng_.range(1, 4);
    for (i64 i = 0; i < n; ++i) body.push_back(stmt(depth));
    scope_.resize(mark);
    return Stmt::block(std::move(body));
  }

  fuzz::SeededRng& rng_;
  i64 len_;
  bool faults_;
  std::vector<std::pair<std::string, Type>> scope_;
};

TEST(InterpFuzz, RandomKernelsOverEveryConstruct) {
  const int cases = fuzz::caseCount(3000);
  int threw = 0;
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(51, c));
    const i64 len = rng.range(1, 12);
    const bool faults = rng.chance(0.3);
    KernelPtr k = RandomKernel(rng, len, faults).build("soup" + std::to_string(c));
    Inputs in;
    in.scalars = {Value::ofInt(rng.range(-2, 6)),
                  Value::ofFloat(static_cast<double>(rng.range(-8, 8)) / 2.0),
                  {}, {}, {}, {}};
    in.arrays.resize(6);
    for (std::size_t a = 2; a < 6; ++a) {
      i64 n = len;
      if (faults && rng.chance(0.2)) n = rng.range(1, len);
      for (i64 i = 0; i < n; ++i)
        in.arrays[a].push_back(a == 2 ? rng.range(-3, len + 3)
                                      : a == 5 ? rng.range(-9, 9)
                                               : doubleBits(rng.uniform() * 8 - 4));
    }
    LaunchConfig cfg{{rng.range(1, 3), rng.range(1, 2), rng.range(1, 2)},
                     {rng.range(1, 4), rng.range(1, 3), rng.range(1, 2)}};
    threw += expectSameBehaviour(*k, cfg, in, k->str() + "\n" + rng.replay());
    if (::testing::Test::HasFailure()) return;
  }
  // Both outcomes must be exercised, or the sweep checks less than it says.
  if (!fuzz::seedPinned()) {
    EXPECT_GT(threw, 0);
    EXPECT_LT(threw, cases);
  }
}

// -- application and affine fuzz kernels, plain and partitioned -------------

/// Inputs sized so that every kernel of the suite stays mostly in bounds:
/// each i64 scalar is `n`, every array has n*n + n + 1 elements, i64 array
/// contents are valid indices below n.  With `shrink`, one array is cut to a
/// random length so some launches fault.
Inputs randomInputs(fuzz::SeededRng& rng, const Kernel& k, i64 n, bool shrink) {
  Inputs in;
  in.scalars.resize(k.numParams());
  in.arrays.resize(k.numParams());
  for (std::size_t i = 0; i < k.numParams(); ++i) {
    const Param& p = k.param(i);
    if (!p.isArray) {
      in.scalars[i] = p.type == Type::I64
                          ? Value::ofInt(n)
                          : Value::ofFloat(rng.uniform() * 0.5 + 0.01);
      continue;
    }
    const i64 len = n * n + n + 1;
    for (i64 e = 0; e < len; ++e)
      in.arrays[i].push_back(p.type == Type::I64 ? rng.range(0, n - 1)
                                                 : doubleBits(rng.uniform() * 10 - 5));
  }
  if (shrink) {
    const std::vector<std::size_t> arrays = k.arrayParamIndices();
    std::vector<i64>& a = in.arrays[arrays[static_cast<std::size_t>(
        rng.range(0, static_cast<i64>(arrays.size()) - 1))]];
    a.resize(static_cast<std::size_t>(rng.range(1, static_cast<i64>(a.size()))));
  }
  return in;
}

/// Runs `k` on a random grid, then its partitioned clone on a random
/// partition box of that grid (boxes may be empty or touch the grid edge).
void checkPlainAndPartitioned(fuzz::SeededRng& rng, const Kernel& k,
                              const Kernel& part, const std::string& what) {
  const i64 n = rng.range(2, 12);
  const Inputs in = randomInputs(rng, k, n, rng.chance(0.2));
  const Dim3 block{rng.range(1, 8), rng.range(1, 4), rng.range(1, 2)};
  const Dim3 grid{rng.range(1, 4), rng.range(1, 4), rng.range(1, 2)};
  expectSameBehaviour(k, {grid, block}, in, what + " plain, " + rng.replay());

  Dim3 lo, hi;
  auto box = [&](i64 g, i64& l, i64& h) {
    l = rng.range(0, g);
    h = rng.range(l, g);
  };
  box(grid.x, lo.x, hi.x);
  box(grid.y, lo.y, hi.y);
  box(grid.z, lo.z, hi.z);
  Inputs pin = in;
  for (i64 v : {lo.x, lo.y, lo.z, hi.x, hi.y, hi.z}) {
    pin.scalars.push_back(Value::ofInt(v));
    pin.arrays.emplace_back();
  }
  expectSameBehaviour(part, {{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z}, block}, pin,
                      what + " partitioned " + lo.str() + ".." + hi.str() + ", " +
                          rng.replay());
}

TEST(InterpFuzz, ApplicationKernelsPlainAndPartitioned) {
  const Module regular = apps::buildBenchmarkModule();
  const Module irregular = apps::buildIrregularModule();
  std::vector<KernelPtr> kernels = regular.kernels();
  kernels.insert(kernels.end(), irregular.kernels().begin(),
                 irregular.kernels().end());
  ASSERT_EQ(kernels.size(), 8u);
  const int cases = fuzz::caseCount(12);
  for (const KernelPtr& k : kernels) {
    KernelPtr part = partitionKernel(*k);
    for (int c = 0; c < cases; ++c) {
      fuzz::SeededRng rng(fuzz::seedFor(52, c));
      checkPlainAndPartitioned(rng, *k, *part, k->name());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(InterpFuzz, AffineFuzzKernelsPlainAndPartitioned) {
  const int cases = fuzz::caseCount(60);
  for (int c = 0; c < cases; ++c) {
    fuzz::SeededRng rng(fuzz::seedFor(53, c));
    fuzz::GeneratedKernel g = fuzz::generate(rng, c);
    KernelPtr part = partitionKernel(*g.kernel);
    checkPlainAndPartitioned(rng, *g.kernel, *part, g.kernel->name());
    if (::testing::Test::HasFailure()) return;
  }
}

// The program is built lazily on first use and then shared: concurrent
// first launches of one kernel must agree with the oracle (and be clean
// under ThreadSanitizer).
TEST(InterpFuzz, ConcurrentFirstLaunchesShareOneProgram) {
  KernelPtr k = partitionKernel(*apps::buildHotspot());
  fuzz::SeededRng rng(fuzz::seedFor(54, 0));
  const Inputs in = randomInputs(rng, *k, 24, false);
  const LaunchConfig cfg{{3, 2, 1}, {8, 8, 1}};
  Inputs pin = in;
  for (std::size_t i = k->numParams() - 6; i < k->numParams(); ++i)
    pin.scalars[i] = Value::ofInt(i < k->numParams() - 3 ? 0 : 3);
  const Outcome want = runLaunch(&oracleExecute, *k, cfg, pin, true);
  ASSERT_EQ(want.error, "");
  std::vector<Outcome> got(4);
  std::vector<std::thread> threads;
  for (Outcome& o : got)
    threads.emplace_back([&, slot = &o] {
      *slot = runLaunch(&programExecute, *k, cfg, pin, true);
    });
  for (std::thread& t : threads) t.join();
  for (const Outcome& o : got) {
    EXPECT_EQ(o.error, "");
    EXPECT_TRUE(o.arrays == want.arrays);
    EXPECT_TRUE(o.events == want.events);
  }
}

}  // namespace
}  // namespace polypart::ir
