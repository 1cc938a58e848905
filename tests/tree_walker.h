#pragma once

// Differential oracle for ir::execute: the original tree-walking
// interpreter, which re-walks the Expr tree for every thread and resolves
// locals by name along a scoped environment.  It is kept only here, as the
// reference the lowered register program (ir/program.h) is compared with
// (tests/interp_fuzz_test.cpp).  Its arithmetic follows the same defined
// semantics as the program: wrapping i64 Add/Sub/Mul/Neg, Error on integer
// division by zero or INT64_MIN / -1, truncToI64 for f64 -> i64 casts.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ir/interp.h"
#include "support/error.h"

namespace polypart::oracle {

namespace detail {

using namespace ir;

struct ThreadCtx {
  const Kernel& kernel;
  std::span<const ArgValue> args;
  const AccessObserver* observer = nullptr;
  i64 builtins[12];  // indexed by Builtin enum order
  std::vector<std::pair<const std::string*, Value>> env;

  Value* findLocal(const std::string& name) {
    for (auto it = env.rbegin(); it != env.rend(); ++it)
      if (*it->first == name) return &it->second;
    return nullptr;
  }

  [[noreturn]] void badDivision(bool rem, bool byZero) const {
    throw Error(std::string("integer ") + (rem ? "remainder" : "division") +
                (byZero ? " by zero" : " overflow (INT64_MIN / -1)") +
                " in kernel '" + kernel.sourceName() + "'");
  }
};

inline Value evalExpr(const Expr& e, ThreadCtx& ctx);

inline Value evalBinary(const Expr& e, ThreadCtx& ctx) {
  Value a = evalExpr(*e.operands()[0], ctx);
  Value b = evalExpr(*e.operands()[1], ctx);
  BinOp op = e.binOp();
  if (a.type == Type::I64) {
    i64 x = a.i, y = b.i;
    switch (op) {
      case BinOp::Add: return Value::ofInt(wrapAdd(x, y));
      case BinOp::Sub: return Value::ofInt(wrapSub(x, y));
      case BinOp::Mul: return Value::ofInt(wrapMul(x, y));
      case BinOp::Div:
      case BinOp::Rem: {
        const bool rem = op == BinOp::Rem;
        if (y == 0) ctx.badDivision(rem, true);
        if (y == -1 && x == INT64_MIN) ctx.badDivision(rem, false);
        return Value::ofInt(rem ? x % y : x / y);
      }
      case BinOp::Min: return Value::ofInt(x < y ? x : y);
      case BinOp::Max: return Value::ofInt(x > y ? x : y);
      case BinOp::Eq: return Value::ofInt(x == y);
      case BinOp::Ne: return Value::ofInt(x != y);
      case BinOp::Lt: return Value::ofInt(x < y);
      case BinOp::Le: return Value::ofInt(x <= y);
      case BinOp::Gt: return Value::ofInt(x > y);
      case BinOp::Ge: return Value::ofInt(x >= y);
      case BinOp::And: return Value::ofInt(x != 0 && y != 0);
      case BinOp::Or: return Value::ofInt(x != 0 || y != 0);
    }
  } else {
    double x = a.f, y = b.f;
    switch (op) {
      case BinOp::Add: return Value::ofFloat(x + y);
      case BinOp::Sub: return Value::ofFloat(x - y);
      case BinOp::Mul: return Value::ofFloat(x * y);
      case BinOp::Div: return Value::ofFloat(x / y);
      case BinOp::Min: return Value::ofFloat(x < y ? x : y);
      case BinOp::Max: return Value::ofFloat(x > y ? x : y);
      case BinOp::Eq: return Value::ofInt(x == y);
      case BinOp::Ne: return Value::ofInt(x != y);
      case BinOp::Lt: return Value::ofInt(x < y);
      case BinOp::Le: return Value::ofInt(x <= y);
      case BinOp::Gt: return Value::ofInt(x > y);
      case BinOp::Ge: return Value::ofInt(x >= y);
      case BinOp::Rem:
      case BinOp::And:
      case BinOp::Or:
        PP_ASSERT_MSG(false, "operator not defined on f64");
    }
  }
  PP_ASSERT(false);
  return {};
}

inline Value evalExpr(const Expr& e, ThreadCtx& ctx) {
  switch (e.kind()) {
    case Expr::Kind::IntConst: return Value::ofInt(e.intValue());
    case Expr::Kind::FloatConst: return Value::ofFloat(e.floatValue());
    case Expr::Kind::Arg: return ctx.args[e.argIndex()].scalar;
    case Expr::Kind::Local: {
      Value* v = ctx.findLocal(e.localName());
      PP_ASSERT_MSG(v != nullptr, "undefined local at runtime");
      return *v;
    }
    case Expr::Kind::BuiltinVar:
      return Value::ofInt(ctx.builtins[static_cast<int>(e.builtin())]);
    case Expr::Kind::Load: {
      const ArgValue& a = ctx.args[e.argIndex()];
      i64 idx = evalExpr(*e.operands()[0], ctx).asInt();
      if (ctx.observer && *ctx.observer)
        (*ctx.observer)(e.argIndex(), false, idx, std::span<const i64, 12>(ctx.builtins));
      if (idx < 0 || idx >= a.numElements)
        throw Error("out-of-bounds load in kernel '" + ctx.kernel.sourceName() +
                    "' on '" + ctx.kernel.param(e.argIndex()).name + "' index " +
                    std::to_string(idx) + " of " + std::to_string(a.numElements));
      if (e.type() == Type::F64)
        return Value::ofFloat(static_cast<const double*>(a.buffer)[idx]);
      return Value::ofInt(static_cast<const i64*>(a.buffer)[idx]);
    }
    case Expr::Kind::Unary: {
      Value v = evalExpr(*e.operands()[0], ctx);
      if (e.unOp() == UnOp::Neg)
        return v.type == Type::I64 ? Value::ofInt(wrapNeg(v.i)) : Value::ofFloat(-v.f);
      return Value::ofInt(v.asInt() == 0);
    }
    case Expr::Kind::Binary: return evalBinary(e, ctx);
    case Expr::Kind::Select: {
      Value c = evalExpr(*e.operands()[0], ctx);
      return evalExpr(*e.operands()[c.asInt() != 0 ? 1 : 2], ctx);
    }
    case Expr::Kind::Cast: {
      Value v = evalExpr(*e.operands()[0], ctx);
      if (e.type() == v.type) return v;
      if (e.type() == Type::F64) return Value::ofFloat(static_cast<double>(v.i));
      return Value::ofInt(truncToI64(v.f));
    }
    case Expr::Kind::Math: {
      double x = evalExpr(*e.operands()[0], ctx).asFloat();
      switch (e.mathFn()) {
        case MathFn::Sqrt: return Value::ofFloat(std::sqrt(x));
        case MathFn::Rsqrt: return Value::ofFloat(1.0 / std::sqrt(x));
        case MathFn::Exp: return Value::ofFloat(std::exp(x));
        case MathFn::Fabs: return Value::ofFloat(std::fabs(x));
      }
      PP_ASSERT(false);
    }
  }
  PP_ASSERT(false);
  return {};
}

inline void execStmt(const Stmt& s, ThreadCtx& ctx) {
  switch (s.kind()) {
    case Stmt::Kind::Block: {
      std::size_t mark = ctx.env.size();
      for (const StmtPtr& c : s.body()) execStmt(*c, ctx);
      ctx.env.resize(mark);
      break;
    }
    case Stmt::Kind::Let:
      ctx.env.emplace_back(&s.varName(), evalExpr(*s.value(), ctx));
      break;
    case Stmt::Kind::Assign: {
      Value* v = ctx.findLocal(s.varName());
      PP_ASSERT_MSG(v != nullptr, "assignment to undefined local at runtime");
      *v = evalExpr(*s.value(), ctx);
      break;
    }
    case Stmt::Kind::Store: {
      const ArgValue& a = ctx.args[s.arrayArg()];
      i64 idx = evalExpr(*s.index(), ctx).asInt();
      if (ctx.observer && *ctx.observer)
        (*ctx.observer)(s.arrayArg(), true, idx, std::span<const i64, 12>(ctx.builtins));
      if (idx < 0 || idx >= a.numElements)
        throw Error("out-of-bounds store in kernel '" + ctx.kernel.sourceName() +
                    "' on '" + ctx.kernel.param(s.arrayArg()).name + "' index " +
                    std::to_string(idx) + " of " + std::to_string(a.numElements));
      Value v = evalExpr(*s.value(), ctx);
      if (v.type == Type::F64)
        static_cast<double*>(a.buffer)[idx] = v.f;
      else
        static_cast<i64*>(a.buffer)[idx] = v.i;
      break;
    }
    case Stmt::Kind::For: {
      i64 lo = evalExpr(*s.lo(), ctx).asInt();
      i64 hi = evalExpr(*s.hi(), ctx).asInt();
      std::size_t mark = ctx.env.size();
      ctx.env.emplace_back(&s.varName(), Value::ofInt(lo));
      for (i64 v = lo; v < hi; ++v) {
        ctx.env[mark].second = Value::ofInt(v);
        execStmt(*s.body()[0], ctx);
        ctx.env.resize(mark + 1);
      }
      ctx.env.resize(mark);
      break;
    }
    case Stmt::Kind::If: {
      i64 c = evalExpr(*s.cond(), ctx).asInt();
      std::size_t mark = ctx.env.size();
      if (c != 0)
        execStmt(*s.body()[0], ctx);
      else if (s.body()[1])
        execStmt(*s.body()[1], ctx);
      ctx.env.resize(mark);
      break;
    }
  }
}

}  // namespace detail

/// Tree-walking counterpart of ir::execute: same arguments, same results,
/// same observer events and the same Error text.
inline void treeWalkExecute(const ir::Kernel& kernel, const ir::LaunchConfig& cfg,
                            std::span<const ir::ArgValue> args,
                            const ir::AccessObserver& observer = nullptr) {
  using ir::Builtin;
  ir::checkArguments(kernel, args);
  detail::ThreadCtx ctx{kernel, args, &observer, {}, {}};
  ctx.env.reserve(16);
  auto set = [&](Builtin b, i64 v) { ctx.builtins[static_cast<int>(b)] = v; };
  set(Builtin::BlockDimX, cfg.block.x);
  set(Builtin::BlockDimY, cfg.block.y);
  set(Builtin::BlockDimZ, cfg.block.z);
  set(Builtin::GridDimX, cfg.grid.x);
  set(Builtin::GridDimY, cfg.grid.y);
  set(Builtin::GridDimZ, cfg.grid.z);

  for (i64 bz = 0; bz < cfg.grid.z; ++bz) {
    set(Builtin::BlockIdxZ, bz);
    for (i64 by = 0; by < cfg.grid.y; ++by) {
      set(Builtin::BlockIdxY, by);
      for (i64 bx = 0; bx < cfg.grid.x; ++bx) {
        set(Builtin::BlockIdxX, bx);
        for (i64 tz = 0; tz < cfg.block.z; ++tz) {
          set(Builtin::ThreadIdxZ, tz);
          for (i64 ty = 0; ty < cfg.block.y; ++ty) {
            set(Builtin::ThreadIdxY, ty);
            for (i64 tx = 0; tx < cfg.block.x; ++tx) {
              set(Builtin::ThreadIdxX, tx);
              ctx.env.clear();
              detail::execStmt(*kernel.body(), ctx);
            }
          }
        }
      }
    }
  }
}

}  // namespace polypart::oracle
