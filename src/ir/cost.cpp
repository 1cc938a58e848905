#include "ir/cost.h"

#include <optional>

namespace polypart::ir {

namespace {

struct CostCtx {
  std::span<const ArgValue> args;
  i64 builtins[12];
};

/// Integer-evaluates an expression when it only depends on scalars, builtins
/// and constants; returns nullopt when a load or local intervenes.
std::optional<i64> tryEvalInt(const Expr& e, const CostCtx& ctx) {
  switch (e.kind()) {
    case Expr::Kind::IntConst: return e.intValue();
    case Expr::Kind::Arg: {
      const ArgValue& a = ctx.args[e.argIndex()];
      if (a.buffer != nullptr || a.scalar.type != Type::I64) return std::nullopt;
      return a.scalar.i;
    }
    case Expr::Kind::BuiltinVar:
      return ctx.builtins[static_cast<int>(e.builtin())];
    case Expr::Kind::Binary: {
      auto a = tryEvalInt(*e.operands()[0], ctx);
      auto b = tryEvalInt(*e.operands()[1], ctx);
      if (!a || !b) return std::nullopt;
      switch (e.binOp()) {
        // Kernel arithmetic: wrapping, and no value where execution throws.
        case BinOp::Add: return wrapAdd(*a, *b);
        case BinOp::Sub: return wrapSub(*a, *b);
        case BinOp::Mul: return wrapMul(*a, *b);
        case BinOp::Div:
        case BinOp::Rem:
          if (*b == 0 || (*b == -1 && *a == INT64_MIN)) return std::nullopt;
          return e.binOp() == BinOp::Div ? *a / *b : *a % *b;
        case BinOp::Min: return std::min(*a, *b);
        case BinOp::Max: return std::max(*a, *b);
        default: return std::nullopt;
      }
    }
    case Expr::Kind::Unary:
      if (e.unOp() == UnOp::Neg) {
        auto a = tryEvalInt(*e.operands()[0], ctx);
        return a ? std::optional<i64>(wrapNeg(*a)) : std::nullopt;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

void countExpr(const Expr& e, const CostCtx& ctx, double weight, ThreadCost& out) {
  switch (e.kind()) {
    case Expr::Kind::Load:
      out.loads += weight;
      break;
    case Expr::Kind::Binary:
      if (e.type() == Type::F64 ||
          (e.operands()[0]->type() == Type::F64)) {
        out.flops += weight;
      }
      break;
    case Expr::Kind::Math:
      // Special functions cost several FP operations on real hardware.
      out.flops += 4 * weight;
      break;
    case Expr::Kind::Unary:
      if (e.type() == Type::F64) out.flops += weight;
      break;
    default:
      break;
  }
  for (const ExprPtr& k : e.operands()) countExpr(*k, ctx, weight, out);
}

void countStmt(const Stmt& s, const CostCtx& ctx, double weight, ThreadCost& out) {
  switch (s.kind()) {
    case Stmt::Kind::Block:
      for (const StmtPtr& c : s.body()) countStmt(*c, ctx, weight, out);
      break;
    case Stmt::Kind::Let:
    case Stmt::Kind::Assign:
      countExpr(*s.value(), ctx, weight, out);
      break;
    case Stmt::Kind::Store:
      out.stores += weight;
      countExpr(*s.index(), ctx, weight, out);
      countExpr(*s.value(), ctx, weight, out);
      break;
    case Stmt::Kind::For: {
      auto lo = tryEvalInt(*s.lo(), ctx);
      auto hi = tryEvalInt(*s.hi(), ctx);
      double trips = 1;
      if (lo && hi)
        trips = *hi > *lo ? static_cast<double>(static_cast<u64>(*hi) -
                                                static_cast<u64>(*lo))
                          : 0.0;
      countExpr(*s.lo(), ctx, weight, out);
      countExpr(*s.hi(), ctx, weight, out);
      countStmt(*s.body()[0], ctx, weight * trips, out);
      break;
    }
    case Stmt::Kind::If:
      countExpr(*s.cond(), ctx, weight, out);
      // Branches are costed as taken: the overwhelmingly common pattern is a
      // grid-overhang guard that is true for nearly all threads.
      countStmt(*s.body()[0], ctx, weight, out);
      break;
  }
}

}  // namespace

ThreadCost estimateThreadCost(const Kernel& kernel, const LaunchConfig& cfg,
                              std::span<const ArgValue> args) {
  PP_ASSERT(args.size() == kernel.numParams());
  CostCtx ctx{args, {}};
  auto set = [&](Builtin b, i64 v) { ctx.builtins[static_cast<int>(b)] = v; };
  set(Builtin::BlockDimX, cfg.block.x);
  set(Builtin::BlockDimY, cfg.block.y);
  set(Builtin::BlockDimZ, cfg.block.z);
  set(Builtin::GridDimX, cfg.grid.x);
  set(Builtin::GridDimY, cfg.grid.y);
  set(Builtin::GridDimZ, cfg.grid.z);
  // Representative thread: the middle of the grid and block.
  set(Builtin::BlockIdxX, cfg.grid.x / 2);
  set(Builtin::BlockIdxY, cfg.grid.y / 2);
  set(Builtin::BlockIdxZ, cfg.grid.z / 2);
  set(Builtin::ThreadIdxX, cfg.block.x / 2);
  set(Builtin::ThreadIdxY, cfg.block.y / 2);
  set(Builtin::ThreadIdxZ, cfg.block.z / 2);

  ThreadCost out;
  countStmt(*kernel.body(), ctx, 1.0, out);
  return out;
}

}  // namespace polypart::ir
