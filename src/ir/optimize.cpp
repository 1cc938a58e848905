#include "ir/optimize.h"

#include <map>
#include <set>

#include "ir/verify.h"

namespace polypart::ir {

namespace {

bool isIntConst(const ExprPtr& e, i64 v) {
  return e->kind() == Expr::Kind::IntConst && e->intValue() == v;
}

bool isFloatConst(const ExprPtr& e, double v) {
  return e->kind() == Expr::Kind::FloatConst && e->floatValue() == v;
}

/// Folds a binary op over two integer constants.
ExprPtr foldIntBinary(BinOp op, i64 a, i64 b) {
  switch (op) {
    case BinOp::Add: return Expr::intConst(a + b);
    case BinOp::Sub: return Expr::intConst(a - b);
    case BinOp::Mul: return Expr::intConst(a * b);
    case BinOp::Div: return b == 0 ? nullptr : Expr::intConst(a / b);
    case BinOp::Rem: return b == 0 ? nullptr : Expr::intConst(a % b);
    case BinOp::Min: return Expr::intConst(std::min(a, b));
    case BinOp::Max: return Expr::intConst(std::max(a, b));
    case BinOp::Eq: return Expr::intConst(a == b);
    case BinOp::Ne: return Expr::intConst(a != b);
    case BinOp::Lt: return Expr::intConst(a < b);
    case BinOp::Le: return Expr::intConst(a <= b);
    case BinOp::Gt: return Expr::intConst(a > b);
    case BinOp::Ge: return Expr::intConst(a >= b);
    case BinOp::And: return Expr::intConst(a != 0 && b != 0);
    case BinOp::Or: return Expr::intConst(a != 0 || b != 0);
  }
  return nullptr;
}

struct Folder {
  OptimizeStats* stats;

  void count(int& field) {
    if (stats) ++field;
  }

  ExprPtr fold(const ExprPtr& e) {
    // Fold children first.
    std::vector<ExprPtr> kids;
    kids.reserve(e->operands().size());
    bool changed = false;
    for (const ExprPtr& k : e->operands()) {
      ExprPtr nk = fold(k);
      changed |= (nk != k);
      kids.push_back(std::move(nk));
    }

    switch (e->kind()) {
      case Expr::Kind::Binary: {
        const ExprPtr& a = kids[0];
        const ExprPtr& b = kids[1];
        BinOp op = e->binOp();
        if (a->kind() == Expr::Kind::IntConst && b->kind() == Expr::Kind::IntConst) {
          if (ExprPtr f = foldIntBinary(op, a->intValue(), b->intValue())) {
            count(stats->foldedExpressions);
            return f;
          }
        }
        // Algebraic identities (integer and floating; the floating-point
        // ones used here are exact in IEEE semantics for x+0.0 with x not
        // -0.0... be conservative: only fold float identities for * 1.0).
        if (a->type() == Type::I64) {
          if ((op == BinOp::Add && isIntConst(b, 0)) ||
              (op == BinOp::Sub && isIntConst(b, 0)) ||
              (op == BinOp::Mul && isIntConst(b, 1)) ||
              (op == BinOp::Div && isIntConst(b, 1))) {
            count(stats->foldedExpressions);
            return a;
          }
          if (op == BinOp::Add && isIntConst(a, 0)) {
            count(stats->foldedExpressions);
            return b;
          }
          if (op == BinOp::Mul && isIntConst(a, 1)) {
            count(stats->foldedExpressions);
            return b;
          }
          if (op == BinOp::Mul && (isIntConst(a, 0) || isIntConst(b, 0))) {
            count(stats->foldedExpressions);
            return Expr::intConst(0);
          }
        } else {
          if (op == BinOp::Mul && isFloatConst(b, 1.0)) {
            count(stats->foldedExpressions);
            return a;
          }
          if (op == BinOp::Mul && isFloatConst(a, 1.0)) {
            count(stats->foldedExpressions);
            return b;
          }
        }
        break;
      }
      case Expr::Kind::Select:
        if (kids[0]->kind() == Expr::Kind::IntConst) {
          count(stats->foldedExpressions);
          return kids[0]->intValue() != 0 ? kids[1] : kids[2];
        }
        break;
      case Expr::Kind::Unary:
        if (e->unOp() == UnOp::Neg && kids[0]->kind() == Expr::Kind::IntConst) {
          count(stats->foldedExpressions);
          return Expr::intConst(-kids[0]->intValue());
        }
        if (e->unOp() == UnOp::Not && kids[0]->kind() == Expr::Kind::IntConst) {
          count(stats->foldedExpressions);
          return Expr::intConst(kids[0]->intValue() == 0);
        }
        break;
      case Expr::Kind::Cast:
        if (kids[0]->kind() == Expr::Kind::IntConst && e->type() == Type::F64) {
          count(stats->foldedExpressions);
          return Expr::floatConst(static_cast<double>(kids[0]->intValue()));
        }
        break;
      default:
        break;
    }

    if (!changed) return e;
    // Rebuild with folded children.
    switch (e->kind()) {
      case Expr::Kind::Load: return Expr::load(e->argIndex(), e->type(), kids[0]);
      case Expr::Kind::Unary: return Expr::unary(e->unOp(), kids[0]);
      case Expr::Kind::Binary: return Expr::binary(e->binOp(), kids[0], kids[1]);
      case Expr::Kind::Select: return Expr::select(kids[0], kids[1], kids[2]);
      case Expr::Kind::Cast: return Expr::cast(e->type(), kids[0]);
      case Expr::Kind::Math: return Expr::math(e->mathFn(), kids[0]);
      default: return e;
    }
  }

  StmtPtr foldStmt(const StmtPtr& s) {
    switch (s->kind()) {
      case Stmt::Kind::Block: {
        std::vector<StmtPtr> body;
        bool changed = false;
        for (const StmtPtr& c : s->body()) {
          StmtPtr nc = foldStmt(c);
          changed |= (nc != c);
          if (nc) body.push_back(std::move(nc));
        }
        return changed ? Stmt::block(std::move(body)) : s;
      }
      case Stmt::Kind::Let:
        return Stmt::let(s->varName(), fold(s->value()));
      case Stmt::Kind::Assign:
        return Stmt::assign(s->varName(), fold(s->value()));
      case Stmt::Kind::Store:
        return Stmt::store(s->arrayArg(), fold(s->index()), fold(s->value()));
      case Stmt::Kind::For: {
        ExprPtr lo = fold(s->lo());
        ExprPtr hi = fold(s->hi());
        // Provably empty loop: drop it.
        if (lo->kind() == Expr::Kind::IntConst && hi->kind() == Expr::Kind::IntConst &&
            lo->intValue() >= hi->intValue()) {
          count(stats->simplifiedBranches);
          return Stmt::block({});
        }
        return Stmt::forLoop(s->varName(), std::move(lo), std::move(hi),
                             foldStmt(s->body()[0]));
      }
      case Stmt::Kind::If: {
        ExprPtr cond = fold(s->cond());
        if (cond->kind() == Expr::Kind::IntConst) {
          count(stats->simplifiedBranches);
          if (cond->intValue() != 0) return foldStmt(s->body()[0]);
          if (s->body()[1]) return foldStmt(s->body()[1]);
          return Stmt::block({});
        }
        StmtPtr otherwise = s->body()[1] ? foldStmt(s->body()[1]) : nullptr;
        return Stmt::ifThen(std::move(cond), foldStmt(s->body()[0]),
                            std::move(otherwise));
      }
    }
    PP_ASSERT(false);
    return s;
  }
};

/// Collects names of locals that are referenced anywhere.
void collectUses(const Expr& e, std::set<std::string>& used) {
  if (e.kind() == Expr::Kind::Local) used.insert(e.localName());
  for (const ExprPtr& k : e.operands()) collectUses(*k, used);
}

void collectUses(const Stmt& s, std::set<std::string>& used) {
  switch (s.kind()) {
    case Stmt::Kind::Block:
      for (const StmtPtr& c : s.body()) collectUses(*c, used);
      break;
    case Stmt::Kind::Let:
    case Stmt::Kind::Assign:
      collectUses(*s.value(), used);
      break;
    case Stmt::Kind::Store:
      collectUses(*s.index(), used);
      collectUses(*s.value(), used);
      break;
    case Stmt::Kind::For:
      collectUses(*s.lo(), used);
      collectUses(*s.hi(), used);
      collectUses(*s.body()[0], used);
      break;
    case Stmt::Kind::If:
      collectUses(*s.cond(), used);
      collectUses(*s.body()[0], used);
      if (s.body()[1]) collectUses(*s.body()[1], used);
      break;
  }
}

/// True when an expression has no side effects (loads are side-effect-free
/// in the IR; only stores/assignments mutate state).
bool isPure(const Expr&) { return true; }

struct Dce {
  const std::set<std::string>& used;
  OptimizeStats* stats;

  StmtPtr run(const StmtPtr& s) {
    switch (s->kind()) {
      case Stmt::Kind::Block: {
        std::vector<StmtPtr> body;
        bool changed = false;
        for (const StmtPtr& c : s->body()) {
          StmtPtr nc = run(c);
          changed |= (nc != c);
          if (nc) body.push_back(std::move(nc));
        }
        return changed ? Stmt::block(std::move(body)) : s;
      }
      case Stmt::Kind::Let:
        if (!used.count(s->varName()) && isPure(*s->value())) {
          if (stats) ++stats->eliminatedLets;
          return nullptr;
        }
        return s;
      case Stmt::Kind::Assign:
        if (!used.count(s->varName()) && isPure(*s->value())) {
          if (stats) ++stats->eliminatedLets;
          return nullptr;
        }
        return s;
      case Stmt::Kind::Store:
        return s;
      case Stmt::Kind::For:
        return Stmt::forLoop(s->varName(), s->lo(), s->hi(), run(s->body()[0]));
      case Stmt::Kind::If: {
        StmtPtr otherwise = s->body()[1] ? run(s->body()[1]) : nullptr;
        return Stmt::ifThen(s->cond(), run(s->body()[0]), std::move(otherwise));
      }
    }
    PP_ASSERT(false);
    return s;
  }
};

}  // namespace

ExprPtr foldExpr(const ExprPtr& e, OptimizeStats* stats) {
  OptimizeStats local;
  Folder f{stats ? stats : &local};
  return f.fold(e);
}

KernelPtr optimizeKernel(const Kernel& kernel, OptimizeStats* stats) {
  OptimizeStats local;
  OptimizeStats* st = stats ? stats : &local;
  StmtPtr body = kernel.body();
  // Iterate to a fixpoint: folding enables branch collapses which enable
  // further DCE; kernel bodies are small so a handful of rounds suffices.
  for (int round = 0; round < 8; ++round) {
    Folder f{st};
    StmtPtr folded = f.foldStmt(body);
    std::set<std::string> used;
    collectUses(*folded, used);
    Dce dce{used, st};
    StmtPtr cleaned = dce.run(folded);
    if (!cleaned) cleaned = Stmt::block({});
    if (cleaned == body) break;
    body = std::move(cleaned);
  }
  auto out = std::make_shared<Kernel>(kernel.name(), kernel.params(), std::move(body),
                                      kernel.loadReuse(), kernel.sourceName());
  verify(*out);
  return out;
}

Module optimizeModule(const Module& module, OptimizeStats* stats) {
  Module out;
  for (const KernelPtr& k : module.kernels()) out.addKernel(optimizeKernel(*k, stats));
  return out;
}

}  // namespace polypart::ir
