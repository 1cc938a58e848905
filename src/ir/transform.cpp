#include "ir/transform.h"

#include "ir/verify.h"

namespace polypart::ir {

namespace {

struct Rewriter {
  std::size_t firstPartArg;  // index of __part_min_x

  ExprPtr partArg(std::size_t offset) const {
    return Expr::arg(firstPartArg + offset, Type::I64);
  }

  ExprPtr rewrite(const ExprPtr& e) {
    switch (e->kind()) {
      case Expr::Kind::BuiltinVar: {
        switch (e->builtin()) {
          // Eq. (8): blockIdx.w -> partition.min_w + blockIdx.w.
          case Builtin::BlockIdxX: return partArg(0) + e;
          case Builtin::BlockIdxY: return partArg(1) + e;
          case Builtin::BlockIdxZ: return partArg(2) + e;
          // Eq. (9): gridDim.w -> partition.max_w.
          case Builtin::GridDimX: return partArg(3);
          case Builtin::GridDimY: return partArg(4);
          case Builtin::GridDimZ: return partArg(5);
          default: return e;
        }
      }
      case Expr::Kind::IntConst:
      case Expr::Kind::FloatConst:
      case Expr::Kind::Arg:
      case Expr::Kind::Local:
        return e;
      default: break;
    }
    // Rebuild interior nodes whose operands changed.
    std::vector<ExprPtr> kids;
    kids.reserve(e->operands().size());
    bool changed = false;
    for (const ExprPtr& k : e->operands()) {
      ExprPtr nk = rewrite(k);
      changed |= (nk != k);
      kids.push_back(std::move(nk));
    }
    if (!changed) return e;
    switch (e->kind()) {
      case Expr::Kind::Load:
        return Expr::load(e->argIndex(), e->type(), std::move(kids[0]));
      case Expr::Kind::Unary:
        return Expr::unary(e->unOp(), std::move(kids[0]));
      case Expr::Kind::Binary:
        return Expr::binary(e->binOp(), std::move(kids[0]), std::move(kids[1]));
      case Expr::Kind::Select:
        return Expr::select(std::move(kids[0]), std::move(kids[1]), std::move(kids[2]));
      case Expr::Kind::Cast:
        return Expr::cast(e->type(), std::move(kids[0]));
      case Expr::Kind::Math:
        return Expr::math(e->mathFn(), std::move(kids[0]));
      default:
        PP_ASSERT(false);
        return e;
    }
  }

  StmtPtr rewrite(const StmtPtr& s) {
    switch (s->kind()) {
      case Stmt::Kind::Block: {
        std::vector<StmtPtr> body;
        body.reserve(s->body().size());
        bool changed = false;
        for (const StmtPtr& c : s->body()) {
          StmtPtr nc = rewrite(c);
          changed |= (nc != c);
          body.push_back(std::move(nc));
        }
        return changed ? Stmt::block(std::move(body)) : s;
      }
      case Stmt::Kind::Let:
        return Stmt::let(s->varName(), rewrite(s->value()));
      case Stmt::Kind::Assign:
        return Stmt::assign(s->varName(), rewrite(s->value()));
      case Stmt::Kind::Store:
        return Stmt::store(s->arrayArg(), rewrite(s->index()), rewrite(s->value()));
      case Stmt::Kind::For:
        return Stmt::forLoop(s->varName(), rewrite(s->lo()), rewrite(s->hi()),
                             rewrite(s->body()[0]));
      case Stmt::Kind::If: {
        StmtPtr otherwise = s->body()[1] ? rewrite(s->body()[1]) : nullptr;
        return Stmt::ifThen(rewrite(s->cond()), rewrite(s->body()[0]),
                            std::move(otherwise));
      }
    }
    PP_ASSERT(false);
    return s;
  }
};

}  // namespace

KernelPtr partitionKernel(const Kernel& kernel) {
  std::vector<Param> params = kernel.params();
  std::size_t firstPartArg = params.size();
  for (const char* name : kPartitionParamNames)
    params.push_back(Param{name, false, Type::I64, {}});

  Rewriter rw{firstPartArg};
  StmtPtr body = rw.rewrite(kernel.body());
  auto clone = std::make_shared<Kernel>(kernel.name() + "__part",
                                        std::move(params), std::move(body),
                                        kernel.loadReuse(), kernel.sourceName());
  verify(*clone);
  return clone;
}

}  // namespace polypart::ir
