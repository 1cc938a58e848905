#include <array>
#include <bit>
#include <map>
#include <set>
#include <tuple>

#include "ir/program.h"

namespace polypart::ir {

namespace {

using u32 = std::uint32_t;

// During lowering temporaries are numbered separately (tagged with this
// bit) because the number of permanent slots is only known at the end.
constexpr u32 kTempBit = 0x80000000u;

// How often an operand's value can change: per launch, per block, per
// (threadIdx.z, threadIdx.y) row of a block, per thread.
enum Level : std::uint8_t { kLaunch, kBlock, kRow, kThread };

struct Operand {
  u32 slot = 0;
  Level level = kLaunch;
  Type type = Type::I64;
  bool fresh = false;    // a temporary the expression owns (top of the stack)
  bool mutableLocal = false;  // a local some Assign may overwrite
  // Index in threadCode of the instruction that produced `slot`, when that
  // instruction was the last one emitted and can be retargeted; else -1.
  long defPc = -1;
};

Level maxLevel(Level a, Level b) { return a > b ? a : b; }

void collectAssigned(const Stmt& s, std::set<std::string>& out) {
  if (s.kind() == Stmt::Kind::Assign) out.insert(s.varName());
  for (const StmtPtr& c : s.body())
    if (c) collectAssigned(*c, out);
}

class Lowering {
 public:
  explicit Lowering(const Kernel& k) : kernel_(k) {
    collectAssigned(*k.body(), assigned_);
    nextPermanent_ = kArgSlot0 + static_cast<u32>(k.numParams());
  }

  Program run() {
    lowerStmt(*kernel_.body());
    for (std::vector<Insn>* code : codes()) code->push_back({Op::Halt, 0, 0, 0});
    // Temporaries go after the permanent slots.
    auto fix = [&](u32& s) {
      if (s & kTempBit) s = (s & ~kTempBit) + nextPermanent_;
    };
    for (std::vector<Insn>* code : codes())
      for (Insn& in : *code) {
        switch (in.op) {
          case Op::Jump:
          case Op::Halt: break;
          case Op::JumpIfZero:
          case Op::CheckStore: fix(in.a); break;
          case Op::JumpIfGe:
          case Op::LoopNext: fix(in.a); fix(in.b); break;
          case Op::Load:
          case Op::Store: fix(in.dst); fix(in.a); break;
          default: fix(in.dst); fix(in.a); fix(in.b); break;
        }
      }
    prog_.numSlots = nextPermanent_ + maxTemps_;
    return std::move(prog_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("kernel '" + kernel_.sourceName() + "': " + msg);
  }

  std::array<std::vector<Insn>*, 4> codes() {
    return {&prog_.launchCode, &prog_.blockCode, &prog_.rowCode,
            &prog_.threadCode};
  }

  // -- slots ----------------------------------------------------------------

  Operand allocTemp(Type t) {
    Operand o{kTempBit | numTemps_++, kThread, t, true};
    if (numTemps_ > maxTemps_) maxTemps_ = numTemps_;
    return o;
  }

  void release(const Operand& o) {
    if (!o.fresh) return;
    PP_ASSERT(o.slot == (kTempBit | (numTemps_ - 1)));
    --numTemps_;
  }

  Operand constant(i64 bits, Type t, std::map<i64, u32>& pool) {
    auto [it, added] = pool.emplace(bits, nextPermanent_);
    if (added) prog_.constants.emplace_back(nextPermanent_++, bits);
    return Operand{it->second, kLaunch, t};
  }

  // -- emission -------------------------------------------------------------

  long emit(Op op, u32 dst, u32 a, u32 b) {
    prog_.threadCode.push_back({op, dst, a, b});
    return static_cast<long>(prog_.threadCode.size()) - 1;
  }

  u32 here() const { return static_cast<u32>(prog_.threadCode.size()); }

  // An op that cannot throw: hoisted to the launch, block or row prologue
  // when its operands allow it (deduplicated there), else emitted in place.
  Operand pure(Op op, Type t, const Operand& a, const Operand& b) {
    Level lv = maxLevel(a.level, b.level);
    if (lv != kThread) {
      auto [it, added] = hoisted_.emplace(std::make_tuple(op, a.slot, b.slot),
                                          nextPermanent_);
      if (added) codes()[lv]->push_back({op, nextPermanent_++, a.slot, b.slot});
      return Operand{it->second, lv, t};
    }
    return inPlace(op, t, a, b);
  }

  Operand pure(Op op, Type t, const Operand& a) { return pure(op, t, a, Operand{}); }

  Operand inPlace(Op op, Type t, const Operand& a, const Operand& b) {
    release(b);
    release(a);
    Operand d = allocTemp(t);
    d.defPc = emit(op, d.slot, a.slot, b.slot);
    return d;
  }

  // Moves `v` into slot `dst`, retargeting v's producing instruction when
  // it was the last one emitted; releases v.
  void moveInto(u32 dst, const Operand& v) {
    if (v.fresh && v.defPc >= 0 &&
        v.defPc + 1 == static_cast<long>(prog_.threadCode.size()))
      prog_.threadCode[static_cast<std::size_t>(v.defPc)].dst = dst;
    else if (v.slot != dst)
      emit(Op::Mov, dst, v.slot, 0);
    release(v);
  }

  // A copy of `v` that no later statement can change.
  Operand stable(const Operand& v) {
    if (!v.mutableLocal) return v;
    Operand d = allocTemp(v.type);
    emit(Op::Mov, d.slot, v.slot, 0);
    return d;
  }

  // -- expressions ----------------------------------------------------------

  const Operand* findLocal(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (*it->first == name) return &it->second;
    return nullptr;
  }

  void requireType(const Operand& o, Type t, const char* what) const {
    if (o.type != t)
      fail(std::string(what) + " needs an " + typeName(t) + " operand, got " +
           typeName(o.type));
  }

  Operand lowerExpr(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::IntConst:
        return constant(e.intValue(), Type::I64, intConsts_);
      case Expr::Kind::FloatConst:
        return constant(std::bit_cast<i64>(e.floatValue()), Type::F64, floatConsts_);
      case Expr::Kind::Arg: {
        if (e.argIndex() >= kernel_.numParams()) fail("arg index out of range");
        const Param& p = kernel_.param(e.argIndex());
        if (p.isArray) fail("array parameter '" + p.name + "' used as a scalar");
        if (p.type != e.type())
          fail("scalar '" + p.name + "' used with wrong type");
        return Operand{kArgSlot0 + static_cast<u32>(e.argIndex()), kLaunch, p.type};
      }
      case Expr::Kind::Local: {
        const Operand* v = findLocal(e.localName());
        if (v == nullptr) fail("use of undefined local '" + e.localName() + "'");
        if (v->type != e.type())
          fail("local '" + e.localName() + "' used with wrong type");
        return *v;
      }
      case Expr::Kind::BuiltinVar: {
        const auto b = static_cast<u32>(e.builtin());
        Level lv = e.builtin() == Builtin::ThreadIdxX         ? kThread
                   : b <= static_cast<u32>(Builtin::ThreadIdxZ) ? kRow
                   : b <= static_cast<u32>(Builtin::BlockIdxZ)  ? kBlock
                                                                : kLaunch;
        return Operand{b, lv, Type::I64};
      }
      case Expr::Kind::Load: {
        if (e.argIndex() >= kernel_.numParams()) fail("load arg index out of range");
        Operand idx = lowerExpr(*e.operands()[0]);
        requireType(idx, Type::I64, "load index");
        release(idx);
        Operand d = allocTemp(e.type());
        d.defPc = emit(Op::Load, d.slot, idx.slot, static_cast<u32>(e.argIndex()));
        return d;
      }
      case Expr::Kind::Unary: {
        Operand v = lowerExpr(*e.operands()[0]);
        if (e.unOp() == UnOp::Not) {
          requireType(v, Type::I64, "'!'");
          return pure(Op::NotI, Type::I64, v);
        }
        return pure(v.type == Type::I64 ? Op::NegI : Op::NegF, v.type, v);
      }
      case Expr::Kind::Binary: return lowerBinary(e);
      case Expr::Kind::Select: {
        Operand c = lowerExpr(*e.operands()[0]);
        requireType(c, Type::I64, "select condition");
        release(c);
        Operand d = allocTemp(e.type());
        long skipThen = emit(Op::JumpIfZero, 0, c.slot, 0);
        Operand t = lowerExpr(*e.operands()[1]);
        requireType(t, e.type(), "select arm");
        moveInto(d.slot, t);
        long skipElse = emit(Op::Jump, 0, 0, 0);
        prog_.threadCode[static_cast<std::size_t>(skipThen)].dst = here();
        Operand f = lowerExpr(*e.operands()[2]);
        requireType(f, e.type(), "select arm");
        moveInto(d.slot, f);
        prog_.threadCode[static_cast<std::size_t>(skipElse)].dst = here();
        return d;
      }
      case Expr::Kind::Cast: {
        Operand v = lowerExpr(*e.operands()[0]);
        if (v.type == e.type()) return v;
        return pure(e.type() == Type::F64 ? Op::IToF : Op::FToI, e.type(), v);
      }
      case Expr::Kind::Math: {
        Operand v = lowerExpr(*e.operands()[0]);
        requireType(v, Type::F64, mathFnName(e.mathFn()));
        switch (e.mathFn()) {
          case MathFn::Sqrt: return pure(Op::Sqrt, Type::F64, v);
          case MathFn::Rsqrt: return pure(Op::Rsqrt, Type::F64, v);
          case MathFn::Exp: return pure(Op::Exp, Type::F64, v);
          case MathFn::Fabs: return pure(Op::Fabs, Type::F64, v);
        }
        break;
      }
    }
    PP_ASSERT(false);
    return {};
  }

  Operand lowerBinary(const Expr& e) {
    Operand a = lowerExpr(*e.operands()[0]);
    Operand b = lowerExpr(*e.operands()[1]);
    if (a.type != b.type) fail(std::string("operands of '") + binOpName(e.binOp()) +
                               "' differ in type");
    const bool isInt = a.type == Type::I64;
    auto pick = [&](Op i, Op f) {
      if (!isInt && f == Op::Halt)
        fail(std::string("operator '") + binOpName(e.binOp()) +
             "' is not defined on f64");
      return isInt ? i : f;
    };
    Op op = Op::Halt;
    switch (e.binOp()) {
      case BinOp::Add: op = pick(Op::AddI, Op::AddF); break;
      case BinOp::Sub: op = pick(Op::SubI, Op::SubF); break;
      case BinOp::Mul: op = pick(Op::MulI, Op::MulF); break;
      case BinOp::Div:
        // Integer division can throw: never hoisted.
        if (isInt) return inPlace(Op::DivI, Type::I64, a, b);
        op = Op::DivF;
        break;
      case BinOp::Rem:
        pick(Op::RemI, Op::Halt);
        return inPlace(Op::RemI, Type::I64, a, b);
      case BinOp::Min: op = pick(Op::MinI, Op::MinF); break;
      case BinOp::Max: op = pick(Op::MaxI, Op::MaxF); break;
      case BinOp::Eq: op = pick(Op::EqI, Op::EqF); break;
      case BinOp::Ne: op = pick(Op::NeI, Op::NeF); break;
      case BinOp::Lt: op = pick(Op::LtI, Op::LtF); break;
      case BinOp::Le: op = pick(Op::LeI, Op::LeF); break;
      case BinOp::Gt: op = pick(Op::GtI, Op::GtF); break;
      case BinOp::Ge: op = pick(Op::GeI, Op::GeF); break;
      case BinOp::And: op = pick(Op::AndI, Op::Halt); break;
      case BinOp::Or: op = pick(Op::OrI, Op::Halt); break;
    }
    return pure(op, e.type(), a, b);
  }

  // -- statements -----------------------------------------------------------

  // Runs `fn` in a nested scope: locals and temporaries it creates die at
  // its end, as the tree walker's environment marks did.
  template <typename Fn>
  void scoped(Fn&& fn) {
    const std::size_t mark = scope_.size();
    const u32 temps = numTemps_;
    fn();
    scope_.resize(mark);
    numTemps_ = temps;
  }

  void lowerStmt(const Stmt& s) {
    switch (s.kind()) {
      case Stmt::Kind::Block:
        scoped([&] {
          for (const StmtPtr& c : s.body()) lowerStmt(*c);
        });
        return;
      case Stmt::Kind::Let: {
        Operand v = lowerExpr(*s.value());
        if (!assigned_.count(s.varName())) {
          // Never reassigned: the name is an alias of the value's slot.
          Operand alias = stable(v);
          alias.fresh = false;
          alias.defPc = -1;
          scope_.emplace_back(&s.varName(), alias);
          return;
        }
        Operand local = v.fresh ? v : allocTemp(v.type);
        if (!v.fresh) emit(Op::Mov, local.slot, v.slot, 0);
        local.level = kThread;
        local.fresh = false;
        local.mutableLocal = true;
        local.defPc = -1;
        scope_.emplace_back(&s.varName(), local);
        return;
      }
      case Stmt::Kind::Assign: {
        Operand v = lowerExpr(*s.value());
        const Operand* local = findLocal(s.varName());
        if (local == nullptr)
          fail("assignment to undefined local '" + s.varName() + "'");
        if (local->type != v.type)
          fail("assignment type mismatch on '" + s.varName() + "'");
        PP_ASSERT(local->mutableLocal);
        moveInto(local->slot, v);
        return;
      }
      case Stmt::Kind::Store: {
        const auto arg = static_cast<u32>(s.arrayArg());
        if (s.arrayArg() >= kernel_.numParams()) fail("store arg index out of range");
        // Index, then observer and bounds check, then the value: the value's
        // loads are observed after the store.
        Operand idx = lowerExpr(*s.index());
        requireType(idx, Type::I64, "store index");
        emit(Op::CheckStore, 0, idx.slot, arg);
        Operand v = lowerExpr(*s.value());
        emit(Op::Store, v.slot, idx.slot, arg);
        release(v);
        release(idx);
        return;
      }
      case Stmt::Kind::For: {
        scoped([&] { lowerFor(s); });
        return;
      }
      case Stmt::Kind::If: {
        Operand c = lowerExpr(*s.cond());
        requireType(c, Type::I64, "if condition");
        release(c);
        long skipThen = emit(Op::JumpIfZero, 0, c.slot, 0);
        scoped([&] { lowerStmt(*s.body()[0]); });
        if (s.body()[1]) {
          long skipElse = emit(Op::Jump, 0, 0, 0);
          prog_.threadCode[static_cast<std::size_t>(skipThen)].dst = here();
          scoped([&] { lowerStmt(*s.body()[1]); });
          prog_.threadCode[static_cast<std::size_t>(skipElse)].dst = here();
        } else {
          prog_.threadCode[static_cast<std::size_t>(skipThen)].dst = here();
        }
        return;
      }
    }
  }

  void lowerFor(const Stmt& s) {
    // The bounds are evaluated once, before the first iteration; the body
    // sees a fresh copy of the counter each iteration even if it assigns
    // the loop variable.
    Operand lo = lowerExpr(*s.lo());
    requireType(lo, Type::I64, "loop bound");
    Operand counter = allocTemp(Type::I64);
    emit(Op::Mov, counter.slot, lo.slot, 0);
    Operand hi = stable(lowerExpr(*s.hi()));
    requireType(hi, Type::I64, "loop bound");
    const bool assignedVar = assigned_.count(s.varName()) != 0;
    Operand var = assignedVar ? allocTemp(Type::I64) : counter;
    long exit = emit(Op::JumpIfGe, 0, counter.slot, hi.slot);
    const u32 top = here();
    if (assignedVar) emit(Op::Mov, var.slot, counter.slot, 0);
    var.fresh = false;
    var.mutableLocal = assignedVar;
    scoped([&] {
      scope_.emplace_back(&s.varName(), var);
      lowerStmt(*s.body()[0]);
    });
    emit(Op::LoopNext, top, counter.slot, hi.slot);
    prog_.threadCode[static_cast<std::size_t>(exit)].dst = here();
  }

  const Kernel& kernel_;
  Program prog_;
  std::set<std::string> assigned_;
  std::vector<std::pair<const std::string*, Operand>> scope_;
  std::map<i64, u32> intConsts_, floatConsts_;
  std::map<std::tuple<Op, u32, u32>, u32> hoisted_;
  u32 nextPermanent_ = kArgSlot0;
  u32 numTemps_ = 0, maxTemps_ = 0;
};

}  // namespace

Program lower(const Kernel& kernel) { return Lowering(kernel).run(); }

const Program& Kernel::program() const {
  if (const Program* p = programCache_.ready.load(std::memory_order_acquire))
    return *p;
  std::lock_guard<std::mutex> lock(programCache_.mutex);
  if (!programCache_.program) {
    programCache_.program = std::make_shared<const Program>(lower(*this));
    programCache_.ready.store(programCache_.program.get(),
                              std::memory_order_release);
  }
  return *programCache_.program;
}

}  // namespace polypart::ir
