#include "ir/interp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>

#include "ir/program.h"
#include "support/error.h"

namespace polypart::ir {

namespace {

struct Buffer {
  char* data = nullptr;
  i64 numElements = 0;
};

struct Runner {
  const Kernel& kernel;
  i64* r;
  const Buffer* buffers;
  const AccessObserver& observer;

  [[gnu::cold, gnu::noinline, noreturn]] void outOfBounds(bool store, u64 arg,
                                                          i64 idx) const {
    throw Error(std::string("out-of-bounds ") + (store ? "store" : "load") +
                " in kernel '" + kernel.sourceName() + "' on '" +
                kernel.param(arg).name + "' index " + std::to_string(idx) +
                " of " + std::to_string(buffers[arg].numElements));
  }

  [[gnu::cold, gnu::noinline, noreturn]] void badDivision(bool rem,
                                                          bool byZero) const {
    throw Error(std::string("integer ") + (rem ? "remainder" : "division") +
                (byZero ? " by zero" : " overflow (INT64_MIN / -1)") +
                " in kernel '" + kernel.sourceName() + "'");
  }

  [[gnu::noinline]] void observe(u64 arg, bool isWrite, i64 idx) const {
    observer(arg, isWrite, idx, std::span<const i64, 12>(r, kNumBuiltins));
  }

  // Observer first, then the bounds check (a failing access is observed).
  template <bool kObserve>
  const Buffer& access(u64 arg, bool isWrite, i64 idx) const {
    if constexpr (kObserve) observe(arg, isWrite, idx);
    const Buffer& b = buffers[arg];
    if (idx < 0 || idx >= b.numElements)
      outOfBounds(isWrite, arg, idx);
    return b;
  }

  // Threaded dispatch (GNU computed goto): every handler ends in its own
  // indirect jump, which predicts far better than one shared switch jump.
  template <bool kObserve>
  void run(const Insn* code) {
    static const void* const kHandlers[] = {  // in Op order
        &&Mov,   &&AddI,  &&SubI,  &&MulI,       &&DivI,  &&RemI,
        &&MinI,  &&MaxI,  &&EqI,   &&NeI,        &&LtI,   &&LeI,
        &&GtI,   &&GeI,   &&AndI,  &&OrI,        &&NegI,  &&NotI,
        &&AddF,  &&SubF,  &&MulF,  &&DivF,       &&MinF,  &&MaxF,
        &&EqF,   &&NeF,   &&LtF,   &&LeF,        &&GtF,   &&GeF,
        &&NegF,  &&Sqrt,  &&Rsqrt, &&Exp,        &&Fabs,  &&IToF,
        &&FToI,  &&Load,  &&CheckStore, &&Store, &&Jump,  &&JumpIfZero,
        &&JumpIfGe, &&LoopNext, &&Halt};
    static_assert(std::size(kHandlers) == static_cast<std::size_t>(Op::Halt) + 1);
    // Locals: stores through r must not force reloads of the members.
    i64* const r = this->r;
    const Buffer* const buffers = this->buffers;
    auto f = [r](std::uint32_t s) { return std::bit_cast<double>(r[s]); };
    auto setF = [r](std::uint32_t s, double v) { r[s] = std::bit_cast<i64>(v); };
    const Insn* pc = code;
#define PP_DISPATCH() goto* kHandlers[static_cast<int>(pc->op)]
#define PP_NEXT() \
  do {            \
    ++pc;         \
    PP_DISPATCH(); \
  } while (0)
#define PP_JUMP()          \
  do {                     \
    pc = code + pc->dst;   \
    PP_DISPATCH();         \
  } while (0)
    PP_DISPATCH();
  Mov: r[pc->dst] = r[pc->a]; PP_NEXT();
  AddI: r[pc->dst] = wrapAdd(r[pc->a], r[pc->b]); PP_NEXT();
  SubI: r[pc->dst] = wrapSub(r[pc->a], r[pc->b]); PP_NEXT();
  MulI: r[pc->dst] = wrapMul(r[pc->a], r[pc->b]); PP_NEXT();
  DivI:
  RemI: {
    const i64 x = r[pc->a], y = r[pc->b];
    const bool rem = pc->op == Op::RemI;
    if (y == 0) badDivision(rem, true);
    if (y == -1 && x == INT64_MIN) badDivision(rem, false);
    r[pc->dst] = rem ? x % y : x / y;
    PP_NEXT();
  }
  MinI: r[pc->dst] = std::min(r[pc->a], r[pc->b]); PP_NEXT();
  MaxI: r[pc->dst] = std::max(r[pc->a], r[pc->b]); PP_NEXT();
  EqI: r[pc->dst] = r[pc->a] == r[pc->b]; PP_NEXT();
  NeI: r[pc->dst] = r[pc->a] != r[pc->b]; PP_NEXT();
  LtI: r[pc->dst] = r[pc->a] < r[pc->b]; PP_NEXT();
  LeI: r[pc->dst] = r[pc->a] <= r[pc->b]; PP_NEXT();
  GtI: r[pc->dst] = r[pc->a] > r[pc->b]; PP_NEXT();
  GeI: r[pc->dst] = r[pc->a] >= r[pc->b]; PP_NEXT();
  AndI: r[pc->dst] = r[pc->a] != 0 && r[pc->b] != 0; PP_NEXT();
  OrI: r[pc->dst] = r[pc->a] != 0 || r[pc->b] != 0; PP_NEXT();
  NegI: r[pc->dst] = wrapNeg(r[pc->a]); PP_NEXT();
  NotI: r[pc->dst] = r[pc->a] == 0; PP_NEXT();
  AddF: setF(pc->dst, f(pc->a) + f(pc->b)); PP_NEXT();
  SubF: setF(pc->dst, f(pc->a) - f(pc->b)); PP_NEXT();
  MulF: setF(pc->dst, f(pc->a) * f(pc->b)); PP_NEXT();
  DivF: setF(pc->dst, f(pc->a) / f(pc->b)); PP_NEXT();
  // Spelled out (not std::min/max) for the tree walker's NaN behaviour.
  MinF: setF(pc->dst, f(pc->a) < f(pc->b) ? f(pc->a) : f(pc->b)); PP_NEXT();
  MaxF: setF(pc->dst, f(pc->a) > f(pc->b) ? f(pc->a) : f(pc->b)); PP_NEXT();
  EqF: r[pc->dst] = f(pc->a) == f(pc->b); PP_NEXT();
  NeF: r[pc->dst] = f(pc->a) != f(pc->b); PP_NEXT();
  LtF: r[pc->dst] = f(pc->a) < f(pc->b); PP_NEXT();
  LeF: r[pc->dst] = f(pc->a) <= f(pc->b); PP_NEXT();
  GtF: r[pc->dst] = f(pc->a) > f(pc->b); PP_NEXT();
  GeF: r[pc->dst] = f(pc->a) >= f(pc->b); PP_NEXT();
  NegF: setF(pc->dst, -f(pc->a)); PP_NEXT();
  Sqrt: setF(pc->dst, std::sqrt(f(pc->a))); PP_NEXT();
  Rsqrt: setF(pc->dst, 1.0 / std::sqrt(f(pc->a))); PP_NEXT();
  Exp: setF(pc->dst, std::exp(f(pc->a))); PP_NEXT();
  Fabs: setF(pc->dst, std::fabs(f(pc->a))); PP_NEXT();
  IToF: setF(pc->dst, static_cast<double>(r[pc->a])); PP_NEXT();
  FToI: r[pc->dst] = truncToI64(f(pc->a)); PP_NEXT();
  Load: {
    const i64 idx = r[pc->a];
    const Buffer& b = access<kObserve>(pc->b, false, idx);
    std::memcpy(&r[pc->dst], b.data + idx * 8, 8);
    PP_NEXT();
  }
  CheckStore: access<kObserve>(pc->b, true, r[pc->a]); PP_NEXT();
  Store:
    std::memcpy(buffers[pc->b].data + r[pc->a] * 8, &r[pc->dst], 8);
    PP_NEXT();
  Jump: PP_JUMP();
  JumpIfZero:
    if (r[pc->a] == 0) PP_JUMP();
    PP_NEXT();
  JumpIfGe:
    if (r[pc->a] >= r[pc->b]) PP_JUMP();
    PP_NEXT();
  LoopNext:
    if (++r[pc->a] < r[pc->b]) PP_JUMP();
    PP_NEXT();
  Halt: return;
#undef PP_JUMP
#undef PP_NEXT
#undef PP_DISPATCH
  }

  template <bool kObserve>
  void launch(const Program& p, const LaunchConfig& cfg) {
    auto set = [&](Builtin b, i64 v) { r[static_cast<int>(b)] = v; };
    set(Builtin::BlockDimX, cfg.block.x);
    set(Builtin::BlockDimY, cfg.block.y);
    set(Builtin::BlockDimZ, cfg.block.z);
    set(Builtin::GridDimX, cfg.grid.x);
    set(Builtin::GridDimY, cfg.grid.y);
    set(Builtin::GridDimZ, cfg.grid.z);
    run<false>(p.launchCode.data());
    const Insn* body = p.threadCode.data();
    for (i64 bz = 0; bz < cfg.grid.z; ++bz) {
      set(Builtin::BlockIdxZ, bz);
      for (i64 by = 0; by < cfg.grid.y; ++by) {
        set(Builtin::BlockIdxY, by);
        for (i64 bx = 0; bx < cfg.grid.x; ++bx) {
          set(Builtin::BlockIdxX, bx);
          run<false>(p.blockCode.data());
          for (i64 tz = 0; tz < cfg.block.z; ++tz) {
            set(Builtin::ThreadIdxZ, tz);
            for (i64 ty = 0; ty < cfg.block.y; ++ty) {
              set(Builtin::ThreadIdxY, ty);
              run<false>(p.rowCode.data());
              for (i64 tx = 0; tx < cfg.block.x; ++tx) {
                set(Builtin::ThreadIdxX, tx);
                run<kObserve>(body);
              }
            }
          }
        }
      }
    }
  }
};

const char* kindName(bool isArray) { return isArray ? "an array" : "a scalar"; }

}  // namespace

void checkArguments(const Kernel& kernel, std::span<const ArgValue> args) {
  const std::string where = "kernel '" + kernel.name() + "'";
  if (args.size() != kernel.numParams())
    throw Error(where + " expects " + std::to_string(kernel.numParams()) +
                " arguments, got " + std::to_string(args.size()));
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Param& p = kernel.param(i);
    const bool isArray = args[i].buffer != nullptr;
    if (p.isArray != isArray)
      throw Error(where + ": parameter '" + p.name + "' expects " +
                  kindName(p.isArray) + ", got " + kindName(isArray));
    if (!p.isArray && args[i].scalar.type != p.type)
      throw Error(where + ": parameter '" + p.name + "' expects " +
                  typeName(p.type) + ", got " + typeName(args[i].scalar.type));
  }
}

void execute(const Kernel& kernel, const LaunchConfig& cfg,
             std::span<const ArgValue> args,
             const AccessObserver& observer) {
  checkArguments(kernel, args);
  const Program& p = kernel.program();

  std::vector<i64> regs(p.numSlots, 0);
  std::vector<Buffer> buffers(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].buffer != nullptr)
      buffers[i] = {static_cast<char*>(args[i].buffer), args[i].numElements};
    else
      regs[kArgSlot0 + i] = args[i].scalar.type == Type::F64
                                ? std::bit_cast<i64>(args[i].scalar.f)
                                : args[i].scalar.i;
  }
  for (const auto& [slot, bits] : p.constants) regs[slot] = bits;

  Runner m{kernel, regs.data(), buffers.data(), observer};
  if (observer)
    m.launch<true>(p, cfg);
  else
    m.launch<false>(p, cfg);
}

}  // namespace polypart::ir
