#pragma once

// The executable form of a kernel: a flat, slot-resolved register program.
//
// lower() compiles an ir::Kernel once (Kernel::program() caches the result)
// into straight instruction streams over a file of 64-bit registers, the
// "slots".  The 12 builtins, the scalar arguments, the constants and every
// local get a fixed slot, so running a thread does no tree walking and no
// name lookup.  Each op is typed when lowered (i64 vs f64), which is why
// ir::execute insists that scalar arguments carry their declared types.
//
// Instructions that cannot throw and read only launch-invariant operands
// (constants, scalar arguments, blockDim, gridDim) run once per launch;
// those that also read blockIdx run once per block, and those that also
// read threadIdx.y or threadIdx.z once per row of a block.  Loads, stores
// and integer division stay in the per-thread stream, in evaluation order.
// DESIGN.md "Functional execution" lists the tree-walker semantics the
// lowering preserves.

#include <cstdint>
#include <vector>

#include "ir/kernel.h"

namespace polypart::ir {

/// Register file layout: slot b (b < 12) holds builtin b (ir::Builtin
/// order); slot kArgSlot0 + i holds scalar argument i.
inline constexpr std::uint32_t kNumBuiltins = 12;
inline constexpr std::uint32_t kArgSlot0 = kNumBuiltins;

enum class Op : std::uint8_t {
  Mov,  // r[dst] = r[a]
  // i64 arithmetic wraps (two's complement); comparisons and logic give 0/1.
  AddI, SubI, MulI,
  DivI, RemI,  // throw Error on a zero divisor and on INT64_MIN / -1
  MinI, MaxI, EqI, NeI, LtI, LeI, GtI, GeI,
  AndI, OrI,   // both operands are already evaluated (no short circuit)
  NegI, NotI,  // r[dst] = op r[a]
  // f64 arithmetic; comparisons give i64 0/1.
  AddF, SubF, MulF, DivF, MinF, MaxF, EqF, NeF, LtF, LeF, GtF, GeF,
  NegF, Sqrt, Rsqrt, Exp, Fabs,  // r[dst] = op r[a]
  IToF, FToI,                    // conversions; FToI is truncToI64
  Load,        // observe, bounds-check, r[dst] = arg b [r[a]] (8 raw bytes)
  CheckStore,  // observe, bounds-check a store to arg b at index r[a]
  Store,       // arg b [r[a]] = r[dst] (checked by the preceding CheckStore)
  Jump,        // goto dst
  JumpIfZero,  // if (r[a] == 0) goto dst
  JumpIfGe,    // if (r[a] >= r[b]) goto dst
  LoopNext,    // if (++r[a] < r[b]) goto dst
  Halt,        // end of the thread
};

struct Insn {
  Op op = Op::Halt;
  std::uint32_t dst = 0, a = 0, b = 0;
};

struct Program {
  // Each stream ends with Op::Halt; only threadCode has jumps.
  std::vector<Insn> launchCode;  // once per launch, before the first block
  std::vector<Insn> blockCode;   // once per block, after blockIdx is set
  std::vector<Insn> rowCode;     // once per (threadIdx.z, threadIdx.y)
  std::vector<Insn> threadCode;  // once per thread
  /// Constant slots and their 64-bit patterns (i64 value or f64 bits).
  std::vector<std::pair<std::uint32_t, i64>> constants;
  std::uint32_t numSlots = kArgSlot0;
};

/// Compiles `kernel`.  Throws Error for kernels the tree walker could only
/// have aborted on: an undefined local, a use at the wrong type, an array
/// parameter used as a scalar, or an operator applied to the wrong type.
Program lower(const Kernel& kernel);

}  // namespace polypart::ir
