#pragma once

// Functional execution of IR kernels — the stand-in for running device code
// on a GPU.  Each kernel is lowered once to a register program
// (ir/program.h) that then runs every thread of a launch grid sequentially;
// results are bit-identical across runs, which the integration tests rely on
// when comparing single-device and partitioned multi-device execution.

#include <functional>
#include <span>

#include "ir/kernel.h"

namespace polypart::ir {

/// Grid and block extents of one launch.
struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
};

/// Runtime value for one kernel argument.  Arrays point at host-side element
/// storage typed per the parameter's element type (i64 or double, 8 bytes per
/// element either way).
struct ArgValue {
  Value scalar;               // scalars only
  void* buffer = nullptr;     // arrays only
  i64 numElements = 0;        // array extent, for bounds checking

  static ArgValue ofInt(i64 v) { return ArgValue{Value::ofInt(v), nullptr, 0}; }
  static ArgValue ofFloat(double v) { return ArgValue{Value::ofFloat(v), nullptr, 0}; }
  static ArgValue ofBuffer(void* data, i64 elements) {
    return ArgValue{Value{}, data, elements};
  }
};

/// Observer invoked on every global-memory access during execution; used by
/// tests to validate the polyhedral model against observed behaviour.
/// `builtins` holds the 12 CUDA special registers indexed by ir::Builtin.
using AccessObserver = std::function<void(
    std::size_t argIndex, bool isWrite, i64 flatIndex, std::span<const i64, 12> builtins)>;

/// Throws Error unless `args` fits `kernel`'s parameter list: the count,
/// scalar vs array per parameter, and each scalar's declared type.
void checkArguments(const Kernel& kernel, std::span<const ArgValue> args);

/// Executes all threads of `cfg` on `kernel` by running its lowered program
/// (Kernel::program(), ir/program.h).  Throws Error on malformed arguments
/// (checkArguments), out-of-bounds accesses, and integer division by zero or
/// INT64_MIN / -1.  `observer` may be null.
void execute(const Kernel& kernel, const LaunchConfig& cfg,
             std::span<const ArgValue> args,
             const AccessObserver& observer = nullptr);

}  // namespace polypart::ir
