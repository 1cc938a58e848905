#pragma once

// Kernel definitions: parameter list plus a statement body.  A Module groups
// the kernels of one application, mirroring one CUDA translation unit's
// device code.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/stmt.h"

namespace polypart::ir {

/// A kernel parameter: either a scalar (i64/f64) or a global-memory array.
/// Arrays carry their element type and an optional logical shape given as
/// expressions over the *scalar* parameters (outermost dimension first).
/// The shape feeds delinearization and row-major range enumeration; a
/// shapeless array is treated as one-dimensional.
struct Param {
  std::string name;
  bool isArray = false;
  Type type = Type::I64;          // scalar type or array element type
  std::vector<ExprPtr> shape;     // empty for scalars and 1-D arrays
};

struct Program;  // ir/program.h

class Kernel {
 public:
  /// `sourceName` names the user's kernel this one was derived from (the
  /// partitioned clone passes its original's); empty means `name` itself.
  Kernel(std::string name, std::vector<Param> params, StmtPtr body,
         double loadReuse = 1.0, std::string sourceName = {})
      : name_(std::move(name)), params_(std::move(params)), body_(std::move(body)),
        loadReuse_(loadReuse),
        sourceName_(sourceName.empty() ? name_ : std::move(sourceName)) {}

  const std::string& name() const { return name_; }
  /// The user's kernel name, which errors raised while lowering or running
  /// this kernel report (a partitioned clone "k__part" reports 'k').
  const std::string& sourceName() const { return sourceName_; }
  const std::vector<Param>& params() const { return params_; }
  const Param& param(std::size_t i) const { return params_[i]; }
  const StmtPtr& body() const { return body_; }

  /// On-chip reuse factor for global loads: how many program-level loads
  /// are served per DRAM access (shared-memory tiles, L1/L2 hits).  The IR
  /// has no shared memory, so implementations that tile — the paper's
  /// "basic tiled" Matmul, shared-memory N-Body — declare their effective
  /// reuse here and the device timing model divides load traffic by it.
  double loadReuse() const { return loadReuse_; }

  std::size_t numParams() const { return params_.size(); }

  std::vector<std::size_t> arrayParamIndices() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < params_.size(); ++i)
      if (params_[i].isArray) out.push_back(i);
    return out;
  }

  std::vector<std::size_t> scalarParamIndices() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < params_.size(); ++i)
      if (!params_[i].isArray) out.push_back(i);
    return out;
  }

  /// C-like rendering of the whole kernel.
  std::string str() const;

  /// The kernel lowered to its register program (ir/program.h), built on
  /// the first call and shared by every later one; safe to call from
  /// several threads at once.  Throws Error if the kernel cannot be lowered
  /// (and retries on the next call).
  const Program& program() const;

 private:
  // Lazily built program; a copied Kernel starts with an empty cache.
  struct ProgramCache {
    std::mutex mutex;
    std::atomic<const Program*> ready{nullptr};
    std::shared_ptr<const Program> program;
    ProgramCache() = default;
    ProgramCache(const ProgramCache&) {}
    ProgramCache& operator=(const ProgramCache&) { return *this; }
  };

  std::string name_;
  std::vector<Param> params_;
  StmtPtr body_;
  double loadReuse_ = 1.0;
  std::string sourceName_;
  mutable ProgramCache programCache_;
};

using KernelPtr = std::shared_ptr<const Kernel>;

/// One application's device code.
class Module {
 public:
  void addKernel(KernelPtr k) { kernels_.push_back(std::move(k)); }
  const std::vector<KernelPtr>& kernels() const { return kernels_; }

  KernelPtr find(const std::string& name) const {
    for (const KernelPtr& k : kernels_)
      if (k->name() == name) return k;
    return nullptr;
  }

 private:
  std::vector<KernelPtr> kernels_;
};

}  // namespace polypart::ir
