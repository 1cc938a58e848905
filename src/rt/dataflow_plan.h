#pragma once

// Cross-launch dataflow planner (extension; see DESIGN.md "Cross-launch
// dataflow planning").
//
// The paper's runtime is purely reactive: every launch queries the segment
// trackers for its read set and copies whatever is stale *at that moment*,
// bracketed by global barriers (Fig. 4).  Steady-state iterative
// applications, however, replay a fixed launch sequence — the same property
// the enumeration cache exploits — so the inter-launch data flow is known
// before the consumer ever launches.  The planner
//   1. records launch signatures (kernel, grid, block, i64 scalars, buffer
//      identities) and detects the smallest repeating cycle,
//   2. composes each producer partition's concrete write set with every
//      downstream consumer partition's concrete read set in `pset`
//      (Map::rangeUnderBox + intersection) to derive the exact per-device
//      flow sets of one cycle,
//   3. subtracts ranges overwritten before their next read (dead-transfer
//      elision, a Set::subtract of the accumulated kill set), and
//   4. emits per-cycle-step FlowEdges whose copies the runtime issues
//      *eagerly* — floored at the producing kernel's modeled completion on
//      its device — instead of waiting for the consumer's launch.
//
// The planner never becomes the source of truth: the runtime clips every
// planned range against the live tracker before copying, records the
// prefetched replicas as sharers, and the reactive resolution still runs at
// the consumer (skipping exactly the segments whose sharer bit proves the
// prefetch landed).  Any divergence — a launch off the recorded cycle, a
// host write, a mispredicted owner — degrades to the paper's reactive path,
// so functional results are byte-identical with planning on or off.

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "analysis/model.h"
#include "ir/interp.h"
#include "ir/transform.h"

namespace polypart::rt {

class VirtualBuffer;

/// One planned copy: element ranges (already scaled to byte ranges) that
/// flow from device `src`'s instance to device `dst`'s instance.
struct PlannedTransfer {
  int src = -1;
  int dst = -1;
  std::vector<std::pair<i64, i64>> byteRanges;  // half-open, merged, sorted
};

/// The live bytes flowing out of one producer step's writes to one argument
/// into one downstream consumer step's reads, after dead-transfer elision.
struct FlowEdge {
  std::size_t producerStep = 0;  // cycle position that writes the bytes
  std::size_t consumerStep = 0;  // cycle position that reads them next
  std::size_t argIndex = 0;      // producer-launch argument carrying the buffer
  /// Bytes the elision proved dead (overwritten before `consumerStep` reads
  /// them): the reactive path would have copied them, the plan does not.
  i64 elidedBytes = 0;
  std::vector<PlannedTransfer> transfers;
};

/// Sequence recorder + flow-set compiler.  Single-threaded: the runtime
/// calls it from launch(), on the launching thread.
class DataflowPlanner {
 public:
  /// Partition oracle: the runtime's partitionFor (kept as a callback so the
  /// planner does not depend on the Runtime type).
  using PartitionFn = std::function<ir::GridPartition(
      const analysis::KernelModel&, const ir::Dim3&, int)>;

  DataflowPlanner(int numGpus, i64 elemBytes, PartitionFn partitionFor);
  ~DataflowPlanner();

  /// What observe() decided for one committed launch.
  struct Observation {
    bool planned = false;    // launch matched the active plan at `step`
    bool activated = false;  // a cycle was detected and its plan compiled
    bool diverged = false;   // an active plan was abandoned at this launch
    std::size_t step = 0;    // cycle position when `planned`
  };

  /// Feeds one committed launch through the recorder/matcher.  Must be
  /// called for every launch, in launch order.
  Observation observe(const analysis::KernelModel& model,
                      const void* kernelTag, const ir::LaunchConfig& cfg,
                      std::span<VirtualBuffer* const> buffers,
                      std::span<const i64> scalars);

  /// The flow edges whose producer is cycle position `step` of the active
  /// plan.  Valid only while a plan is active (between an activated and the
  /// next diverged observation).
  const std::vector<FlowEdge>& edgesFor(std::size_t step) const;

  bool active() const { return active_; }
  std::size_t period() const { return cycle_.size(); }

  /// Drops the active plan and the recorded history (buffer identities may
  /// have been invalidated, e.g. by free()).
  void reset();

 private:
  struct Step {
    const analysis::KernelModel* model = nullptr;
    const void* kernelTag = nullptr;
    ir::Dim3 grid;
    ir::Dim3 block;
    std::vector<i64> scalars;
    std::vector<VirtualBuffer*> buffers;  // per launch arg; null for scalars

    bool matches(const Step& o) const;
  };

  Step makeStep(const analysis::KernelModel& model, const void* kernelTag,
                const ir::LaunchConfig& cfg,
                std::span<VirtualBuffer* const> buffers,
                std::span<const i64> scalars) const;
  /// Smallest period p <= kMaxPeriod whose last 2p history entries form two
  /// equal halves, or 0 when none does.
  std::size_t detectPeriod() const;
  /// Compiles the flow edges of `cycle_` (positions the edges by producer
  /// step into edgesByStep_).  Returns false when nothing in the cycle can
  /// be planned (e.g. instrumented writes) — the plan is not activated.
  bool compilePlan();

  static constexpr std::size_t kMaxPeriod = 8;
  static constexpr std::size_t kMaxHistory = 64;
  /// Flattened-range explosion guard per edge: an edge whose live flow set
  /// scans to more ranges than this is dropped (no prefetch — the reactive
  /// path still moves the bytes).
  static constexpr std::size_t kMaxRangesPerEdge = 65536;

  int numGpus_ = 1;
  i64 elemBytes_ = 8;
  PartitionFn partitionFor_;

  std::vector<Step> history_;  // recording mode; cleared on activation
  std::vector<Step> cycle_;    // active plan's launch cycle
  std::vector<std::vector<FlowEdge>> edgesByStep_;
  std::size_t pos_ = 0;  // next expected cycle position while active
  bool active_ = false;
};

}  // namespace polypart::rt
