#pragma once

// The runtime library (paper Section 8).
//
// Implements the multi-GPU primitives the rewritten host code calls:
//  - virtual buffers: one device-local instance per GPU plus a B-tree
//    segment tracker recording which instance holds the most recent copy of
//    each byte range (Section 8.1),
//  - memcpy translation: host-to-device scatters linearly across GPUs,
//    device-to-host gathers via the tracker, device-to-device is rejected
//    (Section 8.2),
//  - partitioned kernel launches following the Fig. 4 pseudo-code:
//    synchronize read sets, barrier, launch the partitioned clones, update
//    the trackers from the write sets (Sections 5, 8.3),
//  - the CUDA Runtime replacement surface (Section 8.4), including
//    getDeviceCount() == 1 so applications keep their single-GPU logic.
//
// The configuration carries the α/β/γ switches of the overhead analysis
// (Section 9.2): disable transfers, or disable dependency resolution
// entirely.
//
// Dependency resolution runs as one three-phase engine (see DESIGN.md
// "Dependency-resolution engine"): plan materialization per (GPU,
// enumerator) pair, tracker work per (GPU, buffer) item, and an ordered
// commit of transfer decisions and modeled costs into the machine model.
// Every phase runs inline on the thread that calls launch(), which is the
// paper's serial §8.3 resolution; launch() returns once the launch has
// committed.
//
// RuntimeConfig::numTenants shards the runtime into client contexts that
// share the one machine: each tenant owns the buffers it allocates, a launch
// may reference only its own tenant's buffers, and tenantStats() reports
// each tenant's slice of the RuntimeStats counters (DESIGN.md "Tenancy").

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/model.h"
#include "codegen/enumerator.h"
#include "ir/transform.h"
#include "rt/tracker.h"
#include "sim/machine.h"
#include "support/small_vec.h"

namespace polypart::trace {
class Tracer;
}

namespace polypart::rt {

class Checkpoint;
class DataflowPlanner;
class TransferPlan;

/// Host-to-device distribution pattern (Section 8.2: "data is distributed
/// in a predefined pattern, hoping that this pattern matches the read
/// pattern of the following kernels.  Currently, this pattern is a linear
/// distribution").  RoundRobinPages exists for the ablation bench.
enum class H2DDistribution { Linear, RoundRobinPages };

/// Process-default enumerator execution tier: POLYPART_ENUMERATOR_TIER
/// (interpret|bytecode|specialized) when set, else Interpret.  Used as the
/// RuntimeConfig default so suites can be re-run under another tier without
/// overriding configs that set the knob explicitly.
codegen::EnumTier defaultEnumeratorTier();

/// Process-default for RuntimeConfig::dataflowPlanning: the
/// POLYPART_DATAFLOW_PLANNING environment flag when set (strictly parsed:
/// 0/1/on/off/true/false/yes/no; anything else throws naming the variable),
/// else false.  Mirrors POLYPART_ENUMERATOR_TIER so suites can be re-run
/// with planning forced on without touching configs.
bool defaultDataflowPlanning();

/// Process-default for RuntimeConfig::allowRepartitioning: the
/// POLYPART_ALLOW_REPARTITIONING environment flag when set (same strict
/// parse as POLYPART_DATAFLOW_PLANNING), else false.  Forcing it on
/// globally is behaviour-neutral for applications that never call
/// repartition(), which is what lets check.sh re-run whole suites with the
/// knob enabled.
bool defaultAllowRepartitioning();

/// Process-default for RuntimeConfig::inspectorExecutor: the
/// POLYPART_INSPECTOR_EXECUTOR environment flag when set (same strict parse
/// as POLYPART_DATAFLOW_PLANNING), else false.  Behaviour-neutral for
/// kernels without may-access reads, which is what lets check.sh re-run
/// whole suites with the knob enabled.
bool defaultInspectorExecutor();

/// A weighted grid partitioning along a kernel's split axis: device d gets
/// the block range [extent * prefix(d) / total, extent * (prefix(d) +
/// weights[d]) / total).  All-equal weights reproduce the paper's even
/// split bit-for-bit; a zero weight gives the device an empty partition
/// (elasticity: the device is excluded from compute without being removed
/// from the machine).
struct Partitioning {
  std::vector<i64> weights;  // one non-negative weight per GPU

  /// The paper's even split over `numGpus` devices (weight 1 each).
  static Partitioning even(int numGpus) {
    return Partitioning{std::vector<i64>(static_cast<std::size_t>(numGpus), 1)};
  }

  i64 totalWeight() const {
    i64 t = 0;
    for (i64 w : weights) t += w;
    return t;
  }
  /// Devices with a non-zero share.
  int activeDevices() const {
    int n = 0;
    for (i64 w : weights)
      if (w > 0) ++n;
    return n;
  }

  bool operator==(const Partitioning&) const = default;
};

/// Outcome of one Runtime::repartition() call.
struct RepartitionResult {
  /// Bytes actually copied between devices (the pset old/new difference,
  /// clipped against live tracker ownership).
  i64 bytesMoved = 0;
  /// Full write footprint of the new partitioning — what a naive
  /// re-distribution of everything the kernel touches would move.  The
  /// minimality guarantee is bytesMoved <= bytesFootprint.
  i64 bytesFootprint = 0;
  /// Peer copies issued for the transition.
  i64 copies = 0;
};

struct RuntimeConfig {
  int numGpus = 1;
  sim::ExecutionMode mode = sim::ExecutionMode::Functional;
  sim::MachineSpec machine = sim::MachineSpec::k80Node(1);

  /// β configuration: dependency resolution and tracker updates run, but no
  /// data moves (Section 9.2).
  bool enableTransfers = true;
  /// γ configuration: no resolution, no tracker updates, no transfers.
  bool enableDependencyResolution = true;

  /// Enumerator full-row coalescing (ablation knob).
  bool coalesceEnumerators = true;
  /// Enumerator execution tier (see DESIGN.md "Execution tiers"):
  /// `Interpret` walks the scan-nest ASTs (paper mode), `Bytecode` runs the
  /// register bytecode compiled once per kernel, `Specialized` additionally
  /// constant-folds each (launch config, scalars, partition 6-tuple) vector
  /// on first sight and caches the folded program under the same key as the
  /// enumeration cache.  Every tier produces byte-identical results, stats,
  /// and modeled timing.  Defaults to POLYPART_ENUMERATOR_TIER
  /// (interpret|bytecode|specialized) when set, else Interpret.
  codegen::EnumTier enumeratorTier = defaultEnumeratorTier();
  /// Distribution pattern for host-to-device memcopies (ablation knob).
  H2DDistribution h2dDistribution = H2DDistribution::Linear;
  /// Shared-copy tracking: remember which devices already hold a valid
  /// replica of a segment and skip their re-synchronization.  Extends the
  /// paper's tracker, which "does not support shared copies, resulting in
  /// redundant transfers for applications with large amounts of shared
  /// data" (Section 8.3).  Off by default (paper behaviour).
  bool trackSharedCopies = false;
  /// Topology-aware transfer scheduling (extension; see DESIGN.md "Transfer
  /// plan").  Off (default): the paper's behaviour — each resolved segment is
  /// copied in resolution order.  On: the resolution engine collects the
  /// per-launch transfer decisions into a TransferPlan that merges
  /// adjacent/overlapping same-link ranges, chains one-to-many
  /// reads through fresh replicas (when trackSharedCopies provides the
  /// sharer bookkeeping), and issues round-robin across (src, dst) links.
  /// Functional results, tracker state, and gather bytes are byte-identical
  /// with scheduling on or off; bytesPeerToPeer can only shrink
  /// (tests/transfer_plan_test.cpp).
  bool transferScheduling = false;
  /// Cross-launch dataflow planning (extension; see DESIGN.md "Cross-launch
  /// dataflow planning").  Off (default): the paper's reactive behaviour.
  /// On: the runtime records launch signatures, detects the steady-state
  /// launch cycle of iterative applications, composes producer write maps
  /// with downstream read maps into exact inter-launch flow sets (with
  /// dead-transfer elision), and eagerly prefetches the live bytes right
  /// after the producing launch — floored at the producer kernels' modeled
  /// completion — instead of copying them reactively at the consumer.
  /// Planned launches drop the global barriers around read synchronization
  /// in favour of per-device engine ordering (sim::Machine device-ordering
  /// mode), which is where the modeled-time win comes from.  The segment
  /// tracker stays the source of truth — planned copies are clipped against
  /// it and recorded as shared replicas, and any divergence falls back to
  /// the reactive path — so functional results are byte-identical with
  /// planning on or off (tests/dataflow_plan_test.cpp).  Defaults to the
  /// POLYPART_DATAFLOW_PLANNING environment override, else off.  Requires
  /// dependency resolution and transfers to be enabled to take effect.
  bool dataflowPlanning = defaultDataflowPlanning();
  /// Runtime repartitioning (extension; see DESIGN.md "Elastic
  /// repartitioning").  Off (default): the paper's behaviour — the grid
  /// partitioning chosen at construction is fixed for the life of the run,
  /// and repartition()/recoverDevice() throw.  On: Runtime::repartition()
  /// may change a kernel's per-device weights between launches, migrating
  /// only the pset difference of the old and new write footprints;
  /// checkpoint()/recoverDevice() add device-failure recovery on top.
  /// Behaviour-neutral until repartition() is actually called.  Defaults to
  /// the POLYPART_ALLOW_REPARTITIONING environment override, else off.
  bool allowRepartitioning = defaultAllowRepartitioning();
  /// Inspector–executor for may-access reads (extension; see DESIGN.md
  /// "May-access tier & inspector–executor").  Off (default): reads the
  /// analysis demoted to the may-access tier synchronize the whole declared
  /// extent of the array (conservative whole-buffer sharing).  On: before
  /// the read synchronization, the runtime runs a host-side inspection walk
  /// of the partitioned kernel over mirrors of the current buffer contents
  /// and records the exact per-device element footprints of every
  /// may-access read, then synchronizes only those.  Footprints are cached
  /// per kernel, keyed by (launch geometry, scalars, buffer identities,
  /// buffer content versions, partitioning) and invalidated when any
  /// inspected buffer's content changes.  Requires Functional mode when a
  /// launched kernel actually has may-access reads; functional results are
  /// byte-identical with the inspector on or off.  Defaults to the
  /// POLYPART_INSPECTOR_EXECUTOR environment override, else off.
  bool inspectorExecutor = defaultInspectorExecutor();
  /// Modeled host cost per may-read access observed by an inspection walk
  /// (charged on cache misses only; the walk re-executes the kernel's
  /// address arithmetic on the host).
  double inspectorCostPerElement = 1e-9;
  /// Bounded inspection cache size: retained footprint sets per kernel,
  /// evicted FIFO.  Values < 1 mean unbounded.
  i64 inspectionCacheEntriesPerKernel = 8;
  /// Page size for the round-robin distribution (bytes).
  i64 h2dPageBytes = 65536;
  /// Launch-plan enumeration cache: memoizes, per kernel, the coalesced
  /// element ranges the enumerators produce for a given (partition tuple,
  /// grid, block, scalars) key.  The ranges are a pure function of that key,
  /// so iterative applications that relaunch the same configuration replay
  /// the recorded plan instead of re-running the polyhedral enumeration.
  /// Tracker queries, transfer decisions, and tracker updates stay live
  /// either way — only the pure enumeration is memoized — so functional
  /// results and transfer counts are identical with the cache on or off.
  bool enableEnumerationCache = true;
  /// Bounded cache size: retained launch plans per kernel, evicted FIFO.
  /// Values < 1 mean unbounded.
  i64 enumerationCachePlansPerKernel = 64;
  /// Modeled host cost per *logical row* of dependency bookkeeping: the
  /// paper's runtime enumerates the first/last element of every array row
  /// and performs a tracker operation per row (Sections 6.1, 8.3).  This
  /// part runs in the β configuration too, so it is what the paper's
  /// "patterns" overhead measures (median 0.51 %, max 6.8 %).
  double resolutionCostPerRow = 3e-9;
  /// Modeled host cost per logical row when a launch plan is replayed from
  /// the enumeration cache.  The per-row charging structure of the
  /// β-overhead model is preserved — every row still pays a tracker
  /// bookkeeping step — but the polyhedral enumeration of the row is gone,
  /// so the coefficient is smaller than resolutionCostPerRow.
  double cachedResolutionCostPerRow = 1e-9;
  /// Modeled host cost per row of *transfer creation* (assembling and
  /// issuing the memcpy for a resolved row range).  Skipped when transfers
  /// are disabled, so it shows up in the α-β "transfers" share, where the
  /// paper attributes the majority of the overhead.
  double transferIssueCostPerRow = 35e-9;
  /// Fixed modeled host cost per (array, partition) resolution step.
  double resolutionCostPerArray = 2e-6;
  /// Compatibility shim: must be 0 (the constructor throws Error otherwise).
  /// Resolution always runs inline on the launching thread; the worker-pool
  /// engine this selected is gone.  Deleted once the benchmark owner drops it
  /// from perfbench/driver.cpp.
  int resolutionThreads = 0;
  /// Slowdown factor applied to kernels whose write patterns must be
  /// collected by instrumentation (paper Section 11 future work; dynamic
  /// collection "yields accurate results at the expense of significant
  /// runtime overhead").
  double instrumentationSlowdown = 2.0;
  /// Compatibility shim: must be 0 (the constructor throws Error otherwise).
  /// launch() always commits before it returns; the pipelined launch engine
  /// this selected is gone.  Deleted once the benchmark owner drops it from
  /// perfbench/driver.cpp.
  int pipelineDepth = 0;
  /// Client contexts sharded onto this runtime (>= 1).  Each tenant owns the
  /// buffers it allocates (malloc(bytes, tenant)); a launch may only
  /// reference its own tenant's buffers, and per-tenant counters accumulate
  /// into tenantStats().  1 (default): the classic single-client runtime.
  int numTenants = 1;
  /// Launch tracer (support/trace.h).  When set, the runtime and the machine
  /// model record structured events — launch/sync/update spans, plan-cache
  /// hit/miss/evict, per-transfer src/dst/bytes, virtual-time engine spans —
  /// exportable as a Chrome trace.  Must outlive the Runtime.  Null (the
  /// default) disables tracing; results, modeled timing, RuntimeStats, and
  /// MachineStats are identical with tracing on or off
  /// (tests/trace_test.cpp).  Examples and benches wire this to the
  /// POLYPART_TRACE=<path> environment hook (trace::EnvTraceSession).
  trace::Tracer* tracer = nullptr;
};

/// Client context ordinal of the multi-tenant runtime; tenant 0 is the
/// default used by every single-client entry point.
using TenantId = int;

/// A "virtual buffer": per-device instances + ownership tracker.
class VirtualBuffer {
 public:
  i64 bytes() const { return bytes_; }
  const SegmentTracker& tracker() const { return tracker_; }
  /// The client context that allocated this buffer (sharding invariant:
  /// only that tenant's launches may reference it).
  TenantId tenant() const { return tenant_; }

 private:
  friend class Runtime;
  friend class TransferPlan;  // issues scheduled copies between instances
  VirtualBuffer(i64 bytes, std::vector<sim::DevBuffer> instances,
                TenantId tenant)
      : bytes_(bytes),
        tenant_(tenant),
        instances_(std::move(instances)),
        tracker_(bytes) {}
  i64 bytes_ = 0;
  TenantId tenant_ = 0;
  std::vector<sim::DevBuffer> instances_;  // one per device
  SegmentTracker tracker_;
};

enum class MemcpyKind { HostToHost, HostToDevice, DeviceToHost, DeviceToDevice };

/// Kernel launch argument: a scalar or a virtual buffer.
struct LaunchArg {
  ir::Value scalar;
  VirtualBuffer* buffer = nullptr;

  static LaunchArg ofInt(i64 v) { return {ir::Value::ofInt(v), nullptr}; }
  static LaunchArg ofFloat(double v) { return {ir::Value::ofFloat(v), nullptr}; }
  static LaunchArg ofBuffer(VirtualBuffer* b) { return {{}, b}; }
};

/// Every RuntimeStats counter, once, in declaration order:
/// X(type, name, kind).  `kind` is Deterministic for the counters every
/// determinism guarantee (enumerator tier, plan cache, tracing) promises to
/// keep byte-identical, and Meta for the engine and cache-telemetry
/// meta-counters, which describe *how* the runtime executed, not what it
/// computed:
///   - resolutionWallSeconds is real host time, nondeterministic by nature;
///   - resolutionTasks and parallelWallSeconds are compatibility shims that
///     are always 0 (nothing runs on a worker pool any more).  Both are
///     deleted once the benchmark owner drops them from perfbench/driver.cpp;
///   - the FM-memoization counters are process-wide (pset's projection memo
///     is one table per process), diffed against a baseline taken at Runtime
///     construction, and the specialized-program counters sum over this
///     runtime's enumerators.  Both are sampled at the end of every launch
///     and are monotone telemetry (tests/cache_counters_test.cpp asserts
///     monotonicity and hit/miss consistency).
/// The struct members, deterministicStats(), the per-tenant stats diff and
/// the tests' field-wise sums all expand this list.
#define POLYPART_RUNTIME_STATS(X)                                            \
  X(i64, launches, Deterministic)                                            \
  X(i64, rangesResolved, Deterministic) /* enumerated ranges, all launches */ \
  X(i64, logicalRowsResolved, Deterministic) /* paper per-row steps */        \
  X(i64, trackerSegmentsVisited, Deterministic)                              \
  X(i64, peerCopies, Deterministic)                                          \
  X(i64, sharedCopyHits, Deterministic) /* avoided by shared-copy tracking */ \
  X(i64, enumCacheHits, Deterministic)   /* plans replayed from the cache */  \
  X(i64, enumCacheMisses, Deterministic) /* plans materialized */             \
  X(i64, enumCacheEvictions, Deterministic) /* dropped by the FIFO bound */   \
  /* Transfer-scheduler counters (all 0 with transferScheduling off). */     \
  X(i64, transfersMerged, Deterministic) /* folded by same-link merging */    \
  X(i64, broadcastChains, Deterministic) /* re-sourced from a replica */      \
  X(i64, bytesSavedByDedup, Deterministic) /* not re-moved: merging */        \
  /* Dataflow-planner counters (all 0 with dataflowPlanning off). */         \
  X(i64, planActivations, Deterministic) /* launch cycles compiled */         \
  X(i64, planDivergences, Deterministic) /* plans left off-cycle */           \
  X(i64, plannedLaunches, Deterministic) /* launches matching the plan */     \
  X(i64, prefetchCopies, Deterministic)  /* eager copies from flow edges */   \
  X(i64, bytesPrefetched, Deterministic) /* bytes they moved, post-merge */   \
  X(i64, bytesElided, Deterministic) /* flow bytes dead before a read */      \
  X(i64, prefetchHits, Deterministic) /* reactive copies skipped */           \
  /* Elastic-repartitioning counters (all 0 unless repartition(), */         \
  /* checkpoint() or recoverDevice() are called). */                         \
  X(i64, repartitions, Deterministic) /* calls that changed weights */        \
  X(i64, repartitionCopies, Deterministic) /* peer copies of transitions */   \
  X(i64, bytesRepartitioned, Deterministic) /* bytes those copies moved */    \
  X(i64, bytesRepartitionFootprint, Deterministic) /* new-footprint bound */  \
  X(i64, checkpoints, Deterministic)                                         \
  X(i64, bytesCheckpointed, Deterministic) /* exclusive bytes snapshotted */  \
  X(i64, recoveries, Deterministic)                                          \
  X(i64, restoreCopies, Deterministic) /* H2D copies of checkpointed data */  \
  X(i64, bytesRestored, Deterministic)                                       \
  X(i64, bytesAdopted, Deterministic) /* lost bytes re-owned from replicas */ \
  /* May-access tier counters (all 0 for purely affine kernels). */          \
  X(i64, mayAccessLaunches, Deterministic)                                   \
  X(i64, inspectorRuns, Deterministic) /* host-side inspection walks */       \
  X(i64, inspectorCacheHits, Deterministic)                                  \
  X(i64, inspectorCacheMisses, Deterministic)                                \
  X(i64, inspectorCacheInvalidations, Deterministic) /* stale footprints */   \
  X(i64, inspectedElements, Deterministic) /* may-read accesses observed */   \
  /* Engine meta-counters. */                                                \
  X(i64, resolutionTasks, Meta)          /* shim, always 0 */                 \
  X(double, resolutionWallSeconds, Meta) /* real host time resolving */       \
  X(double, parallelWallSeconds, Meta)   /* shim, always 0 */                 \
  /* Cache-telemetry meta-counters. */                                       \
  X(i64, fmMemoHits, Meta)                                                   \
  X(i64, fmMemoMisses, Meta)                                                 \
  X(i64, fmMemoEvictions, Meta)                                              \
  X(i64, specProgramHits, Meta)                                              \
  X(i64, specProgramMisses, Meta)                                            \
  X(i64, specProgramEvictions, Meta)

/// Counters for the overhead analysis (Section 9.2); the fields are
/// POLYPART_RUNTIME_STATS.
struct RuntimeStats {
#define POLYPART_STATS_MEMBER(type, name, kind) type name = 0;
  POLYPART_RUNTIME_STATS(POLYPART_STATS_MEMBER)
#undef POLYPART_STATS_MEMBER

  bool operator==(const RuntimeStats&) const = default;
};

/// `s` with the Meta counters zeroed: the part of the stats every
/// determinism guarantee promises to keep byte-identical.
inline RuntimeStats deterministicStats(RuntimeStats s) {
  enum { Deterministic, Meta };
#define POLYPART_STATS_ZERO_META(type, name, kind) \
  if (kind == Meta) s.name = 0;
  POLYPART_RUNTIME_STATS(POLYPART_STATS_ZERO_META)
#undef POLYPART_STATS_ZERO_META
  return s;
}

/// Per-tenant slice of the runtime's accounting (Runtime::tenantStats).
struct TenantStats {
  i64 submitted = 0;  // launches that passed validation
  i64 completed = 0;  // launches that committed (a throwing launch does not)
  /// This tenant's share of the RuntimeStats counters: the difference of the
  /// aggregate counters across each of its launches, accumulated at commit.
  /// Counters that accumulate outside launches (repartition(), checkpoint(),
  /// recoverDevice()) land in no tenant's slice.
  RuntimeStats resolved;

  bool operator==(const TenantStats&) const = default;
};

class Runtime {
 public:
  /// Builds the runtime for an application: partitions every kernel
  /// (Section 7) and generates its enumerators (Section 6).
  Runtime(RuntimeConfig config, analysis::ApplicationModel model,
          const ir::Module& kernels);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeConfig& config() const { return config_; }
  sim::Machine& machine() { return *machine_; }

  // -- CUDA Runtime replacement (Section 8.4) --------------------------------
  /// Allocates a virtual buffer owned by `tenant` (0 = the single-client
  /// default).  Throws Error for a negative size or an unknown tenant.
  VirtualBuffer* malloc(i64 bytes, TenantId tenant = 0);
  /// Releases a buffer obtained from malloc().  Freeing the same buffer
  /// twice, or a pointer this runtime never allocated, is a contract
  /// violation and raises a diagnosable assertion instead of corrupting the
  /// buffer table.
  void free(VirtualBuffer* buf);
  /// cudaMemcpy replacement; dst/src are host pointers or VirtualBuffer*
  /// depending on `kind`.  Device-to-device throws (Section 8.2), and so do
  /// a negative size and a size beyond the buffer.
  void memcpy(void* dst, const void* src, i64 bytes, MemcpyKind kind);
  /// cudaGetDeviceCount replacement: "always returns 1" (Section 8.4).
  int getDeviceCount() const { return 1; }
  /// cudaDeviceSynchronize replacement: synchronizes all devices.
  void deviceSynchronize();

  /// Partitioned kernel launch (Fig. 4).  `grid`/`block` are the original
  /// single-GPU configuration.  Validates the request (Error before any work
  /// on a bad argument, kernel, geometry or cross-tenant buffer), then
  /// resolves, transfers, executes and updates the trackers on this thread.
  void launch(const std::string& kernelName, const ir::Dim3& grid,
              const ir::Dim3& block, std::span<const LaunchArg> args,
              TenantId tenant = 0);

  /// Per-tenant counters.  Throws Error for an unknown tenant.
  TenantStats tenantStats(TenantId tenant) const;

  /// End-to-end simulated time including outstanding asynchronous work.
  double elapsedSeconds() const;

  /// Aggregate counters.
  const RuntimeStats& stats() const { return stats_; }
  const sim::MachineStats& machineStats() const { return machine_->stats(); }

  /// The partitioned clone of a kernel (for inspection/tests).
  const ir::Kernel& partitionedKernel(const std::string& name) const;
  /// The grid partition assigned to `gpu` for a launch of `grid` blocks.
  ir::GridPartition partitionFor(const analysis::KernelModel& model,
                                 const ir::Dim3& grid, int gpu) const;

  // -- elastic repartitioning (RuntimeConfig::allowRepartitioning) -----------
  /// The current weighted partitioning of `kernelName` (even at start).
  const Partitioning& partitioning(const std::string& kernelName) const;
  /// Changes `kernelName`'s partitioning to `next` between launches.
  /// Migrates only the difference of the old and new write footprints (a
  /// per-device pset subtraction over the kernel's last launch signature,
  /// clipped against live tracker ownership) and updates the trackers, so
  /// subsequent launches resolve against the new layout with byte-identical
  /// results.  Invalidates every tenant's dataflow plan.
  /// Throws Error when repartitioning is disabled or `next` is invalid
  /// (wrong arity, negative weights, zero total, weight on a failed device).
  RepartitionResult repartition(const std::string& kernelName,
                                const Partitioning& next);
  /// repartition() over every kernel (one shared new partitioning);
  /// returns the summed result.
  RepartitionResult repartitionAll(const Partitioning& next);
  /// Load-rebalancing policy: new weights proportional to current weight
  /// divided by measured per-device kernel busy seconds
  /// (sim::Machine::kernelBusySecondsForDevice), normalized to integer
  /// weights summing to ~`scale`.  Failed devices get 0; active devices
  /// never drop below 1.  Returns the current partitioning unchanged when
  /// any active device has no measured load yet.
  Partitioning loadBalancedPartitioning(const std::string& kernelName,
                                        i64 scale = 1024) const;

  // -- device-failure recovery (rt/checkpoint.h) -----------------------------
  /// Host-side snapshot of every byte range that exists on exactly one live
  /// device (replicated ranges survive a single failure without help).
  /// Synchronizes first.  Cheap relative to a full dump: on
  /// partitioned workloads each device exclusively owns ~1/N of the data.
  Checkpoint checkpoint();
  /// Recovers from the failure of `device` (after sim::Machine::failDevice):
  /// lost exclusive ranges are restored from `cp` onto a surviving device
  /// (ranges with a live replica are adopted without a copy), the failed
  /// device's sharer bits are dropped, and every kernel is repartitioned to
  /// `next` (which must give `device` weight 0).  Throws Error when a lost
  /// range is covered by neither a replica nor the checkpoint.
  void recoverDevice(int device, const Checkpoint& cp, const Partitioning& next);

  /// Test hook for the free() bookkeeping: retained freed-buffer records.
  std::size_t freedRecordCount() const { return freedBuffers_.size(); }

 private:
  /// A cached launch plan: the materialized output of every enumerator of a
  /// kernel (indexed like KernelEntry::enumerators) for one EnumerationKey.
  using LaunchPlan = std::vector<codegen::MaterializedRanges>;

  /// One inspection result: exact per-device element footprints of a
  /// kernel's may-access reads, plus everything the walk depended on (the
  /// cache key).  Entries go stale when any recorded buffer's
  /// Tracker::contentVersion() moves — update() bumps it, addSharer() does
  /// not, so replica bookkeeping cannot thrash the cache.
  struct InspectedFootprints {
    ir::LaunchConfig cfg;
    std::vector<i64> scalars;
    std::vector<const VirtualBuffer*> buffers;  // array args, in arg order
    std::vector<u64> contentVersions;           // parallel to `buffers`
    std::vector<i64> weights;                   // partitioning when inspected
    /// ranges[i][gpu] -> coalesced half-open element ranges read by `gpu`
    /// through inspectable arg mayReadArgs[i].
    std::vector<std::vector<std::vector<std::pair<i64, i64>>>> ranges;
  };

  struct KernelEntry {
    const analysis::KernelModel* model = nullptr;
    ir::KernelPtr partitioned;
    std::vector<codegen::Enumerator> enumerators;
    /// Current weighted grid partitioning (even(numGpus) at construction).
    Partitioning partitioning;
    /// Signature of the most recent launch, recorded by executeLaunch():
    /// repartition() re-evaluates the kernel's concrete write footprints
    /// under it to compute the old/new difference.  Cleared when a referenced
    /// buffer is freed.
    bool hasLastLaunch = false;
    ir::LaunchConfig lastCfg;
    std::vector<VirtualBuffer*> lastBuffers;
    std::vector<i64> lastScalars;
    /// Enumeration cache (one plan per launch configuration seen, FIFO
    /// bounded by RuntimeConfig::enumerationCachePlansPerKernel).  Plans are
    /// held by shared_ptr so a pass can keep using an acquired plan after a
    /// later insertion of the same pass evicts it.
    std::unordered_map<codegen::EnumerationKey, std::shared_ptr<const LaunchPlan>,
                       codegen::EnumerationKeyHash>
        planCache;
    std::deque<codegen::EnumerationKey> planCacheOrder;
    /// May-access tier metadata, precomputed at construction.
    /// Args whose writes left the static model (ArrayModel::writeMayAccess):
    /// executeLaunch() observes their stores like instrumented writes, but
    /// overlaps between partitions are legal (merged in ascending device
    /// order, which reproduces the sequential interpreter's last-write-wins).
    std::vector<std::size_t> mayWriteArgs;
    /// May-written args the kernel also reads (read-modify-write): every
    /// partition must see its predecessors' merged writes, so the runtime
    /// gathers the whole buffer to each device right before its partition.
    std::vector<std::size_t> rmwMayArgs;
    /// May-read args eligible for inspection (readMayAccess and not
    /// may-written; RMW args are covered wholly by the pre-partition
    /// gather).  Index i here owns InspectedFootprints::ranges[i].
    std::vector<std::size_t> mayReadArgs;
    /// Per enumerators[] entry: it realizes the whole-extent read of an
    /// inspectable arg, so read synchronization skips it while the inspector
    /// is active (the footprint sync replaces it).
    std::vector<char> enumIsMayRead;
    /// Inspection cache, FIFO bounded by
    /// RuntimeConfig::inspectionCacheEntriesPerKernel.
    std::deque<std::shared_ptr<const InspectedFootprints>> inspections;
  };

  /// The enumerators one resolution pass consumes: the writes for the
  /// tracker update; for the read sync, the reads minus those the inspector
  /// replaces (`skip`, KernelEntry::enumIsMayRead, null when inactive).
  struct ResolutionPass {
    bool writes = false;
    const std::vector<char>* skip = nullptr;
    bool consumes(const codegen::Enumerator& e, std::size_t ei) const {
      return e.isWrite() == writes && (skip == nullptr || (*skip)[ei] == 0);
    }
  };

  /// One GPU partition's launch plan for the current pass, plus whether it
  /// was replayed (cache hit → cheaper modeled cost).
  struct PlanAcquisition {
    int gpu = 0;
    codegen::PartitionTuple tuple;
    /// Materialized output indexed like KernelEntry::enumerators: a cached
    /// plan, or a row of passRanges_ (cache off), where only the enumerators
    /// the pass consumes are filled.
    const codegen::MaterializedRanges* ranges = nullptr;
    /// Owns a cached plan for the pass (null for passRanges_).
    std::shared_ptr<const LaunchPlan> pin;
    bool cached = false;
  };

  /// One (device, buffer) unit of a resolution pass: the element `ranges`
  /// that device `gpu` reads or wrote in `buffer`, charged `rows` modeled
  /// resolution rows at the cached or uncached rate.
  struct PassItem {
    int gpu = 0;
    VirtualBuffer* buffer = nullptr;
    const std::vector<std::pair<i64, i64>>* ranges = nullptr;
    i64 rows = 0;
    bool cached = false;
  };

  /// RAII wall-clock window accumulating into stats_.resolutionWallSeconds.
  /// Windows must not nest on one runtime (that would count the same real
  /// time twice); the constructor asserts against it.
  class ResolutionTimer;

  /// A validated launch: everything executeLaunch() needs.
  struct PreparedLaunch {
    TenantId tenant = 0;
    KernelEntry* ke = nullptr;
    ir::LaunchConfig cfg;
    std::span<const LaunchArg> args;
    std::vector<i64> scalars;
  };

  const KernelEntry& entry(const std::string& name) const;
  KernelEntry& entry(const std::string& name);
  /// partitionFor under an explicit weighted partitioning (partitionFor
  /// itself delegates here with the kernel's current weights).
  static ir::GridPartition partitionWith(const analysis::KernelModel& model,
                                         const ir::Dim3& grid, int gpu,
                                         const Partitioning& part);
  /// Validates arity/range/total of `next` against this runtime's devices
  /// (failed devices must have weight 0); throws Error otherwise.
  void validatePartitioning(const Partitioning& next) const;
  /// The footprint-difference migration of one kernel's transition
  /// prev -> next (repartition.cpp).  Caller has validated.
  RepartitionResult migrateKernel(KernelEntry& ke, const Partitioning& prev,
                                  const Partitioning& next);
  /// True when this launch should run the inspector–executor: the knob is
  /// on and the kernel has inspectable may-access reads.
  bool inspectorActiveFor(const KernelEntry& ke) const;
  /// Returns the (possibly cached) inspection of this launch: a host-side
  /// walk of the partitioned kernel over mirrors of the current buffer
  /// contents that records the exact per-device element footprint of every
  /// inspectable may-access read.  Functional mode only (the walk needs the
  /// buffer bytes).
  std::shared_ptr<const InspectedFootprints> inspectFootprints(
      KernelEntry& ke, const ir::LaunchConfig& cfg,
      std::span<const LaunchArg> args, std::span<const i64> scalars);
  /// The pre-partition gather for read-modify-write may-access args: before
  /// partition `gpu` launches, every byte of each rmwMayArgs buffer owned
  /// elsewhere is copied to `gpu` so the partition observes its
  /// predecessors' merged writes (sequential interpreter semantics).
  void gatherRmwMayArgs(KernelEntry& ke, std::span<const LaunchArg> args,
                        int gpu);
  /// Returns the per-launch plan for the read-sync phase when
  /// transferScheduling is on, or nullptr (paper behaviour: copies are
  /// issued inline by the tracker-query callback).
  std::unique_ptr<TransferPlan> makeTransferPlan() const;
  /// Schedules + issues a collected plan and folds its stats into stats_
  /// (peerCopies counts the post-merge copies actually issued).
  void issueTransferPlan(TransferPlan& plan);
  /// Dataflow-planning hook: issues the compiled flow edges of cycle
  /// position `step` right after the producing launch.  Every planned byte
  /// range is clipped against the live tracker (only segments the predicted
  /// source still owns, and the destination does not already share, are
  /// copied), issued with per-source floors at the producing kernels'
  /// modeled completions, then recorded as shared replicas so the
  /// consumer's reactive resolution skips them.
  void issuePrefetches(const PreparedLaunch& pl, std::size_t step,
                       std::vector<double> kernelDone);
  /// Samples the FM-memoization and specialized-program cache counters into
  /// the stats meta-fields (end of every launch).
  void sampleCacheCounters();

  // -- dependency-resolution engine (DESIGN.md) ------------------------------
  /// Phase 1: acquires one launch plan per non-empty GPU partition.  Cache
  /// off, it materializes only the enumerators `pass` consumes into
  /// passRanges_; cache on, it first commits the pass to the plan cache
  /// (FIFO hit/miss/eviction accounting in GPU order), then materializes
  /// whole plans for the misses.
  std::vector<PlanAcquisition> acquirePlans(KernelEntry& ke,
                                            const ir::LaunchConfig& cfg,
                                            std::span<const i64> scalars,
                                            const ResolutionPass& pass);
  /// The items of an enumerated pass: acquisitions x consumed enumerators,
  /// in that (canonical) order.  Items point into `acqs`.
  static std::vector<PassItem> passItems(const KernelEntry& ke,
                                         std::span<const LaunchArg> args,
                                         std::span<const PlanAcquisition> acqs,
                                         const ResolutionPass& pass);
  /// The read sync (Fig. 4, first loop).  One engine pass over the
  /// enumerated read sets; with inspected footprints `fp`, a second pass
  /// (its own wall-time window and transfer plan) over the exact may-read
  /// footprints whose whole-extent enumerators the first pass skipped.
  void synchronizeReads(KernelEntry& ke, const ir::LaunchConfig& cfg,
                        std::span<const LaunchArg> args,
                        std::span<const i64> scalars,
                        const InspectedFootprints* fp);
  /// Phases 2+3 of one read pass: tracker queries per item, then the ordered
  /// commit of the collected transfer decisions and the modeled costs
  /// (`costLabel` sim spans) into the machine model.  `countLogicalRows`
  /// adds the items' rows to RuntimeStats::logicalRowsResolved.
  void resolveReads(std::span<const PassItem> items, const char* costLabel,
                    bool countLogicalRows);
  /// Phases 2+3 for the write sets (Fig. 4, third loop): tracker updates per
  /// item, then the ordered commit of the modeled bookkeeping costs.
  void updateTrackers(KernelEntry& ke, const ir::LaunchConfig& cfg,
                      std::span<const LaunchArg> args,
                      std::span<const i64> scalars);

  /// Validates a launch request and captures everything executeLaunch()
  /// needs.  Throws Error before any machine, tracker or stats state is
  /// touched.
  PreparedLaunch prepareLaunch(const std::string& kernelName,
                               const ir::Dim3& grid, const ir::Dim3& block,
                               std::span<const LaunchArg> args,
                               TenantId tenant);
  /// The Fig. 4 flow against a prepared launch: sync reads, launch the
  /// partitions, update trackers.
  void executeLaunch(const PreparedLaunch& pl);

  RuntimeConfig config_;
  analysis::ApplicationModel model_;
  std::unique_ptr<sim::Machine> machine_;
  std::map<std::string, KernelEntry> kernels_;
  std::vector<std::unique_ptr<VirtualBuffer>> buffers_;
  /// Addresses of buffers released through free(): distinguishes a double
  /// free from a free of a pointer this runtime never allocated.
  std::vector<const VirtualBuffer*> freedBuffers_;
  RuntimeStats stats_;
  /// Per-tenant counters, indexed by TenantId.
  std::vector<TenantStats> tenants_;
  /// True while a ResolutionTimer window is open.
  bool resolutionWindowOpen_ = false;
  /// Cache-off plan storage of the current resolution pass, acquisitions x
  /// enumerators, reused across passes so steady-state launches enumerate
  /// into retained capacity.
  std::vector<codegen::MaterializedRanges> passRanges_;
  /// Cross-launch dataflow planners, one per tenant (empty unless
  /// dataflowPlanning is on and dependency resolution + transfers are
  /// enabled).  Buffers are tenant-owned, so cross-tenant flow edges cannot
  /// exist; per-tenant sequences keep each tenant's cycle detection — and
  /// therefore its stats slice — independent of how other tenants' launches
  /// interleave with it.
  std::vector<std::unique_ptr<DataflowPlanner>> planners_;
  /// FM-memoization counter baseline at construction: the memo table is
  /// process-wide, so per-runtime telemetry is the counter delta.
  i64 fmBaseHits_ = 0;
  i64 fmBaseMisses_ = 0;
  i64 fmBaseEvictions_ = 0;
};

}  // namespace polypart::rt
