#include "rt/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "pset/fm_internal.h"
#include "rt/checkpoint.h"
#include "rt/dataflow_plan.h"
#include "rt/transfer_plan.h"
#include "support/env.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::rt {

using analysis::ArrayModel;
using analysis::KernelModel;
using analysis::PartitionStrategy;
using codegen::Enumerator;
using codegen::PartitionTuple;
using ir::Dim3;
using ir::GridPartition;
using ir::LaunchConfig;

codegen::EnumTier defaultEnumeratorTier() {
  std::optional<std::string> v = env::value("POLYPART_ENUMERATOR_TIER");
  if (!v) return codegen::EnumTier::Interpret;
  try {
    return codegen::enumTierFromString(*v);
  } catch (const Error&) {
    throw Error("invalid POLYPART_ENUMERATOR_TIER value '" + *v +
                "' (accepted: interpret, bytecode, specialized)");
  }
}

bool defaultDataflowPlanning() {
  return env::flag("POLYPART_DATAFLOW_PLANNING", false);
}

bool defaultAllowRepartitioning() {
  return env::flag("POLYPART_ALLOW_REPARTITIONING", false);
}

bool defaultInspectorExecutor() {
  return env::flag("POLYPART_INSPECTOR_EXECUTOR", false);
}

namespace {

/// Storage element size: buffers hold 8-byte elements (ir::Type::I64/F64).
constexpr i64 kElemBytes = 8;

double wallSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Field-wise difference accumulation for the per-tenant stats slices:
/// into += after - before.
void addStatsDiff(RuntimeStats& into, const RuntimeStats& before,
                  const RuntimeStats& after) {
#define POLYPART_STATS_DIFF(type, name, kind) \
  into.name += after.name - before.name;
  POLYPART_RUNTIME_STATS(POLYPART_STATS_DIFF)
#undef POLYPART_STATS_DIFF
}

/// Runs body(0..n-1) in index order inside a `label` wall span (a string
/// literal): one phase of a resolution pass.  A phase with no work records
/// no span.
template <class Body>
void runPhase(trace::Tracer* tracer, const char* label, std::size_t n,
              Body&& body) {
  if (n == 0) return;
  trace::Span span(tracer, "runtime", label, {},
                   {{"tasks", static_cast<i64>(n)}});
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace

class Runtime::ResolutionTimer {
 public:
  explicit ResolutionTimer(Runtime& rt)
      : rt_(rt), t0_(std::chrono::steady_clock::now()) {
    // Nested windows would count the same real time twice.
    PP_ASSERT_MSG(!rt_.resolutionWindowOpen_,
                  "overlapping resolution wall-time windows");
    rt_.resolutionWindowOpen_ = true;
  }
  ~ResolutionTimer() {
    rt_.resolutionWindowOpen_ = false;
    rt_.stats_.resolutionWallSeconds += wallSeconds(t0_);
  }

  ResolutionTimer(const ResolutionTimer&) = delete;
  ResolutionTimer& operator=(const ResolutionTimer&) = delete;

 private:
  Runtime& rt_;
  std::chrono::steady_clock::time_point t0_;
};

Runtime::Runtime(RuntimeConfig config, analysis::ApplicationModel model,
                 const ir::Module& kernels)
    : config_(config), model_(std::move(model)) {
  // Reject bad values before anything is built.
  auto require = [](bool ok, const char* field, i64 value, const char* rule) {
    if (!ok)
      throw Error(std::string("RuntimeConfig::") + field + " must be " + rule +
                  ", got " + std::to_string(value));
  };
  require(config_.numGpus >= 1, "numGpus", config_.numGpus, ">= 1");
  require(config_.numTenants >= 1, "numTenants", config_.numTenants, ">= 1");
  // The two compatibility shims (see RuntimeConfig) accept only 0.
  require(config_.resolutionThreads == 0, "resolutionThreads",
          config_.resolutionThreads, "0");
  require(config_.pipelineDepth == 0, "pipelineDepth", config_.pipelineDepth,
          "0");
  // FM-memoization telemetry baseline: taken before any enumerator is built
  // so this runtime's construction-time projections count toward its sample.
  const pset::FmMemoCounters fmBase = pset::fmMemoCounters();
  fmBaseHits_ = fmBase.hits;
  fmBaseMisses_ = fmBase.misses;
  fmBaseEvictions_ = fmBase.evictions;
  config_.machine.numDevices = config_.numGpus;
  machine_ = std::make_unique<sim::Machine>(config_.machine, config_.mode);
  if (config_.dataflowPlanning && config_.enableDependencyResolution &&
      config_.enableTransfers) {
    planners_.resize(static_cast<std::size_t>(config_.numTenants));
    for (auto& p : planners_)
      p = std::make_unique<DataflowPlanner>(
          config_.numGpus, kElemBytes,
          [this](const KernelModel& m, const Dim3& g, int gpu) {
            return partitionFor(m, g, gpu);
          });
  }
  machine_->setTracer(config_.tracer);

  // Per-kernel partitioning (Section 7) and enumerator generation
  // (Section 6), in model order.
  for (const KernelModel& km : model_.kernels) {
    ir::KernelPtr k = kernels.find(km.kernel);
    PP_ASSERT_MSG(k != nullptr, "model references a kernel missing from the module");
    KernelEntry ke;
    ke.model = &km;
    ke.partitioned = ir::partitionKernel(*k);
    ke.partitioning = Partitioning::even(config_.numGpus);
    ke.enumerators = codegen::buildEnumerators(km);
    for (Enumerator& e : ke.enumerators) {
      e.coalesce = config_.coalesceEnumerators;
      e.tier = config_.enumeratorTier;
    }
    // May-access tier metadata.  An arg is either instrumented or
    // may-written, never both (the analysis picks instrumented first), and
    // RMW may-args are excluded from the inspectable set: the pre-partition
    // gather already moves their whole extent.
    for (const ArrayModel& a : km.arrays) {
      if (a.writeMayAccess) {
        ke.mayWriteArgs.push_back(a.argIndex);
        if (a.hasReads()) ke.rmwMayArgs.push_back(a.argIndex);
      } else if (a.readMayAccess) {
        ke.mayReadArgs.push_back(a.argIndex);
      }
    }
    ke.enumIsMayRead.assign(ke.enumerators.size(), 0);
    for (std::size_t ei = 0; ei < ke.enumerators.size(); ++ei) {
      const Enumerator& e = ke.enumerators[ei];
      if (e.isWrite()) continue;
      if (std::find(ke.mayReadArgs.begin(), ke.mayReadArgs.end(),
                    e.argIndex()) != ke.mayReadArgs.end())
        ke.enumIsMayRead[ei] = 1;
    }
    kernels_.emplace(km.kernel, std::move(ke));
  }
  tenants_.resize(static_cast<std::size_t>(config_.numTenants));
}

Runtime::~Runtime() = default;

const Runtime::KernelEntry& Runtime::entry(const std::string& name) const {
  auto it = kernels_.find(name);
  if (it == kernels_.end()) throw Error("unknown kernel '" + name + "'");
  return it->second;
}

Runtime::KernelEntry& Runtime::entry(const std::string& name) {
  return const_cast<KernelEntry&>(std::as_const(*this).entry(name));
}

const ir::Kernel& Runtime::partitionedKernel(const std::string& name) const {
  return *entry(name).partitioned;
}

VirtualBuffer* Runtime::malloc(i64 bytes, TenantId tenant) {
  if (bytes < 0)
    throw Error("Runtime::malloc: bytes must be >= 0, got " +
                std::to_string(bytes));
  if (tenant < 0 || tenant >= config_.numTenants)
    throw Error("Runtime::malloc: unknown tenant " + std::to_string(tenant) +
                " (numTenants " + std::to_string(config_.numTenants) + ")");
  std::vector<sim::DevBuffer> instances;
  instances.reserve(static_cast<std::size_t>(config_.numGpus));
  for (int d = 0; d < config_.numGpus; ++d)
    instances.push_back(machine_->deviceFailed(d) ? sim::DevBuffer{}
                                                  : machine_->alloc(d, bytes));
  buffers_.push_back(std::unique_ptr<VirtualBuffer>(
      new VirtualBuffer(bytes, std::move(instances), tenant)));
  VirtualBuffer* vb = buffers_.back().get();
  // The heap may hand back the address of a previously freed VirtualBuffer;
  // a stale freed record for it would misdiagnose a later bad free of this
  // live buffer as a double free of the old one.
  freedBuffers_.erase(
      std::remove(freedBuffers_.begin(), freedBuffers_.end(), vb),
      freedBuffers_.end());
  return vb;
}

void Runtime::free(VirtualBuffer* buf) {
  PP_ASSERT_MSG(buf != nullptr, "free of null virtual buffer");
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->get() == buf) {
      // Recorded launch signatures hold buffer identities; dropping the
      // buffer invalidates them (a reused address must not match a stale
      // plan).  Only the owning tenant's planner can reference it — other
      // tenants' plans stay live, so their stats slices are unaffected by
      // this tenant's frees.  Read the tenant only now that the pointer is
      // known live (the double-free diagnosis below must not touch *buf).
      if (!planners_.empty())
        planners_[static_cast<std::size_t>(buf->tenant())]->reset();
      for (auto& [name, ke] : kernels_) {
        // Cached inspections key on buffer identity + content version; a
        // reallocation can reuse both, so footprints that referenced the
        // freed buffer must not survive it.
        std::erase_if(ke.inspections,
                      [&](const std::shared_ptr<const InspectedFootprints>& f) {
                        return std::find(f->buffers.begin(), f->buffers.end(),
                                         buf) != f->buffers.end();
                      });
        if (!ke.hasLastLaunch) continue;
        if (std::find(ke.lastBuffers.begin(), ke.lastBuffers.end(), buf) !=
            ke.lastBuffers.end())
          ke.hasLastLaunch = false;
      }
      for (const sim::DevBuffer& b : buf->instances_)
        if (b.valid()) machine_->free(b);
      freedBuffers_.push_back(buf);
      // Bounded diagnostic history: drop the oldest records beyond the cap
      // (the diagnosis below degrades gracefully for dropped entries — a
      // stale double free reports as a foreign-pointer free).
      constexpr std::size_t kMaxFreedRecords = 256;
      if (freedBuffers_.size() > kMaxFreedRecords)
        freedBuffers_.erase(freedBuffers_.begin());
      buffers_.erase(it);
      return;
    }
  }
  // Not live: diagnose which contract was broken before dying.
  PP_ASSERT_MSG(
      std::find(freedBuffers_.begin(), freedBuffers_.end(), buf) ==
          freedBuffers_.end(),
      "double free of virtual buffer");
  PP_ASSERT_MSG(false, "free of a pointer this runtime never allocated");
}

void Runtime::memcpy(void* dst, const void* src, i64 bytes, MemcpyKind kind) {
  if (bytes < 0)
    throw Error("Runtime::memcpy: bytes must be >= 0, got " +
                std::to_string(bytes));
  auto requireFits = [bytes](const VirtualBuffer* vb) {
    if (bytes > vb->bytes())
      throw Error("Runtime::memcpy: " + std::to_string(bytes) +
                  " bytes exceed the " + std::to_string(vb->bytes()) +
                  "-byte buffer");
  };
  trace::Span span(config_.tracer, "runtime", "memcpy", {}, {{"bytes", bytes}});
  switch (kind) {
    case MemcpyKind::HostToHost:
      machine_->chargeApiCall();
      if (machine_->mode() == sim::ExecutionMode::Functional && dst && src)
        std::memcpy(dst, src, static_cast<std::size_t>(bytes));
      return;

    case MemcpyKind::HostToDevice: {
      // 1:n movement (Section 8.2): distribute in a predefined pattern; any
      // mismatch with the kernels' read patterns is corrected by the
      // dependency resolution before the next launch.
      auto* vb = static_cast<VirtualBuffer*>(dst);
      requireFits(vb);
      // Kernels still writing this buffer must drain before the scatter
      // overwrites the device instances; the post-copy barrier alone would
      // let the copies race with in-flight kernels in the timing model.
      machine_->synchronizeAll();
      // Scatter only across live devices (identical arithmetic to scattering
      // across all of them while none has failed).
      std::vector<int> targets;
      targets.reserve(static_cast<std::size_t>(config_.numGpus));
      for (int d = 0; d < config_.numGpus; ++d)
        if (!machine_->deviceFailed(d)) targets.push_back(d);
      PP_ASSERT_MSG(!targets.empty(), "host-to-device copy with no live device");
      const int g = static_cast<int>(targets.size());
      if (config_.h2dDistribution == H2DDistribution::Linear) {
        const i64 elems = bytes / kElemBytes;
        for (int i = 0; i < g; ++i) {
          const int d = targets[static_cast<std::size_t>(i)];
          i64 lo = elems * i / g * kElemBytes;
          i64 hi = i + 1 == g ? bytes : elems * (i + 1) / g * kElemBytes;
          if (lo >= hi) continue;
          // src is null in TimingOnly mode; don't offset the null pointer.
          machine_->copyHostToDevice(vb->instances_[static_cast<std::size_t>(d)], lo,
                                     src ? static_cast<const char*>(src) + lo : nullptr,
                                     hi - lo);
          trace::instant(config_.tracer, "transfer", "h2d-copy",
                         {{"dst", d}, {"bytes", hi - lo}});
          vb->tracker_.update(lo, hi, d);
        }
      } else {
        // Round-robin pages (ablation): fragments ownership across GPUs.
        const i64 page = config_.h2dPageBytes;
        i64 off = 0;
        int i = 0;
        while (off < bytes) {
          const int d = targets[static_cast<std::size_t>(i)];
          i64 len = std::min(page, bytes - off);
          machine_->copyHostToDevice(vb->instances_[static_cast<std::size_t>(d)], off,
                                     src ? static_cast<const char*>(src) + off : nullptr,
                                     len);
          trace::instant(config_.tracer, "transfer", "h2d-copy",
                         {{"dst", d}, {"bytes", len}});
          vb->tracker_.update(off, off + len, d);
          off += len;
          i = (i + 1) % g;
        }
      }
      machine_->synchronizeAll();
      return;
    }

    case MemcpyKind::DeviceToHost: {
      // n:1 movement: gather each segment from the GPU the tracker records
      // as owning its most recent copy (Section 8.2).
      auto* vb = static_cast<VirtualBuffer*>(const_cast<void*>(src));
      requireFits(vb);
      machine_->synchronizeAll();  // kernels producing the data must finish
      vb->tracker_.query(0, bytes, [&](i64 b, i64 e, Owner owner) {
        if (owner < 0) return;  // never written: leave host bytes untouched
        machine_->copyDeviceToHost(
            dst ? static_cast<char*>(dst) + b : nullptr,
            vb->instances_[static_cast<std::size_t>(owner)], b, e - b);
        trace::instant(config_.tracer, "transfer", "d2h-copy",
                       {{"src", owner}, {"bytes", e - b}});
      });
      machine_->synchronizeAll();
      return;
    }

    case MemcpyKind::DeviceToDevice:
      // Duplicated device data has no equivalent in the partitioned model
      // (Section 8.2: "currently not supported").
      throw UnsupportedOperationError(
          "device-to-device memcpy is not supported by the partitioned runtime");
  }
}

void Runtime::deviceSynchronize() { machine_->synchronizeAll(); }

double Runtime::elapsedSeconds() const { return machine_->completionTime(); }

GridPartition Runtime::partitionFor(const KernelModel& model, const Dim3& grid,
                                    int gpu) const {
  auto it = kernels_.find(model.kernel);
  if (it != kernels_.end())
    return partitionWith(model, grid, gpu, it->second.partitioning);
  // A model this runtime does not manage (test helper usage): even split.
  return partitionWith(model, grid, gpu, Partitioning::even(config_.numGpus));
}

GridPartition Runtime::partitionWith(const KernelModel& model, const Dim3& grid,
                                     int gpu, const Partitioning& part) {
  PP_ASSERT(gpu >= 0 && static_cast<std::size_t>(gpu) < part.weights.size());
  // Weighted generalization of the paper's even block split: device d covers
  // [extent * prefix(d) / total, extent * (prefix(d) + w(d)) / total).
  // All-equal weights reduce to the seed's extent*gpu/g arithmetic exactly.
  const i64 total = part.totalWeight();
  i64 pre = 0;
  for (int d = 0; d < gpu; ++d) pre += part.weights[static_cast<std::size_t>(d)];
  const i64 w = part.weights[static_cast<std::size_t>(gpu)];
  GridPartition p{{0, 0, 0}, grid};
  auto chunk = [&](i64 extent, i64& lo, i64& hi) {
    lo = extent * pre / total;
    hi = extent * (pre + w) / total;
  };
  switch (model.strategy) {
    case PartitionStrategy::SplitX: chunk(grid.x, p.lo.x, p.hi.x); break;
    case PartitionStrategy::SplitY: chunk(grid.y, p.lo.y, p.hi.y); break;
    case PartitionStrategy::SplitZ: chunk(grid.z, p.lo.z, p.hi.z); break;
  }
  return p;
}

std::unique_ptr<TransferPlan> Runtime::makeTransferPlan() const {
  if (!config_.transferScheduling || !config_.enableTransfers) return nullptr;
  TransferPlan::Options opts;
  opts.mergeRanges = true;
  // Chaining sources a copy from a replica instead of the owner, which is
  // exactly the reuse the sharer bitmap legitimizes; without it, replicas
  // are not tracked and the plan keeps every copy on its owner link.
  opts.chainBroadcasts = config_.trackSharedCopies;
  return std::make_unique<TransferPlan>(opts);
}

void Runtime::issueTransferPlan(TransferPlan& plan) {
  trace::Span span(config_.tracer, "runtime", "schedule-transfers", {},
                   {{"decisions", static_cast<i64>(plan.recordCount())}});
  const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
  stats_.peerCopies += ps.issued;
  stats_.transfersMerged += ps.merged;
  stats_.broadcastChains += ps.chains;
  stats_.bytesSavedByDedup += ps.bytesSaved;
}

void Runtime::issuePrefetches(const PreparedLaunch& pl, std::size_t step,
                              std::vector<double> kernelDone) {
  const std::vector<FlowEdge>& edges =
      planners_[static_cast<std::size_t>(pl.tenant)]->edgesFor(step);
  if (edges.empty()) return;
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "prefetch-flows", {},
                   {{"edges", static_cast<i64>(edges.size())}});

  TransferPlan::Options opts;
  opts.mergeRanges = true;
  opts.chainBroadcasts = false;  // prefetch replicas are sharer-tracked, but
                                 // flow edges are already per-destination
  TransferPlan plan(opts);
  plan.markPrefetch();
  plan.setSrcFloors(std::move(kernelDone));

  // Clip every planned range against the live tracker: only sub-segments
  // whose current owner is the predicted source — and that the destination
  // does not already share — are copied.  Any divergence from the plan
  // (host writes, mispredicted owners) silently degrades to the reactive
  // path, which is what keeps results byte-identical.
  struct Replica {
    VirtualBuffer* buf;
    i64 begin, end;
    int dst;
  };
  std::vector<Replica> replicas;
  for (const FlowEdge& edge : edges) {
    VirtualBuffer* vb = pl.args[edge.argIndex].buffer;
    if (vb == nullptr) continue;
    stats_.bytesElided += edge.elidedBytes;
    for (const PlannedTransfer& t : edge.transfers) {
      if (t.src < 0 || t.src >= config_.numGpus) continue;
      if (t.dst < 0 || t.dst >= config_.numGpus || t.dst >= 64) continue;
      for (const auto& [rb, re] : t.byteRanges) {
        vb->tracker_.querySharers(
            rb, re, [&](i64 b, i64 e, Owner owner, u64 sharers) {
              ++stats_.trackerSegmentsVisited;
              if (owner != t.src) return;  // plan/reality divergence: skip
              if (hasReplica(sharers, t.dst)) return;  // already there
              plan.add(vb, t.dst, t.src, b, e);
              replicas.push_back(Replica{vb, b, e, t.dst});
            });
      }
    }
  }

  i64 bytesQueued = 0;
  for (const Replica& r : replicas) bytesQueued += r.end - r.begin;
  if (!plan.empty()) {
    const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
    stats_.prefetchCopies += ps.issued;
    stats_.bytesPrefetched += bytesQueued - ps.bytesSaved;
    trace::counter(config_.tracer, "plan", "bytes-prefetched",
                   stats_.bytesPrefetched);
    // Record the replicas after issuing (addSharer mutates the tracker the
    // query above walked); the consumer's reactive resolution will skip
    // exactly these segments via the sharer bit.
    for (const Replica& r : replicas)
      r.buf->tracker_.addSharer(r.begin, r.end, r.dst);
  }

  // Modeled host cost of assembling/issuing the prefetch copies — the same
  // per-row transfer-issue coefficient the reactive path is charged.
  double cost = config_.transferIssueCostPerRow *
                static_cast<double>(replicas.size());
  double simStart = machine_->now();
  machine_->advanceHost(cost);
  trace::simSpan(config_.tracer, "sim.pattern", "prefetch-issue",
                 sim::kSimHostTrack, simStart, cost,
                 {{"copies", static_cast<i64>(replicas.size())}});
}

void Runtime::sampleCacheCounters() {
  const pset::FmMemoCounters fm = pset::fmMemoCounters();
  i64 specHits = 0, specMisses = 0, specEvictions = 0;
  for (const auto& [name, ke] : kernels_)
    for (const Enumerator& e : ke.enumerators) {
      const codegen::Enumerator::SpecCacheCounters c = e.specCacheCounters();
      specHits += c.hits;
      specMisses += c.misses;
      specEvictions += c.evictions;
    }
  stats_.fmMemoHits = fm.hits - fmBaseHits_;
  stats_.fmMemoMisses = fm.misses - fmBaseMisses_;
  stats_.fmMemoEvictions = fm.evictions - fmBaseEvictions_;
  stats_.specProgramHits = specHits;
  stats_.specProgramMisses = specMisses;
  stats_.specProgramEvictions = specEvictions;
}

// ---------------------------------------------------------------------------
// May-access tier: inspector–executor (DESIGN.md "May-access tier").
// ---------------------------------------------------------------------------

bool Runtime::inspectorActiveFor(const KernelEntry& ke) const {
  return config_.inspectorExecutor && !ke.mayReadArgs.empty();
}

std::shared_ptr<const Runtime::InspectedFootprints> Runtime::inspectFootprints(
    KernelEntry& ke, const LaunchConfig& cfg, std::span<const LaunchArg> args,
    std::span<const i64> scalars) {
  PP_ASSERT_MSG(machine_->mode() == sim::ExecutionMode::Functional,
                "inspection walk without functional buffer contents");
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "inspect:", ke.model->kernel);

  // Cache probe.  The geometry/scalars/buffer-identity/weights tuple is the
  // key; the content versions decide freshness (they move only on
  // Tracker::update()).  Only *read* arguments enter the freshness vector: a
  // write-only output cannot influence the walk, and skipping its version is
  // what lets the repeat launch of an iterative kernel hit the cache despite
  // writing its output.
  std::vector<const VirtualBuffer*> bufs;
  std::vector<u64> versions;
  for (std::size_t ai = 0; ai < args.size(); ++ai) {
    if (args[ai].buffer == nullptr) continue;
    bufs.push_back(args[ai].buffer);
    const analysis::ArrayModel* am = ke.model->arrayFor(ai);
    if (am != nullptr && am->hasReads())
      versions.push_back(args[ai].buffer->tracker().contentVersion());
  }
  auto sameKey = [&](const InspectedFootprints& f) {
    return f.cfg.grid.x == cfg.grid.x && f.cfg.grid.y == cfg.grid.y &&
           f.cfg.grid.z == cfg.grid.z && f.cfg.block.x == cfg.block.x &&
           f.cfg.block.y == cfg.block.y && f.cfg.block.z == cfg.block.z &&
           f.scalars.size() == scalars.size() &&
           std::equal(f.scalars.begin(), f.scalars.end(), scalars.begin()) &&
           f.buffers == bufs && f.weights == ke.partitioning.weights;
  };
  for (auto it = ke.inspections.begin(); it != ke.inspections.end(); ++it) {
    if (!sameKey(**it)) continue;
    if ((*it)->contentVersions == versions) {
      ++stats_.inspectorCacheHits;
      trace::instant(config_.tracer, "cache", "inspection-hit");
      return *it;
    }
    // Stale: an inspected buffer's content changed since the walk.
    ++stats_.inspectorCacheInvalidations;
    trace::instant(config_.tracer, "cache", "inspection-invalidate");
    ke.inspections.erase(it);
    break;
  }
  ++stats_.inspectorCacheMisses;

  // Host mirrors of every array argument, gathered segment-wise from the
  // owning device instances (undefined segments stay zero).  The walk runs
  // all partitions on these *shared* mirrors in ascending device order, so
  // stores of earlier partitions are visible to later ones — the same
  // sequential-interpreter semantics the launch itself reproduces.
  std::vector<std::vector<i64>> mirrors(bufs.size());
  std::vector<ir::ArgValue> argvals;
  argvals.reserve(args.size() + 6);
  {
    std::size_t bi = 0;
    for (const LaunchArg& a : args) {
      if (a.buffer == nullptr) {
        argvals.push_back(ir::ArgValue{a.scalar, nullptr, 0});
        continue;
      }
      std::vector<i64>& m = mirrors[bi++];
      m.assign(static_cast<std::size_t>(a.buffer->bytes() / kElemBytes), 0);
      a.buffer->tracker().query(0, a.buffer->bytes(), [&](i64 b, i64 e,
                                                          Owner owner) {
        if (owner < 0) return;
        const char* src = static_cast<const char*>(machine_->bufferData(
            a.buffer->instances_[static_cast<std::size_t>(owner)]));
        std::memcpy(reinterpret_cast<char*>(m.data()) + b, src + b,
                    static_cast<std::size_t>(e - b));
      });
      argvals.push_back(
          ir::ArgValue::ofBuffer(m.data(), static_cast<i64>(m.size())));
    }
  }

  auto fp = std::make_shared<InspectedFootprints>();
  fp->cfg = cfg;
  fp->scalars.assign(scalars.begin(), scalars.end());
  fp->buffers = std::move(bufs);
  fp->contentVersions = std::move(versions);
  fp->weights = ke.partitioning.weights;
  fp->ranges.assign(
      ke.mayReadArgs.size(),
      std::vector<std::vector<std::pair<i64, i64>>>(
          static_cast<std::size_t>(config_.numGpus)));

  std::vector<int> slotOf(args.size(), -1);
  for (std::size_t i = 0; i < ke.mayReadArgs.size(); ++i)
    slotOf[ke.mayReadArgs[i]] = static_cast<int>(i);

  i64 accesses = 0;
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(*ke.model, cfg.grid, gpu);
    if (gp.blockCount() == 0) continue;
    LaunchConfig partCfg{
        {gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z}, cfg.block};
    std::vector<ir::ArgValue> pargs = argvals;
    for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
      pargs.push_back(ir::ArgValue::ofInt(v));
    std::vector<std::vector<i64>> flats(ke.mayReadArgs.size());
    ir::AccessObserver observer = [&](std::size_t arg, bool isWrite, i64 flat,
                                      std::span<const i64, 12>) {
      if (isWrite || slotOf[arg] < 0) return;
      ++accesses;
      flats[static_cast<std::size_t>(slotOf[arg])].push_back(flat);
    };
    ir::execute(*ke.partitioned, partCfg, pargs, observer);
    for (std::size_t si = 0; si < flats.size(); ++si) {
      std::vector<i64>& fs = flats[si];
      std::sort(fs.begin(), fs.end());
      fs.erase(std::unique(fs.begin(), fs.end()), fs.end());
      auto& out = fp->ranges[si][static_cast<std::size_t>(gpu)];
      std::size_t i = 0;
      while (i < fs.size()) {
        std::size_t j = i;
        while (j + 1 < fs.size() && fs[j + 1] == fs[j] + 1) ++j;
        out.emplace_back(fs[i], fs[j] + 1);
        i = j + 1;
      }
    }
  }

  ++stats_.inspectorRuns;
  stats_.inspectedElements += accesses;
  const double cost =
      config_.inspectorCostPerElement * static_cast<double>(accesses);
  const double simStart = machine_->now();
  machine_->advanceHost(cost);
  trace::simSpan(config_.tracer, "sim.pattern", "inspect", sim::kSimHostTrack,
                 simStart, cost, {{"elements", accesses}});

  const i64 cap = config_.inspectionCacheEntriesPerKernel;
  if (cap > 0 && static_cast<i64>(ke.inspections.size()) >= cap)
    ke.inspections.pop_front();
  ke.inspections.push_back(fp);
  return fp;
}

void Runtime::gatherRmwMayArgs(KernelEntry& ke, std::span<const LaunchArg> args,
                               int gpu) {
  // Read-modify-write may-args carry no static read map, and each partition
  // must observe the merged writes of every earlier one (sequential
  // interpreter semantics): gather the whole buffer to this device right
  // before its partition launches.  The leading barrier also orders this
  // partition behind its predecessor, whose writes fold into the tracker
  // only after its kernel returns.
  trace::Span span(config_.tracer, "runtime", "gather-rmw");
  machine_->synchronizeAll();
  for (std::size_t arg : ke.rmwMayArgs) {
    VirtualBuffer* vb = args[arg].buffer;
    PP_ASSERT(vb != nullptr);
    vb->tracker_.query(0, vb->bytes(), [&](i64 b, i64 e, Owner owner) {
      if (owner < 0 || owner == gpu) return;
      machine_->copyPeer(vb->instances_[static_cast<std::size_t>(gpu)], b,
                         vb->instances_[static_cast<std::size_t>(owner)], b,
                         e - b);
      ++stats_.peerCopies;
      trace::instant(config_.tracer, "transfer", "peer-copy",
                     {{"src", owner}, {"dst", gpu}, {"bytes", e - b}});
    });
  }
  machine_->synchronizeAll();
}

// ---------------------------------------------------------------------------
// Dependency-resolution engine (DESIGN.md "Dependency-resolution engine").
//
// A launch resolves its read sets before the kernels run and its write sets
// after them (Fig. 4, Section 8.3).  Per (GPU partition, array) pair that is
// three kinds of work: pure polyhedral enumeration, tracker queries/updates,
// and machine-model bookkeeping (transfers + modeled host cost).  Each pass
// runs them as three phases, inline on the launching thread (the paper's
// serial resolution):
//
//   1. acquirePlans      — the (gpu, enumerator) materializations the pass
//                          needs, after the plan-cache commit with its FIFO
//                          hit/miss/eviction accounting in GPU order.  The
//                          result is the pass's PassItems, one per (gpu,
//                          consumed enumerator), in canonical order.
//   2. tracker work      — each item's tracker queries (reads) or updates
//                          (writes), in canonical order, recording the
//                          transfer decisions.
//   3. ordered commit    — the transfer decisions and modeled costs are
//                          replayed into sim::Machine in the canonical
//                          order.
//
// Inspected may-reads run phases 2 and 3 as a second read pass, with items
// built from the footprints instead of phase 1.
// ---------------------------------------------------------------------------

std::vector<Runtime::PassItem> Runtime::passItems(
    const KernelEntry& ke, std::span<const LaunchArg> args,
    std::span<const PlanAcquisition> acqs, const ResolutionPass& pass) {
  std::vector<PassItem> items;
  for (const PlanAcquisition& a : acqs)
    for (std::size_t ei = 0; ei < ke.enumerators.size(); ++ei) {
      const Enumerator& e = ke.enumerators[ei];
      if (!pass.consumes(e, ei)) continue;
      const codegen::MaterializedRanges& mr = a.ranges[ei];
      items.push_back(PassItem{a.gpu, args[e.argIndex()].buffer, &mr.ranges,
                               mr.info.logicalRows, a.cached});
    }
  return items;
}

std::vector<Runtime::PlanAcquisition> Runtime::acquirePlans(
    KernelEntry& ke, const LaunchConfig& cfg, std::span<const i64> scalars,
    const ResolutionPass& pass) {
  trace::Span span(config_.tracer, "runtime", "phase1:acquire-plans");
  std::vector<PlanAcquisition> acqs;
  acqs.reserve(static_cast<std::size_t>(config_.numGpus));
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(*ke.model, cfg.grid, gpu);
    if (gp.blockCount() == 0) continue;
    acqs.push_back(PlanAcquisition{gpu,
                                   PartitionTuple::fromBlocks(gp, cfg.block),
                                   nullptr, nullptr, false});
  }
  const std::size_t numEnums = ke.enumerators.size();

  if (!config_.enableEnumerationCache) {
    // Cache off: the paper's runtime re-enumerates, every launch, exactly the
    // enumerators the pass consumes.  They enumerate into the retained rows
    // of passRanges_ so the tracker phase can replay them; the recorded
    // ranges are exactly what a live enumerate() call emits.
    if (passRanges_.size() < acqs.size() * numEnums)
      passRanges_.resize(acqs.size() * numEnums);
    for (std::size_t ai = 0; ai < acqs.size(); ++ai)
      acqs[ai].ranges = &passRanges_[ai * numEnums];
    support::SmallVec<std::size_t, 16> enums;  // enumerators the pass consumes
    for (std::size_t ei = 0; ei < numEnums; ++ei)
      if (pass.consumes(ke.enumerators[ei], ei)) enums.push_back(ei);
    runPhase(
        config_.tracer, "phase1:materialize", acqs.size() * enums.size(),
        [&](std::size_t task) {
          const std::size_t ai = task / enums.size();
          const std::size_t ei = enums[task % enums.size()];
          codegen::MaterializedRanges& mr = passRanges_[ai * numEnums + ei];
          mr.ranges.clear();
          mr.info = {};
          ke.enumerators[ei].enumerate(
              acqs[ai].tuple, cfg, scalars,
              [&mr](i64 b, i64 e) { mr.ranges.emplace_back(b, e); }, &mr.info);
        });
    return acqs;
  }

  // Cache on: the cache commit runs first, in canonical GPU order with the
  // cache's counter and FIFO semantics (including eviction thrash when the
  // capacity is smaller than the partitions of one launch).  A miss inserts
  // a whole plan that the materialization below fills in.
  struct Miss {
    std::size_t acq;
    codegen::EnumerationKey key;
    std::shared_ptr<LaunchPlan> plan;
  };
  std::vector<Miss> toBuild;
  const i64 cap = config_.enumerationCachePlansPerKernel;
  for (std::size_t ai = 0; ai < acqs.size(); ++ai) {
    PlanAcquisition& a = acqs[ai];
    codegen::EnumerationKey key =
        codegen::EnumerationKey::of(a.tuple, cfg, scalars);
    auto it = ke.planCache.find(key);
    if (it != ke.planCache.end()) {
      ++stats_.enumCacheHits;
      trace::instant(config_.tracer, "cache", "plan-hit");
      trace::counter(config_.tracer, "cache", "plan-cache-hits",
                     stats_.enumCacheHits);
      a.cached = true;
      a.pin = it->second;
      a.ranges = a.pin->data();
      continue;
    }
    ++stats_.enumCacheMisses;
    trace::instant(config_.tracer, "cache", "plan-miss");
    trace::counter(config_.tracer, "cache", "plan-cache-misses",
                   stats_.enumCacheMisses);
    if (cap > 0 && static_cast<i64>(ke.planCache.size()) >= cap) {
      ke.planCache.erase(ke.planCacheOrder.front());
      ke.planCacheOrder.pop_front();
      ++stats_.enumCacheEvictions;
      trace::instant(config_.tracer, "cache", "plan-evict");
      trace::counter(config_.tracer, "cache", "plan-cache-evictions",
                     stats_.enumCacheEvictions);
    }
    auto plan = std::make_shared<LaunchPlan>(numEnums);
    toBuild.push_back(Miss{ai, key, plan});
    a.pin = plan;
    a.ranges = plan->data();
    auto [pos, inserted] =
        ke.planCache.emplace(std::move(key), std::move(plan));
    PP_ASSERT(inserted);
    ke.planCacheOrder.push_back(pos->first);
  }
  try {
    runPhase(
        config_.tracer, "phase1:materialize", toBuild.size() * numEnums,
        [&](std::size_t t) {
          const Miss& m = toBuild[t / numEnums];
          const std::size_t ei = t % numEnums;
          (*m.plan)[ei] =
              ke.enumerators[ei].materialize(acqs[m.acq].tuple, cfg, scalars);
        });
  } catch (...) {
    // A failed enumeration must not leave unfilled plans for later hits.
    for (const Miss& m : toBuild) {
      auto it = ke.planCache.find(m.key);
      if (it == ke.planCache.end() || it->second != m.plan) continue;
      ke.planCache.erase(it);
      std::erase(ke.planCacheOrder, m.key);
    }
    throw;
  }
  return acqs;
}

void Runtime::synchronizeReads(KernelEntry& ke, const LaunchConfig& cfg,
                               std::span<const LaunchArg> args,
                               std::span<const i64> scalars,
                               const InspectedFootprints* fp) {
  {
    ResolutionTimer timer(*this);
    trace::Span span(config_.tracer, "runtime", "sync-reads");
    // With inspected footprints, the whole-extent enumerators of inspectable
    // may-read args are skipped: the second pass below reads exactly the
    // footprints instead.
    const ResolutionPass pass{false,
                              fp != nullptr ? &ke.enumIsMayRead : nullptr};
    std::vector<PlanAcquisition> acqs = acquirePlans(ke, cfg, scalars, pass);
    resolveReads(passItems(ke, args, acqs, pass), "resolve-reads",
                 /*countLogicalRows=*/true);
  }
  if (fp == nullptr) return;

  // Inspected may-reads: a second pass of the same engine, in its own
  // wall-time window, over the per-(GPU, arg) footprints.  Footprint ranges
  // are exact element runs, not the paper's row steps: each is charged one
  // uncached row and none counts toward logicalRowsResolved.  Empty
  // footprints are no work at all (not even the per-array charge).
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "sync-may-reads");
  std::vector<PassItem> items;
  for (int gpu = 0; gpu < config_.numGpus; ++gpu)
    for (std::size_t si = 0; si < ke.mayReadArgs.size(); ++si) {
      const auto& ranges = fp->ranges[si][static_cast<std::size_t>(gpu)];
      if (ranges.empty()) continue;
      items.push_back(PassItem{gpu, args[ke.mayReadArgs[si]].buffer, &ranges,
                               static_cast<i64>(ranges.size()), false});
    }
  resolveReads(items, "resolve-may-reads", /*countLogicalRows=*/false);
}

void Runtime::resolveReads(std::span<const PassItem> items,
                           const char* costLabel, bool countLogicalRows) {
  // Phase 2 output per item: its transfer decisions, a [first, end) slice of
  // `transfers`, and the query counts.
  struct Transfer {
    i64 begin = 0;
    i64 end = 0;
    Owner owner = kOwnerUndefined;
  };
  struct ItemResolution {
    i64 segments = 0;
    i64 sharedHits = 0;
    std::size_t firstTransfer = 0;
    std::size_t endTransfer = 0;
  };
  std::vector<ItemResolution> results(items.size());
  std::vector<Transfer> transfers;
  std::vector<std::pair<i64, i64>> sharerScratch;

  runPhase(config_.tracer, "phase2:tracker-tasks", items.size(),
           [&](std::size_t i) {
    const PassItem& it = items[i];
    ItemResolution& r = results[i];
    r.firstTransfer = transfers.size();
    for (const auto& [elemB, elemE] : *it.ranges) {
      it.buffer->tracker_.querySharers(
          elemB * kElemBytes, elemE * kElemBytes,
          [&](i64 b, i64 en, Owner owner, u64 sharers) {
            ++r.segments;
            // Up to date here, or never written.
            if (owner == it.gpu || owner < 0) return;
            // Only trackSharedCopies (reactive replicas) and the dataflow
            // planner (prefetched ones) record sharers off the owner.
            if (hasReplica(sharers, it.gpu)) {
              ++r.sharedHits;  // replica already valid here
              return;
            }
            if (config_.enableTransfers) {
              transfers.push_back(Transfer{b, en, owner});
              if (config_.trackSharedCopies) sharerScratch.emplace_back(b, en);
            }
          });
      // Record the new replicas outside the query traversal (addSharer
      // mutates the tracker).
      for (const auto& [b, en] : sharerScratch)
        it.buffer->tracker_.addSharer(b, en, it.gpu);
      sharerScratch.clear();
    }
    r.endTransfer = transfers.size();
  });

  // Ordered commit: items in canonical order, each with its transfers in
  // decision order, then its modeled cost.  With scheduling on, the same
  // order instead populates the TransferPlan.
  trace::Span phase3(config_.tracer, "runtime", "phase3:commit");
  std::unique_ptr<TransferPlan> xferPlan = makeTransferPlan();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const PassItem& it = items[i];
    VirtualBuffer* vb = it.buffer;
    const ItemResolution& r = results[i];
    for (std::size_t ti = r.firstTransfer; ti < r.endTransfer; ++ti) {
      const Transfer& t = transfers[ti];
      if (xferPlan != nullptr) {
        xferPlan->add(vb, it.gpu, static_cast<int>(t.owner), t.begin, t.end);
        continue;
      }
      machine_->copyPeer(vb->instances_[static_cast<std::size_t>(it.gpu)],
                         t.begin,
                         vb->instances_[static_cast<std::size_t>(t.owner)],
                         t.begin, t.end - t.begin);
      ++stats_.peerCopies;
      trace::instant(
          config_.tracer, "transfer", "peer-copy",
          {{"src", t.owner}, {"dst", it.gpu}, {"bytes", t.end - t.begin}});
    }
    // With shared-copy tracking on, sharer hits are its; otherwise only
    // prefetched replicas can set sharer bits, so they are the planner's.
    if (config_.trackSharedCopies)
      stats_.sharedCopyHits += r.sharedHits;
    else
      stats_.prefetchHits += r.sharedHits;
    stats_.rangesResolved += static_cast<i64>(it.ranges->size());
    if (countLogicalRows) stats_.logicalRowsResolved += it.rows;
    stats_.trackerSegmentsVisited += r.segments;
    double rowCost = it.cached ? config_.cachedResolutionCostPerRow
                               : config_.resolutionCostPerRow;
    double perRow =
        rowCost + (config_.enableTransfers ? config_.transferIssueCostPerRow
                                           : 0);
    double cost = config_.resolutionCostPerArray +
                  perRow * static_cast<double>(it.rows + r.segments);
    double simStart = machine_->now();
    machine_->advanceHost(cost);
    trace::simSpan(config_.tracer, "sim.pattern", costLabel, sim::kSimHostTrack,
                   simStart, cost, {{"gpu", it.gpu}});
  }
  if (xferPlan != nullptr) issueTransferPlan(*xferPlan);
}

void Runtime::updateTrackers(KernelEntry& ke, const LaunchConfig& cfg,
                             std::span<const LaunchArg> args,
                             std::span<const i64> scalars) {
  ResolutionTimer timer(*this);
  trace::Span span(config_.tracer, "runtime", "update-trackers");
  const ResolutionPass pass{true, nullptr};
  std::vector<PlanAcquisition> acqs = acquirePlans(ke, cfg, scalars, pass);
  const std::vector<PassItem> items = passItems(ke, args, acqs, pass);

  runPhase(config_.tracer, "phase2:tracker-tasks", items.size(),
           [&](std::size_t i) {
    const PassItem& it = items[i];
    for (const auto& [elemB, elemE] : *it.ranges)
      it.buffer->tracker_.update(elemB * kElemBytes, elemE * kElemBytes,
                                 it.gpu);
  });

  trace::Span phase3(config_.tracer, "runtime", "phase3:commit");
  for (const PassItem& it : items) {
    stats_.rangesResolved += static_cast<i64>(it.ranges->size());
    stats_.logicalRowsResolved += it.rows;
    double rowCost = it.cached ? config_.cachedResolutionCostPerRow
                               : config_.resolutionCostPerRow;
    double cost = config_.resolutionCostPerArray +
                  rowCost * static_cast<double>(it.rows);
    double simStart = machine_->now();
    machine_->advanceHost(cost);
    trace::simSpan(config_.tracer, "sim.pattern", "update-writes",
                   sim::kSimHostTrack, simStart, cost, {{"gpu", it.gpu}});
  }
}

Runtime::PreparedLaunch Runtime::prepareLaunch(const std::string& kernelName,
                                               const Dim3& grid,
                                               const Dim3& block,
                                               std::span<const LaunchArg> args,
                                               TenantId tenant) {
  if (tenant < 0 || tenant >= config_.numTenants)
    throw Error("launch of kernel '" + kernelName + "' for unknown tenant " +
                std::to_string(tenant));
  KernelEntry& ke = entry(kernelName);
  const KernelModel& model = *ke.model;
  // The same checks and messages as ir::checkArguments, plus tenancy: a
  // launch may only reference buffers of the tenant that issued it.
  // Nothing is recorded before they pass.
  const std::string where = "kernel '" + kernelName + "'";
  if (args.size() != model.params.size())
    throw Error(where + " expects " + std::to_string(model.params.size()) +
                " arguments, got " + std::to_string(args.size()));
  for (std::size_t i = 0; i < args.size(); ++i) {
    const analysis::ParamInfo& p = model.params[i];
    const bool isArray = args[i].buffer != nullptr;
    auto kind = [](bool array) { return array ? "an array" : "a scalar"; };
    if (p.isArray != isArray)
      throw Error(where + ": parameter '" + p.name + "' expects " +
                  kind(p.isArray) + ", got " + kind(isArray));
    if (!p.isArray && args[i].scalar.type != p.type)
      throw Error(where + ": parameter '" + p.name + "' expects " +
                  ir::typeName(p.type) + ", got " +
                  ir::typeName(args[i].scalar.type));
    if (isArray && args[i].buffer->tenant() != tenant)
      throw Error(where + ": parameter '" + p.name + "' is a buffer of tenant " +
                  std::to_string(args[i].buffer->tenant()) +
                  ", launch is for tenant " + std::to_string(tenant));
  }

  // Validate the model's launch assumptions (axes the kernel ignores).
  const i64 gridAxes[3] = {grid.x, grid.y, grid.z};
  const i64 blockAxes[3] = {block.x, block.y, block.z};
  for (int a = 0; a < 3; ++a) {
    if (model.requiresUnitGrid[static_cast<std::size_t>(a)] && gridAxes[a] != 1)
      throw Error("kernel '" + kernelName + "' requires gridDim." +
                  ir::axisName(static_cast<ir::Axis>(a)) + " == 1");
    if (model.requiresUnitBlock[static_cast<std::size_t>(a)] && blockAxes[a] != 1)
      throw Error("kernel '" + kernelName + "' requires blockDim." +
                  ir::axisName(static_cast<ir::Axis>(a)) + " == 1");
  }

  PreparedLaunch pl;
  pl.tenant = tenant;
  pl.ke = &ke;
  pl.cfg = LaunchConfig{grid, block};
  pl.args = args;

  // Scalars for the enumerators: i64 scalar args in declaration order.
  for (std::size_t i = 0; i < args.size(); ++i) {
    const analysis::ParamInfo& p = model.params[i];
    if (!p.isArray && p.type == ir::Type::I64)
      pl.scalars.push_back(args[i].scalar.i);
  }
  return pl;
}

void Runtime::executeLaunch(const PreparedLaunch& pl) {
  KernelEntry& ke = *pl.ke;
  const KernelModel& model = *ke.model;
  const std::string& kernelName = model.kernel;
  const LaunchConfig& cfg = pl.cfg;
  const Dim3& grid = cfg.grid;
  const Dim3& block = cfg.block;
  std::span<const LaunchArg> args = pl.args;
  std::span<const i64> scalars(pl.scalars);

  trace::LaunchScope launchScope(config_.tracer, kernelName);
  ++stats_.launches;
  if (!ke.mayWriteArgs.empty() || !ke.mayReadArgs.empty())
    ++stats_.mayAccessLaunches;

  // Arrays whose write patterns the static model could not capture are
  // tracked by instrumented execution (paper Section 11: "using
  // instrumentation to collect write patterns").  May-access writes and the
  // inspection walk reuse the same machinery, so all three need functional
  // buffer contents.
  std::vector<std::size_t> instrumentedArgs;
  for (const analysis::ArrayModel& a : model.arrays)
    if (a.writeInstrumented) instrumentedArgs.push_back(a.argIndex);
  if ((!instrumentedArgs.empty() || !ke.mayWriteArgs.empty() ||
       inspectorActiveFor(ke)) &&
      machine_->mode() != sim::ExecutionMode::Functional)
    throw UnsupportedOperationError(
        "kernel '" + kernelName +
        "' needs instrumented or may-access write tracking (or an inspection "
        "walk), which requires Functional execution");

  // (1b) Dataflow planner: record/match this launch against the detected
  // cycle.  A planned launch keeps the reactive resolution (the tracker
  // stays the source of truth) but drops the global barriers in favour of
  // per-device engine ordering, and issues its outgoing flow edges eagerly
  // after phase (4).
  DataflowPlanner::Observation obs;
  bool planned = false;
  DataflowPlanner* planner =
      planners_.empty() ? nullptr
                        : planners_[static_cast<std::size_t>(pl.tenant)].get();
  if (planner != nullptr) {
    std::vector<VirtualBuffer*> argBufs;
    argBufs.reserve(args.size());
    for (const LaunchArg& a : args) argBufs.push_back(a.buffer);
    obs = planner->observe(model, &ke, cfg, argBufs, scalars);
    if (obs.activated) {
      ++stats_.planActivations;
      trace::instant(config_.tracer, "plan", "dataflow-activated",
                     {{"period", static_cast<i64>(planner->period())}});
    }
    if (obs.diverged) {
      ++stats_.planDivergences;
      trace::instant(config_.tracer, "plan", "dataflow-diverged");
    }
    if (obs.planned) {
      planned = true;
      ++stats_.plannedLaunches;
      trace::instant(config_.tracer, "plan", "dataflow-planned",
                     {{"step", static_cast<i64>(obs.step)}});
    }
  }

  // (2) Synchronize all buffers the kernel reads (Fig. 4, first loop).  The
  // producing kernels must have completed before their output can be copied,
  // so the host first drains outstanding work, then issues the transfers,
  // then barriers again (all_devs_synchronize in Fig. 4).  A planned launch
  // skips both barriers: device-ordering mode makes each copy wait for the
  // endpoint devices' own engines instead, so transfers overlap *other*
  // devices' still-running kernels.
  if (config_.enableDependencyResolution) {
    machine_->setDeviceOrdering(planned);
    if (!planned) machine_->synchronizeAll();
    // Inspector–executor: resolve the exact per-device footprints of the
    // may-access reads (cached across launches) so the regular sync below
    // can skip their whole-extent enumerators.
    std::shared_ptr<const InspectedFootprints> fp;
    if (inspectorActiveFor(ke)) fp = inspectFootprints(ke, cfg, args, scalars);
    synchronizeReads(ke, cfg, args, scalars, fp.get());
    if (!planned) machine_->synchronizeAll();
  }

  // Args whose writes must be observed during execution: instrumented ones
  // plus may-access writes.  The two collapse to the same collect-and-fold
  // machinery; they differ only in the hazard rule below (may-access write
  // overlaps between partitions are legal and merge in ascending device
  // order, which reproduces the sequential interpreter's last-write-wins).
  std::vector<std::size_t> observedArgs = instrumentedArgs;
  observedArgs.insert(observedArgs.end(), ke.mayWriteArgs.begin(),
                      ke.mayWriteArgs.end());
  std::sort(observedArgs.begin(), observedArgs.end());

  // Per instrumented array: (gpu, element range) for conflict detection.
  std::map<std::size_t, std::vector<std::tuple<i64, i64, int>>> observedRanges;

  // (3) Launch each partition on its GPU (Fig. 4, second loop).  The span is
  // reset before phase (4) so kernel dispatch and tracker update appear as
  // sibling phases on the timeline.
  std::optional<trace::Span> launchSpan(std::in_place, config_.tracer,
                                        "runtime", "launch-kernels:",
                                        kernelName);
  // Modeled completion per device of this launch's kernels; the planner
  // passes them as the earliest-start floors of eagerly issued flow copies.
  std::vector<double> kernelDone;
  if (planned) kernelDone.assign(static_cast<std::size_t>(config_.numGpus), 0.0);
  for (int gpu = 0; gpu < config_.numGpus; ++gpu) {
    GridPartition gp = partitionFor(model, grid, gpu);
    if (gp.blockCount() == 0) continue;
    // Read-modify-write may-args: this partition must see its predecessors'
    // merged writes before it runs.
    if (!ke.rmwMayArgs.empty()) gatherRmwMayArgs(ke, args, gpu);
    // Eq. 10: gridConf = partition.max - partition.min.
    LaunchConfig partCfg{{gp.hi.x - gp.lo.x, gp.hi.y - gp.lo.y, gp.hi.z - gp.lo.z},
                         block};
    std::vector<sim::KernelArg> kargs;
    kargs.reserve(args.size() + 6);
    for (const LaunchArg& a : args) {
      if (a.buffer)
        kargs.push_back(sim::KernelArg::ofBuffer(
            a.buffer->instances_[static_cast<std::size_t>(gpu)]));
      else
        kargs.push_back(sim::KernelArg{a.scalar, {}, false});
    }
    // Partition parameters in ir::kPartitionParamNames order:
    // min.x, min.y, min.z, max.x, max.y, max.z.
    for (i64 v : {gp.lo.x, gp.lo.y, gp.lo.z, gp.hi.x, gp.hi.y, gp.hi.z})
      kargs.push_back(sim::KernelArg::ofInt(v));

    if (observedArgs.empty()) {
      double done = machine_->launchKernel(gpu, *ke.partitioned, partCfg, kargs);
      if (planned) kernelDone[static_cast<std::size_t>(gpu)] = done;
      continue;
    }

    // Instrumented launch: observe the writes of this partition, then fold
    // them into the trackers as coalesced element ranges.
    std::map<std::size_t, std::vector<i64>> writes;
    ir::AccessObserver observer = [&](std::size_t arg, bool isWrite, i64 flat,
                                      std::span<const i64, 12>) {
      if (!isWrite) return;
      if (std::find(observedArgs.begin(), observedArgs.end(), arg) !=
          observedArgs.end())
        writes[arg].push_back(flat);
    };
    sim::LaunchOptions opts;
    opts.observer = &observer;
    opts.costMultiplier = config_.instrumentationSlowdown;
    machine_->launchKernel(gpu, *ke.partitioned, partCfg, kargs, opts);

    for (auto& [arg, flats] : writes) {
      std::sort(flats.begin(), flats.end());
      flats.erase(std::unique(flats.begin(), flats.end()), flats.end());
      VirtualBuffer* vb = args[arg].buffer;
      PP_ASSERT(vb != nullptr);
      // WAW detection applies to instrumented args only: the static model
      // claimed their writes were disjoint.  May-access args made no such
      // claim — overlapping partitions are expected there.
      const bool checkWaw =
          std::find(instrumentedArgs.begin(), instrumentedArgs.end(), arg) !=
          instrumentedArgs.end();
      std::size_t i = 0;
      while (i < flats.size()) {
        std::size_t j = i;
        while (j + 1 < flats.size() && flats[j + 1] == flats[j] + 1) ++j;
        i64 begin = flats[i], end = flats[j] + 1;
        vb->tracker_.update(begin * kElemBytes, end * kElemBytes, gpu);
        if (checkWaw) observedRanges[arg].emplace_back(begin, end, gpu);
        stats_.rangesResolved += 1;
        i = j + 1;
      }
      double cost = config_.resolutionCostPerArray +
                    config_.resolutionCostPerRow *
                        static_cast<double>(flats.size());
      double simStart = machine_->now();
      machine_->advanceHost(cost);
      trace::simSpan(config_.tracer, "sim.pattern", "instrumented-writes",
                     sim::kSimHostTrack, simStart, cost, {{"gpu", gpu}});
    }
  }

  // Write-after-write detection across partitions: instrumentation gives the
  // exact write sets, so overlapping ranges from different GPUs are the
  // hazard the static analysis would have rejected (Section 4.1).
  for (auto& [arg, ranges] : observedRanges) {
    std::sort(ranges.begin(), ranges.end());
    i64 frontierEnd = std::numeric_limits<i64>::min();
    int frontierGpu = -1;
    for (const auto& [b, e, g] : ranges) {
      if (b < frontierEnd && g != frontierGpu)
        throw Error("kernel '" + kernelName + "': instrumentation detected a "
                    "write-after-write hazard between GPUs " +
                    std::to_string(frontierGpu) + " and " + std::to_string(g));
      if (e > frontierEnd) {
        frontierEnd = e;
        frontierGpu = g;
      }
    }
  }

  launchSpan.reset();

  // (4) Update the trackers for all writes (Fig. 4, third loop); this runs
  // concurrently with the asynchronous kernels (host-side only).
  if (config_.enableDependencyResolution)
    updateTrackers(ke, cfg, args, scalars);

  // (5) Eager prefetch: issue this cycle position's compiled flow edges now
  // that the trackers reflect the launch's writes.  Floors keep the modeled
  // copies behind the producing kernels; device ordering (still on) keeps
  // them behind the destination's compute.
  if (planned) issuePrefetches(pl, obs.step, std::move(kernelDone));
  machine_->setDeviceOrdering(false);
  sampleCacheCounters();

  // Remember this launch's signature so a later repartition can recompute
  // the kernel's per-device write footprints under both geometries.
  ke.hasLastLaunch = true;
  ke.lastCfg = cfg;
  ke.lastBuffers.clear();
  ke.lastBuffers.reserve(args.size());
  for (const LaunchArg& a : args) ke.lastBuffers.push_back(a.buffer);
  ke.lastScalars.assign(scalars.begin(), scalars.end());
}

void Runtime::launch(const std::string& kernelName, const Dim3& grid,
                     const Dim3& block, std::span<const LaunchArg> args,
                     TenantId tenant) {
  const PreparedLaunch pl = prepareLaunch(kernelName, grid, block, args, tenant);
  TenantStats& ts = tenants_[static_cast<std::size_t>(tenant)];
  ++ts.submitted;
  // Device-ordering mode is scoped to one planned launch; a throwing
  // executeLaunch must not leak it into the next one.
  struct OrderingGuard {
    sim::Machine& machine;
    ~OrderingGuard() { machine.setDeviceOrdering(false); }
  } guard{*machine_};
  machine_->setLaunchTag(tenant);
  const RuntimeStats before = stats_;
  executeLaunch(pl);
  addStatsDiff(ts.resolved, before, stats_);
  ++ts.completed;
}

TenantStats Runtime::tenantStats(TenantId tenant) const {
  if (tenant < 0 || tenant >= config_.numTenants)
    throw Error("Runtime::tenantStats: unknown tenant " +
                std::to_string(tenant) + " (numTenants " +
                std::to_string(config_.numTenants) + ")");
  return tenants_[static_cast<std::size_t>(tenant)];
}

}  // namespace polypart::rt
