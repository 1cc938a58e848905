// Elastic runtime repartitioning (extension; see DESIGN.md "Elastic
// repartitioning").
//
// The paper fixes the grid partitioning at construction.  repartition()
// changes a kernel's per-device weights between launches and migrates only
// the *transition set*: per destination device, the pset difference of its
// new and old write footprints under the kernel's last launch signature,
// clipped against live tracker ownership.  Correctness never depends on the
// migration — reads resolve against the tracker, so launches under the new
// geometry are byte-identical whether or not the transition bytes moved
// ahead of time — migration is what keeps the *first* post-transition launch
// from re-pulling a device's whole new share reactively.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/enumerator.h"
#include "rt/dataflow_plan.h"
#include "rt/footprint.h"
#include "rt/runtime.h"
#include "rt/transfer_plan.h"
#include "support/error.h"
#include "support/trace.h"

namespace polypart::rt {

using analysis::ArrayModel;
using codegen::PartitionTuple;
using ir::GridPartition;

namespace {

/// Storage element size (matches runtime.cpp: buffers hold 8-byte elements).
constexpr i64 kElemBytes = 8;

/// Flattened-range explosion guard per (array, device) footprint; beyond it
/// the migration falls back to the device's full new footprint (still
/// clipped against the tracker, so only a cost, never a correctness issue).
constexpr std::size_t kMaxTransitionRanges = 4096;

/// Weights and totals are bounded so partitionWith's extent * (pre + w)
/// products keep the same overflow envelope as the seed's extent * numGpus.
constexpr i64 kMaxTotalWeight = i64{1} << 20;

}  // namespace

const Partitioning& Runtime::partitioning(const std::string& kernelName) const {
  return entry(kernelName).partitioning;
}

void Runtime::validatePartitioning(const Partitioning& next) const {
  if (next.weights.size() != static_cast<std::size_t>(config_.numGpus))
    throw Error("partitioning has " + std::to_string(next.weights.size()) +
                " weights for " + std::to_string(config_.numGpus) +
                " devices");
  i64 total = 0;
  for (int d = 0; d < config_.numGpus; ++d) {
    const i64 w = next.weights[static_cast<std::size_t>(d)];
    if (w < 0)
      throw Error("partitioning weight for device " + std::to_string(d) +
                  " is negative");
    if (w > 0 && machine_->deviceFailed(d))
      throw Error("partitioning assigns weight to failed device " +
                  std::to_string(d));
    total += w;
  }
  if (total <= 0) throw Error("partitioning total weight is zero");
  if (total > kMaxTotalWeight)
    throw Error("partitioning total weight " + std::to_string(total) +
                " exceeds the supported maximum " +
                std::to_string(kMaxTotalWeight));
}

RepartitionResult Runtime::repartition(const std::string& kernelName,
                                       const Partitioning& next) {
  if (!config_.allowRepartitioning)
    throw Error(
        "runtime repartitioning is disabled "
        "(RuntimeConfig::allowRepartitioning / POLYPART_ALLOW_REPARTITIONING)");
  drain();  // the transition must see settled trackers and machine state
  KernelEntry& ke = entry(kernelName);
  validatePartitioning(next);
  // A geometry change invalidates every tenant's compiled dataflow cycle:
  // the flow edges were composed under partitionFor() of the *old* weights,
  // and a kernel is shared across tenants, so resetting only one tenant's
  // planner would leave the others replaying stale transfer sets.
  for (auto& p : planners_)
    if (p) p->reset();
  if (ke.partitioning == next) return {};  // no-op: weights unchanged
  trace::Span span(config_.tracer, "runtime", "repartition");
  const Partitioning prev = ke.partitioning;
  ke.partitioning = next;
  RepartitionResult res = migrateKernel(ke, prev, next);
  ++stats_.repartitions;
  stats_.repartitionCopies += res.copies;
  stats_.bytesRepartitioned += res.bytesMoved;
  stats_.bytesRepartitionFootprint += res.bytesFootprint;
  return res;
}

RepartitionResult Runtime::repartitionAll(const Partitioning& next) {
  RepartitionResult sum;
  for (auto& [name, ke] : kernels_) {
    RepartitionResult r = repartition(name, next);
    sum.bytesMoved += r.bytesMoved;
    sum.bytesFootprint += r.bytesFootprint;
    sum.copies += r.copies;
  }
  return sum;
}

Partitioning Runtime::loadBalancedPartitioning(const std::string& kernelName,
                                               i64 scale) const {
  const Partitioning& cur = entry(kernelName).partitioning;
  Partitioning out = cur;
  // Per-device speed estimate: a device that needed `busy` seconds for a
  // `w`-weighted share sustains w / busy weight units per second.  Weights
  // proportional to that equalize the modeled per-device kernel time.
  std::vector<double> speed(cur.weights.size(), 0.0);
  double sum = 0;
  for (int d = 0; d < config_.numGpus; ++d) {
    const std::size_t i = static_cast<std::size_t>(d);
    if (machine_->deviceFailed(d)) {
      out.weights[i] = 0;
      continue;
    }
    if (cur.weights[i] <= 0) continue;  // inactive: growth is explicit
    const double busy = machine_->kernelBusySecondsForDevice(d);
    if (busy <= 0) return cur;  // no measured load yet: keep the status quo
    speed[i] = static_cast<double>(cur.weights[i]) / busy;
    sum += speed[i];
  }
  if (sum <= 0) return cur;
  for (std::size_t i = 0; i < speed.size(); ++i)
    if (speed[i] > 0)
      out.weights[i] = std::max<i64>(
          1, std::llround(static_cast<double>(scale) * speed[i] / sum));
  return out;
}

RepartitionResult Runtime::migrateKernel(KernelEntry& ke,
                                         const Partitioning& prev,
                                         const Partitioning& next) {
  RepartitionResult res;
  // Without a recorded launch there is no concrete footprint to migrate;
  // the new weights simply apply to the next launch (its reads resolve
  // reactively against whatever layout H2D scatters produced).
  if (!ke.hasLastLaunch) return res;
  machine_->synchronizeAll();  // writers of the migrating bytes must land

  const std::vector<i64> params =
      footprint::paramVec(ke.lastCfg.grid, ke.lastCfg.block, ke.lastScalars);

  // Collected first, applied after: copies read pre-transition owners, and
  // tracker updates must not mutate segment maps a query is still walking.
  struct Move {
    VirtualBuffer* buf;
    i64 begin, end;
    int dst, src;
  };
  struct Assign {  // ownership change without a copy (dst already a sharer)
    VirtualBuffer* buf;
    i64 begin, end;
    int dst;
  };
  std::vector<Move> moves;
  std::vector<Assign> flips;

  for (const ArrayModel& wa : ke.model->arrays) {
    // May-access writes have no static map (hasWrites() is already false);
    // their bytes stay where the observed-write tracker updates put them and
    // the next launch's reads resolve reactively.
    if (!wa.hasWrites() || wa.writeInstrumented || wa.writeMayAccess) continue;
    VirtualBuffer* buf = ke.lastBuffers[wa.argIndex];
    if (buf == nullptr) continue;
    std::optional<std::vector<i64>> dims =
        footprint::evalShape(wa, params, buf->bytes(), kElemBytes);
    if (!dims) continue;
    i64 totalElems = 1;
    try {
      for (i64 d : *dims) totalElems = checkedMul(totalElems, d);
    } catch (...) {
      continue;
    }
    totalElems = std::min(totalElems, buf->bytes() / kElemBytes);
    const pset::Space canon = footprint::canonSpace(dims->size());

    for (int d = 0; d < config_.numGpus; ++d) {
      GridPartition gpNew = partitionWith(*ke.model, ke.lastCfg.grid, d, next);
      if (gpNew.blockCount() == 0) continue;  // no new share: nothing arrives
      PartitionTuple tn = PartitionTuple::fromBlocks(gpNew, ke.lastCfg.block);
      pset::Set newSet = footprint::rebase(
          wa.write.rangeUnderBox(params, tn.lo, tn.hi), canon);
      std::optional<footprint::Flattened> newFlat =
          footprint::flatten(newSet, *dims, totalElems, kMaxTransitionRanges);
      res.bytesFootprint +=
          (newFlat ? newFlat->elems : totalElems) * kElemBytes;

      // Transition set: what the device will own under `next` but did not
      // own under `prev`.  The subtraction is an over-approximation-safe
      // upper bound on what must arrive; the tracker clip below discards
      // ranges the device already holds.
      GridPartition gpOld = partitionWith(*ke.model, ke.lastCfg.grid, d, prev);
      pset::Set diff = newSet;
      if (gpOld.blockCount() != 0) {
        PartitionTuple to = PartitionTuple::fromBlocks(gpOld, ke.lastCfg.block);
        diff = newSet.subtract(footprint::rebase(
            wa.write.rangeUnderBox(params, to.lo, to.hi), canon));
        diff.pruneEmptyParts();
      }
      std::optional<footprint::Flattened> diffFlat =
          footprint::flatten(diff, *dims, totalElems, kMaxTransitionRanges);
      // Fall back to the full new footprint (or the whole array) when the
      // difference cannot be flattened — conservative, never wrong.
      const std::vector<std::pair<i64, i64>> whole{{i64{0}, totalElems}};
      const std::vector<std::pair<i64, i64>>& ranges =
          diffFlat ? diffFlat->ranges : (newFlat ? newFlat->ranges : whole);

      for (const auto& [rb, re] : ranges) {
        buf->tracker_.querySharers(
            rb * kElemBytes, re * kElemBytes,
            [&](i64 b, i64 e, Owner owner, u64 sharers) {
              ++stats_.trackerSegmentsVisited;
              if (owner < 0 || owner == d) return;  // undefined / already here
              if (hasReplica(sharers, d)) {
                flips.push_back(Assign{buf, b, e, d});  // replica: no copy
                return;
              }
              moves.push_back(Move{buf, b, e, d, owner});
            });
      }
    }
  }

  i64 bytesQueued = 0;
  for (const Move& m : moves) bytesQueued += m.end - m.begin;
  res.bytesMoved = bytesQueued;
  if (config_.enableTransfers && !moves.empty()) {
    if (config_.transferScheduling) {
      TransferPlan::Options opts;
      opts.mergeRanges = true;
      opts.chainBroadcasts = false;  // transitions are already per-destination
      TransferPlan plan(opts);
      for (const Move& m : moves) plan.add(m.buf, m.dst, m.src, m.begin, m.end);
      const TransferPlanStats& ps = plan.issue(*machine_, config_.tracer);
      res.copies = ps.issued;
      res.bytesMoved = bytesQueued - ps.bytesSaved;
    } else {
      for (const Move& m : moves) {
        machine_->copyPeer(
            m.buf->instances_[static_cast<std::size_t>(m.dst)], m.begin,
            m.buf->instances_[static_cast<std::size_t>(m.src)], m.begin,
            m.end - m.begin);
        trace::instant(config_.tracer, "transfer", "repartition-copy",
                       {{"src", m.src}, {"dst", m.dst}, {"bytes", m.end - m.begin}});
      }
      res.copies = static_cast<i64>(moves.size());
    }
  }

  // Ownership reflects the new layout only after the copies were issued
  // (they read the pre-transition owners).  In the β configuration
  // (enableTransfers off) the tracker still flips — mirroring how launches
  // update trackers without moving data there.
  for (const Assign& a : flips) a.buf->tracker_.update(a.begin, a.end, a.dst);
  for (const Move& m : moves) m.buf->tracker_.update(m.begin, m.end, m.dst);

  // Modeled host cost of assembling/issuing the transition, charged with the
  // same per-row coefficient as reactive transfer creation.
  const double cost = config_.transferIssueCostPerRow *
                      static_cast<double>(moves.size() + flips.size());
  const double simStart = machine_->now();
  machine_->advanceHost(cost);
  trace::simSpan(config_.tracer, "sim.pattern", "repartition-issue",
                 sim::kSimHostTrack, simStart, cost,
                 {{"copies", static_cast<i64>(moves.size())}});
  machine_->synchronizeAll();
  return res;
}

}  // namespace polypart::rt
