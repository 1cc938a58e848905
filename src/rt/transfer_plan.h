#pragma once

// Topology-aware transfer scheduler (extension; see DESIGN.md "Transfer
// plan").
//
// The paper's runtime issues one peer copy per (GPU, enumerator, tracker
// segment) the moment the tracker query yields it (Section 8.3).  Molly
// (arXiv:1409.2088) shows that batching polyhedrally-derived communication
// per link, and Ferry et al. (arXiv:2312.03646) that eliminating redundant
// copies of data flowing to multiple consumers, is where distributed-memory
// transfer performance comes from.  When RuntimeConfig::transferScheduling is
// on, the resolution engine collects its per-launch transfer *decisions*
// into a TransferPlan instead of issuing them, and the plan then
//   (a) merges adjacent/overlapping byte ranges with the same (src, dst),
//   (b) chains one-to-many reads: when >= 2 GPUs pull the same range from an
//       oversubscribed owner (one carrying more than twice the plan's
//       per-device average copy count), later copies source from the
//       freshest replica (binomial broadcast); balanced all-to-all traffic
//       is left direct, where chaining would only add dependency latency,
//   (c) issues wave by wave, round-robin across (src, dst) links, so
//       transfers spread over distinct engines instead of serializing.
//
// Equivalence: decisions are recorded in the canonical serial resolution
// order (GPU ascending, enumerator ascending, tracker-walk order), the same
// order at every resolutionThreads value, so the schedule — and therefore
// functional results, tracker state, and byte counters — is identical across
// thread counts.  Scheduling changes only *how* the decided bytes move, never
// which bytes land where (transfer_plan_test.cpp holds this against the
// unscheduled path too).

#include <cstddef>
#include <vector>

#include "sim/machine.h"

namespace polypart::trace {
class Tracer;
}

namespace polypart::rt {

class VirtualBuffer;

/// One recorded transfer decision: bytes [begin, end) of `buffer` must move
/// from device `src`'s instance to device `dst`'s instance.
struct TransferRecord {
  VirtualBuffer* buffer = nullptr;
  int dst = -1;
  int src = -1;
  i64 begin = 0;
  i64 end = 0;
};

/// One copy after scheduling.  `parent` is the index (into the scheduled
/// sequence) of the copy that produces this one's source replica, or -1 when
/// it reads the owner directly; `wave` is the broadcast-tree depth (parents
/// always sit in an earlier wave, so issue order respects data readiness).
struct ScheduledTransfer {
  VirtualBuffer* buffer = nullptr;
  int dst = -1;
  int src = -1;
  i64 begin = 0;
  i64 end = 0;
  int wave = 0;
  std::ptrdiff_t parent = -1;
};

struct TransferPlanStats {
  i64 recorded = 0;    // raw decisions collected
  i64 issued = 0;      // copyPeer calls after scheduling
  i64 merged = 0;      // records eliminated by same-link range merging
  i64 chains = 0;      // broadcast copies re-sourced from a fresh replica
  i64 bytesSaved = 0;  // storage bytes deduplicated by overlap merging
};

class TransferPlan {
 public:
  struct Options {
    /// Merge adjacent/overlapping same-(src,dst) ranges per buffer.
    bool mergeRanges = true;
    /// Chain one-to-many reads through fresh replicas when the source is
    /// oversubscribed (> 2x the plan's per-device average copy count).  Only
    /// sound when the runtime records those replicas as sharers
    /// (trackSharedCopies), the same condition under which the paper-mode
    /// tracker would reuse them.
    bool chainBroadcasts = false;
  };

  TransferPlan();  // defined below: default arguments for nested classes
  explicit TransferPlan(Options opts);  // with NSDMIs must be out-of-line

  /// Records one decision.  Call order must be the canonical serial
  /// resolution order; the schedule is deterministic given that order.
  void add(VirtualBuffer* buffer, int dst, int src, i64 begin, i64 end);

  bool empty() const { return records_.empty(); }
  std::size_t recordCount() const { return records_.size(); }

  /// Merges, chains, and orders the recorded decisions.  Idempotent; the
  /// returned sequence is the exact machine issue order.
  const std::vector<ScheduledTransfer>& schedule();

  /// schedule() + replay into the machine model: waves in order, round-robin
  /// across links inside each wave, chained copies carrying their parent's
  /// modeled completion as earliest start.  Functional data movement is
  /// correct by construction: a parent is always issued (and in Functional
  /// mode eagerly memcpy'd) before its children.
  const TransferPlanStats& issue(sim::Machine& machine, trace::Tracer* tracer);

  const TransferPlanStats& stats() const { return stats_; }

  /// Tags this plan's trace output with the launch that issues it: the wave
  /// instants carry the launch `epoch`, and a tenant-domain summary instant
  /// attributes the issued copies to `tenant`'s track (trace.h kTenantPid).
  /// Untagged plans (epoch < 0, the default) emit the classic events only —
  /// the pipelined runtime tags, the serial paper path does not.
  void setIssueTag(i64 epoch, int tenant);

  /// Per-source-device earliest-start floors, indexed by device ordinal:
  /// every copy sourcing from device `d` starts no earlier than
  /// `srcFloors[d]` (in addition to its chain parent's completion).  The
  /// dataflow planner passes the producing kernels' modeled completion times
  /// so an eagerly issued prefetch never reads bytes the model says are
  /// still being computed.  Devices beyond the span get floor 0.
  void setSrcFloors(std::vector<double> srcFloors);

  /// Labels this plan's per-copy trace instants "prefetch-copy" instead of
  /// "peer-copy", putting eagerly planned traffic on its own visual track in
  /// the trace viewer (the dataflow planner's prefetch track).
  void markPrefetch() { prefetch_ = true; }

 private:
  Options opts_;
  i64 issueEpoch_ = -1;
  int issueTenant_ = 0;
  bool prefetch_ = false;
  std::vector<double> srcFloors_;
  std::vector<TransferRecord> records_;
  std::vector<ScheduledTransfer> scheduled_;
  bool scheduled_valid_ = false;
  TransferPlanStats stats_;
};

inline TransferPlan::TransferPlan() : TransferPlan(Options{}) {}
inline TransferPlan::TransferPlan(Options opts) : opts_(opts) {}

}  // namespace polypart::rt
