#pragma once

// Buffer ownership tracking (paper Section 8.1).
//
// The tracker is "a sorted list of non-overlapping segments, each containing
// a reference to the buffer instance that holds the most recently updated
// copy of that segment", stored in a B-tree map keyed by segment start.
// update() records writes (kernel partitions, memcopies); query() resolves
// which device owns each sub-range of a read set.  Adjacent segments with
// the same owner are coalesced, which keeps regular kernels at one segment
// per partition (Section 8.1).
//
// The map implementation is a template parameter so the tracker ablation can
// compare the paper's B-tree against std::map (bench/ablation_tracker).

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "rt/btree.h"
#include "support/arith.h"

namespace polypart::rt {

/// Owner of a segment: a device ordinal, or the sentinel below.
/// There is deliberately no "host owns" sentinel: HostToDevice scatters
/// assign device owners immediately, and DeviceToHost gathers leave the
/// device instances current (copying data out does not invalidate them),
/// so no tracker state ever needs to name the host as the freshest copy.
using Owner = int;
inline constexpr Owner kOwnerUndefined = -1;  // never written

/// std::map with the subset of the BTreeMap interface the tracker uses;
/// exists for the tracker-data-structure ablation.
template <typename Key, typename Value>
class StdMapAdapter {
 public:
  class Iterator {
   public:
    Iterator() = default;
    bool atEnd() const { return !valid_; }
    const Key& key() const { return it_->first; }
    Value& value() const { return it_->second; }
    void next() {
      ++it_;
      valid_ = it_ != map_->end();
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class StdMapAdapter;
    Iterator(std::map<Key, Value>* m, typename std::map<Key, Value>::iterator it)
        : map_(m), it_(it), valid_(m && it != m->end()) {}
    std::map<Key, Value>* map_ = nullptr;
    typename std::map<Key, Value>::iterator it_{};
    bool valid_ = false;
  };

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  Iterator begin() const { return Iterator(&map_, map_.begin()); }
  Iterator end() const { return Iterator(); }
  Iterator lowerBound(const Key& k) const { return Iterator(&map_, map_.lower_bound(k)); }
  Iterator find(const Key& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? Iterator() : Iterator(&map_, it);
  }
  Iterator floorEntry(const Key& k) const {
    auto it = map_.upper_bound(k);
    if (it == map_.begin()) return Iterator();
    return Iterator(&map_, std::prev(it));
  }
  void insert(const Key& k, Value v) { map_[k] = std::move(v); }
  bool erase(const Key& k) { return map_.erase(k) > 0; }
  void clear() { map_.clear(); }

 private:
  mutable std::map<Key, Value> map_;
};

/// Callback per resolved segment: [begin, end) owned by `owner`.
using SegmentFn = std::function<void(i64 begin, i64 end, Owner owner)>;

/// Extended callback carrying the sharer set (bit i set = device i holds a
/// valid copy).  Used by the shared-copy extension (see below).
using SharedSegmentFn =
    std::function<void(i64 begin, i64 end, Owner owner, u64 sharers)>;

/// True when the sharer set `sharers` records a valid copy on `device`.  The
/// bitmap has 64 bits, so devices outside it never hold a recorded replica
/// (addSharer() ignores them).
inline bool hasReplica(u64 sharers, int device) {
  return device >= 0 && device < 64 && (sharers & (u64{1} << device)) != 0;
}

template <template <typename, typename> class MapT>
class SegmentTrackerT {
 public:
  /// Creates a tracker for a buffer of `size` units (bytes in the runtime);
  /// everything starts as kOwnerUndefined.
  explicit SegmentTrackerT(i64 size) : size_(size) {
    PP_ASSERT(size >= 0);
    if (size > 0) segments_.insert(0, Seg{size, kOwnerUndefined});
  }

  i64 size() const { return size_; }
  std::size_t segmentCount() const { return segments_.size(); }

  /// Content counter: bumped only by update() — writes to the tracked
  /// buffer — never by sharer bookkeeping.  The inspector–executor keys its
  /// footprint cache on this: addSharer() patterns vary with
  /// trackSharedCopies/dataflowPlanning, so counting them too would make
  /// cache hits (and the modeled inspection cost) knob-dependent.
  u64 contentVersion() const { return contentVersion_; }

  /// One resolved segment of a dump(): [begin, end) owned by `owner`, valid
  /// replicas on `sharers`.
  struct DumpSegment {
    i64 begin = 0;
    i64 end = 0;
    Owner owner = kOwnerUndefined;
    u64 sharers = 0;
    bool operator==(const DumpSegment&) const = default;
  };

  /// The full segment list in address order; equality of two dumps is
  /// equality of the tracked ownership state.
  std::vector<DumpSegment> dump() const {
    std::vector<DumpSegment> out;
    for (auto it = segments_.begin(); !it.atEnd(); it.next())
      out.push_back(DumpSegment{it.key(), it.value().end, it.value().owner,
                                it.value().sharers});
    return out;
  }

  /// Records that [begin, end) now has its most recent copy on `owner`.
  /// A write invalidates every other copy: the sharer set collapses to the
  /// owner alone.
  void update(i64 begin, i64 end, Owner owner) {
    clamp(begin, end);
    if (begin >= end) return;
    ++contentVersion_;

    // Split the segment containing `begin` when it straddles the boundary.
    splitAt(begin);
    splitAt(end);

    // Remove all segments fully inside [begin, end).
    eraseScratch_.clear();
    for (auto it = segments_.lowerBound(begin); !it.atEnd() && it.key() < end;
         it.next())
      eraseScratch_.push_back(it.key());
    for (i64 k : eraseScratch_) segments_.erase(k);

    segments_.insert(begin, Seg{end, owner, sharerBit(owner)});
    coalesceAround(begin);
  }

  /// Shared-copy extension (addresses the limitation Section 8.3 states:
  /// "the tracker of a virtual buffer does not support shared copies,
  /// resulting in redundant transfers"): records that `device` now holds a
  /// valid replica of [begin, end) without becoming its owner.
  void addSharer(i64 begin, i64 end, int device) {
    clamp(begin, end);
    if (begin >= end) return;
    // Devices outside the 64-bit sharer bitmap cannot be recorded; splitting
    // anyway would create adjacent segments with identical (owner, sharers)
    // state and rely on coalesceRange to re-merge every one of them.
    if (sharerBit(device) == 0) return;
    splitAt(begin);
    splitAt(end);
    for (auto it = segments_.lowerBound(begin); !it.atEnd() && it.key() < end;
         it.next())
      it.value().sharers |= sharerBit(device);
    coalesceRange(begin, end);
  }

  /// Forgets every replica `device` holds without disturbing ownership:
  /// clears its sharer bit on all segments it does not own.  Segments it
  /// *owns* are left alone — the caller (device-failure recovery) reassigns
  /// those with update() as it restores or adopts each range.  No-op for
  /// devices outside the sharer bitmap.
  void dropSharer(int device) {
    const u64 bit = sharerBit(device);
    if (bit == 0) return;
    bool changed = false;
    for (auto it = segments_.begin(); !it.atEnd(); it.next()) {
      if (it.value().owner == device) continue;
      if ((it.value().sharers & bit) == 0) continue;
      it.value().sharers &= ~bit;
      changed = true;
    }
    if (!changed) return;
    coalesceRange(0, size_);
  }

  /// Like query() but also reports the sharer set of each segment.
  void querySharers(i64 begin, i64 end, const SharedSegmentFn& fn) const {
    clamp(begin, end);
    if (begin >= end) return;
    auto it = segments_.floorEntry(begin);
    PP_ASSERT_MSG(!it.atEnd(), "tracker coverage hole");
    for (; !it.atEnd() && it.key() < end; it.next()) {
      i64 b = std::max(begin, it.key());
      i64 e = std::min(end, it.value().end);
      if (b < e) fn(b, e, it.value().owner, it.value().sharers);
    }
  }

  /// Reports the ownership of every sub-segment of [begin, end) in order.
  void query(i64 begin, i64 end, const SegmentFn& fn) const {
    clamp(begin, end);
    if (begin >= end) return;
    auto it = segments_.floorEntry(begin);
    PP_ASSERT_MSG(!it.atEnd(), "tracker coverage hole");
    for (; !it.atEnd() && it.key() < end; it.next()) {
      i64 b = std::max(begin, it.key());
      i64 e = std::min(end, it.value().end);
      if (b < e) fn(b, e, it.value().owner);
    }
  }

  /// Owner at a single position (test helper).
  Owner ownerAt(i64 pos) const {
    Owner o = kOwnerUndefined;
    query(pos, pos + 1, [&](i64, i64, Owner owner) { o = owner; });
    return o;
  }

  /// Invariant check: segments tile [0, size) without gaps or overlaps, no
  /// two adjacent segments have identical (owner, sharers), and owners are
  /// always members of their own sharer sets.  Used by property tests.
  bool checkInvariants() const {
    i64 expect = 0;
    Owner prevOwner = kOwnerUndefined;
    u64 prevSharers = ~u64{0};
    bool first = true;
    for (auto it = segments_.begin(); !it.atEnd(); it.next()) {
      if (it.key() != expect) return false;
      if (it.value().end <= it.key()) return false;
      if (!first && it.value().owner == prevOwner &&
          it.value().sharers == prevSharers)
        return false;
      if (it.value().owner >= 0 &&
          (it.value().sharers & sharerBit(it.value().owner)) == 0)
        return false;
      prevOwner = it.value().owner;
      prevSharers = it.value().sharers;
      expect = it.value().end;
      first = false;
    }
    return expect == size_;
  }

 private:
  struct Seg {
    i64 end = 0;
    Owner owner = kOwnerUndefined;
    /// Devices holding a valid copy (bit per device; owner's bit included).
    u64 sharers = 0;
  };

  static u64 sharerBit(Owner device) {
    return device >= 0 && device < 64 ? (u64{1} << device) : 0;
  }

  void clamp(i64& begin, i64& end) const {
    begin = std::max<i64>(begin, 0);
    end = std::min<i64>(end, size_);
  }

  /// Ensures a segment boundary exists at `pos` (splits the covering
  /// segment when needed).
  void splitAt(i64 pos) {
    if (pos <= 0 || pos >= size_) return;
    auto it = segments_.floorEntry(pos);
    PP_ASSERT(!it.atEnd());
    if (it.key() == pos) return;
    Seg s = it.value();
    if (s.end <= pos) return;  // boundary already at or before pos
    // Shrink the left part and insert the right part (same owner/sharers).
    it.value().end = pos;
    segments_.insert(pos, Seg{s.end, s.owner, s.sharers});
  }

  /// Re-establishes maximal coalescing across [begin, end) plus one segment
  /// of slack on each side: successive segments with identical
  /// (owner, sharers) state are merged.
  void coalesceRange(i64 begin, i64 end) {
    auto it = segments_.floorEntry(std::max<i64>(begin - 1, 0));
    if (it.atEnd()) it = segments_.begin();
    i64 key = it.key();
    while (true) {
      auto cur = segments_.find(key);
      if (cur.atEnd()) break;
      Seg seg = cur.value();
      auto succ = segments_.lowerBound(seg.end);
      if (!succ.atEnd() && succ.key() == seg.end && succ.value().owner == seg.owner &&
          succ.value().sharers == seg.sharers) {
        seg.end = succ.value().end;
        segments_.erase(succ.key());
        segments_.insert(key, seg);
        continue;  // try to absorb the next one too
      }
      if (seg.end > end || succ.atEnd()) break;
      key = succ.key();
    }
  }

  /// Merges the segment starting at `key` with neighbours of identical
  /// (owner, sharers) state.
  void coalesceAround(i64 key) {
    auto it = segments_.find(key);
    PP_ASSERT(!it.atEnd());
    Seg cur = it.value();

    // Merge with successor.
    auto succ = segments_.lowerBound(cur.end);
    if (!succ.atEnd() && succ.key() == cur.end && succ.value().owner == cur.owner &&
        succ.value().sharers == cur.sharers) {
      cur.end = succ.value().end;
      segments_.erase(succ.key());
      segments_.insert(key, cur);
    }

    // Merge with predecessor.
    if (key > 0) {
      auto pred = segments_.floorEntry(key - 1);
      if (!pred.atEnd() && pred.value().end == key &&
          pred.value().owner == cur.owner && pred.value().sharers == cur.sharers) {
        i64 predKey = pred.key();
        Seg merged{cur.end, cur.owner, cur.sharers};
        segments_.erase(key);
        segments_.erase(predKey);
        segments_.insert(predKey, merged);
      }
    }
  }

  i64 size_ = 0;
  u64 contentVersion_ = 0;
  MapT<i64, Seg> segments_;
  mutable std::vector<i64> eraseScratch_;
};

/// The production tracker (B-tree backed, as in the paper).
using SegmentTracker = SegmentTrackerT<BTreeMap>;
/// std::map-backed variant for the ablation bench.
using SegmentTrackerStdMap = SegmentTrackerT<StdMapAdapter>;

}  // namespace polypart::rt
