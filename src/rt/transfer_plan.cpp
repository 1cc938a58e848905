#include "rt/transfer_plan.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "rt/runtime.h"
#include "support/trace.h"

namespace polypart::rt {

void TransferPlan::add(VirtualBuffer* buffer, int dst, int src, i64 begin,
                       i64 end) {
  PP_ASSERT(buffer != nullptr && begin < end && dst != src);
  records_.push_back(TransferRecord{buffer, dst, src, begin, end});
  scheduled_valid_ = false;
}

namespace {

/// (src, dst) pair with a deterministic first-seen ordinal.
struct LinkTable {
  std::vector<std::pair<int, int>> links;

  std::size_t ordinal(int src, int dst) {
    for (std::size_t i = 0; i < links.size(); ++i)
      if (links[i] == std::pair{src, dst}) return i;
    links.emplace_back(src, dst);
    return links.size() - 1;
  }
};

}  // namespace

const std::vector<ScheduledTransfer>& TransferPlan::schedule() {
  if (scheduled_valid_) return scheduled_;
  stats_ = {};
  stats_.recorded = static_cast<i64>(records_.size());

  // Group records by buffer, then by (src, dst) link, both in first-seen
  // order — a pure function of the canonical decision order, so the schedule
  // is identical no matter which engine recorded the decisions.
  std::vector<VirtualBuffer*> buffers;
  std::unordered_map<VirtualBuffer*, std::size_t> bufferIndex;
  std::vector<LinkTable> bufferLinks;
  std::vector<std::vector<std::vector<std::pair<i64, i64>>>> ranges;
  for (const TransferRecord& r : records_) {
    auto [it, fresh] = bufferIndex.try_emplace(r.buffer, buffers.size());
    if (fresh) {
      buffers.push_back(r.buffer);
      bufferLinks.emplace_back();
      ranges.emplace_back();
    }
    std::size_t bi = it->second;
    std::size_t li = bufferLinks[bi].ordinal(r.src, r.dst);
    if (li == ranges[bi].size()) ranges[bi].emplace_back();
    ranges[bi][li].emplace_back(r.begin, r.end);
  }

  // (a) Per-link range merging: adjacent or overlapping ranges between the
  // same pair of instances carry the same bytes from the same (static during
  // the sync phase) source, so their union moved once is byte-identical.
  if (opts_.mergeRanges) {
    for (auto& perLink : ranges) {
      for (auto& rs : perLink) {
        std::sort(rs.begin(), rs.end());
        std::vector<std::pair<i64, i64>> out;
        for (const auto& [b, e] : rs) {
          stats_.bytesSaved += e - b;  // minus the merged lengths below
          if (!out.empty() && b <= out.back().second)
            out.back().second = std::max(out.back().second, e);
          else
            out.emplace_back(b, e);
        }
        stats_.merged += static_cast<i64>(rs.size() - out.size());
        for (const auto& [b, e] : out) stats_.bytesSaved -= e - b;
        rs = std::move(out);
      }
    }
  }

  // Chaining pays only when a source engine is oversubscribed: binomial
  // fan-out shortens a hot owner's serial send queue, but in a balanced
  // all-to-all exchange (every device both sends and receives about the
  // same amount, e.g. matmul's panel broadcast) it merely adds replica
  // dependencies — a chained copy cannot start before its parent lands.
  // Gate per source: chain only sources carrying more than twice this
  // plan's per-device average copy count.  The gate is a pure function of
  // the merged ranges, so it is deterministic across resolution engines.
  std::unordered_map<int, i64> outgoing;
  std::unordered_set<int> devices;
  i64 totalCopies = 0;
  for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
    for (std::size_t li = 0; li < ranges[bi].size(); ++li) {
      if (ranges[bi][li].empty()) continue;
      auto [src, dst] = bufferLinks[bi].links[li];
      const i64 count = static_cast<i64>(ranges[bi][li].size());
      outgoing[src] += count;
      totalCopies += count;
      devices.insert(src);
      devices.insert(dst);
    }
  }
  auto oversubscribed = [&](int src) {
    return outgoing[src] * static_cast<i64>(devices.size()) > 2 * totalCopies;
  };

  // (b) Broadcast chaining: group equal (src, range) pulls across
  // destinations; a binomial FIFO re-sources later copies from replicas the
  // earlier copies create, spreading a one-to-many read over multiple
  // source engines instead of the owner's alone.
  struct Prov {
    VirtualBuffer* buffer;
    int dst, src;
    i64 begin, end;
    int wave;
    std::ptrdiff_t parent;
  };
  std::vector<Prov> prov;
  for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
    struct Group {
      int src;
      i64 begin, end;
      std::vector<int> dsts;
    };
    std::vector<Group> groups;
    for (std::size_t li = 0; li < ranges[bi].size(); ++li) {
      auto [src, dst] = bufferLinks[bi].links[li];
      for (const auto& [b, e] : ranges[bi][li]) {
        Group* g = nullptr;
        if (opts_.chainBroadcasts && oversubscribed(src))
          for (Group& cand : groups)
            if (cand.src == src && cand.begin == b && cand.end == e) {
              g = &cand;
              break;
            }
        if (g == nullptr) {
          groups.push_back(Group{src, b, e, {}});
          g = &groups.back();
        }
        g->dsts.push_back(dst);
      }
    }
    for (const Group& g : groups) {
      // FIFO of replica holders; popping rotates through them, which yields
      // a binomial tree: round k doubles the number of sources.
      std::deque<std::pair<int, std::ptrdiff_t>> holders;
      holders.emplace_back(g.src, -1);
      for (int dst : g.dsts) {
        int s = holders.front().first;
        std::ptrdiff_t pidx = holders.front().second;
        holders.pop_front();
        if (s == dst) {  // duplicate pull (unmerged plans): never self-copy
          holders.emplace_back(s, pidx);
          s = holders.front().first;
          pidx = holders.front().second;
          holders.pop_front();
        }
        int wave = pidx < 0 ? 0 : prov[static_cast<std::size_t>(pidx)].wave + 1;
        if (s != g.src) ++stats_.chains;
        prov.push_back(Prov{buffers[bi], dst, s, g.begin, g.end, wave, pidx});
        holders.emplace_back(s, pidx);
        holders.emplace_back(dst, static_cast<std::ptrdiff_t>(prov.size()) - 1);
      }
    }
  }

  // (c) Issue order: waves ascending (a parent is always in an earlier wave
  // than its children), round-robin across links inside a wave so
  // consecutive copies land on distinct engines.
  LinkTable order;
  int maxWave = 0;
  for (const Prov& p : prov) {
    order.ordinal(p.src, p.dst);
    maxWave = std::max(maxWave, p.wave);
  }
  scheduled_.clear();
  scheduled_.reserve(prov.size());
  std::vector<std::size_t> finalIndex(prov.size());
  for (int wave = 0; wave <= maxWave; ++wave) {
    std::vector<std::vector<std::size_t>> queues(order.links.size());
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < prov.size(); ++i) {
      if (prov[i].wave != wave) continue;
      queues[order.ordinal(prov[i].src, prov[i].dst)].push_back(i);
      ++remaining;
    }
    std::vector<std::size_t> cursor(queues.size(), 0);
    while (remaining > 0) {
      for (std::size_t li = 0; li < queues.size(); ++li) {
        if (cursor[li] >= queues[li].size()) continue;
        std::size_t i = queues[li][cursor[li]++];
        finalIndex[i] = scheduled_.size();
        const Prov& p = prov[i];
        scheduled_.push_back(ScheduledTransfer{p.buffer, p.dst, p.src, p.begin,
                                               p.end, p.wave, p.parent});
        --remaining;
      }
    }
  }
  for (ScheduledTransfer& t : scheduled_)
    if (t.parent >= 0)
      t.parent = static_cast<std::ptrdiff_t>(
          finalIndex[static_cast<std::size_t>(t.parent)]);

  stats_.issued = static_cast<i64>(scheduled_.size());
  scheduled_valid_ = true;
  return scheduled_;
}

void TransferPlan::setSrcFloors(std::vector<double> srcFloors) {
  srcFloors_ = std::move(srcFloors);
}

const TransferPlanStats& TransferPlan::issue(sim::Machine& machine,
                                             trace::Tracer* tracer) {
  schedule();
  std::vector<double> completion(scheduled_.size(), 0);
  int wave = -1;
  i64 waveCopies = 0;
  auto flushWave = [&] {
    if (wave < 0) return;
    trace::instant(tracer, "transfer", "plan-wave",
                   {{"wave", wave}, {"copies", waveCopies}});
  };
  for (std::size_t i = 0; i < scheduled_.size(); ++i) {
    const ScheduledTransfer& t = scheduled_[i];
    if (t.wave != wave) {
      flushWave();
      wave = t.wave;
      waveCopies = 0;
    }
    ++waveCopies;
    double notBefore =
        t.parent >= 0 ? completion[static_cast<std::size_t>(t.parent)] : 0;
    if (t.src >= 0 && static_cast<std::size_t>(t.src) < srcFloors_.size())
      notBefore = std::max(notBefore, srcFloors_[static_cast<std::size_t>(t.src)]);
    completion[i] = machine.copyPeer(
        t.buffer->instances_[static_cast<std::size_t>(t.dst)], t.begin,
        t.buffer->instances_[static_cast<std::size_t>(t.src)], t.begin,
        t.end - t.begin, notBefore);
    trace::instant(tracer, "transfer", prefetch_ ? "prefetch-copy" : "peer-copy",
                   {{"src", t.src}, {"dst", t.dst}, {"bytes", t.end - t.begin}});
  }
  flushWave();
  return stats_;
}

}  // namespace polypart::rt
