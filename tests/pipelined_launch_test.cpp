// Determinism & stress suite for the pipelined launch engine
// (rt::RuntimeConfig::pipelineDepth) and multi-tenant sharding
// (rt::RuntimeConfig::numTenants): submission runs ahead of commits, but a
// single engine thread retires epochs strictly in issue order, so functional
// results, tracker state, RuntimeStats, MachineStats, and modeled time must
// be byte-identical to the serial paper path at every pipeline depth, thread
// count, and cache setting.  Admission control, drain semantics, per-tenant
// accounting, and failure propagation are pinned here too; the wall-clock
// meta-counters stay the documented determinism exception.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "ir/builder.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

const ir::Module& benchModule() {
  static ir::Module mod = apps::buildBenchmarkModule();
  return mod;
}

const ApplicationModel& benchModel() {
  static ApplicationModel model = analysis::analyzeModule(benchModule());
  return model;
}

/// Field-wise sum of every counter; callers compare deterministicStats()
/// of the sum, so the meta-counters drop out.
RuntimeStats addStats(RuntimeStats a, const RuntimeStats& b) {
#define POLYPART_STATS_SUM(type, name, kind) a.name += b.name;
  POLYPART_RUNTIME_STATS(POLYPART_STATS_SUM)
#undef POLYPART_STATS_SUM
  return a;
}

RuntimeConfig pipeCfg(int gpus, int depth, int threads, bool cache,
                      int tenants = 1) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::Functional;
  cfg.pipelineDepth = depth;
  cfg.resolutionThreads = threads;
  cfg.enableEnumerationCache = cache;
  cfg.numTenants = tenants;
  return cfg;
}

/// One tenant's hotspot ping-pong stream: buffers, seeded inputs, and the
/// submit-side iteration step.  Streams never share buffers, so interleaving
/// them exercises tenancy without functional coupling.
struct HotspotStream {
  i64 n = 0;
  VirtualBuffer* src = nullptr;
  VirtualBuffer* dst = nullptr;
  VirtualBuffer* pw = nullptr;
  std::vector<double> temp;

  void open(Runtime& rt, i64 gridN, u64 seed, TenantId tenant) {
    n = gridN;
    const i64 cells = n * n;
    Rng rng(seed);
    temp.resize(static_cast<std::size_t>(cells));
    std::vector<double> power(static_cast<std::size_t>(cells));
    for (auto& v : temp) v = rng.uniform() * 80.0;
    for (auto& v : power) v = rng.uniform();
    src = rt.malloc(cells * 8, tenant);
    dst = rt.malloc(cells * 8, tenant);
    pw = rt.malloc(cells * 8, tenant);
    rt.memcpy(src, temp.data(), cells * 8, MemcpyKind::HostToDevice);
    rt.memcpy(pw, power.data(), cells * 8, MemcpyKind::HostToDevice);
  }

  i64 submitStep(Runtime& rt, TenantId tenant) {
    const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
    LaunchArg args[] = {LaunchArg::ofInt(n),       LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05),  LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),   LaunchArg::ofBuffer(dst)};
    i64 ticket = rt.submit("hotspot", {blocks, blocks, 1},
                           {apps::kBlock2D, apps::kBlock2D, 1}, args, tenant);
    std::swap(src, dst);
    return ticket;
  }

  std::optional<i64> trySubmitStep(Runtime& rt, TenantId tenant) {
    const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
    LaunchArg args[] = {LaunchArg::ofInt(n),       LaunchArg::ofFloat(0.4),
                        LaunchArg::ofFloat(0.05),  LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw),   LaunchArg::ofBuffer(dst)};
    std::optional<i64> ticket =
        rt.trySubmit("hotspot", {blocks, blocks, 1},
                     {apps::kBlock2D, apps::kBlock2D, 1}, args, tenant);
    if (ticket.has_value()) std::swap(src, dst);  // rejected: stream unchanged
    return ticket;
  }

  std::vector<double> gather(Runtime& rt) {
    std::vector<double> out(static_cast<std::size_t>(n * n), -1.0);
    rt.memcpy(out.data(), src, n * n * 8, MemcpyKind::DeviceToHost);
    return out;
  }
};

/// Tracker dump + mutation version per buffer, for byte-level comparison of
/// the post-stream coherence state across engine configurations.
using TrackerState = std::vector<std::pair<std::vector<SegmentTracker::DumpSegment>, u64>>;

TrackerState trackerState(std::initializer_list<const VirtualBuffer*> bufs) {
  TrackerState out;
  for (const VirtualBuffer* vb : bufs)
    out.emplace_back(vb->tracker().dump(), vb->tracker().version());
  return out;
}

struct StreamRun {
  std::vector<double> bytes;
  TrackerState trackers;
  RuntimeStats stats;
  sim::MachineStats machine;
  double simSeconds = 0;
};

StreamRun runPipelinedHotspot(int depth, int threads, bool cache, int iters) {
  Runtime rt(pipeCfg(4, depth, threads, cache), benchModel(), benchModule());
  HotspotStream s;
  s.open(rt, 64, 101, 0);
  for (int it = 0; it < iters; ++it) s.submitStep(rt, 0);
  rt.drain();
  StreamRun out;
  out.bytes = s.gather(rt);
  out.trackers = trackerState({s.src, s.dst, s.pw});
  out.stats = rt.stats();
  out.machine = rt.machineStats();
  out.simSeconds = rt.elapsedSeconds();
  return out;
}

TEST(PipelinedLaunch, MatchesSerialPathByteForByte) {
  for (bool cache : {false, true}) {
    StreamRun serial = runPipelinedHotspot(/*depth=*/0, /*threads=*/0, cache, 6);
    for (int depth : {1, 3}) {
      for (int threads : {0, 2}) {
        StreamRun piped = runPipelinedHotspot(depth, threads, cache, 6);
        EXPECT_EQ(piped.bytes, serial.bytes)
            << "depth=" << depth << " threads=" << threads << " cache=" << cache;
        EXPECT_EQ(piped.trackers, serial.trackers)
            << "depth=" << depth << " threads=" << threads << " cache=" << cache;
        EXPECT_EQ(deterministicStats(piped.stats),
                  deterministicStats(serial.stats))
            << "depth=" << depth << " threads=" << threads << " cache=" << cache;
        EXPECT_EQ(piped.machine, serial.machine)
            << "depth=" << depth << " threads=" << threads << " cache=" << cache;
        EXPECT_EQ(piped.simSeconds, serial.simSeconds)
            << "depth=" << depth << " threads=" << threads << " cache=" << cache;
      }
    }
  }
}

TEST(PipelinedLaunch, RepeatRunsAreDeterministic) {
  auto run = [] { return runPipelinedHotspot(/*depth=*/3, /*threads=*/2,
                                             /*cache=*/true, 6); };
  StreamRun a = run();
  StreamRun b = run();
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.trackers, b.trackers);
  EXPECT_EQ(deterministicStats(a.stats), deterministicStats(b.stats));
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.simSeconds, b.simSeconds);
}

TEST(PipelinedLaunch, DepthZeroSubmitCommitsSynchronously) {
  Runtime rt(pipeCfg(2, /*depth=*/0, /*threads=*/0, /*cache=*/true),
             benchModel(), benchModule());
  HotspotStream s;
  s.open(rt, 32, 7, 0);
  EXPECT_TRUE(rt.pipelineIdle());
  for (i64 expect = 0; expect < 3; ++expect) {
    i64 ticket = s.submitStep(rt, 0);
    EXPECT_EQ(ticket, expect);  // serial tickets count up from 0
    EXPECT_TRUE(rt.pipelineIdle());
    EXPECT_EQ(rt.stats().launches, expect + 1);  // retired before returning
    rt.wait(ticket);  // no-op, must not block or throw
  }
  TenantStats ts = rt.tenantStats(0);
  EXPECT_EQ(ts.submitted, 3);
  EXPECT_EQ(ts.completed, 3);
  EXPECT_EQ(ts.rejected, 0);
  EXPECT_EQ(ts.resolved.launches, 3);
}

TEST(PipelinedLaunch, DrainSettlesAllSubmittedWork) {
  Runtime rt(pipeCfg(2, /*depth=*/2, /*threads=*/0, /*cache=*/true),
             benchModel(), benchModule());
  HotspotStream s;
  s.open(rt, 32, 7, 0);
  std::vector<i64> tickets;
  for (int it = 0; it < 5; ++it) tickets.push_back(s.submitStep(rt, 0));
  EXPECT_EQ(tickets, (std::vector<i64>{0, 1, 2, 3, 4}));  // epoch order
  rt.drain();
  EXPECT_TRUE(rt.pipelineIdle());
  EXPECT_EQ(rt.stats().launches, 5);
  rt.drain();  // idempotent
  for (i64 t : tickets) rt.wait(t);  // all retired: returns immediately
  TenantStats ts = rt.tenantStats(0);
  EXPECT_EQ(ts.submitted, 5);
  EXPECT_EQ(ts.completed, 5);
}

TEST(PipelinedLaunch, AdmissionControlRejectsDeterministically) {
  RuntimeConfig cfg = pipeCfg(2, /*depth=*/4, /*threads=*/0, /*cache=*/true,
                              /*tenants=*/2);
  cfg.maxInFlightPerTenant = 1;
  Runtime rt(cfg, benchModel(), benchModule());
  HotspotStream s0, s1;
  s0.open(rt, 32, 7, 0);
  s1.open(rt, 32, 9, 1);

  // Gate the first commit on the engine thread so tenant 0 is pinned at its
  // in-flight cap for as long as this test needs — rejection becomes
  // deterministic instead of a race against the commit.
  struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool released = false;
  } gate;
  rt.setCommitObserver([&gate](i64 epoch, TenantId) {
    if (epoch != 0) return;
    std::unique_lock<std::mutex> lock(gate.m);
    gate.cv.wait(lock, [&] { return gate.released; });
  });

  EXPECT_EQ(s0.submitStep(rt, 0), 0);
  EXPECT_FALSE(s0.trySubmitStep(rt, 0).has_value());
  EXPECT_FALSE(s0.trySubmitStep(rt, 0).has_value());
  // Tenant 1 has its own admission budget: unaffected by tenant 0's backlog.
  EXPECT_TRUE(s1.trySubmitStep(rt, 1).has_value());

  {
    std::lock_guard<std::mutex> lock(gate.m);
    gate.released = true;
  }
  gate.cv.notify_all();
  rt.drain();
  EXPECT_TRUE(s0.trySubmitStep(rt, 0).has_value());  // capacity free again
  rt.drain();

  TenantStats t0 = rt.tenantStats(0);
  TenantStats t1 = rt.tenantStats(1);
  EXPECT_EQ(t0.submitted, 2);
  EXPECT_EQ(t0.rejected, 2);
  EXPECT_EQ(t0.completed, 2);
  EXPECT_EQ(t1.submitted, 1);
  EXPECT_EQ(t1.rejected, 0);
  EXPECT_EQ(t1.completed, 1);
}

TEST(PipelinedLaunch, PerTenantStatsPartitionTheTotals) {
  // Cache off keeps the two streams' enumeration work fully independent, so
  // each tenant's resolved slice must equal its solo run and the slices must
  // sum to the runtime totals.
  auto soloResolved = [](i64 n, u64 seed, int iters) {
    Runtime rt(pipeCfg(4, /*depth=*/2, /*threads=*/0, /*cache=*/false),
               benchModel(), benchModule());
    HotspotStream s;
    s.open(rt, n, seed, 0);
    for (int it = 0; it < iters; ++it) s.submitStep(rt, 0);
    return std::make_pair(rt.tenantStats(0).resolved, s.gather(rt));
  };
  auto [solo0, bytes0] = soloResolved(64, 101, 5);
  auto [solo1, bytes1] = soloResolved(48, 55, 3);

  Runtime rt(pipeCfg(4, /*depth=*/2, /*threads=*/0, /*cache=*/false,
                     /*tenants=*/2),
             benchModel(), benchModule());
  HotspotStream s0, s1;
  s0.open(rt, 64, 101, 0);
  s1.open(rt, 48, 55, 1);
  for (int it = 0; it < 5; ++it) {
    s0.submitStep(rt, 0);
    if (it < 3) s1.submitStep(rt, 1);
  }
  rt.drain();
  TenantStats t0 = rt.tenantStats(0);
  TenantStats t1 = rt.tenantStats(1);
  EXPECT_EQ(t0.submitted, 5);
  EXPECT_EQ(t1.submitted, 3);
  EXPECT_EQ(deterministicStats(t0.resolved), deterministicStats(solo0));
  EXPECT_EQ(deterministicStats(t1.resolved), deterministicStats(solo1));
  // Every deterministic counter partitions.  The repartition, checkpoint and
  // recovery counters accumulate outside any launch (repartition(),
  // checkpoint(), recoverDevice()), so no tenant slice would hold them by
  // design; this stream never calls those entry points, which keeps them 0
  // on both sides.
  EXPECT_EQ(rt.stats().repartitions + rt.stats().checkpoints +
                rt.stats().recoveries,
            0);
  EXPECT_EQ(deterministicStats(addStats(t0.resolved, t1.resolved)),
            deterministicStats(rt.stats()));
  EXPECT_EQ(s0.gather(rt), bytes0);
  EXPECT_EQ(s1.gather(rt), bytes1);
}

TEST(PipelinedLaunch, ConcurrentSubmittersStaySafeAndExact) {
  // One submitter thread per tenant hammering submit() while the engine
  // commits: the TSan regression for the cross-thread stats windows
  // (resolutionWallSeconds accumulates from every submitter concurrently
  // with the engine's launch phases) and the admission/epoch protocol.
  constexpr int kTenants = 3;
  constexpr int kIters = 6;
  RuntimeConfig cfg = pipeCfg(2, /*depth=*/3, /*threads=*/2, /*cache=*/true,
                              kTenants);
  cfg.maxInFlightPerTenant = 2;
  Runtime rt(cfg, benchModel(), benchModule());
  std::vector<HotspotStream> streams(kTenants);
  std::vector<std::vector<double>> solo(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    streams[static_cast<std::size_t>(t)].open(rt, 32, 7 + static_cast<u64>(t),
                                              t);
    // Solo reference bytes for the same seeded stream.
    Runtime ref(pipeCfg(2, 0, 0, true), benchModel(), benchModule());
    HotspotStream rs;
    rs.open(ref, 32, 7 + static_cast<u64>(t), 0);
    for (int it = 0; it < kIters; ++it) rs.submitStep(ref, 0);
    solo[static_cast<std::size_t>(t)] = rs.gather(ref);
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < kTenants; ++t)
    submitters.emplace_back([&rt, &streams, t] {
      for (int it = 0; it < kIters; ++it)
        streams[static_cast<std::size_t>(t)].submitStep(rt, t);
    });
  for (std::thread& th : submitters) th.join();
  rt.drain();
  EXPECT_EQ(rt.stats().launches, kTenants * kIters);
  for (int t = 0; t < kTenants; ++t) {
    TenantStats ts = rt.tenantStats(t);
    EXPECT_EQ(ts.submitted, kIters) << t;
    EXPECT_EQ(ts.completed, kIters) << t;
    EXPECT_EQ(ts.resolved.launches, kIters) << t;
    EXPECT_EQ(streams[static_cast<std::size_t>(t)].gather(rt),
              solo[static_cast<std::size_t>(t)])
        << t;
  }
}

TEST(PipelinedLaunch, SubmitValidationThrowsOnTheSubmittingThread) {
  Runtime rt(pipeCfg(2, /*depth=*/2, /*threads=*/0, /*cache=*/true),
             benchModel(), benchModule());
  HotspotStream s;
  s.open(rt, 32, 7, 0);
  // hotspot's model pins gridDim.z == 1: the violation must surface from
  // submit() itself (prepare runs on this thread), not poison the pipeline.
  LaunchArg args[] = {LaunchArg::ofInt(s.n),      LaunchArg::ofFloat(0.4),
                      LaunchArg::ofFloat(0.05),   LaunchArg::ofBuffer(s.src),
                      LaunchArg::ofBuffer(s.pw),  LaunchArg::ofBuffer(s.dst)};
  EXPECT_THROW(rt.submit("hotspot", {2, 2, 2},
                         {apps::kBlock2D, apps::kBlock2D, 1}, args, 0),
               Error);
  EXPECT_EQ(s.submitStep(rt, 0), 0);  // pipeline still healthy
  rt.drain();
  EXPECT_EQ(rt.tenantStats(0).completed, 1);
}

TEST(PipelinedLaunch, CommitFailurePoisonsThePipeline) {
  // Scatter with every index colliding trips the write-after-write hazard
  // *at commit time* (instrumented execution) — the failure must surface at
  // wait(), and everything after it must see the pipeline as poisoned
  // without ever hanging a waiter.
  ir::KernelBuilder b("scatter");
  auto n = b.scalar("n", ir::Type::I64);
  auto idx = b.array("idx", ir::Type::I64, {n});
  auto in = b.array("in", ir::Type::F64, {n});
  auto out = b.array("out", ir::Type::F64, {n});
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] { b.store(out, b.load(idx, i), b.load(in, i)); });
  ir::KernelPtr k = b.build();
  ir::Module mod;
  mod.addKernel(k);
  analysis::AnalysisOptions opts;
  opts.allowInstrumentedWrites = true;
  ApplicationModel model = analysis::analyzeModule(mod, opts);

  RuntimeConfig cfg = pipeCfg(4, /*depth=*/2, /*threads=*/0, /*cache=*/true);
  Runtime rt(cfg, model, mod);
  const i64 count = 256;
  std::vector<i64> indices(static_cast<std::size_t>(count), 0);
  std::vector<double> input(static_cast<std::size_t>(count), 1.0);
  VirtualBuffer* dIdx = rt.malloc(count * 8);
  VirtualBuffer* dIn = rt.malloc(count * 8);
  VirtualBuffer* dOut = rt.malloc(count * 8);
  rt.memcpy(dIdx, indices.data(), count * 8, MemcpyKind::HostToDevice);
  rt.memcpy(dIn, input.data(), count * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(count), LaunchArg::ofBuffer(dIdx),
                      LaunchArg::ofBuffer(dIn), LaunchArg::ofBuffer(dOut)};
  i64 ticket = rt.submit("scatter", {count / 64, 1, 1}, {64, 1, 1}, args, 0);
  EXPECT_THROW(rt.wait(ticket), Error);           // the original hazard
  EXPECT_THROW(rt.submit("scatter", {count / 64, 1, 1}, {64, 1, 1}, args, 0),
               Error);                            // poisoned afterwards
  EXPECT_TRUE(rt.pipelineIdle());                 // the epoch still retired
  EXPECT_THROW(rt.tenantStats(0), Error);         // drain reports poisoning
}

}  // namespace
}  // namespace polypart::rt
