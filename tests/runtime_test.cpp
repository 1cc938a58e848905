// Integration tests for the runtime (paper Section 8): virtual buffers,
// memcpy translation, the Fig. 4 partitioned launch, and the end-to-end
// property that multi-GPU partitioned execution is bit-identical to the CPU
// reference for every benchmark and GPU count.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "ir/builder.h"
#include "rt/cuda_api.h"
#include "rt/runtime.h"
#include "support/rng.h"

namespace polypart::rt {
namespace {

using analysis::ApplicationModel;

std::unique_ptr<Runtime> makeRuntime(int gpus,
                                     sim::ExecutionMode mode = sim::ExecutionMode::Functional) {
  RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = mode;
  ir::Module mod = apps::buildBenchmarkModule();
  ApplicationModel model = analysis::analyzeModule(mod);
  return std::make_unique<Runtime>(cfg, std::move(model), mod);
}

TEST(Runtime, DeviceCountIsAlwaysOne) {
  auto rt = makeRuntime(8);
  // Section 8.4: the replacement hides the real device count.
  EXPECT_EQ(rt->getDeviceCount(), 1);
}

TEST(Runtime, MemcpyRoundTripLinearDistribution) {
  auto rt = makeRuntime(4);
  const i64 n = 1000;
  std::vector<double> src(n), dst(n, -1.0);
  std::iota(src.begin(), src.end(), 0.0);
  VirtualBuffer* vb = rt->malloc(n * 8);
  rt->memcpy(vb, src.data(), n * 8, MemcpyKind::HostToDevice);
  // H2D distributes linearly: four ownership segments.
  EXPECT_EQ(vb->tracker().segmentCount(), 4u);
  EXPECT_EQ(vb->tracker().ownerAt(0), 0);
  EXPECT_EQ(vb->tracker().ownerAt(n * 8 - 1), 3);
  rt->memcpy(dst.data(), vb, n * 8, MemcpyKind::DeviceToHost);
  EXPECT_EQ(src, dst);
  rt->free(vb);
}

TEST(Runtime, DeviceToDeviceMemcpyRejected) {
  auto rt = makeRuntime(2);
  VirtualBuffer* a = rt->malloc(64);
  VirtualBuffer* b = rt->malloc(64);
  EXPECT_THROW(rt->memcpy(a, b, 64, MemcpyKind::DeviceToDevice),
               UnsupportedOperationError);
  rt->free(a);
  rt->free(b);
}

TEST(Runtime, UndefinedRegionsNotCopiedBack) {
  auto rt = makeRuntime(2);
  const i64 n = 100;
  VirtualBuffer* vb = rt->malloc(n * 8);
  std::vector<double> dst(n, 7.0);
  rt->memcpy(dst.data(), vb, n * 8, MemcpyKind::DeviceToHost);
  // Never written: host buffer untouched.
  for (double v : dst) EXPECT_EQ(v, 7.0);
  rt->free(vb);
}

TEST(Runtime, LaunchValidatesUnitAxes) {
  auto rt = makeRuntime(2);
  VirtualBuffer* x = rt->malloc(800);
  VirtualBuffer* y = rt->malloc(800);
  LaunchArg args[] = {LaunchArg::ofInt(100), LaunchArg::ofFloat(1.0),
                      LaunchArg::ofBuffer(x), LaunchArg::ofBuffer(y)};
  // saxpy ignores the y axis entirely: a 2-D launch must be rejected.
  EXPECT_THROW(rt->launch("saxpy", {1, 2, 1}, {128, 1, 1}, args), Error);
  EXPECT_THROW(rt->launch("saxpy", {1, 1, 1}, {128, 2, 1}, args), Error);
  rt->free(x);
  rt->free(y);
}

// A kernel name the model does not know is bad user input: it throws at the
// API boundary instead of aborting the process, so under multi-tenancy one
// tenant's typo cannot take the other tenants down.
TEST(Runtime, UnknownKernelNameThrows) {
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  cfg.numTenants = 2;
  cfg.pipelineDepth = 2;
  ir::Module mod = apps::buildBenchmarkModule();
  Runtime rt(cfg, analysis::analyzeModule(mod), mod);
  EXPECT_THROW(rt.partitionedKernel("no_such_kernel"), Error);
  try {
    rt.launch("no_such_kernel", {1, 1, 1}, {128, 1, 1}, {}, /*tenant=*/1);
    ADD_FAILURE() << "launch of an unknown kernel did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown kernel 'no_such_kernel'");
  }
  EXPECT_THROW(rt.submit("no_such_kernel", {1, 1, 1}, {128, 1, 1}, {}), Error);

  // Both tenants keep working after the rejected launches.
  const i64 n = 512;
  for (TenantId t : {0, 1}) {
    std::vector<double> x(n, 2.0), y(n, 1.0);
    VirtualBuffer* vx = rt.malloc(n * 8, t);
    VirtualBuffer* vy = rt.malloc(n * 8, t);
    rt.memcpy(vx, x.data(), n * 8, MemcpyKind::HostToDevice);
    rt.memcpy(vy, y.data(), n * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(3.0),
                        LaunchArg::ofBuffer(vx), LaunchArg::ofBuffer(vy)};
    rt.launch("saxpy", {n / 128, 1, 1}, {128, 1, 1}, args, t);
    rt.memcpy(y.data(), vy, n * 8, MemcpyKind::DeviceToHost);
    EXPECT_EQ(y, std::vector<double>(n, 7.0)) << "tenant " << t;
    rt.free(vx);
    rt.free(vy);
  }
}

// Malformed launch arguments are bad user input too.  Each of the four
// faults throws before anything is enqueued, naming the kernel, parameter,
// and expected and actual values; a pipelined two-tenant runtime keeps
// serving both tenants afterwards.
TEST(Runtime, BadLaunchArgumentsThrow) {
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  cfg.numTenants = 2;
  cfg.pipelineDepth = 2;
  ir::Module mod = apps::buildBenchmarkModule();
  Runtime rt(cfg, analysis::analyzeModule(mod), mod);
  const i64 n = 512;
  VirtualBuffer* x0 = rt.malloc(n * 8, 0);
  VirtualBuffer* y0 = rt.malloc(n * 8, 0);
  VirtualBuffer* x1 = rt.malloc(n * 8, 1);
  auto message = [&](std::vector<LaunchArg> args, bool viaSubmit) -> std::string {
    try {
      if (viaSubmit)
        rt.submit("saxpy", {n / 128, 1, 1}, {128, 1, 1}, args, 0);
      else
        rt.launch("saxpy", {n / 128, 1, 1}, {128, 1, 1}, args, 0);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  for (bool viaSubmit : {false, true}) {
    EXPECT_EQ(message({LaunchArg::ofInt(n), LaunchArg::ofFloat(3.0),
                       LaunchArg::ofBuffer(x0)},
                      viaSubmit),
              "kernel 'saxpy' expects 4 arguments, got 3");
    EXPECT_EQ(message({LaunchArg::ofInt(n), LaunchArg::ofBuffer(x0),
                       LaunchArg::ofBuffer(x0), LaunchArg::ofBuffer(y0)},
                      viaSubmit),
              "kernel 'saxpy': parameter 'a' expects a scalar, got an array");
    EXPECT_EQ(message({LaunchArg::ofInt(n), LaunchArg::ofFloat(3.0),
                       LaunchArg::ofInt(0), LaunchArg::ofBuffer(y0)},
                      viaSubmit),
              "kernel 'saxpy': parameter 'x' expects an array, got a scalar");
    EXPECT_EQ(message({LaunchArg::ofFloat(512.0), LaunchArg::ofFloat(3.0),
                       LaunchArg::ofBuffer(x0), LaunchArg::ofBuffer(y0)},
                      viaSubmit),
              "kernel 'saxpy': parameter 'n' expects i64, got f64");
    EXPECT_EQ(message({LaunchArg::ofInt(n), LaunchArg::ofFloat(3.0),
                       LaunchArg::ofBuffer(x1), LaunchArg::ofBuffer(y0)},
                      viaSubmit),
              "kernel 'saxpy': parameter 'x' is a buffer of tenant 1, launch "
              "is for tenant 0");
  }
  EXPECT_EQ(rt.stats().launches, 0);
  rt.free(x0);
  rt.free(y0);
  rt.free(x1);

  // Both tenants keep working after the rejected launches.
  for (TenantId t : {0, 1}) {
    std::vector<double> x(n, 2.0), y(n, 1.0);
    VirtualBuffer* vx = rt.malloc(n * 8, t);
    VirtualBuffer* vy = rt.malloc(n * 8, t);
    rt.memcpy(vx, x.data(), n * 8, MemcpyKind::HostToDevice);
    rt.memcpy(vy, y.data(), n * 8, MemcpyKind::HostToDevice);
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(3.0),
                        LaunchArg::ofBuffer(vx), LaunchArg::ofBuffer(vy)};
    rt.submit("saxpy", {n / 128, 1, 1}, {128, 1, 1}, args, t);
    rt.memcpy(y.data(), vy, n * 8, MemcpyKind::DeviceToHost);
    EXPECT_EQ(y, std::vector<double>(n, 7.0)) << "tenant " << t;
    rt.free(vx);
    rt.free(vy);
  }
}

// Bad config values are user input as well: the constructor throws an Error
// naming the field and its value before it builds anything.
TEST(Runtime, BadConfigThrows) {
  ir::Module mod = apps::buildBenchmarkModule();
  const analysis::ApplicationModel model = analysis::analyzeModule(mod);
  auto message = [&](void (*edit)(RuntimeConfig&)) -> std::string {
    RuntimeConfig cfg;
    cfg.numGpus = 2;
    edit(cfg);
    try {
      Runtime rt(cfg, model, mod);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message([](RuntimeConfig& c) { c.numGpus = 0; }),
            "RuntimeConfig::numGpus must be >= 1, got 0");
  EXPECT_EQ(message([](RuntimeConfig& c) { c.numTenants = 0; }),
            "RuntimeConfig::numTenants must be >= 1, got 0");
  EXPECT_EQ(message([](RuntimeConfig& c) { c.pipelineDepth = -1; }),
            "RuntimeConfig::pipelineDepth must be >= 0, got -1");
  EXPECT_EQ(message([](RuntimeConfig& c) { c.maxInFlightPerTenant = -2; }),
            "RuntimeConfig::maxInFlightPerTenant must be >= 0, got -2");
  EXPECT_EQ(message([](RuntimeConfig& c) { c.pipelineDepth = 1; }), "no error");
}

// Integer division by zero inside a kernel is an Error thrown out of the
// Functional launch, not an abort; the runtime stays usable.
TEST(Runtime, KernelDivisionByZeroThrows) {
  ir::KernelBuilder b("divide");
  auto n = b.scalar("n", ir::Type::I64);
  auto d = b.scalar("d", ir::Type::I64);
  auto out = b.array("out", ir::Type::F64, {n});
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] { b.store(out, i, ir::Expr::cast(ir::Type::F64, i / d)); });
  ir::Module mod = apps::buildBenchmarkModule();
  mod.addKernel(b.build());
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  Runtime rt(cfg, analysis::analyzeModule(mod), mod);

  const i64 len = 256;
  VirtualBuffer* vout = rt.malloc(len * 8);
  auto divide = [&](i64 divisor) {
    LaunchArg args[] = {LaunchArg::ofInt(len), LaunchArg::ofInt(divisor),
                        LaunchArg::ofBuffer(vout)};
    rt.launch("divide", {len / 128, 1, 1}, {128, 1, 1}, args);
  };
  try {
    divide(0);
    ADD_FAILURE() << "division by zero did not throw";
  } catch (const Error& e) {
    // The runtime executes the partitioned clone; the error names the
    // kernel the user launched.
    EXPECT_STREQ(e.what(), "integer division by zero in kernel 'divide'");
  }

  divide(3);
  std::vector<double> got(len);
  rt.memcpy(got.data(), vout, len * 8, MemcpyKind::DeviceToHost);
  for (i64 k = 0; k < len; ++k)
    EXPECT_EQ(got[static_cast<std::size_t>(k)], static_cast<double>(k / 3)) << k;
  rt.free(vout);
}

TEST(Runtime, KernelOutOfBoundsNamesUserKernel) {
  ir::KernelBuilder b("shift");
  auto n = b.scalar("n", ir::Type::I64);
  auto d = b.scalar("d", ir::Type::I64);
  auto in = b.array("in", ir::Type::F64, {n});
  auto out = b.array("out", ir::Type::F64, {n});
  auto i = b.let("i", b.globalId(ir::Axis::X));
  b.iff(ir::lt(i, n), [&] { b.store(out, i, b.load(in, i + d)); });
  ir::Module mod = apps::buildBenchmarkModule();
  mod.addKernel(b.build());
  RuntimeConfig cfg;
  cfg.numGpus = 2;
  Runtime rt(cfg, analysis::analyzeModule(mod), mod);

  const i64 len = 256;
  VirtualBuffer* vin = rt.malloc(len * 8);
  VirtualBuffer* vout = rt.malloc(len * 8);
  LaunchArg args[] = {LaunchArg::ofInt(len), LaunchArg::ofInt(1),
                      LaunchArg::ofBuffer(vin), LaunchArg::ofBuffer(vout)};
  try {
    rt.launch("shift", {len / 128, 1, 1}, {128, 1, 1}, args);
    ADD_FAILURE() << "out-of-bounds load did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "out-of-bounds load in kernel 'shift' on 'in' index 256 of 256");
  }
  rt.free(vin);
  rt.free(vout);
}

TEST(Runtime, SaxpyMatchesReferenceOnManyGpuCounts) {
  const i64 n = 5000;
  for (int gpus : {1, 2, 3, 4, 7, 16}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> x(n), y(n), expect(n);
    for (i64 i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i);
      y[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 17);
    }
    expect = y;
    apps::refSaxpy(3.5, x, expect);
    apps::runSaxpy(*rt, n, 3.5, x.data(), y.data());
    EXPECT_EQ(y, expect) << gpus << " GPUs";
  }
}

TEST(Runtime, HotspotMatchesReferenceAcrossIterations) {
  const i64 n = 40;
  const int iters = 7;
  Rng rng(11);
  std::vector<double> init(static_cast<std::size_t>(n * n));
  std::vector<double> power(static_cast<std::size_t>(n * n));
  for (auto& v : init) v = rng.uniform() * 100.0;
  for (auto& v : power) v = rng.uniform();

  // CPU reference: ping-pong exactly like the driver.
  std::vector<double> a = init, b(static_cast<std::size_t>(n * n), 0.0);
  for (int it = 0; it < iters; ++it) {
    apps::refHotspotStep(n, 0.175, 0.05, a, power, b);
    std::swap(a, b);
  }

  for (int gpus : {1, 2, 3, 5, 16}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> temp = init;
    apps::runHotspot(*rt, n, iters, temp.data(), power.data());
    EXPECT_EQ(temp, a) << gpus << " GPUs";
    // Halo exchange must have happened for gpus > 1 and iters > 1.
    if (gpus > 1) EXPECT_GT(rt->stats().peerCopies, 0) << gpus;
  }
}

TEST(Runtime, NBodyMatchesReference) {
  const i64 n = 60;
  const int iters = 4;
  Rng rng(23);
  auto fill = [&](std::vector<double>& v) {
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
  };
  std::vector<double> px, py, pz, vx, vy, vz, mass;
  fill(px); fill(py); fill(pz); fill(vx); fill(vy); fill(vz); fill(mass);
  for (auto& m : mass) m = std::abs(m) + 0.1;

  // CPU reference.
  std::vector<double> rpx = px, rpy = py, rpz = pz, rvx = vx, rvy = vy, rvz = vz;
  std::vector<double> ax(static_cast<std::size_t>(n)), ay(ax), az(ax);
  for (int it = 0; it < iters; ++it) {
    apps::refNBodyForces(n, rpx, rpy, rpz, mass, ax, ay, az);
    apps::refNBodyUpdate(n, 0.01, rpx, rpy, rpz, rvx, rvy, rvz, ax, ay, az);
  }

  for (int gpus : {1, 2, 4, 9}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> tpx = px, tpy = py, tpz = pz, tvx = vx, tvy = vy, tvz = vz;
    apps::NBodyState st{tpx.data(), tpy.data(), tpz.data(),
                        tvx.data(), tvy.data(), tvz.data(), mass.data()};
    apps::runNBody(*rt, n, iters, st);
    EXPECT_EQ(tpx, rpx) << gpus;
    EXPECT_EQ(tvx, rvx) << gpus;
    EXPECT_EQ(tpz, rpz) << gpus;
  }
}

TEST(Runtime, MatmulMatchesReference) {
  const i64 n = 32;
  Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  std::vector<double> expect(static_cast<std::size_t>(n * n));
  apps::refMatmul(n, a, b, expect);

  for (int gpus : {1, 2, 3, 8}) {
    auto rt = makeRuntime(gpus);
    std::vector<double> c(static_cast<std::size_t>(n * n), -1.0);
    apps::runMatmul(*rt, n, a.data(), b.data(), c.data());
    EXPECT_EQ(c, expect) << gpus << " GPUs";
  }
}

TEST(Runtime, BetaGammaSwitchesReduceWork) {
  // α: full run; β: no transfers; γ: no resolution.  The switches drive the
  // overhead decomposition of Section 9.2.
  const i64 n = 64;
  auto run = [&](bool transfers, bool resolution) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::TimingOnly;
    cfg.enableTransfers = transfers;
    cfg.enableDependencyResolution = resolution;
    ir::Module mod = apps::buildBenchmarkModule();
    Runtime rt(cfg, analysis::analyzeModule(mod), mod);
    apps::runHotspot(rt, n, 10, nullptr, nullptr);
    return std::make_tuple(rt.elapsedSeconds(), rt.machineStats().bytesPeerToPeer,
                           rt.stats().rangesResolved);
  };
  auto [alphaT, alphaBytes, alphaRanges] = run(true, true);
  auto [betaT, betaBytes, betaRanges] = run(false, true);
  auto [gammaT, gammaBytes, gammaRanges] = run(false, false);
  EXPECT_GT(alphaBytes, 0);
  EXPECT_EQ(betaBytes, 0);
  EXPECT_EQ(gammaBytes, 0);
  EXPECT_GT(betaRanges, 0);
  EXPECT_EQ(gammaRanges, 0);
  EXPECT_GE(alphaT, betaT);
  EXPECT_GE(betaT, gammaT);
  EXPECT_GT(gammaT, 0.0);
}

TEST(Runtime, SingleGpuPartitionedOverheadIsSmall) {
  // Section 9.2: running the partitioned binary on one GPU costs a few
  // percent over the reference (median 2.1 % on paper-sized problems).
  const i64 n = 8192;  // the paper's "Small" Hotspot configuration
  const int iters = 20;
  auto rt = makeRuntime(1, sim::ExecutionMode::TimingOnly);
  apps::runHotspot(*rt, n, iters, nullptr, nullptr);
  double partitioned = rt->elapsedSeconds();

  sim::Machine ref(sim::MachineSpec::k80Node(1), sim::ExecutionMode::TimingOnly);
  apps::referenceHotspot(ref, n, iters, nullptr, nullptr);
  double reference = ref.completionTime();

  EXPECT_GT(partitioned, reference);
  EXPECT_LT(partitioned, reference * 1.10);
}

TEST(Runtime, MultiGpuIsFasterOnLargeProblems) {
  // Paper-scale iterative problem: fixed H2D/D2H costs amortize and the
  // kernels dominate, so adding GPUs must pay off clearly.
  const i64 n = 16384;
  const int iters = 60;
  auto time = [&](int gpus) {
    auto rt = makeRuntime(gpus, sim::ExecutionMode::TimingOnly);
    apps::runHotspot(*rt, n, iters, nullptr, nullptr);
    return rt->elapsedSeconds();
  };
  double t1 = time(1);
  double t4 = time(4);
  double t8 = time(8);
  EXPECT_LT(t4, t1 / 2.0);
  EXPECT_LT(t8, t4);
}

TEST(Runtime, CudaApiShims) {
  auto rt = makeRuntime(2);
  ScopedGpartRuntime scope(*rt);
  void* p = nullptr;
  ASSERT_EQ(gpartMalloc(&p, 800), gpartSuccess);
  ASSERT_NE(p, nullptr);
  std::vector<double> host(100, 2.5), back(100, 0.0);
  EXPECT_EQ(gpartMemcpy(p, host.data(), 800, gpartMemcpyHostToDevice), gpartSuccess);
  EXPECT_EQ(gpartMemcpy(back.data(), p, 800, gpartMemcpyDeviceToHost), gpartSuccess);
  EXPECT_EQ(back, host);
  int count = -1;
  EXPECT_EQ(gpartGetDeviceCount(&count), gpartSuccess);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(gpartDeviceSynchronize(), gpartSuccess);
  EXPECT_EQ(gpartFree(p), gpartSuccess);
  EXPECT_EQ(gpartMalloc(nullptr, 8), gpartErrorInvalidValue);
}

TEST(Runtime, TrackerStaysCompactOnRegularKernels) {
  // Section 8.1: contiguous partitions keep the tracker at one segment per
  // partition.
  auto rt = makeRuntime(4);
  const i64 n = 64;
  std::vector<double> temp(static_cast<std::size_t>(n * n), 1.0);
  std::vector<double> power(static_cast<std::size_t>(n * n), 0.0);
  VirtualBuffer* t0 = rt->malloc(n * n * 8);
  VirtualBuffer* t1 = rt->malloc(n * n * 8);
  VirtualBuffer* pw = rt->malloc(n * n * 8);
  rt->memcpy(t0, temp.data(), n * n * 8, MemcpyKind::HostToDevice);
  rt->memcpy(pw, power.data(), n * n * 8, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(0.1),
                      LaunchArg::ofFloat(0.1), LaunchArg::ofBuffer(t0),
                      LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(t1)};
  rt->launch("hotspot", {4, 4, 1}, {16, 16, 1}, args);
  // Output tracker: one segment per GPU (4), no fragmentation.
  EXPECT_EQ(t1->tracker().segmentCount(), 4u);
  rt->free(t0);
  rt->free(t1);
  rt->free(pw);
}

TEST(Runtime, HostToDeviceMemcpyDrainsInFlightKernels) {
  // cudaMemcpy is blocking: a host-to-device scatter must wait for kernels
  // that are still writing the device instances.  Regression test for the
  // scatter racing ahead of in-flight kernels in the timing model (the
  // barrier used to come only after the copies were issued).
  const i64 n = i64{1} << 22;

  // Baseline: the H2D scatter alone on an idle machine.
  double copySeconds = 0;
  {
    auto rt = makeRuntime(2, sim::ExecutionMode::TimingOnly);
    VirtualBuffer* y = rt->malloc(n * 8);
    double before = rt->elapsedSeconds();
    rt->memcpy(y, nullptr, n * 8, MemcpyKind::HostToDevice);
    copySeconds = rt->elapsedSeconds() - before;
    ASSERT_GT(copySeconds, 0);
  }

  auto rt = makeRuntime(2, sim::ExecutionMode::TimingOnly);
  VirtualBuffer* x = rt->malloc(n * 8);
  VirtualBuffer* y = rt->malloc(n * 8);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(2.0),
                      LaunchArg::ofBuffer(x), LaunchArg::ofBuffer(y)};
  rt->launch("saxpy", {n / 256, 1, 1}, {256, 1, 1}, args);
  double kernelDone = rt->elapsedSeconds();  // kernels still in flight
  rt->memcpy(y, nullptr, n * 8, MemcpyKind::HostToDevice);
  // The copies may only start after the kernels finish, so the total is at
  // least sequential (small slack for API-call bookkeeping differences).
  // Without the pre-scatter synchronize the copies overlap the kernels and
  // the total collapses towards max(kernel, copy) instead of the sum.
  EXPECT_GE(rt->elapsedSeconds(), kernelDone + 0.95 * copySeconds);
}

TEST(RuntimeDeathTest, DoubleFreeIsDiagnosed) {
  auto rt = makeRuntime(2);
  VirtualBuffer* vb = rt->malloc(64);
  rt->free(vb);
  EXPECT_DEATH(rt->free(vb), "double free of virtual buffer");
}

TEST(RuntimeDeathTest, FreeOfForeignPointerIsDiagnosed) {
  auto rt = makeRuntime(2);
  auto other = makeRuntime(2);
  VirtualBuffer* foreign = other->malloc(64);
  // A live buffer of a *different* runtime was never allocated by `rt`.
  EXPECT_DEATH(rt->free(foreign), "never allocated");
  other->free(foreign);
}

TEST(RuntimeDeathTest, FreeOfNullIsDiagnosed) {
  auto rt = makeRuntime(1);
  EXPECT_DEATH(rt->free(nullptr), "free of null virtual buffer");
}

TEST(Runtime, FreedRecordIsPrunedWhenTheHeapReusesTheAddress) {
  // Free/malloc in a tight loop so the allocator reuses addresses.  Each
  // reuse must evict the stale freed record: otherwise a later bad free of
  // the recycled pointer would be misdiagnosed as a double free of the
  // long-gone original buffer.
  auto rt = makeRuntime(2);
  bool reused = false;
  for (int i = 0; i < 64 && !reused; ++i) {
    VirtualBuffer* a = rt->malloc(64);
    rt->free(a);
    VirtualBuffer* b = rt->malloc(64);
    if (b == a) {
      reused = true;
      // The record of the old `a` is gone; only live-buffer state remains.
      EXPECT_EQ(rt->freedRecordCount(), 0u);
    }
    rt->free(b);
  }
  // ASan quarantines freed chunks, so reuse may legitimately never happen
  // there; on the regular allocator the tight loop recycles within a few
  // iterations and the assertion above runs.
  if (!reused)
    GTEST_SKIP() << "allocator never recycled an address; pruning not "
                    "exercisable under this allocator";
}

TEST(RuntimeDeathTest, FreedRecordListIsBoundedButStillCatchesRecentFrees) {
  auto rt = makeRuntime(2);
  // Keep every buffer live while allocating so no address is ever recycled,
  // then free them all: the record list must stay bounded instead of growing
  // one entry per free for the life of the runtime.
  std::vector<VirtualBuffer*> bufs;
  for (int i = 0; i < 300; ++i) bufs.push_back(rt->malloc(64));
  for (VirtualBuffer* b : bufs) rt->free(b);
  EXPECT_LE(rt->freedRecordCount(), 256u);
  EXPECT_GT(rt->freedRecordCount(), 0u);
  // The most recent free is still on record, so its double free is still
  // diagnosed precisely.
  EXPECT_DEATH(rt->free(bufs.back()), "double free of virtual buffer");
}

TEST(Runtime, SharedCopyTrackingSkipsRedundantBroadcasts) {
  // N-Body masses are read by every GPU and never written: with shared-copy
  // tracking the second iteration must not re-transfer them.
  ir::Module mod = apps::buildBenchmarkModule();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  auto run = [&](bool shared) {
    RuntimeConfig cfg;
    cfg.numGpus = 4;
    cfg.mode = sim::ExecutionMode::Functional;
    cfg.trackSharedCopies = shared;
    Runtime rt(cfg, model, mod);
    const i64 n = 256;
    std::vector<double> px(n, 1), py(n, 2), pz(n, 3), vx(n, 0), vy(n, 0), vz(n, 0),
        mass(n, 1);
    apps::NBodyState st{px.data(), py.data(), pz.data(),
                        vx.data(), vy.data(), vz.data(), mass.data()};
    apps::runNBody(rt, n, 4, st);
    return std::make_tuple(rt.stats().peerCopies, rt.stats().sharedCopyHits, px);
  };
  auto [copiesOff, hitsOff, pxOff] = run(false);
  auto [copiesOn, hitsOn, pxOn] = run(true);
  EXPECT_EQ(hitsOff, 0);
  EXPECT_GT(hitsOn, 0);
  EXPECT_LT(copiesOn, copiesOff);
  // Functional results are identical either way.
  EXPECT_EQ(pxOn, pxOff);
}

}  // namespace
}  // namespace polypart::rt
