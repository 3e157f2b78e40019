// google-benchmark microbenchmarks of the toolchain itself: hashing,
// preprocessing, parsing, IR round-trip, vectorization, VM execution, and
// the full IR-container build — the costs a deployment pays on the target
// system (cold pull = container build, §4.1).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <shared_mutex>

#include "apps/minillama.hpp"
#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "common/hashing.hpp"
#include "common/sha256.hpp"
#include "service/artifact_store.hpp"
#include "minicc/driver.hpp"
#include "minicc/vectorizer.hpp"
#include "service/build_farm.hpp"
#include "service/cluster.hpp"
#include "service/deploy_scheduler.hpp"
#include "service/distribution.hpp"
#include "service/fault.hpp"
#include "service/gateway.hpp"
#include "vm/executor.hpp"
#include "vm/program.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

namespace {

using namespace xaas;

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::sha256_hex(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024);

// The result digest the gateway computes per request, over the buffers of
// the three apps' apps_hot workloads. Its cost depends only on the bytes
// it encodes, so the workloads are hashed as built, without a run.
void BM_NumericsDigest(benchmark::State& state) {
  vm::Workload workload;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("minimd");
      workload = apps::minimd_workload(apps::minimd_test_a(240));
      break;
    case 1:
      state.SetLabel("minillama");
      workload = apps::minillama_workload({128, 4, 2});
      break;
    default:
      state.SetLabel("minilulesh");
      workload = apps::minilulesh_workload(2048, 16);
      break;
  }
  vm::RunResult run;
  run.ok = true;
  // The encoding's size (docs/SERVICE.md): eight fixed fields, then per
  // buffer its name, NUL, u64 count and 8-byte elements.
  std::size_t bytes = 8 * 8;
  for (const auto& [name, buffer] : workload.f64_buffers) {
    bytes += name.size() + 1 + 8 + 8 * buffer.size();
  }
  for (const auto& [name, buffer] : workload.i64_buffers) {
    bytes += name.size() + 1 + 8 + 8 * buffer.size();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::numerics_digest(run, workload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NumericsDigest)->DenseRange(0, 2);

const char* kKernel = R"(
double dot(double* a, double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }
  return acc;
}
)";

void BM_Preprocess(benchmark::State& state) {
  minicc::PreprocessOptions options;
  options.define("X=1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(minicc::preprocess_source(kKernel, options));
  }
}
BENCHMARK(BM_Preprocess);

void BM_CompileToIr(benchmark::State& state) {
  common::Vfs vfs;
  vfs.write("k.c", kKernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minicc::compile_to_ir(vfs, "k.c", {}));
  }
}
BENCHMARK(BM_CompileToIr);

void BM_IrRoundTrip(benchmark::State& state) {
  common::Vfs vfs;
  vfs.write("k.c", kKernel);
  const auto compiled = minicc::compile_to_ir(vfs, "k.c", {});
  const std::string text = minicc::ir::print(compiled.module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minicc::ir::parse_ir(text));
  }
}
BENCHMARK(BM_IrRoundTrip);

void BM_Vectorize(benchmark::State& state) {
  common::Vfs vfs;
  vfs.write("k.c", kKernel);
  const auto compiled = minicc::compile_to_ir(vfs, "k.c", {});
  for (auto _ : state) {
    auto module = compiled.module;
    benchmark::DoNotOptimize(
        minicc::vectorize_module(module, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_Vectorize)->Arg(2)->Arg(8);

// The vectorized dot kernel on the decoded machine, linked for AVX-512
// and bound to a Skylake-AVX512 node (on the AVX2-only devbox this would
// measure the illegal-instruction error path). Before timing, the result
// is checked bit-for-bit against the reference interpreter and any
// divergence fails the run (and the bench smoke gate) via SkipWithError
// — a decoded-tier regression cannot slip through as a number.
void BM_ExecutorDot(benchmark::State& state) {
  common::Vfs vfs;
  vfs.write("k.c", kKernel);
  minicc::TargetSpec target;
  target.visa = isa::VectorIsa::AVX_512;
  const auto compiled = minicc::compile_to_target(vfs, "k.c", {}, target);
  std::vector<minicc::MachineModule> modules{compiled.machine};
  const vm::Program program = vm::Program::link(std::move(modules));
  const vm::ExecutorOptions options;
  const vm::Executor exec(program, vm::node("ault23"), options);
  const auto n = static_cast<std::size_t>(state.range(0));
  vm::Workload w;
  w.entry = "dot";
  w.f64_buffers["a"] = std::vector<double>(n, 1.5);
  w.f64_buffers["b"] = std::vector<double>(n, 2.0);
  w.args = {vm::Workload::Arg::buf_f64("a"), vm::Workload::Arg::buf_f64("b"),
            vm::Workload::Arg::i64(static_cast<long long>(n))};

  {
    vm::ExecutorOptions ref_options = options;
    ref_options.reference_interpreter = true;
    vm::Workload w_ref = w;
    vm::Workload w_probe = w;
    const auto ref = vm::Executor(program, vm::node("ault23"), ref_options)
                         .run(w_ref);
    const auto probe = exec.run(w_probe);
    if (!ref.ok || !probe.ok ||
        std::memcmp(&ref.ret_f64, &probe.ret_f64, sizeof(double)) != 0 ||
        ref.instructions != probe.instructions ||
        ref.cycles_serial != probe.cycles_serial) {
      state.SkipWithError("executor tiers diverged from the reference");
      return;
    }
  }

  for (auto _ : state) {
    auto r = exec.run(w);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ExecutorDot)->Arg(1024)->Arg(16384);

// Bitwise equality of two workloads' buffers (NaN payloads and zero signs
// included, which operator== on doubles would not distinguish).
template <class T>
bool same_bits(const std::map<std::string, std::vector<T>>& a,
               const std::map<std::string, std::vector<T>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, va] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.size() != va.size()) return false;
    if (!va.empty() &&
        std::memcmp(va.data(), it->second.data(), va.size() * sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

// The three apps' apps_hot serving workloads (perfbench), each deployed
// from an IR container to ault23 and run single-threaded on the decoded
// machine. `ns_per_instr` is time per retired VM instruction, the
// per-layer cost perfbench reports as vm.ns_per_instr. As in
// BM_ExecutorDot, a first run is checked bit-for-bit against the
// reference interpreter (return value, cost counters, buffers) and any
// divergence fails the run and the bench smoke gate.
void run_app(benchmark::State& state, const Application& app,
             const IrBuildOptions& points,
             std::map<std::string, std::string> selections,
             const vm::Workload& workload) {
  const auto built = build_ir_container(app, isa::Arch::X86_64, points);
  if (!built.ok) {
    state.SkipWithError("IR container build failed");
    return;
  }
  IrDeployOptions options;
  options.selections = std::move(selections);
  const vm::NodeSpec& node = vm::node("ault23");
  const DeployedApp deployed = deploy_ir_container(built.image, node, options);
  if (!deployed.ok) {
    state.SkipWithError(deployed.error.c_str());
    return;
  }
  const vm::Executor exec(deployed.program, node, {}, deployed.decoded);

  vm::RunResult probe;
  {
    vm::ExecutorOptions ref_options;
    ref_options.reference_interpreter = true;
    vm::Workload w_ref = workload;
    vm::Workload w_probe = workload;
    const auto ref =
        vm::Executor(deployed.program, node, ref_options).run(w_ref);
    probe = exec.run(w_probe);
    if (!ref.ok || !probe.ok ||
        std::memcmp(&ref.ret_f64, &probe.ret_f64, sizeof(double)) != 0 ||
        ref.ret_i64 != probe.ret_i64 ||
        ref.instructions != probe.instructions ||
        ref.cycles_serial != probe.cycles_serial ||
        ref.cycles_parallel != probe.cycles_parallel ||
        ref.cycles_gpu != probe.cycles_gpu ||
        ref.fork_joins != probe.fork_joins ||
        !same_bits(w_ref.f64_buffers, w_probe.f64_buffers) ||
        !same_bits(w_ref.i64_buffers, w_probe.i64_buffers)) {
      state.SkipWithError("executor tiers diverged from the reference");
      return;
    }
  }

  for (auto _ : state) {
    state.PauseTiming();
    vm::Workload w = workload;
    state.ResumeTiming();
    auto r = exec.run(w);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r);
  }
  // kIsRate divides by the measured time and kInvert flips it: seconds
  // per 1e9 instructions, i.e. ns per instruction.
  state.counters["ns_per_instr"] = benchmark::Counter(
      static_cast<double>(probe.instructions) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["instructions"] = static_cast<double>(probe.instructions);
}

void BM_AppMinimd(benchmark::State& state) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  IrBuildOptions points;
  points.points = {{"MD_SIMD", {"AVX_512"}}};
  run_app(state, apps::make_minimd(app_options), points,
          {{"MD_SIMD", "AVX_512"}},
          apps::minimd_workload(apps::minimd_test_a(240)));
}
BENCHMARK(BM_AppMinimd)->Unit(benchmark::kMillisecond);

void BM_AppLulesh(benchmark::State& state) {
  IrBuildOptions points;
  points.points = {{"LULESH_MPI", {"OFF"}}, {"LULESH_OPENMP", {"ON"}}};
  run_app(state, apps::make_minilulesh(), points,
          {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}},
          apps::minilulesh_workload(2048, 16));
}
BENCHMARK(BM_AppLulesh)->Unit(benchmark::kMillisecond);

void BM_AppLlama(benchmark::State& state) {
  IrBuildOptions points;
  points.points = {{"LL_SIMD", {"AVX_512"}}, {"LL_BLAS", {"none"}}};
  run_app(state, apps::make_minillama(), points,
          {{"LL_SIMD", "AVX_512"}, {"LL_BLAS", "none"}},
          apps::minillama_workload({128, 4, 2}));
}
BENCHMARK(BM_AppLlama)->Unit(benchmark::kMillisecond);

void BM_IrContainerBuildLulesh(benchmark::State& state) {
  const Application app = apps::make_minilulesh();
  IrBuildOptions options;
  options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                    {"LULESH_OPENMP", {"OFF", "ON"}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_ir_container(app, isa::Arch::X86_64, options));
  }
}
BENCHMARK(BM_IrContainerBuildLulesh);

void BM_IrContainerBuildMinimd(benchmark::State& state) {
  apps::MinimdOptions app_options;
  app_options.module_count = static_cast<int>(state.range(0));
  app_options.gpu_module_count = 4;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions options;
  options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_ir_container(app, isa::Arch::X86_64, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * (state.range(0) + 11));
}
BENCHMARK(BM_IrContainerBuildMinimd)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// Fleet deployment of one IR image to N homogeneous simulated nodes —
// uncached (every node lowers from scratch) vs the DeployScheduler's
// specialization cache (one lowering, N-1 hits). The ratio of these two
// benchmarks is the serving-layer speedup recorded in BENCH_results.json.
struct FleetFixture {
  bool build_ok = false;
  container::Image image;
  std::vector<vm::NodeSpec> fleet;
  IrDeployOptions selection;

  static const FleetFixture& get() {
    static const FleetFixture fixture = [] {
      FleetFixture f;
      apps::MinimdOptions app_options;
      app_options.module_count = 24;
      app_options.gpu_module_count = 2;
      const Application app = apps::make_minimd(app_options);
      IrBuildOptions options;
      options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
      auto built = build_ir_container(app, isa::Arch::X86_64, options);
      f.build_ok = built.ok;
      f.image = std::move(built.image);
      f.selection.selections = {{"MD_SIMD", "AVX_512"}};
      f.fleet = vm::simulated_fleet(vm::node("ault23"), 64, "fleet-");
      return f;
    }();
    return fixture;
  }
};

void BM_FleetDeployUncached(benchmark::State& state) {
  const auto& f = FleetFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (!f.build_ok || nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("fleet fixture invalid (build failed or >64 nodes)");
    return;
  }
  for (auto _ : state) {
    for (int i = 0; i < nodes; ++i) {
      // Gate on ok so a deploy regression can't silently turn this into
      // a benchmark of the early-return error path.
      const auto deployed = deploy_ir_container(f.image, f.fleet[i],
                                                f.selection);
      if (!deployed.ok) state.SkipWithError(deployed.error.c_str());
      benchmark::DoNotOptimize(deployed);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_FleetDeployUncached)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FleetDeployCached(benchmark::State& state) {
  const auto& f = FleetFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (!f.build_ok || nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("fleet fixture invalid (build failed or >64 nodes)");
    return;
  }
  for (auto _ : state) {
    // The cache lives per iteration: each iteration pays one lowering
    // plus (nodes - 1) cache hits, the fleet-bootstrap cost.
    service::ShardedRegistry registry;
    registry.push(f.image, "bench:ir");
    // Pin the pool size so per-iteration thread spawn/join stays constant
    // across machines instead of scaling with hardware_concurrency().
    service::DeploySchedulerOptions sched_options;
    sched_options.threads = 4;
    service::DeployScheduler scheduler(registry, sched_options);
    std::vector<service::FleetDeployRequest> requests;
    for (int i = 0; i < nodes; ++i) {
      requests.push_back({f.fleet[i], "bench:ir", f.selection});
    }
    const auto results = scheduler.deploy_batch(std::move(requests));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_FleetDeployCached)->Arg(32)->Unit(benchmark::kMillisecond);

// Source-container build farm: one source image deployed to N nodes over
// four microarchitectures with per-group FFT selections — uncached
// (every node rebuilds the Fig. 6 flow from scratch) vs the BuildFarm's
// two-level cache (≤4 whole builds, TU dedup across the groups). The
// ratio is the source-path serving speedup in BENCH_results.json.
struct FarmFixture {
  container::Image image;
  std::shared_ptr<Application> app;
  std::vector<vm::NodeSpec> fleet;  // 8 nodes per microarch group
  std::vector<SourceDeployOptions> options;

  static const FarmFixture& get() {
    static const FarmFixture fixture = [] {
      FarmFixture f;
      apps::MinimdOptions app_options;
      app_options.module_count = 12;
      app_options.gpu_module_count = 1;
      f.app = std::make_shared<Application>(apps::make_minimd(app_options));
      f.image = build_source_image(*f.app, isa::Arch::X86_64);
      const struct {
        const char* node;
        const char* simd;
        const char* fft;
      } groups[] = {{"ault23", "AVX_512", "fftw3"},
                    {"aurora", "AVX_512", "mkl"},
                    {"ault25", "AVX2_256", "fftw3"},
                    {"devbox", "AVX2_256", "fftpack"}};
      for (const auto& group : groups) {
        SourceDeployOptions selection;
        selection.auto_specialize = false;
        selection.selections = {{"MD_SIMD", group.simd},
                                {"MD_FFT", group.fft}};
        for (auto& node : vm::simulated_fleet(vm::node(group.node), 8,
                                              std::string(group.node) +
                                                  "-farm-")) {
          f.fleet.push_back(std::move(node));
          f.options.push_back(selection);
        }
      }
      return f;
    }();
    return fixture;
  }
};

void BM_BuildFarmUncached(benchmark::State& state) {
  const auto& f = FarmFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("farm fixture too small");
    return;
  }
  for (auto _ : state) {
    for (int i = 0; i < nodes; ++i) {
      const auto deployed =
          deploy_source_container(f.image, *f.app, f.fleet[i], f.options[i]);
      if (!deployed.ok) state.SkipWithError(deployed.error.c_str());
      benchmark::DoNotOptimize(deployed);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_BuildFarmUncached)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BuildFarmCached(benchmark::State& state) {
  const auto& f = FarmFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("farm fixture too small");
    return;
  }
  for (auto _ : state) {
    // The farm lives per iteration: each iteration pays ≤4 whole builds
    // (TU-deduped across groups) plus cache hits — the fleet-bootstrap
    // cost of the source path.
    service::ShardedRegistry registry;
    registry.push(f.image, "bench:src");
    service::BuildFarmOptions farm_options;
    farm_options.threads = 4;
    service::BuildFarm farm(registry, farm_options);
    std::vector<service::SourceDeployRequest> requests;
    for (int i = 0; i < nodes; ++i) {
      requests.push_back({f.fleet[i], "bench:src", f.options[i]});
    }
    const auto results = farm.deploy_batch(std::move(requests));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_BuildFarmCached)->Arg(32)->Unit(benchmark::kMillisecond);

// End-to-end serving through the Gateway: N requests (mixed AVX-512 /
// SSE4.1 IR configurations) admitted, routed over a heterogeneous fleet,
// deployed through the warm specialization cache, and executed. This is
// the steady-state request loop — the lowerings happen in the first
// iteration, later ones measure admission + routing + cache hit + run.
void BM_GatewayServing(benchmark::State& state) {
  const auto& f = FleetFixture::get();
  const int requests = static_cast<int>(state.range(0));
  if (!f.build_ok) {
    state.SkipWithError("fleet fixture invalid (IR build failed)");
    return;
  }
  std::vector<vm::NodeSpec> fleet;
  for (auto& n : vm::simulated_fleet(vm::node("ault23"), 3, "gwbatch-")) {
    fleet.push_back(std::move(n));
  }
  for (auto& n : vm::simulated_fleet(vm::node("devbox"), 1, "gwedge-")) {
    fleet.push_back(std::move(n));
  }
  service::GatewayOptions options;
  options.worker_threads = 4;
  options.max_queue = static_cast<std::size_t>(requests);
  service::Gateway gateway(std::move(fleet), options);
  gateway.push(f.image, "bench:ir");
  for (auto _ : state) {
    std::vector<service::RunRequest> batch;
    batch.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      service::RunRequest request;
      request.image_reference = "bench:ir";
      request.selections = {{"MD_SIMD", i % 2 == 0 ? "AVX_512" : "SSE4.1"}};
      request.workload = apps::minimd_workload({64, 8, 2, 64});
      batch.push_back(std::move(request));
    }
    const auto results = gateway.run_all(std::move(batch));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          requests);
}
BENCHMARK(BM_GatewayServing)->Arg(32)->Unit(benchmark::kMillisecond);

// The same steady-state serving loop through the cluster front tier:
// range(0) gateways behind the consistent-hash router, range(1) requests
// per batch (mixed AVX-512 / SSE4.1 classes from several tenants). On
// top of BM_GatewayServing this pays ring lookup, token-bucket
// admission, WFQ ordering, and any work steals — the per-request cost of
// multi-tenant fan-out.
void BM_ClusterServing(benchmark::State& state) {
  const auto& f = FleetFixture::get();
  const auto gateways = static_cast<std::size_t>(state.range(0));
  const int requests = static_cast<int>(state.range(1));
  if (!f.build_ok) {
    state.SkipWithError("fleet fixture invalid (IR build failed)");
    return;
  }
  service::ClusterOptions options;
  options.gateways = gateways;
  options.dispatchers_per_gateway = 2;
  options.max_pending = static_cast<std::size_t>(requests);
  options.gateway.max_queue = static_cast<std::size_t>(requests);
  service::Cluster cluster(
      vm::simulated_fleet(vm::node("ault23"), 2 * gateways, "clnode-"),
      options);
  cluster.push(f.image, "bench:ir");
  static const char* kTenants[] = {"alice", "bob", "carol"};
  for (auto _ : state) {
    std::vector<service::RunRequest> batch;
    batch.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      service::RunRequest request;
      request.image_reference = "bench:ir";
      request.selections = {{"MD_SIMD", i % 2 == 0 ? "AVX_512" : "SSE4.1"}};
      request.workload = apps::minimd_workload({64, 8, 2, 64});
      request.tenant = kTenants[i % 3];
      batch.push_back(std::move(request));
    }
    const auto results = cluster.run_all(std::move(batch));
    for (const auto& r : results) {
      if (!r.result.ok) state.SkipWithError(r.result.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          requests);
}
BENCHMARK(BM_ClusterServing)->Args({4, 32})->Unit(benchmark::kMillisecond);

// Serving-plane read contention: 31 reader threads pull hot tags while
// thread 0 continuously re-pushes them (the 95/5 serving mix realised
// as a thread partition). BM_ReadContention runs the RCU-snapshot
// registry (the shipped read path); BM_ReadContentionBaseline runs an
// in-bench replica of the pre-refactor 16-shard shared_mutex design on
// the identical workload. items_per_second counts reads only — the
// ratio between the two entries is the bench/read_contention PASS
// gate's headline number (see docs/PERFORMANCE.md).
namespace read_contention {

constexpr int kHotKeys = 64;

struct Fixture {
  Fixture() {
    for (int i = 0; i < kHotKeys; ++i) {
      container::Image image;
      image.architecture = container::kArchLlvmIrAmd64;
      image.annotations["bench.key"] = std::to_string(i);
      auto shared = std::make_shared<const container::Image>(image);
      digests.push_back(shared->digest());
      images.push_back(std::move(shared));
      refs.push_back("bench/app:" + std::to_string(i));
    }
  }
  static const Fixture& get() {
    static Fixture fixture;
    return fixture;
  }
  std::vector<std::shared_ptr<const container::Image>> images;
  std::vector<std::string> digests;
  std::vector<std::string> refs;
};

/// Pre-refactor registry replica: 16-shard shared_mutex tag/blob maps,
/// three reader-lock acquisitions per pull (resolve + fetch).
struct LockedRegistry {
  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::string, std::shared_ptr<const container::Image>> images;
    std::map<std::string, std::string> tags;
  };
  static constexpr std::size_t kShards = 16;
  std::vector<Shard> shards{2 * kShards};

  Shard& blob_shard(const std::string& key) {
    return shards[common::shard_index(key, kShards)];
  }
  Shard& tag_shard(const std::string& key) {
    return shards[kShards + common::shard_index(key, kShards)];
  }
  void push(const Fixture& f, int i) {
    const auto idx = static_cast<std::size_t>(i % kHotKeys);
    {
      Shard& shard = blob_shard(f.digests[idx]);
      std::unique_lock lock(shard.mutex);
      shard.images[f.digests[idx]] = f.images[idx];
    }
    Shard& shard = tag_shard(f.refs[idx]);
    std::unique_lock lock(shard.mutex);
    shard.tags[f.refs[idx]] = f.digests[idx];
  }
  bool pull(const Fixture& f, int i) {
    const auto idx = static_cast<std::size_t>(i % kHotKeys);
    std::string digest;
    {
      Shard& shard = tag_shard(f.refs[idx]);
      std::shared_lock lock(shard.mutex);
      const auto it = shard.tags.find(f.refs[idx]);
      if (it == shard.tags.end()) return false;
      digest = it->second;
    }
    {
      Shard& shard = blob_shard(digest);
      std::shared_lock lock(shard.mutex);
      if (!shard.images.count(digest)) return false;
    }
    Shard& shard = blob_shard(digest);
    std::shared_lock lock(shard.mutex);
    return shard.images.find(digest) != shard.images.end();
  }
};

template <typename Registry, typename Read, typename Write>
void run_threads(benchmark::State& state, Registry& registry,
                 const Read& read, const Write& write) {
  const auto& f = Fixture::get();
  if (state.thread_index() == 0) {
    int i = 0;
    for (auto _ : state) write(registry, f, i++);
    state.SetItemsProcessed(0);  // writer: interference, not throughput
    return;
  }
  std::uint64_t reads = 0;
  int i = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(read(registry, f, i++));
    ++reads;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reads));
}

}  // namespace read_contention

void BM_ReadContention(benchmark::State& state) {
  namespace rc = read_contention;
  static service::ShardedRegistry* registry = [] {
    auto* r = new service::ShardedRegistry();
    const auto& f = rc::Fixture::get();
    for (int i = 0; i < rc::kHotKeys; ++i) r->push(f.images[i], f.refs[i]);
    return r;
  }();
  rc::run_threads(
      state, *registry,
      [](service::ShardedRegistry& r, const rc::Fixture& f, int i) {
        return r.pull(f.refs[static_cast<std::size_t>(i % rc::kHotKeys)]) !=
               nullptr;
      },
      [](service::ShardedRegistry& r, const rc::Fixture& f, int i) {
        const auto idx = static_cast<std::size_t>(i % rc::kHotKeys);
        r.push(f.images[idx], f.refs[idx]);
      });
}
BENCHMARK(BM_ReadContention)->Threads(32)->UseRealTime();

void BM_ReadContentionBaseline(benchmark::State& state) {
  namespace rc = read_contention;
  static rc::LockedRegistry* registry = [] {
    auto* r = new rc::LockedRegistry();
    for (int i = 0; i < rc::kHotKeys; ++i) r->push(rc::Fixture::get(), i);
    return r;
  }();
  rc::run_threads(
      state, *registry,
      [](rc::LockedRegistry& r, const rc::Fixture& f, int i) {
        return r.pull(f, i);
      },
      [](rc::LockedRegistry& r, const rc::Fixture& f, int i) {
        r.push(f, i);
      });
}
BENCHMARK(BM_ReadContentionBaseline)->Threads(32)->UseRealTime();

// The same serving loop under a deterministic FaultPlan: one batch node
// crashed, flaky TU builds and IR lowering. Measures what the
// reliability layer (breakers routing around the dead node, retry with
// capped backoff) costs relative to BM_GatewayServing; every result
// must still come back ok.
void BM_ChaosServing(benchmark::State& state) {
  const auto& f = FleetFixture::get();
  const int requests = static_cast<int>(state.range(0));
  if (!f.build_ok) {
    state.SkipWithError("fleet fixture invalid (IR build failed)");
    return;
  }
  std::vector<vm::NodeSpec> fleet;
  for (auto& n : vm::simulated_fleet(vm::node("ault23"), 3, "chbatch-")) {
    fleet.push_back(std::move(n));
  }
  for (auto& n : vm::simulated_fleet(vm::node("devbox"), 1, "chedge-")) {
    fleet.push_back(std::move(n));
  }
  service::fault::FaultPlan plan(42);
  plan.crash_node("chbatch-0");
  plan.set_probability(service::fault::kTuBuild, 0.05);
  plan.set_probability(service::fault::kIrLower, 0.05);
  service::GatewayOptions options;
  options.worker_threads = 4;
  options.max_queue = static_cast<std::size_t>(requests);
  options.retry.max_attempts = 8;
  service::Gateway gateway(std::move(fleet), options);
  gateway.push(f.image, "bench:ir");
  service::fault::ScopedFaultPlan guard(plan);
  for (auto _ : state) {
    std::vector<service::RunRequest> batch;
    batch.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      service::RunRequest request;
      request.image_reference = "bench:ir";
      request.selections = {{"MD_SIMD", i % 2 == 0 ? "AVX_512" : "SSE4.1"}};
      request.workload = apps::minimd_workload({64, 8, 2, 64});
      batch.push_back(std::move(request));
    }
    const auto results = gateway.run_all(std::move(batch));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
      if (r.node_name == "chbatch-0") {
        state.SkipWithError("request completed on the crashed node");
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          requests);
  state.counters["faults"] =
      static_cast<double>(plan.total_injected());
}
BENCHMARK(BM_ChaosServing)->Arg(32)->Unit(benchmark::kMillisecond);

// Warm-start tiers: the same 32-node single-microarch source fleet
// deployed by a fresh BuildFarm against (a) an empty artifact directory —
// every TU compiles, everything persists; (b) a populated directory —
// zero compiles, every specialization revives from disk; (c) a farm kept
// alive across iterations — the pure in-memory hit path. The Cold/Disk
// gap is what a gateway restart used to cost; the Disk/Memory gap is the
// deserialize+relink price of persistence.
struct WarmStartFixture {
  container::Image image;
  std::vector<vm::NodeSpec> fleet;
  SourceDeployOptions options;
  std::filesystem::path root;       // scratch root, removed at exit
  std::filesystem::path warm_dir;   // pre-populated store directory
  bool ok = false;

  static WarmStartFixture& get() {
    // Seeded in place: the fixture has a cleanup destructor, so it must
    // never travel through a return-by-value (a compiler skipping NRVO
    // would destroy the local and wipe the just-seeded warm directory).
    static WarmStartFixture fixture;
    static const bool seeded = [] {
      fixture.seed();
      return true;
    }();
    (void)seeded;
    return fixture;
  }

  void seed() {
    apps::MinimdOptions app_options;
    app_options.module_count = 12;
    app_options.gpu_module_count = 1;
    image = build_source_image(apps::make_minimd(app_options),
                               isa::Arch::X86_64);
    fleet = vm::simulated_fleet(vm::node("ault23"), 32, "warm-");
    options.auto_specialize = false;
    options.selections = {{"MD_SIMD", "AVX_512"}, {"MD_FFT", "fftw3"}};
    root = std::filesystem::temp_directory_path() /
           ("xaas-warm-bench-" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    warm_dir = root / "warm";

    // Populate the warm directory once with a throwaway farm.
    service::ArtifactStore store({warm_dir.string(), 0});
    service::ShardedRegistry registry;
    registry.push(image, "bench:warm");
    service::BuildFarmOptions farm_options;
    farm_options.threads = 4;
    farm_options.artifact_store = &store;
    service::BuildFarm farm(registry, farm_options);
    const auto seeded = farm.deploy(
        service::SourceDeployRequest{fleet.front(), "bench:warm", options});
    ok = seeded.ok;
  }

  ~WarmStartFixture() {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
};

std::vector<service::SourceDeployRequest> warm_requests(
    const WarmStartFixture& f, int nodes) {
  std::vector<service::SourceDeployRequest> requests;
  requests.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    requests.push_back({f.fleet[static_cast<std::size_t>(i)], "bench:warm",
                        f.options});
  }
  return requests;
}

void BM_WarmStartCold(benchmark::State& state) {
  auto& f = WarmStartFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (!f.ok || nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("warm-start fixture invalid");
    return;
  }
  std::uint64_t cold_seq = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // A fresh, empty store directory per iteration: the true restart-
    // with-no-artifacts cost (build everything, persist everything).
    const auto dir = f.root / ("cold-" + std::to_string(cold_seq++));
    state.ResumeTiming();
    service::ArtifactStore store({dir.string(), 0});
    service::ShardedRegistry registry;
    registry.push(f.image, "bench:warm");
    service::BuildFarmOptions farm_options;
    farm_options.threads = 4;
    farm_options.artifact_store = &store;
    service::BuildFarm farm(registry, farm_options);
    const auto results = farm.deploy_batch(warm_requests(f, nodes));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    if (farm.cache().lowerings() != 1) {
      state.SkipWithError("cold farm did not build exactly once");
    }
    state.PauseTiming();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_WarmStartCold)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_WarmStartDisk(benchmark::State& state) {
  auto& f = WarmStartFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (!f.ok || nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("warm-start fixture invalid");
    return;
  }
  for (auto _ : state) {
    // Fresh farm + store handle on the populated directory: the restart
    // path — every specialization revives from disk, nothing compiles.
    service::ArtifactStore store({f.warm_dir.string(), 0});
    service::ShardedRegistry registry;
    registry.push(f.image, "bench:warm");
    service::BuildFarmOptions farm_options;
    farm_options.threads = 4;
    farm_options.artifact_store = &store;
    service::BuildFarm farm(registry, farm_options);
    const auto results = farm.deploy_batch(warm_requests(f, nodes));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    if (farm.cache().lowerings() != 0 || farm.tu_compiles() != 0) {
      state.SkipWithError("warm farm compiled instead of reviving from disk");
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_WarmStartDisk)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_WarmStartMemory(benchmark::State& state) {
  auto& f = WarmStartFixture::get();
  const int nodes = static_cast<int>(state.range(0));
  if (!f.ok || nodes > static_cast<int>(f.fleet.size())) {
    state.SkipWithError("warm-start fixture invalid");
    return;
  }
  // One farm for the whole benchmark: after the first iteration every
  // request is an in-memory specialization-cache hit.
  service::ShardedRegistry registry;
  registry.push(f.image, "bench:warm");
  service::BuildFarmOptions farm_options;
  farm_options.threads = 4;
  service::BuildFarm farm(registry, farm_options);
  for (auto _ : state) {
    const auto results = farm.deploy_batch(warm_requests(f, nodes));
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes);
}
BENCHMARK(BM_WarmStartMemory)->Arg(32)->Unit(benchmark::kMillisecond);

// Registry replication at fleet scale: the builder store from the
// warm-start fixture synced twice to N cold peers over the distribution
// fabric. Naive replication (push_full) re-ships the whole store on
// every sync; the registry protocol (push_to) negotiates manifests, so
// the second sync ships nothing. The MB counter is total fabric traffic
// per iteration — the cold_fleet bench gates the full serving-path
// version of this comparison.
void replicate_fleet(benchmark::State& state, bool delta) {
  auto& f = WarmStartFixture::get();
  const int peers = static_cast<int>(state.range(0));
  if (!f.ok) {
    state.SkipWithError("warm-start fixture invalid");
    return;
  }
  std::uint64_t seq = 0;
  double mb = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string label = "dist-";
    label += std::to_string(seq++);
    const auto root = f.root / label;
    state.ResumeTiming();
    {
      service::DistributionFabric fabric;
      service::ArtifactStore builder_store({f.warm_dir.string(), 0});
      service::DistributionPeer builder("builder", builder_store, fabric);
      std::vector<std::unique_ptr<service::ArtifactStore>> stores;
      std::vector<std::unique_ptr<service::DistributionPeer>> fleet;
      for (int i = 0; i < peers; ++i) {
        std::string name = "node-";
        name += std::to_string(i);
        stores.push_back(std::make_unique<service::ArtifactStore>(
            service::ArtifactStoreOptions{(root / name).string(), 0}));
        fleet.push_back(std::make_unique<service::DistributionPeer>(
            name, *stores.back(), fabric));
      }
      for (auto& peer : fleet) {
        const auto first =
            delta ? builder.push_to(*peer) : builder.push_full(*peer);
        const auto second =
            delta ? builder.push_to(*peer) : builder.push_full(*peer);
        if (first.shipped == 0 || (delta && second.shipped != 0)) {
          state.SkipWithError("replication did not behave as expected");
        }
        benchmark::DoNotOptimize(second);
      }
      mb += static_cast<double>(fabric.stats().bytes_total()) /
            (1024.0 * 1024.0);
    }
    state.PauseTiming();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          peers);
  if (state.iterations() > 0) {
    state.counters["MB"] = mb / static_cast<double>(state.iterations());
  }
}

void BM_ColdFleetNaive(benchmark::State& state) {
  replicate_fleet(state, /*delta=*/false);
}
BENCHMARK(BM_ColdFleetNaive)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_ColdFleetDelta(benchmark::State& state) {
  replicate_fleet(state, /*delta=*/true);
}
BENCHMARK(BM_ColdFleetDelta)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Hash-heavy rows depend on which SHA-256 compressor this host selected.
  benchmark::AddCustomContext("sha256_impl",
                              xaas::common::sha256_implementation());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
