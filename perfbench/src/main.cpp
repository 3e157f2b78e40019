// Serving benchmark at the Cluster API.
//
// One process drives a service::Cluster (2 gateways x 2 dispatchers over 8
// simulated ault23 nodes) from a seeded load generator and prints one JSON
// line of metrics last:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--source <digest>]
//
// Workloads (see workload_defs): apps_hot (warm caches, the VM is nearly all
// service time) and cold_specialize (thousands of classes, deploy is nearly
// all service time).
//
// --trace 0 measures the end-to-end metrics over several episodes, each a
// freshly set-up service: set-up time, a closed-loop saturation phase of
// fixed length (throughput) and an open-loop phase at the workload's fixed
// arrival rate (latency from each request's scheduled send time, SLO
// attainment); see run_end_to_end for which episodes count.
// --trace 1 measures the per-layer metrics: an untraced and a traced
// closed-loop phase of equal length (their ratio is the tracing overhead),
// a traced open-loop phase (its p99 latency is reported here: it follows
// the host's CPU steal too closely to carry a regression bound), counter
// deltas read after drain, and a replay phase that times direct calls into
// each layer for the workload's classes. Spans are kept in memory and
// written as Chrome trace-event JSON.
//
// Layer -> metric -> the end-to-end figure it should move, and where:
//   cluster + fair_queue (admission): cluster.submit_us, cluster.wfq_wait_ms
//     -> latency and throughput where requests queue (the closed loop of
//     either workload); cluster.stolen_share -> latency_p99_ms on apps_hot
//     (stealing is off on cold_specialize, see WorkloadDef::steal).
//   gateway (rings, routing, retry): gateway.ring_wait_ms -> latency;
//     gateway.attempts_per_request -> ok_share everywhere.
//   specialization (deploy_scheduler, spec_cache, build_farm, compile_cache):
//     deploy_ms, spec_cache.*, tu_cache.* -> throughput and p50 on
//     cold_specialize, nothing on apps_hot.
//   lowering / TU compile (ir_deploy, source_container): ir_deploy.plan_us,
//     ir_deploy.lower_ms, source.build_ms -> cold_specialize latency.
//   store / peers (artifact_store, distribution): artifact_store.*_us and
//     distribution.*, timed by the replay phase on persistent stores joined
//     by a registry fabric -> cold_specialize latency once a service runs
//     with artifact_root set.
//   execution (vm/decoded, executor): vm.ns_per_instr, vm.run_ms ->
//     throughput and p50 on apps_hot; vm.decode_ms -> cold_specialize.
//   vm.instructions_per_request, and on workloads without stealing
//   spec_cache.misses and tu_cache.compiles, are exact counts that repeat
//   for a seed.
//
// Every run checks every answer against a reference digest computed by a
// direct deploy and a run on the reference interpreter, and reconciles the
// cluster's counters exactly after drain; either failing makes the run
// incorrect.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/minillama.hpp"
#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "build_info.hpp"
#include "harness.hpp"
#include "minicc/compile_cache.hpp"
#include "service/artifact_store.hpp"
#include "service/cluster.hpp"
#include "service/distribution.hpp"
#include "vm/decoded.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"
#include "xaas/source_container.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace xaas;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Fixture: images, request classes, tenants ------------------------------

struct ImageEntry {
  std::string reference;
  container::Image image;
  bool source = false;
  Application app;                  // what the image was built from
  IrImageManifest manifest;         // IR images: parsed once for replay
};

struct ClassDef {
  std::size_t image = 0;
  std::map<std::string, std::string> selections;
  std::optional<isa::VectorIsa> march;
  int opt_level = 2;
  std::size_t workload = 0;  // index into Fixture::workloads
};

struct Fixture {
  std::vector<ImageEntry> images;
  std::vector<vm::Workload> workloads;
  std::vector<ClassDef> classes;
  std::vector<std::string> tenants;
};

/// A distinct image of `app`: one extra function in its entry file changes
/// the IR, so the image digest (part of every specialization key) differs.
Application variant(Application app, int v) {
  if (v == 0) return app;
  for (const auto& [path, text] : app.source_tree) {
    if (text.find(app.entry_point + "(") == std::string::npos) continue;
    std::string patched = text + "\ndouble perfbench_variant_" +
                          std::to_string(v) + "(double x) {\n  return x * " +
                          std::to_string(v) + ".0;\n}\n";
    const std::string copy = path;
    app.source_tree.write(copy, std::move(patched));
    break;
  }
  app.name += "-v" + std::to_string(v);
  return app;
}

std::size_t add_ir_image(Fixture& f, const std::string& reference,
                         Application app, const IrBuildOptions& options) {
  auto build = build_ir_container(app, isa::Arch::X86_64, options);
  if (!build.ok) throw std::runtime_error("IR build failed: " + build.error);
  ImageEntry entry;
  entry.reference = reference;
  entry.manifest = read_ir_image_manifest(build.image);
  if (!entry.manifest.ok) {
    throw std::runtime_error("manifest: " + entry.manifest.error);
  }
  entry.image = std::move(build.image);
  entry.app = std::move(app);
  f.images.push_back(std::move(entry));
  return f.images.size() - 1;
}

std::size_t add_source_image(Fixture& f, const std::string& reference,
                             Application app) {
  ImageEntry entry;
  entry.reference = reference;
  entry.image = build_source_image(app, isa::Arch::X86_64);
  entry.source = true;
  entry.app = std::move(app);
  f.images.push_back(std::move(entry));
  return f.images.size() - 1;
}

Application small_minimd() {
  apps::MinimdOptions options;
  options.module_count = 4;
  options.gpu_module_count = 1;
  return apps::make_minimd(options);
}

IrBuildOptions md_points() {
  IrBuildOptions o;
  o.points = {{"MD_SIMD", {"SSE4.1", "AVX2_256", "AVX_512"}}};
  o.threads = 1;
  return o;
}
IrBuildOptions llama_points() {
  IrBuildOptions o;
  o.points = {{"LL_SIMD", {"SSE4.1", "AVX2_256", "AVX_512"}},
              {"LL_BLAS", {"none", "openblas"}}};
  o.threads = 1;
  return o;
}
IrBuildOptions lulesh_points() {
  IrBuildOptions o;
  o.points = {{"LULESH_MPI", {"OFF", "ON"}}, {"LULESH_OPENMP", {"OFF", "ON"}}};
  o.threads = 1;
  return o;
}

/// apps_hot: the three apps, warm, two tenants; each request's VM run takes
/// 3-4 ms (about 250k instructions), so the VM is nearly all service time.
/// The mix draws its classes equally often, and their run times differ; an
/// odd number of classes puts the median latency inside one class's band
/// rather than in the gap between two, where it jumped from run to run.
Fixture make_apps_hot() {
  Fixture f;
  f.tenants = {"alice", "bob"};
  const auto md = add_ir_image(f, "spcl/minimd:ir", small_minimd(), md_points());
  const auto ll =
      add_ir_image(f, "spcl/minillama:ir", apps::make_minillama(), llama_points());
  const auto lu = add_ir_image(f, "spcl/minilulesh:ir", apps::make_minilulesh(),
                               lulesh_points());
  const auto lu_src =
      add_source_image(f, "spcl/minilulesh:src", apps::make_minilulesh());
  f.workloads = {apps::minimd_workload(apps::minimd_test_a(240)),
                 apps::minillama_workload({128, 4, 2}),
                 apps::minilulesh_workload(2048, 16)};
  f.classes = {
      {md, {{"MD_SIMD", "AVX_512"}}, std::nullopt, 2, 0},
      {md, {{"MD_SIMD", "SSE4.1"}}, std::nullopt, 2, 0},
      {ll, {{"LL_SIMD", "AVX_512"}, {"LL_BLAS", "none"}}, std::nullopt, 2, 1},
      {ll, {{"LL_SIMD", "AVX2_256"}, {"LL_BLAS", "none"}}, std::nullopt, 2, 1},
      {ll, {{"LL_SIMD", "SSE4.1"}, {"LL_BLAS", "none"}}, std::nullopt, 2, 1},
      {lu, {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}}, std::nullopt, 2, 2},
      {lu_src, {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}},
       isa::VectorIsa::AVX2_256, 2, 2},
  };
  return f;
}

/// cold_specialize: thousands of classes over generated IR images of all
/// three apps plus minilulesh source images, each with a tiny VM run.
Fixture make_cold_specialize() {
  Fixture f;
  f.tenants = {"alice", "bob"};
  f.workloads = {apps::minimd_workload({16, 4, 1, 8}),
                 apps::minillama_workload({16, 2, 1}),
                 apps::minilulesh_workload(16, 1)};
  std::vector<isa::VectorIsa> marches;
  const isa::VectorIsa best = vm::node("ault23").best_vector_isa();
  for (const auto level : isa::ladder_for(isa::Arch::X86_64)) {
    if (isa::runs_on(level, best)) marches.push_back(level);
  }
  const auto add_classes = [&](std::size_t image,
                               const std::vector<std::map<std::string, std::string>>&
                                   configs,
                               std::size_t workload) {
    for (const auto& selections : configs) {
      for (const auto march : marches) {
        for (int opt = 0; opt <= 3; ++opt) {
          f.classes.push_back({image, selections, march, opt, workload});
        }
      }
    }
  };
  std::vector<std::map<std::string, std::string>> md_configs, ll_configs,
      lu_configs;
  for (const char* simd : {"SSE4.1", "AVX2_256", "AVX_512"}) {
    md_configs.push_back({{"MD_SIMD", simd}});
    for (const char* blas : {"none", "openblas"}) {
      ll_configs.push_back({{"LL_SIMD", simd}, {"LL_BLAS", blas}});
    }
  }
  for (const char* mpi : {"OFF", "ON"}) {
    for (const char* omp : {"OFF", "ON"}) {
      lu_configs.push_back({{"LULESH_MPI", mpi}, {"LULESH_OPENMP", omp}});
    }
  }
  constexpr int kIrVariants = 18;
  constexpr int kSourceVariants = 12;
  const Application md = small_minimd();
  const Application ll = apps::make_minillama();
  const Application lu = apps::make_minilulesh();
  for (int v = 0; v < kIrVariants; ++v) {
    const std::string tag = ":ir-v" + std::to_string(v);
    add_classes(add_ir_image(f, "gen/minimd" + tag, variant(md, v), md_points()),
                md_configs, 0);
    add_classes(
        add_ir_image(f, "gen/minillama" + tag, variant(ll, v), llama_points()),
        ll_configs, 1);
    add_classes(
        add_ir_image(f, "gen/minilulesh" + tag, variant(lu, v), lulesh_points()),
        lu_configs, 2);
  }
  for (int v = 0; v < kSourceVariants; ++v) {
    add_classes(add_source_image(f, "gen/minilulesh:src-v" + std::to_string(v),
                                 variant(lu, 100 + v)),
                lu_configs, 2);
  }
  return f;
}

// ---- Workload definitions -----------------------------------------------------

struct WorkloadDef {
  std::string name;
  Fixture (*make)();
  /// Work stealing between gateways. The caches live in memory, so a
  /// stolen class is new to the thief's cache and is lowered again, which
  /// would make spec_cache.misses depend on timing.
  bool steal = true;
  double repeat_share = 0.0;  // cold: share of repeats of earlier classes
  double open_rate = 100.0;   // open loop: requests per second
  double slo_ms = 50.0;       // open loop: per-request latency limit
  double nominal_rps = 400.0;  // sizes the traced run's fixed phases
  /// Warm caches: set-up serves one request per class, then
  /// `warm_requests` more of the mix.
  bool warm = false;
  std::size_t warm_requests = 0;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    WorkloadDef hot;
    hot.name = "apps_hot";
    hot.make = make_apps_hot;
    hot.open_rate = 250.0;
    hot.slo_ms = 30.0;
    hot.nominal_rps = 700.0;
    hot.warm = true;
    hot.warm_requests = 200;
    d.push_back(hot);

    WorkloadDef cold;
    cold.name = "cold_specialize";
    cold.make = make_cold_specialize;
    cold.repeat_share = 0.25;
    cold.steal = false;
    cold.open_rate = 300.0;
    cold.slo_ms = 20.0;
    cold.nominal_rps = 1500.0;
    d.push_back(cold);

    return d;
  }();
  return defs;
}

constexpr std::size_t kRepeatGap = 1024;
// Closed loop: generator threads (at most nproc are started) and the
// requests each keeps outstanding.
constexpr std::size_t kClients = 4;
constexpr std::size_t kDepth = 2;
// Open loop: at least this many requests per episode, so each has a p99.
constexpr std::size_t kOpenMin = 1000;
constexpr int kServiceNice = 10;
constexpr int kOpenAttempts = 3;
// End-to-end episodes (see run_end_to_end).
constexpr int kKeptEpisodes = 3;
constexpr int kMaxEpisodes = 6;
// Closed-loop throughput: median rate over this many slices of a phase.
constexpr std::size_t kRateSlices = 8;
constexpr double kQuietSteal = 0.03;

// ---- The serving system under test -----------------------------------------

service::RunRequest request_for(const Fixture& f, const ClassDef& cls,
                                const std::string& tenant) {
  service::RunRequest request;
  request.image_reference = f.images[cls.image].reference;
  request.selections = cls.selections;
  request.march = cls.march;
  request.opt_level = cls.opt_level;
  request.auto_specialize = false;
  request.workload = f.workloads[cls.workload];
  request.tenant = tenant;
  return request;
}

struct System {
  Fixture fixture;
  std::vector<Draw> stream;
  std::unique_ptr<service::Cluster> cluster;
  std::uint64_t setup_instructions = 0;  // retired by warm-up on `cluster`
};

service::ClusterOptions cluster_options(const WorkloadDef& def,
                                        const Fixture& f) {
  service::ClusterOptions options;
  options.gateways = 2;
  options.dispatchers_per_gateway = 2;
  options.max_pending = 1 << 16;
  options.steal = def.steal;
  options.gateway.max_queue = 4096;
  for (std::size_t t = 0; t < f.tenants.size(); ++t) {
    options.tenant_quotas[f.tenants[t]] = {1e9, 1e9, 1.0};
  }
  return options;
}

std::unique_ptr<service::Cluster> make_cluster(const WorkloadDef& def,
                                               const Fixture& f) {
  auto cluster = std::make_unique<service::Cluster>(
      vm::simulated_fleet(vm::node("ault23"), 8, "node-"),
      cluster_options(def, f));
  for (const auto& image : f.images) cluster->push(image.image, image.reference);
  return cluster;
}

/// Lower the scheduling priority of every other thread of this process (the
/// cluster's dispatchers and workers) below the calling thread's, so the
/// load generator sends on time and does not wait behind the system it
/// measures. Threads the system starts later inherit the nice value of
/// their creator; each phase calls this again.
void deprioritize_other_threads() {
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry.path().filename().c_str()));
    if (tid > 0 && tid != self) {
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), kServiceNice);
    }
  }
}

/// Serve a set-up batch; returns the VM instructions it retired.
std::uint64_t serve_all(service::Cluster& cluster,
                        std::vector<service::RunRequest> batch) {
  std::uint64_t instructions = 0;
  for (const auto& result : cluster.run_all(std::move(batch))) {
    if (!result.result.ok) {
      throw std::runtime_error("set-up request failed: " + result.result.error);
    }
    instructions += static_cast<std::uint64_t>(result.result.run.instructions);
  }
  return instructions;
}

/// Image builds, cluster construction and warm-up.
System set_up(const WorkloadDef& def, std::uint64_t seed) {
  System sys;
  sys.fixture = def.make();
  const Fixture& f = sys.fixture;
  sys.cluster = make_cluster(def, f);
  if (def.warm) {
    std::vector<service::RunRequest> batch;
    for (std::size_t c = 0; c < f.classes.size(); ++c) {
      batch.push_back(request_for(f, f.classes[c], f.tenants[c % f.tenants.size()]));
    }
    sys.setup_instructions += serve_all(*sys.cluster, std::move(batch));
    batch.clear();
    const auto warm = mix_stream(seed ^ 0x7761726dULL, def.warm_requests,
                                 std::vector<double>(f.classes.size(), 1.0),
                                 std::vector<std::uint32_t>(f.classes.size(), 0));
    for (const auto& draw : warm) {
      batch.push_back(request_for(f, f.classes[draw.cls],
                                  f.tenants[draw.cls % f.tenants.size()]));
    }
    sys.setup_instructions += serve_all(*sys.cluster, std::move(batch));
  }
  return sys;
}

std::vector<Draw> make_stream(const WorkloadDef& def, const Fixture& f,
                              std::uint64_t seed, std::size_t length) {
  if (!def.warm) {
    return cold_stream(seed, length, f.classes.size(), def.repeat_share,
                       kRepeatGap,
                       static_cast<std::uint32_t>(f.tenants.size()));
  }
  std::vector<std::uint32_t> tenant_of(f.classes.size());
  for (std::size_t c = 0; c < tenant_of.size(); ++c) {
    tenant_of[c] = static_cast<std::uint32_t>(c % f.tenants.size());
  }
  return mix_stream(seed, length, std::vector<double>(f.classes.size(), 1.0),
                    tenant_of);
}

// ---- Load generation ----------------------------------------------------------

/// What the benchmark keeps of one request.
struct Sample {
  std::size_t index = 0;  // position in the stream
  std::uint32_t cls = 0;
  int thread = 0;
  double t_sched = 0.0;  // scheduled send (open loop), else = t_call
  double t_call = 0.0;   // submit() entered, seconds since epoch
  double submit_s = 0.0;
  bool ok = false;
  bool stolen = false;
  int attempts = 0;
  std::uint32_t digest = 0;  // interned numerics digest, see Generator
  long long instructions = 0;
  double cluster_total_s = 0.0, gateway_total_s = 0.0, queue_s = 0.0,
         deploy_s = 0.0, run_s = 0.0;
  std::string error;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<Span> spans;  // traced phases only
  double wall_seconds = 0.0;
};

/// The spans of one completed request, placed from the stage durations the
/// cluster returns: request > {submit, cluster_wait, gateway > {gateway_ring,
/// deploy, run}}. Admission is stamped when submit() is entered.
void add_spans(const Sample& s, std::vector<Span>& out) {
  const std::uint64_t base = (static_cast<std::uint64_t>(s.index) + 1) * 8;
  const std::uint64_t request = s.index + 1;
  const auto span = [&](const char* name, std::uint64_t offset,
                        std::uint64_t parent, double start, double end) {
    out.push_back({name, base + offset, parent, request, start,
                   std::max(start, end), s.thread});
  };
  const double t = s.t_call;
  const double end = t + std::max(s.submit_s, s.cluster_total_s);
  const double wfq = s.cluster_total_s - s.gateway_total_s;
  span("request", 0, 0, t, end);
  span("submit", 1, base, t, t + s.submit_s);
  span("cluster_wait", 2, base, t + s.submit_s, t + std::max(s.submit_s, wfq));
  const double gw = end - s.gateway_total_s;
  span("gateway", 3, base, gw, end);
  span("gateway_ring", 4, base + 3, gw, gw + s.queue_s);
  span("deploy", 5, base + 3, gw + s.queue_s, gw + s.queue_s + s.deploy_s);
  span("run", 6, base + 3, gw + s.queue_s + s.deploy_s,
       gw + s.queue_s + s.deploy_s + s.run_s);
}

class Generator {
public:
  Generator(service::Cluster& cluster, const Fixture& f,
            const std::vector<Draw>& stream, Clock::time_point epoch)
      : cluster_(cluster), f_(f), stream_(stream), epoch_(epoch) {}

  /// Closed loop: `clients` threads each keep `depth` requests outstanding
  /// (waiting on their oldest) until `count` requests were sent.
  Phase closed(std::size_t clients, std::size_t depth, std::size_t count) {
    deprioritize_other_threads();
    const std::size_t first = cursor_;
    const std::size_t last = first + count;
    std::atomic<std::size_t> next{first};
    std::vector<std::vector<Sample>> per_client(clients);
    std::vector<std::vector<Span>> per_client_spans(clients);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::deque<std::pair<Sample, std::future<service::ClusterRunResult>>> window;
        const auto retire = [&] {
          auto& [sample, future] = window.front();
          record(sample, future.get());
          if (traced_) add_spans(sample, per_client_spans[c]);
          per_client[c].push_back(std::move(sample));
          window.pop_front();
        };
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= last) break;
          Sample sample;
          sample.index = i;
          sample.cls = stream_[i].cls;
          sample.thread = static_cast<int>(c) + 1;
          auto request = request_for(f_, f_.classes[sample.cls],
                                     f_.tenants[stream_[i].tenant]);
          const auto t_call = Clock::now();
          auto future = cluster_.submit(std::move(request));
          const auto t_ret = Clock::now();
          sample.t_call = sample.t_sched = seconds_between(epoch_, t_call);
          sample.submit_s = seconds_between(t_call, t_ret);
          window.emplace_back(std::move(sample), std::move(future));
          if (window.size() >= depth) retire();
        }
        while (!window.empty()) retire();
      });
    }
    for (auto& thread : threads) thread.join();
    Phase phase;
    phase.wall_seconds = seconds_between(t0, Clock::now());
    for (std::size_t c = 0; c < clients; ++c) {
      for (auto& s : per_client[c]) phase.samples.push_back(std::move(s));
      phase.spans.insert(phase.spans.end(), per_client_spans[c].begin(),
                         per_client_spans[c].end());
    }
    std::sort(phase.samples.begin(), phase.samples.end(),
              [](const Sample& a, const Sample& b) { return a.index < b.index; });
    cursor_ = last;
    return phase;
  }

  /// Open loop: the calling thread sends `count` requests on a fixed
  /// schedule of `rate` per second whatever the completions do. Between
  /// sends it retires the requests that already completed; their timings
  /// come from the results, so retiring late changes no figure.
  Phase open(double rate, std::size_t count) {
    deprioritize_other_threads();
    Phase phase;
    std::deque<std::pair<Sample, std::future<service::ClusterRunResult>>> inflight;
    const auto retire_front = [&] {
      auto& [sample, future] = inflight.front();
      record(sample, future.get());
      if (traced_) add_spans(sample, phase.spans);
      phase.samples.push_back(std::move(sample));
      inflight.pop_front();
    };
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = cursor_++;
      const auto scheduled =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(k) / rate));
      Sample sample;
      sample.index = i;
      sample.cls = stream_[i].cls;
      auto request = request_for(f_, f_.classes[sample.cls],
                                 f_.tenants[stream_[i].tenant]);
      while (!inflight.empty() &&
             inflight.front().second.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        retire_front();
      }
      std::this_thread::sleep_until(scheduled);
      const auto t_call = Clock::now();
      auto future = cluster_.submit(std::move(request));
      const auto t_ret = Clock::now();
      sample.t_sched = seconds_between(epoch_, scheduled);
      sample.t_call = seconds_between(epoch_, t_call);
      sample.submit_s = seconds_between(t_call, t_ret);
      inflight.emplace_back(std::move(sample), std::move(future));
    }
    while (!inflight.empty()) retire_front();
    phase.wall_seconds = seconds_between(t0, Clock::now());
    return phase;
  }

  std::size_t cursor() const { return cursor_; }
  const std::string& digest(std::uint32_t id) const { return digests_[id]; }
  /// Record spans for the phases that follow.
  void set_traced(bool traced) { traced_ = traced; }

private:
  void record(Sample& s, service::ClusterRunResult&& r) {
    s.ok = r.result.ok;
    s.stolen = r.stolen;
    s.attempts = r.result.attempts;
    s.instructions = r.result.run.instructions;
    s.cluster_total_s = r.total_seconds;
    s.gateway_total_s = r.result.total_seconds;
    s.queue_s = r.result.queue_seconds;
    s.deploy_s = r.result.deploy_seconds;
    s.run_s = r.result.run_seconds;
    if (!s.ok) s.error = r.result.error;
    // Digests repeat per class; keeping one copy of each keeps the harness's
    // own memory out of the peak RSS figure.
    std::lock_guard lock(digest_mutex_);
    const auto [it, added] = digest_ids_.try_emplace(
        std::move(r.result.numerics_digest),
        static_cast<std::uint32_t>(digests_.size()));
    if (added) digests_.push_back(it->first);
    s.digest = it->second;
  }

  service::Cluster& cluster_;
  const Fixture& f_;
  const std::vector<Draw>& stream_;
  Clock::time_point epoch_;
  std::size_t cursor_ = 0;
  bool traced_ = false;
  std::mutex digest_mutex_;
  std::unordered_map<std::string, std::uint32_t> digest_ids_;
  std::vector<std::string> digests_;
};

// ---- Correctness --------------------------------------------------------------

/// A direct deployment of one class on the reference node, outside any
/// cache of the system under test.
DeployedApp direct_deploy(const Fixture& f, const ClassDef& cls,
                          const vm::NodeSpec& node) {
  const ImageEntry& image = f.images[cls.image];
  if (image.source) {
    SourceDeployOptions options;
    options.selections = cls.selections;
    options.auto_specialize = false;
    options.march = cls.march;
    options.opt_level = cls.opt_level;
    return deploy_source_container(image.image, image.app, node, options);
  }
  IrDeployOptions options;
  options.selections = cls.selections;
  options.march = cls.march;
  options.opt_level = cls.opt_level;
  return deploy_ir_container(image.image, node, options);
}

/// Reference digests of `classes`, run on the reference interpreter (not
/// the decoded tier under test), computed on up to nproc threads.
std::map<std::uint32_t, std::string> reference_digests(
    const Fixture& f, const std::vector<std::uint32_t>& classes) {
  std::map<std::uint32_t, std::string> out;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(classes.size(),
                                                     std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      const vm::NodeSpec node = vm::node("ault23");
      for (std::size_t i = next++; i < classes.size(); i = next++) {
        const ClassDef& cls = f.classes[classes[i]];
        std::string digest = "deploy-failed";
        const DeployedApp app = direct_deploy(f, cls, node);
        if (app.ok) {
          vm::Workload workload = f.workloads[cls.workload];
          vm::ExecutorOptions exec;
          exec.reference_interpreter = true;
          const auto run = app.run_on(node, workload, exec);
          digest = run.ok ? service::numerics_digest(run, workload)
                          : "run-failed: " + run.error;
        } else {
          digest += ": " + app.error;
        }
        std::lock_guard lock(mutex);
        out[classes[i]] = digest;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return out;
}

struct Verdict {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  bool correct() const { return problems.empty(); }
};

/// Compare every completed request's digest with its class's reference.
/// `refs` persists across the episodes of a run (their fixtures are built
/// from one seed, so class indices agree); only new classes are computed.
void check_answers(const Fixture& f, const Generator& gen,
                   const std::vector<const Phase*>& phases,
                   std::map<std::uint32_t, std::string>* refs, Verdict* v) {
  std::vector<std::uint32_t> missing;
  for (const Phase* p : phases) {
    for (const Sample& s : p->samples) {
      if (s.ok && refs->count(s.cls) == 0) missing.push_back(s.cls);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  refs->merge(reference_digests(f, missing));
  std::string first_failure;
  std::size_t mismatches = 0;
  for (const Phase* p : phases) {
    for (const Sample& s : p->samples) {
      ++v->attempted;
      if (!s.ok) {
        ++v->failed;
        if (first_failure.empty()) first_failure = s.error;
        continue;
      }
      if (gen.digest(s.digest) != refs->at(s.cls)) ++mismatches;
    }
  }
  if (mismatches > 0) {
    v->problems.push_back(std::to_string(mismatches) +
                          " numerics digests differ from the reference");
  }
  // Quotas are unlimited and nothing is shed on these workloads, so every
  // request must complete.
  if (!first_failure.empty()) {
    v->problems.push_back(std::to_string(v->failed) + " of " +
                          std::to_string(v->attempted) +
                          " requests failed (first: " + first_failure + ")");
  }
}

// ---- Counters after drain -----------------------------------------------------

using service::telemetry::MetricsSnapshot;

struct Snapshots {
  MetricsSnapshot cluster;
  std::vector<MetricsSnapshot> gateways;

  std::uint64_t gateway_sum(const std::string& name) const {
    std::uint64_t total = 0;
    for (const auto& g : gateways) total += g.counter(name);
    return total;
  }
  /// Mean seconds of a gateway histogram, over every gateway.
  double histogram_mean(const std::string& name) const {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& g : gateways) {
      const auto it = g.histograms.find(name);
      if (it == g.histograms.end()) continue;
      sum += it->second.sum_seconds;
      count += it->second.count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

Snapshots snapshots_of(service::Cluster& cluster) {
  Snapshots s;
  s.cluster = cluster.snapshot();
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    s.gateways.push_back(cluster.gateway(g).snapshot());
  }
  return s;
}

std::int64_t never_seen_in(const std::vector<Draw>& stream, std::size_t upto) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < upto; ++i) n += stream[i].never_seen ? 1 : 0;
  return n;
}

void check_reconciliation(const WorkloadDef& def, const System& sys,
                          const Snapshots& after,
                          const std::vector<const Phase*>& phases,
                          std::size_t consumed, Verdict* v) {
  Counts counts;
  counts_from_snapshots(after.cluster, after.gateways, &counts);
  counts.result_instructions = sys.setup_instructions;
  for (const Phase* p : phases) {
    for (const Sample& s : p->samples) {
      counts.result_instructions += static_cast<std::uint64_t>(s.instructions);
    }
  }
  if (!def.warm) counts.expected_misses = never_seen_in(sys.stream, consumed);
  for (const auto& line : reconcile(counts)) {
    v->problems.push_back("reconciliation: " + line);
  }
}

// ---- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string result_json(const Verdict& v, const std::vector<Metric>& metrics) {
  return "{\"correct\": " + std::string(v.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::size_t>(v.attempted, 1)) +
         ", \"failed\": " + std::to_string(v.failed) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out_dir = ".bench_build/perfbench/out";
  std::string commit = "unknown";
  std::string source = "unknown";  // digest of the sources, see run.py
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint_json(const Args& args) {
  const CoreBuild core = core_build();
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
    << ", \"compiler\": \"" << json_escape(core.compiler) << "\""
    << ", \"build_type\": \"" << core.build_type << "\""
    << ", \"assertions\": " << (core.assertions ? "true" : "false")
    << ", \"sanitizer\": \"" << core.sanitizer << "\""
    << ", \"commit\": \"" << json_escape(args.commit) << "\""
    << ", \"source\": \"" << json_escape(args.source) << "\""
    << ", \"workload\": \"" << args.workload << "\""
    << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
    << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return o.str();
}

/// Share of CPU time the hypervisor stole from the machine since `since`
/// (both from /proc/stat; 0 where it is unavailable). Runs with a large
/// share measured a contended host, not the program.
std::vector<double> cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<double> times;
  in >> cpu;
  for (double t; times.size() < 8 && in >> t;) times.push_back(t);
  return times;
}

double steal_share(const std::vector<double>& since) {
  const std::vector<double> now = cpu_times();
  if (now.size() < 8 || since.size() < 8) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < 8; ++i) total += now[i] - since[i];
  return total > 0.0 ? (now[7] - since[7]) / total : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Generator lag of an open-loop phase, seconds per request.
std::vector<double> lags_of(const Phase& phase) {
  std::vector<double> lags;
  for (const Sample& s : phase.samples) lags.push_back(s.t_call - s.t_sched);
  return lags;
}

/// Whether the generator fell behind its schedule: its median lateness
/// exceeds a tenth of the workload's latency limit. (A stall of the whole
/// machine delays the generator and the service alike and shows in the
/// lag tail, harness.gen_lag_p99_ms; a generator that cannot keep the
/// rate is late on most sends.)
bool fell_behind(const WorkloadDef& def, const Phase& open) {
  const double lag_p50 = quantile(lags_of(open), 0.5);
  std::fprintf(stderr,
               "perfbench: open loop %zu requests at %g/s, generator lag p50 "
               "%.3f ms p99 %.3f ms\n",
               open.samples.size(), def.open_rate, lag_p50 * 1e3,
               quantile(lags_of(open), 0.99) * 1e3);
  return lag_p50 > 0.1 * def.slo_ms * 1e-3;
}

/// Closed-loop requests per episode: fixed, so every run of a seed does the
/// same work, sized so the closed phases of the kept episodes take about a
/// third of `seconds` at the nominal rate.
std::size_t closed_count(const WorkloadDef& def, double seconds) {
  return std::max<std::size_t>(
      500, static_cast<std::size_t>(def.nominal_rps * seconds / 3.0 / kKeptEpisodes));
}

/// Open-loop requests per episode: about 60% of `seconds` over the kept
/// episodes at the arrival rate, and never fewer than kOpenMin.
std::size_t open_count(const WorkloadDef& def, double seconds) {
  return std::max(kOpenMin, static_cast<std::size_t>(
                                    def.open_rate * seconds * 0.6 / kKeptEpisodes));
}

std::size_t stream_length(const WorkloadDef& def, double seconds) {
  return 2 * closed_count(def, seconds) + kOpenAttempts * open_count(def, seconds);
}

/// The open-loop phase, run again (up to kOpenAttempts times) while the
/// generator fell behind: a late generator says nothing about the system,
/// so its phase is left out of the latency figures rather than reported as
/// a slow system. Its requests still count for correctness and
/// reconciliation. The last attempt is the one reported; if it fell behind
/// too, the run is invalid.
std::vector<Phase> open_phases(Generator& gen, const WorkloadDef& def,
                               double seconds, Verdict* v) {
  std::vector<Phase> attempts;
  for (int a = 0; a < kOpenAttempts; ++a) {
    attempts.push_back(gen.open(def.open_rate, open_count(def, seconds)));
    if (!fell_behind(def, attempts.back())) return attempts;
  }
  v->problems.push_back("invalid run: the load generator fell behind its "
                        "schedule in every open-loop attempt");
  return attempts;
}

void remove_tree(const fs::path& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

// ---- End-to-end run (--trace 0) -----------------------------------------------

/// One freshly set-up service, measured.
struct Episode {
  double steal = 0.0;  // share of CPU time the hypervisor took meanwhile
  double setup_s = 0.0, rps = 0.0;
  std::vector<double> latencies;  // open loop, completed requests
  std::size_t open_sent = 0, within_slo = 0;
};

/// Each episode sets the service up from nothing (timed: image builds,
/// cluster construction, warm-up), runs a closed-loop phase of fixed length
/// and an open-loop phase, checks every answer and reconciles the counters,
/// and tears the service down; cold_specialize's caches never evict, so
/// per-episode services also keep memory bounded.
///
/// On a virtual machine whose host takes CPU time away at rates that change
/// from one run to the next, the latency tails follow the host rather than
/// the program. So episode 0 only warms the process, and
/// episodes continue until kKeptEpisodes ran while the host took at most
/// kQuietSteal of the CPU, or kMaxEpisodes ran. Figures come from the
/// kKeptEpisodes episodes with the least stolen time: medians over them,
/// and latency percentiles over their pooled open-loop requests. An
/// episode's throughput is the median rate over kRateSlices slices of its
/// closed-loop phase, so a stall shorter than a few slices does not move
/// it. Every episode's answers and counters are checked.
int run_end_to_end(const WorkloadDef& def, const Args& args) {
  Verdict v;
  std::map<std::uint32_t, std::string> refs;
  std::vector<Episode> episodes;
  const std::size_t clients =
      std::min<std::size_t>(kClients, std::thread::hardware_concurrency());
  double first_episode_rss_mb = 0.0;
  for (int e = 0; e < kMaxEpisodes; ++e) {
    Episode ep;
    const std::vector<double> cpu_start = cpu_times();
    const auto t0 = Clock::now();
    System sys = set_up(def, args.seed);
    ep.setup_s = seconds_between(t0, Clock::now());
    sys.stream = make_stream(def, sys.fixture, args.seed * kMaxEpisodes + e,
                             stream_length(def, args.seconds));

    Generator gen(*sys.cluster, sys.fixture, sys.stream, Clock::now());
    const Phase closed =
        gen.closed(clients, kDepth, closed_count(def, args.seconds));
    const std::vector<Phase> opens = open_phases(gen, def, args.seconds, &v);
    const Phase& open = opens.back();
    const Snapshots after = snapshots_of(*sys.cluster);
    ep.steal = steal_share(cpu_start);

    std::vector<const Phase*> phases = {&closed};
    for (const Phase& p : opens) phases.push_back(&p);
    check_reconciliation(def, sys, after, phases, gen.cursor(), &v);
    check_answers(sys.fixture, gen, phases, &refs, &v);

    std::vector<double> completions;
    for (const Sample& s : closed.samples) {
      if (s.ok) completions.push_back(s.t_call + s.cluster_total_s);
    }
    ep.rps = median_slice_rate(std::move(completions), kRateSlices);
    for (const Sample& s : open.samples) {
      if (!s.ok) continue;
      const double latency = (s.t_call - s.t_sched) + s.cluster_total_s;
      ep.latencies.push_back(latency);
      ep.within_slo += latency <= def.slo_ms * 1e-3 ? 1 : 0;
    }
    ep.open_sent = open.samples.size();
    std::fprintf(stderr,
                 "perfbench: episode %d: steal %.3f, setup %.3f s, closed %zu "
                 "requests at %.1f/s, open p50 %.3f ms p99 %.3f ms\n",
                 e, ep.steal, ep.setup_s, closed.samples.size(), ep.rps,
                 quantile(ep.latencies, 0.5) * 1e3, quantile(ep.latencies, 0.99) * 1e3);
    sys = System{};
    if (e == 0) {
      // Later episodes reuse what the allocator kept from this one, so the
      // process peak after one whole service lifetime is the footprint.
      first_episode_rss_mb = peak_rss_mb();
      continue;
    }
    episodes.push_back(ep);
    const auto quiet = std::count_if(episodes.begin(), episodes.end(),
                                     [](const Episode& x) { return x.steal <= kQuietSteal; });
    if (quiet >= kKeptEpisodes) break;
  }
  std::stable_sort(episodes.begin(), episodes.end(),
                   [](const Episode& a, const Episode& b) { return a.steal < b.steal; });
  episodes.resize(std::min<std::size_t>(episodes.size(), kKeptEpisodes));
  std::vector<double> setup_s, rps, latencies;
  std::size_t open_sent = 0, within = 0;
  for (const Episode& ep : episodes) {
    setup_s.push_back(ep.setup_s);
    rps.push_back(ep.rps);
    latencies.insert(latencies.end(), ep.latencies.begin(), ep.latencies.end());
    open_sent += ep.open_sent;
    within += ep.within_slo;
  }
  if (!percentile_supported(latencies.size(), 0.99)) {
    v.problems.push_back("too few open-loop completions for a p99");
  }
  std::fprintf(stderr,
               "perfbench: %zu open-loop latencies support up to p%g; p99 %.3f ms\n",
               latencies.size(), highest_supported_percentile(latencies.size()) * 100,
               quantile(latencies, 0.99) * 1e3);
  const std::vector<Metric> metrics = {
      {"throughput_rps", median(rps), "1/s"},
      {"latency_p50_ms", quantile(latencies, 0.5) * 1e3, "ms"},
      {"slo_attainment",
       static_cast<double>(within) / static_cast<double>(std::max<std::size_t>(open_sent, 1)),
       "ratio"},
      {"ok_share",
       1.0 - static_cast<double>(v.failed) /
                 static_cast<double>(std::max<std::size_t>(v.attempted, 1)),
       "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", first_episode_rss_mb, "MB"},
  };
  for (const auto& problem : v.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf("%s\n", result_json(v, metrics).c_str());
  return 0;
}

// ---- Per-layer run (--trace 1) ------------------------------------------------

/// Direct calls into the lowering, compile, decode, store and peer layers
/// for each replayed class; medians in the units reported.
struct Replay {
  std::vector<double> plan_us, lower_ms, build_ms, decode_ms, get_us, put_us,
      pull_us;
  double push_us_per_blob = 0.0;
  double fabric_bytes_per_class = 0.0;
  std::uint64_t blobs_rejected = 0;
};

/// Each replayed class is deployed directly (planning, lowering or a source
/// build with a fresh CompileCache), decoded, and its artifact written to
/// and read back from an on-disk ArtifactStore `origin`. Then the peer tier:
/// `origin` delta-pushes every artifact to an empty `mirror`, and a third
/// empty peer lazily pulls each one over the registry fabric. Every pulled
/// artifact must equal the one written.
Replay replay_layers(const Fixture& f, const std::vector<ClassDef>& classes,
                     const fs::path& dir, Verdict* v) {
  Replay r;
  remove_tree(dir);
  service::ArtifactStore origin_store({(dir / "origin").string(), 0});
  service::ArtifactStore mirror_store({(dir / "mirror").string(), 0});
  service::ArtifactStore puller_store({(dir / "puller").string(), 0});
  service::DistributionFabric fabric;
  service::DistributionPeer origin("origin", origin_store, fabric);
  service::DistributionPeer mirror("mirror", mirror_store, fabric);
  service::DistributionPeer puller("puller", puller_store, fabric);
  const vm::NodeSpec node = vm::node("ault23");
  std::vector<std::string> payloads;
  for (const ClassDef& cls : classes) {
    const ImageEntry& image = f.images[cls.image];
    DeployedApp app;
    if (image.source) {
      SourceDeployOptions options;
      options.selections = cls.selections;
      options.auto_specialize = false;
      options.march = cls.march;
      options.opt_level = cls.opt_level;
      const auto plan = plan_source_deploy(image.image, image.app, node, options);
      minicc::CompileCache cache;
      const auto t0 = Clock::now();
      app = build_source_deploy(image.image, image.app, plan, &cache);
      r.build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    } else {
      IrDeployOptions options;
      options.selections = cls.selections;
      options.march = cls.march;
      options.opt_level = cls.opt_level;
      for (int rep = 0; rep < 20; ++rep) {
        const auto t0 = Clock::now();
        const auto plan = plan_ir_deploy(image.manifest, node, options);
        r.plan_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        if (!plan.ok) throw std::runtime_error("plan failed: " + plan.error);
      }
      const auto t0 = Clock::now();
      app = deploy_ir_container(image.image, node, options);
      r.lower_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    if (!app.ok) throw std::runtime_error("replay deploy failed: " + app.error);
    const auto t_decode = Clock::now();
    const auto decoded = vm::DecodedProgram::build(app.program);
    r.decode_ms.push_back(seconds_between(t_decode, Clock::now()) * 1e3);
    if (decoded.functions().empty()) throw std::runtime_error("empty decode");

    payloads.push_back(service::deployed_app_to_json(app).dump());
    const std::string key = "replay-" + std::to_string(payloads.size() - 1);
    const auto t_put = Clock::now();
    if (!origin_store.put(service::kSpecArtifactKind, key, payloads.back())) {
      throw std::runtime_error("artifact store put failed");
    }
    r.put_us.push_back(seconds_between(t_put, Clock::now()) * 1e6);
    const auto t_get = Clock::now();
    const auto got = origin_store.get(service::kSpecArtifactKind, key);
    r.get_us.push_back(seconds_between(t_get, Clock::now()) * 1e6);
    if (!got || *got != payloads.back()) {
      throw std::runtime_error("artifact store get failed");
    }
  }

  const auto t_push = Clock::now();
  const service::PushResult pushed = origin.push_to(mirror);
  const double push_s = seconds_between(t_push, Clock::now());
  r.push_us_per_blob = push_s * 1e6 / static_cast<double>(std::max<std::size_t>(pushed.shipped, 1));
  if (pushed.shipped != payloads.size()) {
    v->problems.push_back("distribution: delta push shipped " +
                          std::to_string(pushed.shipped) + " of " +
                          std::to_string(payloads.size()) + " artifacts");
  }
  std::size_t pull_failures = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::string key = "replay-" + std::to_string(i);
    const auto t_pull = Clock::now();
    const bool local = puller.ensure_local(service::kSpecArtifactKind, key);
    r.pull_us.push_back(seconds_between(t_pull, Clock::now()) * 1e6);
    const auto got = puller_store.get(service::kSpecArtifactKind, key);
    pull_failures += local && got && *got == payloads[i] ? 0 : 1;
  }
  if (pull_failures > 0) {
    v->problems.push_back("distribution: " + std::to_string(pull_failures) +
                          " lazily pulled artifacts are missing or differ");
  }
  const service::DistributionStats stats = fabric.stats();
  r.fabric_bytes_per_class =
      static_cast<double>(stats.bytes_total()) /
      static_cast<double>(std::max<std::size_t>(payloads.size(), 1));
  r.blobs_rejected = stats.blobs_rejected;
  if (r.blobs_rejected != 0) {
    v->problems.push_back("distribution.blobs_rejected is " +
                          std::to_string(r.blobs_rejected) + ", not 0");
  }
  return r;
}

/// The classes the replay phase times: every class of a small mix; on the
/// many-class workload the first IR and source classes of the stream.
std::vector<ClassDef> replay_classes(const Fixture& f, const std::vector<Draw>& stream) {
  if (f.classes.size() <= 16) return f.classes;
  std::vector<ClassDef> out;
  std::size_t ir = 0, source = 0;
  std::vector<bool> taken(f.classes.size(), false);
  for (const Draw& d : stream) {
    const ClassDef& cls = f.classes[d.cls];
    std::size_t& n = f.images[cls.image].source ? source : ir;
    if (taken[d.cls] || n >= 12) continue;
    taken[d.cls] = true;
    ++n;
    out.push_back(cls);
    if (ir >= 12 && source >= 12) break;
  }
  return out;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Deterministic counts must repeat exactly across runs of one seed on the
/// same code; the first such run records them, later runs compare. The
/// ledger is keyed by the digest of the sources (--source), so a change
/// that legitimately moves a count starts a ledger of its own.
void check_deterministic(const Args& args, const std::string& counts, Verdict* v) {
  const fs::path dir = args.out_dir / "counts";
  fs::create_directories(dir);
  char name[256];
  std::snprintf(name, sizeof(name), "%s-%s-seed%llu-s%g.txt", args.workload.c_str(),
                args.source.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds);
  const fs::path path = dir / name;
  std::ifstream in(path);
  if (in) {
    std::string previous((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    if (previous != counts) {
      v->problems.push_back("deterministic counts differ from an earlier run of "
                            "this seed: was " + previous + ", now " + counts);
    }
    return;
  }
  std::ofstream(path) << counts;
}

int run_per_layer(const WorkloadDef& def, const Args& args) {
  System sys = set_up(def, args.seed);
  sys.stream = make_stream(def, sys.fixture, args.seed,
                           stream_length(def, args.seconds));
  const Snapshots before = snapshots_of(*sys.cluster);

  Generator gen(*sys.cluster, sys.fixture, sys.stream, Clock::now());
  const std::size_t clients =
      std::min<std::size_t>(kClients, std::thread::hardware_concurrency());
  const std::size_t fixed = closed_count(def, args.seconds);
  const Phase untraced = gen.closed(clients, kDepth, fixed);
  gen.set_traced(true);
  const Phase traced = gen.closed(clients, kDepth, fixed);
  const Snapshots mid = snapshots_of(*sys.cluster);
  Verdict v;
  const std::vector<Phase> opens = open_phases(gen, def, args.seconds, &v);
  const Phase& open = opens.back();
  const Snapshots after = snapshots_of(*sys.cluster);

  std::vector<const Phase*> phases = {&untraced, &traced};
  for (const Phase& p : opens) phases.push_back(&p);
  check_reconciliation(def, sys, after, phases, gen.cursor(), &v);
  std::map<std::uint32_t, std::string> refs;
  check_answers(sys.fixture, gen, phases, &refs, &v);

  // Per-request stage figures over the traced phases.
  std::vector<double> submit_us, wfq_ms, ring_ms, deploy_ms, run_ms;
  double run_seconds = 0.0, attempts = 0.0, stolen = 0.0, completed = 0.0;
  long long instructions = 0;
  std::vector<Span> spans;
  for (const Phase* p : {&traced, &open}) {
    spans.insert(spans.end(), p->spans.begin(), p->spans.end());
    for (const Sample& s : p->samples) {
      submit_us.push_back(s.submit_s * 1e6);
      attempts += s.attempts;
      if (!s.ok) continue;
      completed += 1;
      stolen += s.stolen ? 1 : 0;
      wfq_ms.push_back((s.cluster_total_s - s.gateway_total_s) * 1e3);
      ring_ms.push_back(s.queue_s * 1e3);
      deploy_ms.push_back(s.deploy_s * 1e3);
      run_ms.push_back(s.run_s * 1e3);
      run_seconds += s.run_s;
      instructions += s.instructions;
    }
  }
  // The tail of the open-loop phase. It follows the host's CPU steal too
  // closely to carry a regression bound (see BENCHMARK.json), so it is a
  // per-layer figure of the traced run.
  std::vector<double> open_latencies;
  for (const Sample& s : open.samples) {
    if (s.ok) open_latencies.push_back((s.t_call - s.t_sched) + s.cluster_total_s);
  }
  // Exact counts over the two closed-loop phases, whose request counts are
  // fixed (an open-loop phase may be repeated, see open_phases).
  long long all_instructions = 0;
  double all_completed = 0.0;
  for (const Phase* p : {&untraced, &traced}) {
    for (const Sample& s : p->samples) {
      all_instructions += s.instructions;
      all_completed += s.ok ? 1 : 0;
    }
  }
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(after.gateway_sum(name) - before.gateway_sum(name));
  };
  const auto closed_delta = [&](const std::string& name) {
    return static_cast<double>(mid.gateway_sum(name) - before.gateway_sum(name));
  };
  const double spec_hits = delta("spec_cache.hits");
  const double spec_lookups =
      spec_hits + delta("spec_cache.disk_hits") + delta("spec_cache.misses");
  const double tu_hits = delta("tu_cache.hits");
  const double tu_lookups = tu_hits + delta("tu_cache.disk_hits") + delta("tu_cache.compiles");

  const fs::path replay_dir =
      args.out_dir / ("replay-store-" + std::to_string(::getpid()));
  const Replay replay = replay_layers(
      sys.fixture, replay_classes(sys.fixture, sys.stream), replay_dir, &v);
  remove_tree(replay_dir);

  std::map<std::string, double> self;
  for (const auto& [name, seconds] : self_time_by_name(spans)) self[name] = seconds;
  double request_seconds = 0.0;
  for (const Span& s : spans) {
    if (s.parent == 0) request_seconds += s.end - s.start;
  }
  const double traced_requests = static_cast<double>(traced.samples.size() + open.samples.size());
  const auto per_request_ms = [&](const char* name) {
    return self[name] / std::max(1.0, traced_requests) * 1e3;
  };
  const double service = self["deploy"] + self["run"];

  fs::create_directories(args.out_dir);
  std::ofstream(args.out_dir / ("trace-" + args.workload + ".json"))
      << chrome_trace_json(spans);

  // With stealing on, a class stolen to a gateway that has not served it
  // yet misses there, so the cache counts depend on timing; only the
  // instruction count is then an invariant of the seed.
  char counts[160];
  if (def.steal) {
    std::snprintf(counts, sizeof(counts), "instructions=%lld", all_instructions);
  } else {
    std::snprintf(counts, sizeof(counts),
                  "instructions=%lld spec_misses=%.0f tu_compiles=%.0f",
                  all_instructions, closed_delta("spec_cache.misses"),
                  closed_delta("tu_cache.compiles"));
  }
  check_deterministic(args, counts, &v);

  const std::vector<Metric> metrics = {
      {"cluster.submit_us", median(submit_us), "us"},
      {"cluster.wfq_wait_ms.p50", quantile(wfq_ms, 0.5), "ms"},
      {"cluster.wfq_wait_ms.p99", quantile(wfq_ms, 0.99), "ms"},
      {"cluster.stolen_share", share(stolen, completed), "ratio"},
      {"gateway.ring_wait_ms.p50", quantile(ring_ms, 0.5), "ms"},
      {"gateway.ring_wait_ms.p99", quantile(ring_ms, 0.99), "ms"},
      {"gateway.attempts_per_request",
       share(attempts, static_cast<double>(traced.samples.size() + open.samples.size())),
       "count"},
      {"deploy_ms.p50", quantile(deploy_ms, 0.5), "ms"},
      {"deploy_ms.p99", quantile(deploy_ms, 0.99), "ms"},
      {"spec_cache.hit_ratio", share(spec_hits, spec_lookups), "ratio"},
      {"spec_cache.misses", closed_delta("spec_cache.misses"), "count"},
      {"spec_cache.lowering_ms", after.histogram_mean("spec_cache.lowering_seconds") * 1e3, "ms"},
      {"tu_cache.compiles", closed_delta("tu_cache.compiles"), "count"},
      {"tu_cache.hit_ratio", share(tu_hits, tu_lookups), "ratio"},
      {"tu_cache.compile_ms", after.histogram_mean("tu_cache.compile_seconds") * 1e3, "ms"},
      {"ir_deploy.plan_us", median(replay.plan_us), "us"},
      {"ir_deploy.lower_ms", median(replay.lower_ms), "ms"},
      {"source.build_ms", median(replay.build_ms), "ms"},
      {"artifact_store.get_us", median(replay.get_us), "us"},
      {"artifact_store.put_us", median(replay.put_us), "us"},
      {"distribution.push_us_per_blob", replay.push_us_per_blob, "us"},
      {"distribution.pull_us", median(replay.pull_us), "us"},
      // Per replayed class: its share of the delta push plus its lazy pull.
      {"distribution.bytes_per_request", replay.fabric_bytes_per_class, "bytes"},
      {"distribution.blobs_rejected", static_cast<double>(replay.blobs_rejected), "count"},
      {"vm.run_ms.p50", quantile(run_ms, 0.5), "ms"},
      {"vm.ns_per_instr", share(run_seconds * 1e9, static_cast<double>(instructions)), "ns"},
      {"vm.instructions_per_request",
       share(static_cast<double>(all_instructions), all_completed), "count"},
      {"vm.decode_ms", median(replay.decode_ms), "ms"},
      {"latency_p99_ms", quantile(open_latencies, 0.99) * 1e3, "ms"},
      {"harness.gen_lag_p99_ms", quantile(lags_of(open), 0.99) * 1e3, "ms"},
      {"harness.trace_overhead",
       share(static_cast<double>(untraced.samples.size()) / untraced.wall_seconds,
             static_cast<double>(traced.samples.size()) / traced.wall_seconds),
       "ratio"},
      {"harness.failed_share",
       share(static_cast<double>(v.failed), static_cast<double>(v.attempted)), "ratio"},
      {"trace.vm_share_of_service", share(self["run"], service), "ratio"},
      {"trace.deploy_share_of_service", share(self["deploy"], service), "ratio"},
      {"trace.wait_share_of_latency",
       share(self["cluster_wait"] + self["gateway_ring"], request_seconds), "ratio"},
      {"self.submit_ms", per_request_ms("submit"), "ms"},
      {"self.cluster_wait_ms", per_request_ms("cluster_wait"), "ms"},
      {"self.gateway_ms", per_request_ms("gateway"), "ms"},
      {"self.gateway_ring_ms", per_request_ms("gateway_ring"), "ms"},
      {"self.deploy_ms", per_request_ms("deploy"), "ms"},
      {"self.run_ms", per_request_ms("run"), "ms"},
  };
  sys = System{};
  for (const auto& problem : v.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf("%s\n", result_json(v, metrics).c_str());
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <apps_hot|cold_specialize> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>] [--source <digest>]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") args.out_dir = value;
    else if (key == "--commit") args.commit = value;
    else if (key == "--source") args.source = value;
    else return usage(("unknown argument " + key).c_str());
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  const WorkloadDef* def = nullptr;
  for (const auto& d : workload_defs()) {
    if (d.name == args.workload) def = &d;
  }
  if (def == nullptr) return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const CoreBuild core = core_build();
  if (std::strcmp(core.build_type, "Debug") == 0 || core.assertions ||
      std::strcmp(core.sanitizer, "none") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s build (assertions %s, "
                 "sanitizer %s) of xaas_core\n",
                 core.build_type, core.assertions ? "on" : "off", core.sanitizer);
    return 3;
  }
  fs::create_directories(args.out_dir);
  std::printf("{\"fingerprint\": %s}\n", fingerprint_json(args).c_str());
  std::fflush(stdout);
  return args.trace ? run_per_layer(*def, args) : run_end_to_end(*def, args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
