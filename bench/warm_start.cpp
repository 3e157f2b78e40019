// Warm-start bench: the artifact store's reason to exist. A Gateway with
// an artifact directory serves a 32-node heterogeneous fleet (two
// microarchitecture groups) a mixed source/IR workload — four distinct
// specializations — then is destroyed. A SECOND gateway pointed at the
// same directory serves the identical workload having compiled nothing
// in its lifetime: every specialization revives from disk with zero TU
// compiles, zero lowerings, and numerics bit-identical to direct
// (uncached) deploy+run references per microarchitecture.
//
// PASS gate: warm gateway performs 0 lowerings and 0 TU compiles, every
// request's numerics digest equals its direct-deploy reference (cold and
// warm alike), and the store reports no verify failures.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench/bench_util.hpp"
#include "service/artifact_store.hpp"
#include "service/cluster.hpp"

namespace xaas {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

apps::MdWorkloadParams workload_params() { return {48, 8, 3, 32}; }

/// One request class: which image, which selections, which march. The
/// explicit march pins the lowering target regardless of which fleet
/// node the gateway routes to, so the specialization set is deterministic
/// (4 classes = 4 cache keys) even though routing is load-dependent.
struct RequestClass {
  const char* name;
  bool source;  // source image vs IR image
  std::map<std::string, std::string> selections;
  isa::VectorIsa march;
};

std::vector<RequestClass> request_classes() {
  return {
      {"src-avx512", true,
       {{"MD_SIMD", "AVX_512"}, {"MD_FFT", "fftw3"}}, isa::VectorIsa::AVX_512},
      {"src-avx2", true,
       {{"MD_SIMD", "AVX2_256"}, {"MD_FFT", "fftw3"}}, isa::VectorIsa::AVX2_256},
      {"ir-avx512", false, {{"MD_SIMD", "AVX_512"}}, isa::VectorIsa::AVX_512},
      {"ir-avx2", false, {{"MD_SIMD", "SSE4.1"}}, isa::VectorIsa::AVX2_256},
  };
}

struct Fixture {
  Application app;
  container::Image source_image;
  container::Image ir_image;
  std::vector<vm::NodeSpec> fleet;  // 16 Skylake-AVX512 + 16 Haswell
  bool ok = false;
  std::string error;
};

Fixture make_fixture() {
  Fixture f;
  apps::MinimdOptions app_options;
  app_options.module_count = 12;
  app_options.gpu_module_count = 1;
  f.app = apps::make_minimd(app_options);
  f.source_image = build_source_image(f.app, isa::Arch::X86_64);

  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  auto build = build_ir_container(f.app, isa::Arch::X86_64, build_options);
  if (!build.ok) {
    f.error = "IR container build failed: " + build.error;
    return f;
  }
  f.ir_image = std::move(build.image);

  for (auto& node : vm::simulated_fleet(vm::node("ault23"), 16, "sky-")) {
    f.fleet.push_back(std::move(node));
  }
  for (auto& node : vm::simulated_fleet(vm::node("devbox"), 16, "has-")) {
    f.fleet.push_back(std::move(node));
  }
  f.ok = true;
  return f;
}

/// Direct, cache-free deploy+run of one class on one concrete node — the
/// bit-identity reference the gateway results are compared against.
std::string direct_reference_digest(const Fixture& f, const RequestClass& cls,
                                    const vm::NodeSpec& node,
                                    std::string* error) {
  DeployedApp deployed;
  if (cls.source) {
    SourceDeployOptions options;
    options.auto_specialize = false;
    options.selections = cls.selections;
    options.march = cls.march;
    deployed = deploy_source_container(f.source_image, f.app, node, options);
  } else {
    IrDeployOptions options;
    options.selections = cls.selections;
    options.march = cls.march;
    deployed = deploy_ir_container(f.ir_image, node, options);
  }
  if (!deployed.ok) {
    *error = "direct deploy (" + std::string(cls.name) + " on " + node.name +
             ") failed: " + deployed.error;
    return "";
  }
  vm::Workload workload = apps::minimd_workload(workload_params());
  const auto run = deployed.run_on(node, workload, 1);
  if (!run.ok) {
    *error = "direct run failed: " + run.error;
    return "";
  }
  return service::numerics_digest(run, workload);
}

struct GatewayRound {
  bool ok = false;
  std::string error;
  double wall_seconds = 0.0;
  int identical = 0;
  std::size_t lowerings = 0;
  std::size_t tu_compiles = 0;
  std::size_t spec_disk_hits = 0;
  std::size_t verify_failures = 0;
};

/// Serve 32 mixed requests (8 per class) through a fresh one-gateway
/// Cluster whose gateway is rooted at `artifact_dir`, checking every
/// completion against its per-(class, routed-node-group) direct
/// reference.
GatewayRound serve_round(
    const Fixture& f, const std::string& artifact_dir,
    const std::map<std::string, std::map<std::string, std::string>>&
        references) {
  GatewayRound round;

  service::ClusterOptions options;
  options.gateways = 1;
  options.dispatchers_per_gateway = 4;
  options.gateway.artifact_dir = artifact_dir;
  service::Cluster cluster(f.fleet, options);
  cluster.push(f.source_image, "spcl/minimd:src");
  cluster.push(f.ir_image, "spcl/minimd:ir");
  service::Gateway& gateway = cluster.gateway(0);

  const auto classes = request_classes();
  std::vector<service::RunRequest> requests;
  std::vector<const RequestClass*> request_class;
  for (const auto& cls : classes) {
    for (int i = 0; i < 8; ++i) {
      service::RunRequest request;
      request.image_reference =
          cls.source ? "spcl/minimd:src" : "spcl/minimd:ir";
      request.selections = cls.selections;
      request.march = cls.march;
      request.auto_specialize = false;
      request.workload = apps::minimd_workload(workload_params());
      request.threads = 1;
      requests.push_back(std::move(request));
      request_class.push_back(&cls);
    }
  }

  const auto t_start = Clock::now();
  const auto results = cluster.run_all(std::move(requests));
  round.wall_seconds = seconds_since(t_start);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const service::RunResult& result = results[i].result;
    if (!result.ok) {
      round.error = "request " + std::to_string(i) + " (" +
                    request_class[i]->name + ") failed: " + result.error;
      return round;
    }
    // Node group by fleet prefix: sky- (Skylake-AVX512) or has- (Haswell).
    const std::string group = result.node_name.substr(0, 4);
    const auto& expected = references.at(request_class[i]->name).at(group);
    if (result.numerics_digest == expected) ++round.identical;
  }

  round.lowerings = gateway.scheduler().cache().lowerings() +
                    gateway.farm().cache().lowerings();
  round.tu_compiles = gateway.farm().tu_compiles();
  const auto snap = gateway.snapshot();
  round.spec_disk_hits = snap.counter("spec_cache.disk_hits");
  round.verify_failures = snap.counter("artifact_store.verify_failures");
  round.ok = true;
  return round;
}

int run() {
  bench::print_header("Warm start",
                      "restarted gateway, 32-node mixed source/IR fleet, "
                      "artifact store vs cold build");

  const Fixture f = make_fixture();
  if (!f.ok) {
    std::printf("%s\n", f.error.c_str());
    return 1;
  }

  const fs::path artifact_dir =
      fs::temp_directory_path() /
      ("xaas-warm-start-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(artifact_dir, ec);

  // Direct references per (class, node group): the march filter pins
  // AVX-512 classes to the Skylake group; AVX2 classes may land on
  // either group, whose cost models differ — reference both.
  std::map<std::string, std::map<std::string, std::string>> references;
  for (const auto& cls : request_classes()) {
    std::string error;
    const auto sky = direct_reference_digest(f, cls, f.fleet.front(), &error);
    if (sky.empty()) {
      std::printf("%s\n", error.c_str());
      return 1;
    }
    references[cls.name]["sky-"] = sky;
    if (isa::runs_on(cls.march, f.fleet.back().best_vector_isa())) {
      const auto has = direct_reference_digest(f, cls, f.fleet.back(), &error);
      if (has.empty()) {
        std::printf("%s\n", error.c_str());
        return 1;
      }
      references[cls.name]["has-"] = has;
    }
  }

  // Cold: fresh gateway, empty store — builds everything, persists.
  const GatewayRound cold = serve_round(f, artifact_dir.string(), references);
  if (!cold.ok) {
    std::printf("cold round failed: %s\n", cold.error.c_str());
    return 1;
  }
  // Warm: the gateway "restarted" — a new process's worth of state
  // pointed at the populated directory.
  const GatewayRound warm = serve_round(f, artifact_dir.string(), references);
  if (!warm.ok) {
    std::printf("warm round failed: %s\n", warm.error.c_str());
    return 1;
  }
  fs::remove_all(artifact_dir, ec);

  common::Table table({"Gateway", "Requests OK", "Bit-identical", "Lowerings",
                       "TU compiles", "Disk hits", "Wall (s)", "Speedup"});
  table.add_row({"cold (empty store)", "32", std::to_string(cold.identical),
                 std::to_string(cold.lowerings),
                 std::to_string(cold.tu_compiles),
                 std::to_string(cold.spec_disk_hits),
                 common::Table::num(cold.wall_seconds, 3), "1.00x"});
  table.add_row({"warm (restarted)", "32", std::to_string(warm.identical),
                 std::to_string(warm.lowerings),
                 std::to_string(warm.tu_compiles),
                 std::to_string(warm.spec_disk_hits),
                 common::Table::num(warm.wall_seconds, 3),
                 common::Table::num(cold.wall_seconds / warm.wall_seconds, 2) +
                     "x"});
  std::printf("%s", table.to_string().c_str());
  std::printf("verify failures: cold %zu, warm %zu\n", cold.verify_failures,
              warm.verify_failures);

  const bool pass = cold.identical == 32 && warm.identical == 32 &&
                    cold.lowerings == 4 && warm.lowerings == 0 &&
                    warm.tu_compiles == 0 && warm.spec_disk_hits == 4 &&
                    cold.verify_failures == 0 && warm.verify_failures == 0;
  std::printf(
      "acceptance (32/32 bit-identical both rounds, warm: 0 lowerings, "
      "0 TU compiles, 4 disk hits): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace xaas

int main() { return xaas::run(); }
