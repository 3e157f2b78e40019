// Cold-fleet bench: provisioning a 64-node fleet over the registry
// protocol (service/distribution.hpp). Node 0 — the only node that ever
// compiles — builds four request classes; the other 63 nodes converge to
// warm state through blob transfers alone: the three classes built first
// pre-warm ring-wide by gossip, the last replicates by lazy pulls on
// first miss. A post-drain delta push then ships only the TU layers the
// receiver genuinely lacks (spec layers dedup away), and a repeat push
// ships nothing because the receiver holds the full store.
//
// The baseline is naive full replication: a fleet kept in sync without
// delta negotiation re-ships the builder's whole store to every peer
// after every class build. The registry protocol moves only the hot spec
// blobs (TU intermediates replicate on demand, and repeats dedup away),
// so its total transferred bytes must come in far below the baseline.
//
// PASS gate: every peer request bit-identical to its direct-deploy
// reference, zero lowerings and zero TU compiles across all 63 peers,
// zero verify failures and zero rejected blobs, the telemetry identities
// reconcile exactly after drain (sent == accepted + rejected; fabric
// acceptances == sum of per-peer pushed/prewarm/lazy arrivals), the
// delta push dedups every layer the receiver already holds, the repeat
// push ships 0 blobs, and delta bytes < 50% of naive.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "service/artifact_store.hpp"
#include "service/distribution.hpp"
#include "service/gateway.hpp"

namespace xaas {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFleet = 64;  // node 0 builds; 63 peers serve

apps::MdWorkloadParams workload_params() { return {32, 8, 2, 16}; }

/// One request class (same shape as warm_start): the explicit march pins
/// the lowering target, so the specialization set is deterministic.
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
  std::vector<vm::NodeSpec> nodes;  // 32 Skylake-AVX512 + 32 Haswell
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

  for (auto& node : vm::simulated_fleet(vm::node("ault23"), 32, "sky-")) {
    f.nodes.push_back(std::move(node));
  }
  for (auto& node : vm::simulated_fleet(vm::node("devbox"), 32, "has-")) {
    f.nodes.push_back(std::move(node));
  }
  f.ok = true;
  return f;
}

service::RunRequest request_for(const RequestClass& cls) {
  service::RunRequest request;
  request.image_reference = cls.source ? "spcl/minimd:src" : "spcl/minimd:ir";
  request.selections = cls.selections;
  request.march = cls.march;
  request.auto_specialize = false;
  request.workload = apps::minimd_workload(workload_params());
  request.threads = 1;
  return request;
}

/// Direct, cache-free deploy+run of one class on one concrete node — the
/// bit-identity reference every fleet completion is compared against.
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

/// A single-node gateway joined to the registry fabric as one peer.
struct FleetNode {
  std::string name;
  std::unique_ptr<service::Gateway> gateway;
  bool sky = false;  // node group: Skylake-AVX512 vs Haswell
};

std::unique_ptr<service::Gateway> make_gateway(
    const Fixture& f, const vm::NodeSpec& node, const std::string& name,
    const fs::path& root, service::DistributionFabric& fabric) {
  service::GatewayOptions options;
  options.artifact_dir = (root / name).string();
  options.distribution = &fabric;
  options.distribution_name = name;
  auto gateway = std::make_unique<service::Gateway>(
      std::vector<vm::NodeSpec>{node}, options);
  gateway->push(f.source_image, "spcl/minimd:src");
  gateway->push(f.ir_image, "spcl/minimd:ir");
  return gateway;
}

/// Drive gossip to quiescence: sweep every peer until a full sweep moves
/// no blob.
void flush_gossip(service::DistributionFabric& fabric) {
  while (true) {
    std::size_t moved = 0;
    for (service::DistributionPeer* peer : fabric.peers()) {
      moved += peer->gossip_round();
    }
    if (moved == 0) return;
  }
}

/// Naive baseline: after each of the four class builds, re-ship the
/// builder's whole store to all 63 peers (what keeping a fleet in sync
/// costs with no manifest negotiation and no dedup). Returns total wire
/// bytes. The peers here are bare stores — the baseline only measures
/// traffic.
std::uint64_t measure_naive_baseline(const Fixture& f, const fs::path& root,
                                     std::string* error) {
  service::DistributionFabric fabric;
  auto builder = make_gateway(f, f.nodes.front(), "naive-builder", root, fabric);

  std::vector<std::unique_ptr<service::ArtifactStore>> stores;
  std::vector<std::unique_ptr<service::DistributionPeer>> peers;
  for (std::size_t i = 1; i < kFleet; ++i) {
    const std::string name = "naive-" + std::to_string(i);
    stores.push_back(std::make_unique<service::ArtifactStore>(
        service::ArtifactStoreOptions{(root / name).string(), 0}));
    peers.push_back(std::make_unique<service::DistributionPeer>(
        name, *stores.back(), fabric));
  }

  const std::uint64_t before = fabric.stats().bytes_total();
  for (const auto& cls : request_classes()) {
    const auto result = builder->serve(request_for(cls));
    if (!result.ok) {
      *error = "naive builder failed on " + std::string(cls.name) + ": " +
               result.error;
      return 0;
    }
    for (auto& peer : peers) {
      builder->distribution()->push_full(*peer);
    }
  }
  return fabric.stats().bytes_total() - before;
}

struct DeltaRound {
  bool ok = false;
  std::string error;
  std::uint64_t bytes = 0;
  int served = 0;
  int identical = 0;
  std::size_t peer_lowerings = 0;
  std::size_t peer_tu_compiles = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t prewarm = 0;
  std::uint64_t lazy = 0;
  service::DistributionStats stats;
  bool identities_ok = false;
  service::PushResult first_push;   // ships only the layers the peer lacks
  service::PushResult second_push;  // repeat sync: everything dedups away
};

DeltaRound run_delta_fleet(
    const Fixture& f, const fs::path& root,
    const std::map<std::string, std::map<std::string, std::string>>&
        references) {
  DeltaRound round;
  const auto classes = request_classes();

  service::DistributionFabric fabric;
  std::vector<FleetNode> fleet;
  for (std::size_t i = 0; i < kFleet; ++i) {
    FleetNode node;
    char name[16];
    std::snprintf(name, sizeof(name), "node-%03zu", i);
    node.name = name;
    node.sky = f.nodes[i].name.rfind("sky-", 0) == 0;
    node.gateway = make_gateway(f, f.nodes[i], node.name, root, fabric);
    fleet.push_back(std::move(node));
  }
  service::Gateway& builder = *fleet.front().gateway;

  // Node 0 builds the first three classes; gossip pre-warms them
  // ring-wide before any peer sees a request.
  for (std::size_t c = 0; c + 1 < classes.size(); ++c) {
    const auto result = builder.serve(request_for(classes[c]));
    if (!result.ok) {
      round.error = "builder failed on " + std::string(classes[c].name) +
                    ": " + result.error;
      return round;
    }
  }
  flush_gossip(fabric);

  // The last class is built but never gossiped before serving: each peer
  // fetches it by lazy pull under its single-flight leader.
  {
    const auto result = builder.serve(request_for(classes.back()));
    if (!result.ok) {
      round.error = "builder failed on " +
                    std::string(classes.back().name) + ": " + result.error;
      return round;
    }
  }

  // Every peer serves every class its microarchitecture can run.
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    FleetNode& node = fleet[i];
    const std::string group = node.sky ? "sky-" : "has-";
    for (const auto& cls : classes) {
      if (!node.sky && !isa::runs_on(cls.march, isa::VectorIsa::AVX2_256)) {
        continue;
      }
      const auto result = node.gateway->serve(request_for(cls));
      if (!result.ok) {
        round.error = node.name + " failed on " + cls.name + ": " +
                      result.error;
        return round;
      }
      ++round.served;
      if (result.numerics_digest == references.at(cls.name).at(group)) {
        ++round.identical;
      }
    }
  }

  // Post-drain delta push.  The peer already holds every spec blob (gossip +
  // lazy pull), but TU intermediates never travel on the serving path, so the
  // first push ships exactly the missing TU layers while the spec layers dedup
  // away.  A second push then ships nothing: the receiver holds the full store.
  round.first_push = builder.distribution()->push_to(
      *fleet[1].gateway->distribution());
  round.second_push = builder.distribution()->push_to(
      *fleet[1].gateway->distribution());

  // Drain is implicit (every serve() returned); reconcile.
  round.stats = fabric.stats();
  round.bytes = round.stats.bytes_total();
  std::uint64_t accepted = 0;
  std::uint64_t sent = 0;
  bool per_peer_ok = true;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const service::PeerStats stats = fleet[i].gateway->distribution()->stats();
    per_peer_ok = per_peer_ok &&
                  stats.blobs_in == stats.pushed_in + stats.prewarm_fetches +
                                        stats.lazy_fetches;
    accepted += stats.blobs_in;
    sent += stats.blobs_out;
    round.prewarm += stats.prewarm_fetches;
    round.lazy += stats.lazy_fetches;
    const auto snap = fleet[i].gateway->snapshot();
    round.verify_failures += snap.counter("artifact_store.verify_failures") +
                             snap.counter("distribution.verify_rejects");
    if (i > 0) {
      round.peer_lowerings += fleet[i].gateway->scheduler().cache().lowerings() +
                              fleet[i].gateway->farm().cache().lowerings();
      round.peer_tu_compiles += fleet[i].gateway->farm().tu_compiles();
    }
  }
  round.identities_ok =
      per_peer_ok &&
      round.stats.blobs_sent ==
          round.stats.blobs_accepted + round.stats.blobs_rejected &&
      round.stats.blobs_accepted == accepted &&
      round.stats.blobs_sent == sent &&
      round.stats.bytes_total() ==
          round.stats.manifest_bytes + round.stats.request_bytes +
              round.stats.blob_bytes + round.stats.gossip_bytes;
  round.ok = true;
  return round;
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

int run() {
  bench::print_header(
      "Cold fleet",
      "64 nodes, node 0 builds, 63 peers warm up over the registry "
      "protocol vs naive full replication");

  const Fixture f = make_fixture();
  if (!f.ok) {
    std::printf("%s\n", f.error.c_str());
    return 1;
  }

  const fs::path root =
      fs::temp_directory_path() /
      ("xaas-cold-fleet-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(root, ec);

  // Direct references per (class, node group); AVX-512 classes only run
  // on the Skylake group.
  std::map<std::string, std::map<std::string, std::string>> references;
  for (const auto& cls : request_classes()) {
    std::string error;
    const auto sky = direct_reference_digest(f, cls, f.nodes.front(), &error);
    if (sky.empty()) {
      std::printf("%s\n", error.c_str());
      return 1;
    }
    references[cls.name]["sky-"] = sky;
    if (isa::runs_on(cls.march, f.nodes.back().best_vector_isa())) {
      const auto has = direct_reference_digest(f, cls, f.nodes.back(), &error);
      if (has.empty()) {
        std::printf("%s\n", error.c_str());
        return 1;
      }
      references[cls.name]["has-"] = has;
    }
  }

  std::string error;
  const std::uint64_t naive_bytes =
      measure_naive_baseline(f, root / "naive", &error);
  if (naive_bytes == 0) {
    std::printf("naive baseline failed: %s\n", error.c_str());
    return 1;
  }

  const DeltaRound delta = run_delta_fleet(f, root / "delta", references);
  fs::remove_all(root, ec);
  if (!delta.ok) {
    std::printf("delta fleet failed: %s\n", delta.error.c_str());
    return 1;
  }

  common::Table table(
      {"Protocol", "Blobs shipped", "Messages", "MB transferred", "vs naive"});
  table.add_row({"naive full replication", "-", "-",
                 common::Table::num(mb(naive_bytes), 2), "1.00x"});
  table.add_row(
      {"registry (gossip + lazy + delta)",
       std::to_string(delta.stats.blobs_sent),
       std::to_string(delta.stats.messages_total()),
       common::Table::num(mb(delta.bytes), 2),
       common::Table::num(static_cast<double>(delta.bytes) /
                              static_cast<double>(naive_bytes),
                          3) +
           "x"});
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "peers: %d served, %d bit-identical, %zu lowerings, %zu TU compiles\n",
      delta.served, delta.identical, delta.peer_lowerings,
      delta.peer_tu_compiles);
  std::printf(
      "arrivals: %llu pre-warmed, %llu lazy; rejected %llu; verify "
      "failures %llu; dedup saved %.2f MB; modeled transfer %.3f s\n",
      static_cast<unsigned long long>(delta.prewarm),
      static_cast<unsigned long long>(delta.lazy),
      static_cast<unsigned long long>(delta.stats.blobs_rejected),
      static_cast<unsigned long long>(delta.verify_failures),
      mb(delta.stats.dedup_saved_bytes), delta.stats.transfer_seconds());
  std::printf(
      "post-drain delta push: %zu shipped / %zu deduped (%.2f MB saved), "
      "repeat push: %zu shipped / %zu deduped\n",
      delta.first_push.shipped, delta.first_push.skipped,
      mb(delta.first_push.saved_bytes), delta.second_push.shipped,
      delta.second_push.skipped);

  const int expected_served = 31 * 4 + 32 * 2;  // sky peers x4, has peers x2
  const bool pass =
      delta.served == expected_served && delta.identical == expected_served &&
      delta.peer_lowerings == 0 && delta.peer_tu_compiles == 0 &&
      delta.stats.blobs_rejected == 0 && delta.verify_failures == 0 &&
      delta.identities_ok && delta.first_push.skipped > 0 &&
      delta.first_push.saved_bytes > 0 && delta.second_push.shipped == 0 &&
      delta.second_push.skipped ==
          delta.first_push.shipped + delta.first_push.skipped &&
      delta.lazy > 0 && delta.prewarm > 0 && delta.bytes * 2 < naive_bytes;
  std::printf(
      "acceptance (%d/%d bit-identical, peers: 0 lowerings / 0 TU compiles, "
      "0 rejects, identities reconcile, delta push dedups present layers, "
      "repeat push ships 0, delta < 50%% of naive): %s\n",
      delta.identical, expected_served, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace xaas

int main() { return xaas::run(); }
