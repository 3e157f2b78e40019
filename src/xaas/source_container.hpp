// Source containers (§4.1, Fig. 6): ship application source + toolchain,
// build on the target system after feature discovery, specialization
// intersection, and user/operator selection. One image per toolchain and
// architecture — no combinatorial explosion, near-native performance.
#pragma once

#include <map>
#include <string>

#include "buildsys/configure.hpp"
#include "container/image.hpp"
#include "container/registry.hpp"
#include "minicc/lower.hpp"
#include "spec/intersect.hpp"
#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "vm/program.hpp"
#include "xaas/application.hpp"

namespace xaas::minicc {
class CompileCache;
}

namespace xaas {

/// Build the distributable source image: source tree + build script +
/// toolchain marker, with the application's specialization points
/// embedded as an OCI annotation (§5.2).
container::Image build_source_image(const Application& app,
                                    isa::Arch arch);

/// A container deployed (specialized, built, lowered) for one system.
struct DeployedApp {
  bool ok = false;
  std::string error;

  container::Image image;                 // derived, system-specific image
  /// Content digest of `image`, memoized at deploy time (==
  /// image.digest(); empty on failed deployments) so serving-path
  /// completions don't re-serialize the manifest per request.
  std::string image_digest;
  vm::Program program;                    // linked executable
  buildsys::Configuration configuration;  // resolved build configuration
  minicc::TargetSpec target;
  std::string node_name;
  std::vector<std::string> log;           // deployment steps, human-readable

  /// Pre-decoded execution form of `program`, built once by the deploy
  /// that linked it (null on failed deployments) and shared by every run
  /// and every node that received this deployment.
  std::shared_ptr<const vm::DecodedProgram> decoded;

  /// Execute a workload on the node it was deployed for.
  vm::RunResult run(vm::Workload& workload, int threads = 1) const;

  /// Execute on an explicit node spec — the fleet path, where simulated
  /// nodes need not exist in the global vm::node registry.
  vm::RunResult run_on(const vm::NodeSpec& node, vm::Workload& workload,
                       int threads = 1) const;

  /// Fully-optioned variant: the serving layer passes its per-run stats
  /// hook (and any tuning) through to the executor.
  vm::RunResult run_on(const vm::NodeSpec& node, vm::Workload& workload,
                       const vm::ExecutorOptions& exec_options) const;
};

struct SourceDeployOptions {
  /// Explicit option values (user selections); anything absent falls
  /// back to the intersection's recommendation or the script default.
  std::map<std::string, std::string> selections;
  /// Apply the recommendation policy for unselected points (best SIMD,
  /// native GPU backend). Naive builds set this to false.
  bool auto_specialize = true;
  /// Vector ISA override; by default the node's best supported level
  /// (or the SIMD selection if one was made). An explicit march the node
  /// cannot execute is a deployment error; a *selected* SIMD level beyond
  /// the node's ladder is clamped to its best supported level (the same
  /// contract as the IR path's recorded tuning).
  std::optional<isa::VectorIsa> march;
  int opt_level = 2;
};

/// The resolved front half of a source deployment: discovery →
/// intersection → selection → configure → target resolution, nothing
/// compiled. `configuration.option_values` (every option, defaults
/// included) plus `target` fully determine the build — the build farm's
/// whole-deployment cache key is
/// (source image digest, canonical option values, target).
struct SourceDeployPlan {
  bool ok = false;
  std::string error;

  buildsys::Configuration configuration;
  minicc::TargetSpec target;  // resolved, clamped to the node's ISA ladder
  std::vector<std::string> log;  // node-specific steps (discovery, selection)
};

/// Resolve the cheap half of deploy_source_container for a node: no
/// translation unit is compiled.
SourceDeployPlan plan_source_deploy(const container::Image& source_image,
                                    const Application& app,
                                    const vm::NodeSpec& node,
                                    const SourceDeployOptions& options = {});

/// The build half: compile every TU of the plan's configuration for the
/// plan's target, link, derive the system-specific image. A pure function
/// of (source image, plan) — node-agnostic (no node name is recorded), so
/// equal plans on one image produce bit-identical deployments. When
/// `tu_cache` is non-null, per-TU compiles are routed through it and
/// shared with every other deployment of the same source tree.
DeployedApp build_source_deploy(const container::Image& source_image,
                                const Application& app,
                                const SourceDeployPlan& plan,
                                minicc::CompileCache* tu_cache = nullptr);

/// The Fig. 6 flow: system discovery -> intersection -> selection ->
/// on-system build -> deployed image. Equivalent to plan_source_deploy +
/// build_source_deploy with the node recorded for run().
DeployedApp deploy_source_container(const container::Image& source_image,
                                    const Application& app,
                                    const vm::NodeSpec& node,
                                    const SourceDeployOptions& options = {});

/// An application reconstructed from a source image (the image ships the
/// full source tree and xbuild script, §4.1) — deployment does not
/// require the original Application object. `system_dependent_globs` and
/// `entry_point` are not stored in the image; source deployments compile
/// every TU on-node, so neither affects the build (set the entry point on
/// the workload when running).
struct SourceImageApp {
  bool ok = false;
  std::string error;
  Application app;
};

SourceImageApp application_from_source_image(const container::Image& image);

}  // namespace xaas
