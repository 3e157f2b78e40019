#include "xaas/ir_deploy.hpp"

#include "common/json.hpp"
#include "common/strings.hpp"
#include "minicc/driver.hpp"
#include "vm/decoded.hpp"

namespace xaas {

using common::Json;

namespace {

std::optional<Json> read_manifest(const common::Vfs& root,
                                  std::string* error) {
  const auto text = root.read("xaas/manifest.json");
  if (!text) {
    if (error) *error = "image has no xaas/manifest.json";
    return std::nullopt;
  }
  try {
    return Json::parse(*text);
  } catch (const common::JsonError& e) {
    if (error) *error = std::string("manifest parse error: ") + e.what();
    return std::nullopt;
  }
}

bool selection_matches(const Json& config,
                       const std::map<std::string, std::string>& selections) {
  const Json* options = config.find("options");
  if (!options) return selections.empty();
  for (const auto& [name, value] : selections) {
    const Json* v = options->find(name);
    if (!v || !v->is_string() || v->as_string() != value) return false;
  }
  return true;
}

/// Arch gate (§5.1 — the IR is not cross-platform): which IR architecture
/// the node consumes.
std::string wanted_ir_architecture(const vm::NodeSpec& node) {
  return node.cpu.arch == isa::Arch::X86_64 ? container::kArchLlvmIrAmd64
                                            : container::kArchLlvmIrArm64;
}

/// Select exactly one configuration from the manifest; on failure returns
/// nullptr with `error` set.
const Json* select_configuration(const Json& manifest,
                                 const std::map<std::string, std::string>&
                                     selections,
                                 std::string* error) {
  const Json* configs = manifest.find("configurations");
  if (!configs || configs->items().empty()) {
    *error = "no configurations in IR image";
    return nullptr;
  }
  std::vector<const Json*> matches;
  for (const auto& c : configs->items()) {
    if (selection_matches(c, selections)) matches.push_back(&c);
  }
  if (matches.empty()) {
    *error = "no configuration matches the selection";
    return nullptr;
  }
  if (matches.size() > 1) {
    *error = "selection is ambiguous: " + std::to_string(matches.size()) +
             " configurations match (specify more points)";
    return nullptr;
  }
  return matches.front();
}

/// Resolve the lowering target: explicit march > configuration tuning >
/// node best — clamped to what the node can actually execute. A recorded
/// tuning beyond the node's ISA ladder silently (but loggedly) degrades;
/// an explicit request beyond it is an error, because the user asked for
/// code the hardware would trap on.
bool resolve_target(const Json& config, const vm::NodeSpec& node,
                    const IrDeployOptions& options, IrDeployPlan* plan) {
  minicc::TargetSpec target;
  target.opt_level = options.opt_level;
  target.openmp = config.get_bool("openmp");
  const isa::VectorIsa node_best = node.best_vector_isa();
  target.visa = node_best;

  const std::string recorded_march = config.get_string("march");
  if (!recorded_march.empty()) {
    if (const auto visa = isa::vector_isa_from_string(recorded_march)) {
      if (isa::runs_on(*visa, node_best)) {
        target.visa = *visa;
      } else {
        // Deploying e.g. AVX-512-tuned IR onto an AVX2 node: honoring the
        // recorded tuning would produce a program that traps at run time,
        // so lower for the node's ladder instead.
        plan->log.push_back("recorded march " + recorded_march +
                            " exceeds node support; clamped to " +
                            std::string(isa::to_string(node_best)));
      }
    }
  }
  if (options.march) {
    if (!isa::runs_on(*options.march, node_best)) {
      plan->error = "requested march " +
                    std::string(isa::to_string(*options.march)) +
                    " is not executable on node " + node.name +
                    " (supports up to " +
                    std::string(isa::to_string(node_best)) + ")";
      return false;
    }
    target.visa = *options.march;
  }
  plan->target = target;
  plan->log.push_back("lowering for " +
                      std::string(isa::to_string(target.visa)));
  return true;
}

/// Shared front half of plan/deploy: arch gate, manifest, selection,
/// target resolution. On success `*config_out` points into `manifest`.
bool resolve_plan(const Json& manifest, const vm::NodeSpec& node,
                  const IrDeployOptions& options, IrDeployPlan* plan,
                  const Json** config_out) {
  std::string error;
  const Json* config = select_configuration(manifest, options.selections,
                                            &error);
  if (!config) {
    plan->error = error;
    return false;
  }
  plan->configuration = config->get_string("id");
  plan->log.push_back("selected configuration " + plan->configuration);
  if (!resolve_target(*config, node, options, plan)) return false;
  if (config_out) *config_out = config;
  plan->ok = true;
  return true;
}

}  // namespace

std::vector<std::string> ir_image_configurations(
    const container::Image& ir_image, std::string* error) {
  std::vector<std::string> ids;
  const common::Vfs root = ir_image.flatten();
  const auto manifest = read_manifest(root, error);
  if (!manifest) return ids;
  const Json* configs = manifest->find("configurations");
  if (!configs) {
    if (error) *error = "manifest has no configurations";
    return ids;
  }
  for (const auto& c : configs->items()) {
    ids.push_back(c.get_string("id"));
  }
  return ids;
}

IrImageManifest read_ir_image_manifest(const container::Image& ir_image) {
  IrImageManifest result;
  result.architecture = ir_image.architecture;
  const common::Vfs root = ir_image.flatten();
  std::string error;
  auto manifest = read_manifest(root, &error);
  if (!manifest) {
    result.error = error;
    return result;
  }
  result.manifest = std::move(*manifest);
  result.ok = true;
  return result;
}

IrDeployPlan plan_ir_deploy(const IrImageManifest& manifest,
                            const vm::NodeSpec& node,
                            const IrDeployOptions& options) {
  IrDeployPlan plan;
  if (!manifest.ok) {
    plan.error = manifest.error;
    return plan;
  }
  const std::string want = wanted_ir_architecture(node);
  if (manifest.architecture != want) {
    plan.error = "IR image architecture " + manifest.architecture +
                 " does not match node (" + want + ")";
    return plan;
  }
  resolve_plan(manifest.manifest, node, options, &plan, nullptr);
  return plan;
}

IrDeployPlan plan_ir_deploy(const container::Image& ir_image,
                            const vm::NodeSpec& node,
                            const IrDeployOptions& options) {
  return plan_ir_deploy(read_ir_image_manifest(ir_image), node, options);
}

DeployedApp deploy_ir_container(const container::Image& ir_image,
                                const vm::NodeSpec& node,
                                const IrDeployOptions& options) {
  DeployedApp result;
  result.node_name = node.name;

  const std::string want = wanted_ir_architecture(node);
  if (ir_image.architecture != want) {
    result.error = "IR image architecture " + ir_image.architecture +
                   " does not match node (" + want + ")";
    return result;
  }

  const common::Vfs root = ir_image.flatten();
  std::string error;
  const auto manifest = read_manifest(root, &error);
  if (!manifest) {
    result.error = error;
    return result;
  }

  IrDeployPlan plan;
  const Json* config_ptr = nullptr;
  if (!resolve_plan(*manifest, node, options, &plan, &config_ptr)) {
    result.error = plan.error;
    return result;
  }
  const Json& config = *config_ptr;
  const minicc::TargetSpec target = plan.target;
  result.target = target;
  result.log = plan.log;

  // Lower IR files / compile system-dependent sources.
  const Json* units = config.find("translation_units");
  if (!units) {
    result.error = "configuration has no translation units";
    return result;
  }
  std::vector<minicc::MachineModule> modules;
  int lowered = 0;
  int compiled_sd = 0;
  for (const auto& unit : units->items()) {
    const std::string source = unit.get_string("source");
    if (unit.get_bool("system_dependent")) {
      // Compile from source now, against the system's own libraries
      // (Definition 2 files, e.g. MPI-ABI-dependent code).
      const auto flag_args = common::split_ws(unit.get_string("flags"));
      minicc::CompileFlags flags = minicc::CompileFlags::parse_args(flag_args);
      flags.opt_level = options.opt_level;
      common::Vfs app_tree;
      for (const auto& [path, contents] : root) {
        if (common::starts_with(path, "app/")) {
          app_tree.write(path.substr(4), contents);
        }
      }
      const auto compiled =
          minicc::compile_to_target(app_tree, source, flags, target);
      if (!compiled.ok) {
        result.error = "system-dependent compile of " + source + " failed: " +
                       compiled.error.message;
        result.log.push_back("build step failed at translation unit " +
                             source + " (" + compiled.error.phase + "): " +
                             compiled.error.message);
        return result;
      }
      modules.push_back(std::move(compiled.machine));
      ++compiled_sd;
      continue;
    }
    const std::string ir_path = unit.get_string("ir");
    const auto ir_text = root.read(ir_path);
    if (!ir_text) {
      result.error = "IR file missing from image: " + ir_path;
      return result;
    }
    auto parsed = minicc::ir::parse_ir(*ir_text);
    if (!parsed.ok) {
      result.error = "IR parse failed for " + ir_path + ": " + parsed.error;
      result.log.push_back("build step failed at translation unit " + source +
                           " (" + ir_path + "): " + parsed.error);
      return result;
    }
    modules.push_back(minicc::lower(std::move(parsed.module), target));
    ++lowered;
  }
  result.log.push_back("lowered " + std::to_string(lowered) +
                       " IR files, compiled " + std::to_string(compiled_sd) +
                       " system-dependent sources");

  std::string link_error;
  result.program = vm::Program::link(std::move(modules), &link_error);
  if (!result.program.ok()) {
    result.error = "link failed: " + link_error;
    result.log.push_back("build step failed at link: " + link_error);
    return result;
  }

  // Derived, system-specific image; the tag-relevant specialization
  // points travel in an annotation (§4.3.1: "Image tag includes
  // specialization points to support the coexistence of many builds").
  // The record deliberately names only (configuration, target), not the
  // node: the image is a function of (IR digest, selection, target), so
  // every node of a homogeneous fleet shares one bit-identical artifact
  // (the specialization-cache contract; the node stays in DeployedApp).
  common::Vfs install;
  Json record = Json::object();
  record["configuration"] = plan.configuration;
  record["target"] = target.to_string();
  install.write("app/install/config.json", record.dump(2));
  result.image =
      container::ImageBuilder(ir_image)
          .architecture(node.cpu.arch == isa::Arch::X86_64
                            ? container::kArchAmd64
                            : container::kArchArm64)
          .add_layer(std::move(install))
          .annotation(container::kAnnotationKind, "deployed-ir")
          .annotation(container::kAnnotationDeployedConfig,
                      plan.configuration + "|" + target.to_string())
          .build();
  result.image_digest = result.image.digest();
  // Decode once per deployment: every run of this app, on any executor,
  // shares the decoded program.
  result.decoded = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::build(result.program));
  result.ok = true;
  return result;
}

}  // namespace xaas
