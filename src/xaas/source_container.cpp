#include "xaas/source_container.hpp"

#include "common/json.hpp"
#include "common/strings.hpp"
#include "minicc/compile_cache.hpp"
#include "minicc/driver.hpp"
#include "spec/system.hpp"
#include "vm/decoded.hpp"

namespace xaas {

using common::Json;

namespace {

// "-DNAME=VALUE" -> {NAME, VALUE}; "-DNAME" -> {NAME, "ON"}.
std::pair<std::string, std::string> parse_flag(const std::string& flag) {
  std::string body = flag;
  if (common::starts_with(body, "-D")) body = body.substr(2);
  const auto eq = body.find('=');
  if (eq == std::string::npos) return {body, "ON"};
  return {body.substr(0, eq), body.substr(eq + 1)};
}

common::Vfs toolchain_layer(isa::Arch arch) {
  common::Vfs files;
  Json meta = Json::object();
  meta["compiler"] = "minicc";
  meta["version"] = "19.0";
  meta["exports_ir"] = true;
  meta["architecture"] = std::string(isa::to_string(arch));
  files.write("opt/toolchain/minicc.json", meta.dump(2));
  files.write("opt/toolchain/bin/minicc", "#!xaas-toolchain minicc 19.0\n");
  // Open-source MPI with the portable MPICH ABI ships in the image
  // (§4.1: "deliver the application source code, an open-source MPI
  // implementation, and the build toolchain").
  files.write("opt/mpich/lib/libmpi.so", "!abi:mpich\nmpich 4.1 generic\n");
  return files;
}

}  // namespace

container::Image build_source_image(const Application& app, isa::Arch arch) {
  common::Vfs source_layer;
  for (const auto& [path, contents] : app.source_tree) {
    source_layer.write("app/" + path, contents);
  }
  source_layer.write("app/xbuild.txt", app.build_script_text);

  return container::ImageBuilder()
      .architecture(arch == isa::Arch::X86_64 ? container::kArchAmd64
                                              : container::kArchArm64)
      .add_layer(toolchain_layer(arch))
      .add_layer(std::move(source_layer))
      .annotation(container::kAnnotationKind, "source")
      .annotation(container::kAnnotationSpecPoints,
                  app.ground_truth().to_json().dump())
      .config("entrypoint", Json("/xaas/deploy"))
      .build();
}

vm::RunResult DeployedApp::run(vm::Workload& workload, int threads) const {
  if (node_name.empty()) {
    // Node-agnostic deployment (a shared specialization-cache entry):
    // there is no "its node" to run on. Fail like every other run-path
    // error instead of letting vm::node() throw.
    vm::RunResult result;
    result.error =
        "deployment is node-agnostic (shared cache entry); use "
        "run_on(node, ...) or FleetDeployResult::run";
    return result;
  }
  return run_on(vm::node(node_name), workload, threads);
}

vm::RunResult DeployedApp::run_on(const vm::NodeSpec& node,
                                  vm::Workload& workload, int threads) const {
  vm::ExecutorOptions exec_options;
  exec_options.threads = threads;
  return run_on(node, workload, exec_options);
}

vm::RunResult DeployedApp::run_on(
    const vm::NodeSpec& node, vm::Workload& workload,
    const vm::ExecutorOptions& exec_options) const {
  const vm::Executor executor(program, node, exec_options, decoded);
  return executor.run(workload);
}

SourceDeployPlan plan_source_deploy(const container::Image& source_image,
                                    const Application& app,
                                    const vm::NodeSpec& node,
                                    const SourceDeployOptions& options) {
  SourceDeployPlan plan;

  // Architecture gate: a source container is per-ISA (x64 / ARM64).
  const std::string node_arch = node.cpu.arch == isa::Arch::X86_64
                                    ? container::kArchAmd64
                                    : container::kArchArm64;
  if (source_image.architecture != node_arch) {
    plan.error = "source image architecture " + source_image.architecture +
                 " does not match node " + node_arch;
    return plan;
  }

  // 1. System discovery on the compute node (Fig. 6).
  const spec::SystemFeatures system = spec::discover_system(node);
  plan.log.push_back("discovered system '" + node.name + "': " +
                     system.microarch);

  // 2. Specialization points from the image annotation, intersected with
  //    the system.
  const auto annotation =
      source_image.annotations.find(container::kAnnotationSpecPoints);
  if (annotation == source_image.annotations.end()) {
    plan.error = "image carries no specialization-point annotation";
    return plan;
  }
  const spec::SpecializationPoints app_points =
      spec::SpecializationPoints::from_json(Json::parse(annotation->second));
  const spec::CommonSpecialization common =
      spec::intersect(app_points, system);
  plan.log.push_back(
      "intersection: " + std::to_string(common.gpu_backends.size()) +
      " GPU backend(s), " + std::to_string(common.simd_levels.size()) +
      " SIMD level(s)");

  // 3. Selection: user choices override; the recommendation policy fills
  //    the rest (§4.1 — operators may supply preferred configurations).
  std::map<std::string, std::string> values = options.selections;
  if (options.auto_specialize) {
    const auto select_from = [&values](const spec::FeatureEntry& entry) {
      if (entry.build_flag.empty()) return;
      const auto [name, value] = parse_flag(entry.build_flag);
      if (!values.count(name)) values[name] = value;
    };
    select_from(common.best_simd_level());
    select_from(common.best_gpu_backend());
    // Performance libraries: prefer MKL when the system has it.
    const auto prefer_library = [&](const std::vector<spec::FeatureEntry>& list) {
      const spec::FeatureEntry* chosen = nullptr;
      for (const auto& e : list) {
        if (common::to_lower(e.name) == "mkl") chosen = &e;
      }
      if (!chosen && !list.empty()) chosen = &list.back();
      if (chosen) select_from(*chosen);
    };
    prefer_library(common.fft_libraries);
    prefer_library(common.linear_algebra_libraries);
  }
  for (const auto& [name, value] : values) {
    plan.log.push_back("selected " + name + "=" + value);
  }

  // 4. Configure against the node environment.
  buildsys::Environment env;
  env.build_dir = "/xaas/build";
  env.dependencies = system.libraries;
  for (const auto& [name, version] : system.gpu_runtimes) {
    env.dependencies[name] = version;
  }
  for (const auto& [name, version] : system.compilers) {
    env.dependencies[name] = version;
  }

  plan.configuration = buildsys::configure(app.script, values, env);
  if (!plan.configuration.ok) {
    plan.error = "configuration failed: " + plan.configuration.error;
    return plan;
  }
  const buildsys::Configuration& config = plan.configuration;

  // Target: explicit march > SIMD selection > node best — clamped to what
  // the node can execute, mirroring the IR path: an unexecutable
  // *selected* tuning degrades to the node's ladder (a program that would
  // trap helps nobody), an unexecutable *explicit* march is an error.
  minicc::TargetSpec target;
  target.opt_level = options.opt_level;
  const isa::VectorIsa node_best = node.best_vector_isa();
  target.visa = node_best;
  for (const auto& opt : app.script.options) {
    if (!opt.is_simd) continue;
    const auto it = config.option_values.find(opt.name);
    if (it != config.option_values.end()) {
      if (const auto visa = isa::vector_isa_from_string(it->second)) {
        target.visa = *visa;
      } else if (it->second == "None") {
        target.visa = isa::VectorIsa::None;
      }
    }
  }
  if (options.march) {
    if (!isa::runs_on(*options.march, node_best)) {
      plan.error = "requested march " +
                   std::string(isa::to_string(*options.march)) +
                   " is not executable on node " + node.name +
                   " (supports up to " +
                   std::string(isa::to_string(node_best)) + ")";
      return plan;
    }
    target.visa = *options.march;
  } else if (!isa::runs_on(target.visa, node_best)) {
    plan.log.push_back("selected march " +
                       std::string(isa::to_string(target.visa)) +
                       " exceeds node support; clamped to " +
                       std::string(isa::to_string(node_best)));
    target.visa = node_best;
  }
  for (const auto& flag : config.global_flags) {
    if (flag == "-fopenmp") target.openmp = true;
  }
  plan.target = target;
  plan.ok = true;
  return plan;
}

DeployedApp build_source_deploy(const container::Image& source_image,
                                const Application& app,
                                const SourceDeployPlan& plan,
                                minicc::CompileCache* tu_cache) {
  DeployedApp result;
  if (!plan.ok) {
    result.error = plan.error.empty() ? "invalid deployment plan" : plan.error;
    return result;
  }
  result.configuration = plan.configuration;
  const minicc::TargetSpec target = plan.target;
  result.target = target;

  // On-system build: compile every translation unit for the plan's
  // target, link. With a compile cache, identical TUs — across nodes,
  // selections, even whole configurations — compile once.
  const auto commands = plan.configuration.compile_commands(app.source_tree);
  std::vector<minicc::MachineModule> modules;
  modules.reserve(commands.size());
  for (const auto& cmd : commands) {
    minicc::CompileFlags flags = minicc::CompileFlags::parse_args(cmd.args);
    flags.opt_level = target.opt_level;
    minicc::CompileError error;
    bool compiled_ok = false;
    if (tu_cache) {
      auto compiled =
          tu_cache->compile(app.source_tree, cmd.source, flags, target);
      compiled_ok = compiled.ok;
      error = compiled.error;
      // Program::link owns its modules; copying the shared module is far
      // cheaper than recompiling it.
      if (compiled.ok) modules.push_back(*compiled.machine);
    } else {
      auto compiled =
          minicc::compile_to_target(app.source_tree, cmd.source, flags, target);
      compiled_ok = compiled.ok;
      error = compiled.error;
      if (compiled.ok) modules.push_back(std::move(compiled.machine));
    }
    if (!compiled_ok) {
      result.error = "compilation of " + cmd.source + " failed (" +
                     error.phase + "): " + error.message;
      result.log.push_back("build step failed at translation unit " +
                           cmd.source + " (" + error.phase + "): " +
                           error.message);
      return result;
    }
  }
  result.log.push_back("compiled " + std::to_string(modules.size()) +
                       " translation units for " +
                       std::string(isa::to_string(target.visa)));

  std::string link_error;
  result.program = vm::Program::link(std::move(modules), &link_error);
  if (!result.program.ok()) {
    result.error = "link failed: " + link_error;
    result.log.push_back("build step failed at link: " + link_error);
    return result;
  }

  // Derived image: binaries + configuration record. The new image is
  // system-specific and no longer portable (§4.1). The record
  // deliberately names only (configuration, target), not the node: the
  // image is a pure function of (source image, plan), so every node
  // whose plan resolves identically shares one bit-identical artifact
  // (the build-farm cache contract; the node stays in DeployedApp).
  common::Vfs binaries;
  Json record = Json::object();
  record["configuration"] = plan.configuration.id();
  record["target"] = target.to_string();
  binaries.write("app/install/config.json", record.dump(2));
  for (std::size_t i = 0; i < commands.size(); ++i) {
    binaries.write("app/install/obj_" + std::to_string(i) + ".o",
                   "!target:" + target.to_string() + "\n" +
                       commands[i].source + "\n");
  }
  result.image = container::ImageBuilder(source_image)
                     .add_layer(std::move(binaries))
                     .annotation(container::kAnnotationKind, "deployed-source")
                     .annotation(container::kAnnotationDeployedConfig,
                                 plan.configuration.id() + "|" +
                                     target.to_string())
                     .build();
  result.image_digest = result.image.digest();
  // Decode once per deployment, as deploy_ir_container does.
  result.decoded = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::build(result.program));
  result.ok = true;
  return result;
}

DeployedApp deploy_source_container(const container::Image& source_image,
                                    const Application& app,
                                    const vm::NodeSpec& node,
                                    const SourceDeployOptions& options) {
  const SourceDeployPlan plan =
      plan_source_deploy(source_image, app, node, options);
  if (!plan.ok) {
    DeployedApp result;
    result.node_name = node.name;
    result.error = plan.error;
    result.log = plan.log;
    return result;
  }
  DeployedApp result = build_source_deploy(source_image, app, plan, nullptr);
  result.node_name = node.name;
  result.log.insert(result.log.begin(), plan.log.begin(), plan.log.end());
  return result;
}

SourceImageApp application_from_source_image(const container::Image& image) {
  SourceImageApp result;
  const common::Vfs root = image.flatten();
  const auto script_text = root.read("app/xbuild.txt");
  if (!script_text) {
    result.error = "image has no app/xbuild.txt build script";
    return result;
  }
  const auto parsed = buildsys::parse_script(*script_text);
  if (!parsed.ok) {
    result.error = "build script parse failed: " + parsed.error;
    return result;
  }
  result.app.script = parsed.script;
  result.app.name = parsed.script.project;
  result.app.build_script_text = *script_text;
  for (const auto& [path, contents] : root) {
    if (common::starts_with(path, "app/") && path != "app/xbuild.txt") {
      result.app.source_tree.write(path.substr(4), contents);
    }
  }
  result.ok = true;
  return result;
}

}  // namespace xaas
