#include "xaas/ir_deploy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <regex>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "vm/decoded.hpp"
#include "xaas/ir_pipeline.hpp"
#include "xaas/source_container.hpp"

namespace xaas {
namespace {

IrContainerBuild build_lulesh_ir() {
  const Application app = apps::make_minilulesh();
  IrBuildOptions options;
  options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                    {"LULESH_OPENMP", {"OFF", "ON"}}};
  return build_ir_container(app, isa::Arch::X86_64, options);
}

TEST(IrDeploy, DeploysSelectedConfigAndRuns) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;

  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_TRUE(deployed.target.openmp);

  vm::Workload w = apps::minilulesh_workload(200, 8);
  const auto r = deployed.run(w, 8);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.ret_f64, 0.0);
}

// A direct deploy decodes once: every run_on of the deployment executes
// that DecodedProgram instead of decoding its own. The stats hook runs
// inside Executor::run, while the executor of that call still holds the
// program it executes, so a second owner of `deployed.decoded` there is
// the executor itself.
TEST(IrDeploy, RunsShareOneDecodedProgram) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok) << build.error;
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  ASSERT_NE(deployed.decoded, nullptr);
  const vm::DecodedProgram* decoded = deployed.decoded.get();

  std::vector<long> owners;
  vm::ExecutorOptions exec_options;
  exec_options.stats_hook = [&](const vm::RunResult&) {
    owners.push_back(deployed.decoded.use_count());
  };
  vm::Workload w1 = apps::minilulesh_workload(64, 2);
  vm::Workload w2 = w1;
  const auto r1 = deployed.run_on(vm::node("ault23"), w1, exec_options);
  const auto r2 = deployed.run_on(vm::node("ault23"), w2, exec_options);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.instructions, r2.instructions);
  EXPECT_EQ(owners, (std::vector<long>{2, 2}));
  EXPECT_EQ(deployed.decoded.get(), decoded);
  EXPECT_EQ(deployed.decoded.use_count(), 1);
}

TEST(IrDeploy, AmbiguousSelectionRejected) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}};  // OpenMP unspecified
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  EXPECT_FALSE(deployed.ok);
  EXPECT_NE(deployed.error.find("ambiguous"), std::string::npos);
}

TEST(IrDeploy, UnknownSelectionRejected) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "MAYBE"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  EXPECT_FALSE(deployed.ok);
}

TEST(IrDeploy, WrongArchitectureRejected) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("clariden"), options);
  EXPECT_FALSE(deployed.ok);
}

TEST(IrDeploy, MpiConfigCompilesSystemDependentSources) {
  apps::MinimdOptions app_options;
  app_options.module_count = 6;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_MPI", {"OFF", "ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  IrDeployOptions options;
  options.selections = {{"MD_MPI", "ON"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;

  vm::Workload w = apps::minimd_workload({48, 8, 3, 32});
  const auto r = deployed.run(w, 2);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(IrDeploy, LoweringTargetFollowsMarchOverride) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  options.march = isa::VectorIsa::SSE4_1;
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.target.visa, isa::VectorIsa::SSE4_1);
}

TEST(IrDeploy, VectorizationLevelChangesModeledRuntime) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  const auto time_for = [&](const std::string& simd) {
    IrDeployOptions options;
    options.selections = {{"MD_SIMD", simd}};
    const DeployedApp deployed =
        deploy_ir_container(build.image, vm::node("ault01"), options);
    EXPECT_TRUE(deployed.ok) << deployed.error;
    vm::Workload w = apps::minimd_workload({128, 16, 4, 128});
    const auto r = deployed.run(w, 1);
    EXPECT_TRUE(r.ok) << r.error;
    return r.elapsed_seconds;
  };
  // AVX-512 deployment beats SSE4.1 of the *same* IR container (Fig. 12).
  EXPECT_LT(time_for("AVX_512"), time_for("SSE4.1") * 0.75);
}

TEST(IrDeploy, SameIrNumericsAcrossVectorLevels) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX2_256"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  const auto energy_for = [&](const std::string& simd) {
    IrDeployOptions options;
    options.selections = {{"MD_SIMD", simd}};
    const DeployedApp deployed =
        deploy_ir_container(build.image, vm::node("ault01"), options);
    EXPECT_TRUE(deployed.ok) << deployed.error;
    vm::Workload w = apps::minimd_workload({64, 8, 3, 64});
    const auto r = deployed.run(w, 1);
    EXPECT_TRUE(r.ok) << r.error;
    return r.ret_f64;
  };
  const double e_sse = energy_for("SSE4.1");
  const double e_avx = energy_for("AVX2_256");
  EXPECT_NEAR(e_sse, e_avx, 1e-6 * (std::abs(e_sse) + 1.0));
}

TEST(IrDeploy, RecordedMarchClampedToNodeSupport) {
  // AVX-512-tuned configuration deployed onto an AVX2-only node: the
  // recorded tuning must be clamped to the node's ladder, not produce a
  // program that traps at run time.
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE4.1", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  IrDeployOptions options;
  options.selections = {{"MD_SIMD", "AVX_512"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("devbox"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.target.visa, vm::node("devbox").best_vector_isa());

  vm::Workload w = apps::minimd_workload({48, 8, 3, 32});
  const auto r = deployed.run(w, 2);
  ASSERT_TRUE(r.ok) << r.error;  // the seed behavior was an illegal-
                                 // instruction trap here
}

TEST(IrDeploy, ExplicitMarchBeyondNodeRejected) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  options.march = isa::VectorIsa::AVX_512;  // devbox tops out at AVX2_256
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("devbox"), options);
  EXPECT_FALSE(deployed.ok);
  EXPECT_NE(deployed.error.find("not executable"), std::string::npos);
}

TEST(IrDeploy, PlanMatchesDeploy) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}};
  const IrDeployPlan plan =
      plan_ir_deploy(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(plan.ok) << plan.error;
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(plan.configuration,
            deployed.image.annotations.at(container::kAnnotationDeployedConfig)
                .substr(0, plan.configuration.size()));
  EXPECT_EQ(plan.target.to_string(), deployed.target.to_string());
}

TEST(IrDeploy, ConfigurationListSurfacesManifestError) {
  // A plain (non-IR) image has no xaas/manifest.json; the error must
  // reach the caller instead of being swallowed into an empty list.
  common::Vfs files;
  files.write("payload", "not an IR container");
  const container::Image plain =
      container::ImageBuilder().add_layer(std::move(files)).build();
  std::string error;
  const auto ids = ir_image_configurations(plain, &error);
  EXPECT_TRUE(ids.empty());
  EXPECT_NE(error.find("manifest"), std::string::npos);

  // And a well-formed IR image reports no error.
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  error.clear();
  const auto ok_ids = ir_image_configurations(build.image, &error);
  EXPECT_EQ(ok_ids.size(), 4u);
  EXPECT_TRUE(error.empty()) << error;
}

/// The minimd IR image with the first loop line of every IR file
/// rewritten by `mutate` (applied to that one line).
container::Image with_mutated_loops(
    const container::Image& image,
    const std::function<std::string(const std::string&)>& mutate) {
  common::Vfs patch;
  for (const auto& [path, contents] : image.flatten()) {
    const auto at = contents.find("\n  loop ");
    if (at == std::string::npos) continue;
    const auto end = contents.find('\n', at + 1);
    const std::string line = contents.substr(at + 1, end - at - 1);
    patch.write(path, contents.substr(0, at + 1) + mutate(line) +
                          contents.substr(end));
  }
  EXPECT_FALSE(patch.glob("*").empty());
  return container::ImageBuilder(image).add_layer(std::move(patch)).build();
}

// Loop metadata is untrusted input: a LoopInfo that names a block its
// function lacks used to send the vectorizer past the end of fn.blocks
// (a heap overflow under ASan). Now the deploy fails with a structured
// error before lowering, for each block-index field.
TEST(IrDeploy, LoopMetadataNamingMissingBlockFailsDeploy) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;
  IrDeployOptions options;
  options.selections = {{"MD_SIMD", "AVX_512"}};
  const DeployedApp healthy =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(healthy.ok) << healthy.error;

  const auto set_field = [](const char* field, const char* value) {
    return [field, value](const std::string& line) {
      return std::regex_replace(
          line, std::regex(std::string(" ") + field + "=-?[0-9]+"),
          std::string(" ") + field + "=" + value);
    };
  };
  const std::vector<std::pair<std::string,
                              std::function<std::string(const std::string&)>>>
      mutants = {
          {"body block 9999", set_field("body", "9999")},
          {"header block -7", set_field("hdr", "-7")},
          {"preheader block 4096", set_field("pre", "4096")},
          {"member block 9999",
           [](const std::string& line) { return line + ",9999"; }},
      };
  for (const auto& [expected, mutate] : mutants) {
    const DeployedApp deployed = deploy_ir_container(
        with_mutated_loops(build.image, mutate), vm::node("ault23"), options);
    EXPECT_FALSE(deployed.ok) << expected;
    EXPECT_NE(deployed.error.find("IR verify failed"), std::string::npos)
        << deployed.error;
    EXPECT_NE(deployed.error.find(expected), std::string::npos)
        << deployed.error;
  }
}

TEST(IrDeploy, DeployedImageIsNativeArchitecture) {
  const auto build = build_lulesh_ir();
  ASSERT_TRUE(build.ok);
  IrDeployOptions options;
  options.selections = {{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "OFF"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, vm::node("ault23"), options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.image.architecture, container::kArchAmd64);
  EXPECT_EQ(deployed.image.annotations.at(container::kAnnotationKind),
            "deployed-ir");
}

}  // namespace
}  // namespace xaas
