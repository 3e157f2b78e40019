#include "xaas/source_container.hpp"

#include <gtest/gtest.h>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "common/json.hpp"
#include "vm/decoded.hpp"

namespace xaas {
namespace {

TEST(SourceContainer, ImageCarriesSpecPointsAnnotation) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  EXPECT_EQ(image.architecture, container::kArchAmd64);
  ASSERT_TRUE(image.annotations.count(container::kAnnotationSpecPoints));
  const auto sp = spec::SpecializationPoints::from_json(common::Json::parse(
      image.annotations.at(container::kAnnotationSpecPoints)));
  EXPECT_EQ(sp.application, "minilulesh");
  EXPECT_EQ(sp.parallel_libraries.size(), 2u);  // MPI + OpenMP
}

TEST(SourceContainer, ImageContainsSourceAndToolchain) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const common::Vfs root = image.flatten();
  EXPECT_TRUE(root.exists("app/src/main.c"));
  EXPECT_TRUE(root.exists("app/xbuild.txt"));
  EXPECT_TRUE(root.exists("opt/toolchain/minicc.json"));
  EXPECT_TRUE(root.exists("opt/mpich/lib/libmpi.so"));
}

TEST(SourceContainer, DeploysAndRunsOnAult23) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("ault23"));
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.target.visa, isa::VectorIsa::AVX_512);
  EXPECT_TRUE(deployed.target.openmp);  // LULESH_OPENMP default ON

  vm::Workload w = apps::minilulesh_workload(256, 10);
  const auto r = deployed.run(w, 4);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.ret_f64, 0.0);  // energy conserved positive
}

TEST(SourceContainer, DeployDecodesOnce) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("ault23"));
  ASSERT_TRUE(deployed.ok) << deployed.error;
  ASSERT_NE(deployed.decoded, nullptr);
  EXPECT_NE(deployed.decoded->find(app.entry_point), nullptr);

  const DeployedApp failed =
      deploy_source_container(image, app, vm::node("clariden"));
  ASSERT_FALSE(failed.ok);
  EXPECT_EQ(failed.decoded, nullptr);
}

TEST(SourceContainer, ArchMismatchRejected) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("clariden"));
  EXPECT_FALSE(deployed.ok);
  EXPECT_NE(deployed.error.find("architecture"), std::string::npos);
}

TEST(SourceContainer, ArmImageDeploysOnClariden) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::AArch64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("clariden"));
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.target.visa, isa::VectorIsa::SVE);
}

TEST(SourceContainer, MinimdAutoSpecializationPicksGpuAndMkl) {
  apps::MinimdOptions opts;
  opts.module_count = 6;
  opts.gpu_module_count = 2;
  const Application app = apps::make_minimd(opts);
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("ault23"));
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.configuration.option_values.at("MD_GPU"), "CUDA");
  EXPECT_EQ(deployed.configuration.option_values.at("MD_FFT"), "mkl");
  EXPECT_EQ(deployed.configuration.option_values.at("MD_SIMD"), "AVX_512");

  vm::Workload w = apps::minimd_workload({64, 8, 4, 64});
  const auto r = deployed.run(w, 2);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.cycles_gpu, 0.0);  // CUDA backend actually used
}

TEST(SourceContainer, UserSelectionsOverridePolicy) {
  apps::MinimdOptions opts;
  opts.module_count = 4;
  opts.gpu_module_count = 1;
  const Application app = apps::make_minimd(opts);
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  SourceDeployOptions deploy_opts;
  deploy_opts.selections = {{"MD_GPU", "OFF"}, {"MD_SIMD", "SSE4.1"}};
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("ault23"), deploy_opts);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  EXPECT_EQ(deployed.configuration.option_values.at("MD_GPU"), "OFF");
  EXPECT_EQ(deployed.target.visa, isa::VectorIsa::SSE4_1);

  vm::Workload w = apps::minimd_workload({64, 8, 4, 64});
  const auto r = deployed.run(w, 1);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.cycles_gpu, 0.0);
}

TEST(SourceContainer, DeployedImageIsDerivedAndDistinct) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const DeployedApp deployed =
      deploy_source_container(image, app, vm::node("ault23"));
  ASSERT_TRUE(deployed.ok) << deployed.error;
  // XaaS breaks the registry-image / system-image identity (§5.2).
  EXPECT_NE(deployed.image.digest(), image.digest());
  EXPECT_EQ(deployed.image.annotations.at(container::kAnnotationBaseDigest),
            image.digest());
  EXPECT_EQ(deployed.image.annotations.at(container::kAnnotationKind),
            "deployed-source");
}

TEST(SourceContainer, DifferentSelectionsYieldDifferentImages) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  SourceDeployOptions a;
  a.selections = {{"LULESH_MPI", "OFF"}};
  SourceDeployOptions b;
  b.selections = {{"LULESH_MPI", "ON"}};
  const auto da = deploy_source_container(image, app, vm::node("ault23"), a);
  const auto db = deploy_source_container(image, app, vm::node("ault23"), b);
  ASSERT_TRUE(da.ok) << da.error;
  ASSERT_TRUE(db.ok) << db.error;
  EXPECT_NE(da.image.digest(), db.image.digest());
}

TEST(SourceContainer, MpiAndSerialProduceSameEnergy) {
  const Application app = apps::make_minilulesh();
  const container::Image image = build_source_image(app, isa::Arch::X86_64);
  const auto run_energy = [&](const std::string& mpi) {
    SourceDeployOptions o;
    o.selections = {{"LULESH_MPI", mpi}};
    const auto d = deploy_source_container(image, app, vm::node("ault23"), o);
    EXPECT_TRUE(d.ok) << d.error;
    vm::Workload w = apps::minilulesh_workload(128, 5);
    const auto r = d.run(w);
    EXPECT_TRUE(r.ok) << r.error;
    return r.ret_f64;
  };
  // The modeled halo exchange contributes zero net energy.
  EXPECT_NEAR(run_energy("OFF"), run_energy("ON"), 1e-9);
}

}  // namespace
}  // namespace xaas
