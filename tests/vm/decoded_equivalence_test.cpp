// The pre-decoded interpreter (vm/decoded.cpp) must be observationally
// identical to the per-instruction reference interpreter (the seed
// semantics kept in executor.cpp) on whole applications: same return
// values, same cost-model outputs to the last bit, same buffer
// contents, same errors. Shared assertions live in equivalence_util.hpp;
// the kernel-level suites and the differential fuzzer are in
// vm_equivalence_test.cpp.
#include <gtest/gtest.h>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "tests/minicc/test_util.hpp"
#include "tests/vm/equivalence_util.hpp"
#include "vm/executor.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::vm {
namespace {

using testing::check_program;
using testing::expect_identical;

TEST(DecodedEquivalence, MinimdWorkload) {
  apps::MinimdOptions app_options;
  app_options.module_count = 8;
  app_options.gpu_module_count = 1;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_SIMD", {"SSE2", "AVX_512"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  for (const char* simd : {"SSE2", "AVX_512"}) {
    IrDeployOptions deploy_options;
    deploy_options.selections = {{"MD_SIMD", simd}};
    const DeployedApp deployed =
        deploy_ir_container(build.image, node("ault23"), deploy_options);
    ASSERT_TRUE(deployed.ok) << deployed.error;
    const Workload w = apps::minimd_workload({64, 8, 3, 32});
    for (int threads : {1, 8}) {
      check_program(deployed.program, "ault23", w, threads);
    }
  }
}

TEST(DecodedEquivalence, MinimdGpuConfig) {
  apps::MinimdOptions app_options;
  app_options.module_count = 4;
  app_options.gpu_module_count = 2;
  const Application app = apps::make_minimd(app_options);
  IrBuildOptions build_options;
  build_options.points = {{"MD_GPU", {"OFF", "CUDA"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  IrDeployOptions deploy_options;
  deploy_options.selections = {{"MD_GPU", "CUDA"}};
  const DeployedApp deployed =
      deploy_ir_container(build.image, node("ault23"), deploy_options);
  ASSERT_TRUE(deployed.ok) << deployed.error;
  const Workload w = apps::minimd_workload({48, 8, 2, 16});
  check_program(deployed.program, "ault23", w, 4);
}

TEST(DecodedEquivalence, MiniluleshWorkload) {
  const Application app = apps::make_minilulesh();
  IrBuildOptions build_options;
  build_options.points = {{"LULESH_MPI", {"OFF", "ON"}},
                          {"LULESH_OPENMP", {"OFF", "ON"}}};
  const auto build = build_ir_container(app, isa::Arch::X86_64, build_options);
  ASSERT_TRUE(build.ok) << build.error;

  for (const char* openmp : {"OFF", "ON"}) {
    IrDeployOptions deploy_options;
    deploy_options.selections = {{"LULESH_MPI", "OFF"},
                                 {"LULESH_OPENMP", openmp}};
    const DeployedApp deployed =
        deploy_ir_container(build.image, node("ault23"), deploy_options);
    ASSERT_TRUE(deployed.ok) << deployed.error;
    const Workload w = apps::minilulesh_workload(128, 4);
    for (int threads : {1, 16}) {
      check_program(deployed.program, "ault23", w, threads);
    }
  }
}

TEST(DecodedEquivalence, VectorizedDotKernel) {
  // Direct compile of the microbenchmark kernel at AVX-512: exercises
  // VSplat / HReduceAdd / Fma plus scalar control flow.
  const std::string src =
      "double dot(double* a, double* b, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
      "  return acc;\n"
      "}\n";
  minicc::TargetSpec target;
  target.visa = isa::VectorIsa::AVX_512;
  std::vector<minicc::MachineModule> modules;
  modules.push_back(xaas::testing::compile_one(src, target));
  const Program program = Program::link(std::move(modules));
  ASSERT_TRUE(program.ok());

  Workload w;
  w.entry = "dot";
  w.f64_buffers["a"] = std::vector<double>(1000, 0.0);
  w.f64_buffers["b"] = std::vector<double>(1000, 0.0);
  for (int i = 0; i < 1000; ++i) {
    w.f64_buffers["a"][static_cast<std::size_t>(i)] = 0.25 * i - 3.0;
    w.f64_buffers["b"][static_cast<std::size_t>(i)] = 1.0 / (i + 1);
  }
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
            Workload::Arg::i64(1000)};
  check_program(program, "ault23", w, 1);
}

TEST(DecodedEquivalence, TrapsMatch) {
  const std::string src =
      "double f(double* a, int i) { return a[i]; }\n";
  std::vector<minicc::MachineModule> modules;
  modules.push_back(xaas::testing::compile_one(src));
  const Program program = Program::link(std::move(modules));
  ASSERT_TRUE(program.ok());

  Workload w;
  w.entry = "f";
  w.f64_buffers["a"] = std::vector<double>(4, 1.0);
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(99)};

  ExecutorOptions reference_options;
  reference_options.reference_interpreter = true;
  Workload w1 = w;
  Workload w2 = w;
  const RunResult rd = Executor(program, node("devbox")).run(w1);
  const RunResult rr =
      Executor(program, node("devbox"), reference_options).run(w2);
  EXPECT_FALSE(rd.ok);
  expect_identical(rd, rr);
}

}  // namespace
}  // namespace xaas::vm
