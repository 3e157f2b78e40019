#include "vm/executor.hpp"

#include <gtest/gtest.h>

#include "tests/minicc/test_util.hpp"

namespace xaas::vm {
namespace {

using xaas::testing::run_program;

const std::string kParallelFill =
    "void fill(double* a, int n) {\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < n; i++) { a[i] = sqrt(i * 1.0); }\n"
    "}\n";

Workload fill_workload(int n) {
  Workload w;
  w.entry = "fill";
  w.f64_buffers["a"] = std::vector<double>(static_cast<std::size_t>(n), 0.0);
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(n)};
  return w;
}

TEST(Executor, OpenmpScalesElapsedTime) {
  minicc::CompileFlags flags;
  flags.openmp = true;
  minicc::TargetSpec target;
  target.openmp = true;

  Workload w1 = fill_workload(20000);
  auto r1 = run_program(kParallelFill, w1, target, "ault23", 1, flags);
  ASSERT_TRUE(r1.ok) << r1.error;

  Workload w16 = fill_workload(20000);
  auto r16 = run_program(kParallelFill, w16, target, "ault23", 16, flags);
  ASSERT_TRUE(r16.ok) << r16.error;

  EXPECT_EQ(r16.threads_used, 16);
  // Parallel cycles dominate; expect near-linear scaling (efficiency 0.92).
  EXPECT_LT(r16.elapsed_seconds, r1.elapsed_seconds / 8.0);
  EXPECT_GT(r16.fork_joins, 0);
}

TEST(Executor, WithoutOpenmpNoScaling) {
  // Same source, compiled without -fopenmp: the pragma is ignored.
  Workload w1 = fill_workload(5000);
  auto r1 = run_program(kParallelFill, w1, {}, "ault23", 1);
  ASSERT_TRUE(r1.ok) << r1.error;
  Workload w16 = fill_workload(5000);
  auto r16 = run_program(kParallelFill, w16, {}, "ault23", 16);
  ASSERT_TRUE(r16.ok) << r16.error;
  EXPECT_DOUBLE_EQ(r16.elapsed_seconds, r1.elapsed_seconds);
  EXPECT_EQ(r1.fork_joins, 0);
}

TEST(Executor, ThreadsCappedAtNodeCores) {
  minicc::TargetSpec target;
  target.openmp = true;
  minicc::CompileFlags flags;
  flags.openmp = true;
  Workload w = fill_workload(1000);
  auto r = run_program(kParallelFill, w, target, "ault23", 512, flags);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.threads_used, node("ault23").cpu.cores);
}

TEST(Executor, GpuKernelRunsOnGpuNode) {
  const std::string src =
      "#pragma xaas gpu_kernel\n"
      "void k(double* a, int n) {\n"
      "  for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }\n"
      "}\n"
      "void launch(double* a, int n) { k(a, n); }\n";
  Workload w;
  w.entry = "launch";
  w.f64_buffers["a"] = std::vector<double>(1000, 1.0);
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(1000)};
  auto r = run_program(src, w, {}, "ault23");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.cycles_gpu, 0.0);
  EXPECT_DOUBLE_EQ(w.f64_buffers["a"][0], 3.0);
}

TEST(Executor, GpuKernelTrapsWithoutGpu) {
  const std::string src =
      "#pragma xaas gpu_kernel\n"
      "void k(double* a, int n) { a[0] = 1.0; }\n"
      "void launch(double* a, int n) { k(a, n); }\n";
  Workload w;
  w.entry = "launch";
  w.f64_buffers["a"] = std::vector<double>(4, 0.0);
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(4)};
  auto r = run_program(src, w, {}, "ault01");  // CPU-only partition
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("without a GPU"), std::string::npos);
}

TEST(Executor, GpuIsFasterThanCpuForLargeKernels) {
  const std::string gpu_src =
      "#pragma xaas gpu_kernel\n"
      "void k(double* a, int n) {\n"
      "  for (int i = 0; i < n; i++) { a[i] = sqrt(a[i]) * 2.0; }\n"
      "}\n"
      "void run(double* a, int n) { k(a, n); }\n";
  const std::string cpu_src =
      "void k(double* a, int n) {\n"
      "  for (int i = 0; i < n; i++) { a[i] = sqrt(a[i]) * 2.0; }\n"
      "}\n"
      "void run(double* a, int n) { k(a, n); }\n";
  const auto elapsed = [&](const std::string& src) {
    Workload w;
    w.entry = "run";
    w.f64_buffers["a"] = std::vector<double>(100000, 2.0);
    w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(100000)};
    auto r = run_program(src, w, {}, "ault23");
    EXPECT_TRUE(r.ok) << r.error;
    return r.elapsed_seconds;
  };
  EXPECT_LT(elapsed(gpu_src), elapsed(cpu_src));
}

TEST(Executor, IllegalInstructionOnWeakerHost) {
  minicc::TargetSpec avx512;
  avx512.visa = isa::VectorIsa::AVX_512;
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::f64(1.0)};
  // ault25 is Zen2: AVX2 only.
  auto r = run_program("double f(double x) { return x; }\n", w, avx512,
                       "ault25");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("illegal instruction"), std::string::npos);
}

TEST(Executor, ExecFormatErrorAcrossArchitectures) {
  minicc::TargetSpec sse;
  sse.visa = isa::VectorIsa::SSE2;
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::f64(1.0)};
  auto r = run_program("double f(double x) { return x; }\n", w, sse,
                       "clariden");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exec format error"), std::string::npos);
}

TEST(Executor, ScalarCodeRunsAnywhere) {
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::f64(2.0)};
  for (const char* n : {"ault23", "ault25", "clariden", "aurora"}) {
    Workload wc = w;
    auto r = run_program("double f(double x) { return x * x; }\n", wc, {}, n);
    EXPECT_TRUE(r.ok) << n << ": " << r.error;
    EXPECT_DOUBLE_EQ(r.ret_f64, 4.0);
  }
}

TEST(Executor, NeonCodeRunsOnClariden) {
  minicc::TargetSpec neon;
  neon.visa = isa::VectorIsa::NEON_ASIMD;
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::f64(3.0)};
  auto r = run_program("double f(double x) { return x + 1.0; }\n", w, neon,
                       "clariden");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.ret_f64, 4.0);
}

TEST(Executor, MissingEntryFunction) {
  Workload w;
  w.entry = "no_such";
  auto r = run_program("void f() { }\n", w);
  EXPECT_FALSE(r.ok);
}

TEST(Executor, UnknownBufferName) {
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::buf_f64("ghost")};
  auto r = run_program("void f(double* a) { }\n", w);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown buffer"), std::string::npos);
}

TEST(Executor, InstructionBudgetStopsRunaways) {
  const std::string src =
      "void f() { while (1 == 1) { } }\n";
  std::vector<minicc::MachineModule> modules;
  modules.push_back(xaas::testing::compile_one(src));
  const Program program = Program::link(std::move(modules));
  ExecutorOptions options;
  options.max_instructions = 10000;
  const Executor exec(program, node("devbox"), options);
  Workload w;
  w.entry = "f";
  auto r = exec.run(w);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("instruction budget"), std::string::npos);
}

TEST(Executor, NodeSpecTemporaryDoesNotDangle) {
  // Regression: Executor used to hold the NodeSpec by reference, so a
  // caller passing a stack-materialized spec (the fleet/gateway pattern)
  // left the executor reading freed stack once the spec went out of
  // scope. The spec is copied now: mutating (or destroying) the
  // caller's copy after construction must not change what runs.
  const std::string src =
      "#pragma xaas gpu_kernel\n"
      "void k(double* a, int n) {\n"
      "  for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n"
      "}\n"
      "void launch(double* a, int n) { k(a, n); }\n";
  std::vector<minicc::MachineModule> modules;
  modules.push_back(xaas::testing::compile_one(src));
  const Program program = Program::link(std::move(modules));

  NodeSpec spec = node("ault23");  // has a GPU
  const Executor exec(program, spec, {});
  spec = node("ault01");  // CPU-only: a dangling reference would see this

  Workload w;
  w.entry = "launch";
  w.f64_buffers["a"] = std::vector<double>(64, 1.0);
  w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(64)};
  auto r = exec.run(w);
  ASSERT_TRUE(r.ok) << r.error;  // fails "without a GPU" if spec dangled
  EXPECT_GT(r.cycles_gpu, 0.0);
  EXPECT_DOUBLE_EQ(w.f64_buffers["a"][0], 2.0);
}

TEST(Executor, BudgetTrapCountsPinnedAcrossTiers) {
  // The budget check runs before each instruction retires, in every
  // tier: a trapped run reports exactly max_instructions + 1, and a
  // budget of exactly the program's count does not trap. The loop is a
  // vectorized dot, so budgets land both at and inside block bounds.
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

  const auto make_workload = [] {
    Workload w;
    w.entry = "dot";
    w.f64_buffers["a"] = std::vector<double>(500, 1.5);
    w.f64_buffers["b"] = std::vector<double>(500, -0.5);
    w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
              Workload::Arg::i64(500)};
    return w;
  };
  const auto run_tier = [&](int tier, long long budget) {
    ExecutorOptions options;
    if (budget >= 0) options.max_instructions = budget;
    options.reference_interpreter = (tier == 1);
    Workload w = make_workload();
    return Executor(program, node("ault23"), options).run(w);
  };

  const RunResult full = run_tier(1, -1);
  ASSERT_TRUE(full.ok) << full.error;
  const long long total = full.instructions;
  ASSERT_GT(total, 100);

  for (int tier : {0, 1}) {
    // Exact budget: completes, same count.
    const RunResult exact = run_tier(tier, total);
    EXPECT_TRUE(exact.ok) << exact.error;
    EXPECT_EQ(exact.instructions, total);
    // One short: traps having retired exactly total instructions.
    const RunResult shy = run_tier(tier, total - 1);
    EXPECT_FALSE(shy.ok);
    EXPECT_NE(shy.error.find("instruction budget"), std::string::npos);
    EXPECT_EQ(shy.instructions, total);
    // Mid-loop budgets trap at exactly budget + 1 in every tier.
    for (long long budget : {50LL, 101LL, total / 2}) {
      const RunResult r = run_tier(tier, budget);
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("instruction budget"), std::string::npos);
      EXPECT_EQ(r.instructions, budget + 1) << "tier " << tier;
    }
  }
}

}  // namespace
}  // namespace xaas::vm
