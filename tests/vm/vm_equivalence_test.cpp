// Kernel-level equivalence: the decoded machine (vm/decoded.cpp) must be
// bit-identical to the reference interpreter — numerics, instruction
// counts, cycle units, buffers, and traps.
//
// Two layers:
//  - VmEquivalence.*: deterministic loop kernels (dot, axpy, scale,
//    reduce, fill, copy, intrinsics) at every vector width, lengths that
//    do and do not divide the width, trap paths (OOB, instruction
//    budget, unresolved calls), and aliasing in/out streams.
//  - VmEquivalenceStress.*: a seeded differential fuzzer that generates
//    random programs from a kernel grammar and random workloads
//    (NaN/Inf lanes included) and runs them on both tiers. The suite
//    name matches XAAS_STRESS_FILTER so it runs under TSan/ASan in the
//    stress CI lanes; a multithreaded case shares one DecodedProgram
//    across racing runs for TSan's benefit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "tests/minicc/test_util.hpp"
#include "tests/vm/equivalence_util.hpp"
#include "vm/decoded.hpp"
#include "vm/executor.hpp"

namespace xaas::vm {
namespace {

using testing::check_program;
using testing::expect_buffers_identical;
using testing::expect_identical;

Program compile_program(const std::string& src, isa::VectorIsa visa) {
  minicc::TargetSpec target;
  target.visa = visa;
  std::vector<minicc::MachineModule> modules;
  modules.push_back(xaas::testing::compile_one(src, target));
  std::string link_error;
  Program program = Program::link(std::move(modules), &link_error);
  EXPECT_TRUE(program.ok()) << link_error;
  return program;
}

std::vector<double> ramp(int n, double scale, double offset) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = scale * i + offset;
  }
  return v;
}

const isa::VectorIsa kIsas[] = {isa::VectorIsa::None, isa::VectorIsa::SSE2,
                                isa::VectorIsa::AVX2_256,
                                isa::VectorIsa::AVX_512};

// Lengths straddling every vector width: zero-trip, one-trip, smaller
// than the width, exact multiples, off-by-a-few remainders, and sizes
// past 1024 lanes.
const int kLengths[] = {0, 1, 5, 8, 64, 67, 250, 1000, 1003, 2048, 2051};

TEST(VmEquivalence, DotProduct) {
  const std::string src =
      "double dot(double* a, double* b, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
      "  return acc;\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : kLengths) {
      Workload w;
      w.entry = "dot";
      w.f64_buffers["a"] = ramp(n, 0.25, -3.0);
      w.f64_buffers["b"] = ramp(n, -0.125, 7.5);
      w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
                Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, Axpy) {
  const std::string src =
      "void axpy(double a, double* x, double* y, int n) {\n"
      "  for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : kLengths) {
      Workload w;
      w.entry = "axpy";
      w.f64_buffers["x"] = ramp(n, 1.5, 0.0);
      w.f64_buffers["y"] = ramp(n, -2.0, 1.0);
      w.args = {Workload::Arg::f64(2.5), Workload::Arg::buf_f64("x"),
                Workload::Arg::buf_f64("y"), Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, ScaleAndShift) {
  const std::string src =
      "void scale(double* x, double* out, double s, double t, int n) {\n"
      "  for (int i = 0; i < n; i++) { out[i] = s * x[i] + t; }\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : kLengths) {
      Workload w;
      w.entry = "scale";
      w.f64_buffers["x"] = ramp(n, 0.5, -8.0);
      w.f64_buffers["out"] = std::vector<double>(static_cast<std::size_t>(n));
      w.args = {Workload::Arg::buf_f64("x"), Workload::Arg::buf_f64("out"),
                Workload::Arg::f64(-1.25), Workload::Arg::f64(0.75),
                Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, SumReduce) {
  const std::string src =
      "double sum(double* a, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += a[i]; }\n"
      "  return acc;\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : kLengths) {
      Workload w;
      w.entry = "sum";
      w.f64_buffers["a"] = ramp(n, 0.1, -5.0);
      w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, FillAndCopy) {
  const std::string src =
      "void fill(double* a, double v, int n) {\n"
      "  for (int i = 0; i < n; i++) { a[i] = v; }\n"
      "}\n"
      "void copy(double* a, double* b, int n) {\n"
      "  for (int i = 0; i < n; i++) { b[i] = a[i]; }\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : {0, 5, 64, 1003}) {
      Workload wf;
      wf.entry = "fill";
      wf.f64_buffers["a"] = ramp(n, 1.0, 0.0);
      wf.args = {Workload::Arg::buf_f64("a"), Workload::Arg::f64(42.5),
                 Workload::Arg::i64(n)};
      check_program(program, "ault23", wf, 1);

      Workload wc;
      wc.entry = "copy";
      wc.f64_buffers["a"] = ramp(n, -0.75, 2.0);
      wc.f64_buffers["b"] = std::vector<double>(static_cast<std::size_t>(n));
      wc.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
                 Workload::Arg::i64(n)};
      check_program(program, "ault23", wc, 1);
    }
  }
}

TEST(VmEquivalence, IntrinsicKernels) {
  // Every table intrinsic inside a loop body. fmin/fmax and sqrt/fabs
  // NaN behavior must match the reference interpreter exactly.
  const std::string src =
      "void norm(double* a, double* out, int n) {\n"
      "  for (int i = 0; i < n; i++) { out[i] = sqrt(fabs(a[i])); }\n"
      "}\n"
      "void soften(double* a, double* b, double* out, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    out[i] = fmin(fmax(a[i], b[i]), exp(floor(a[i])));\n"
      "  }\n"
      "}\n"
      "double energy(double* a, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += pow2(a[i]) * rsqrt(1.0 + pow2(a[i])); }\n"
      "  return acc;\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : {0, 7, 64, 250, 1003}) {
      std::vector<double> a = ramp(n, 0.3, -10.0);
      if (n > 3) {
        a[1] = std::numeric_limits<double>::quiet_NaN();
        a[2] = std::numeric_limits<double>::infinity();
        a[3] = -0.0;
      }
      for (const char* entry : {"norm", "energy"}) {
        Workload w;
        w.entry = entry;
        w.f64_buffers["a"] = a;
        if (w.entry == "norm") {
          w.f64_buffers["out"] =
              std::vector<double>(static_cast<std::size_t>(n));
          w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("out"),
                    Workload::Arg::i64(n)};
        } else {
          w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::i64(n)};
        }
        check_program(program, "ault23", w, 1);
      }
      Workload w;
      w.entry = "soften";
      w.f64_buffers["a"] = a;
      w.f64_buffers["b"] = ramp(n, -0.2, 4.0);
      w.f64_buffers["out"] = std::vector<double>(static_cast<std::size_t>(n));
      w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
                Workload::Arg::buf_f64("out"), Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, MinMaxSpecialValuePairs) {
  // Every ordered pair of special values through fmin/fmax (NaN of
  // either sign on either side, the ±0 tie both ways, infinities) and
  // fabs/pow2 of each, at every vector width: the decoded machine's
  // two-lane bodies must pick the same operand, sign and NaN bits as the
  // reference's scalar ones.
  const std::string src =
      "void minmax(double* a, double* b, double* lo, double* hi, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    lo[i] = fmin(a[i], b[i]);\n"
      "    hi[i] = fmax(a[i], b[i]);\n"
      "  }\n"
      "}\n"
      "void magnitudes(double* a, double* b, double* out, int n) {\n"
      "  for (int i = 0; i < n; i++) { out[i] = fabs(a[i]) - pow2(b[i]); }\n"
      "}\n";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {nan, -nan, 0.0, -0.0, 1.0, -1.0, inf, -inf, 2.5};
  std::vector<double> a, b;
  for (double x : specials) {
    for (double y : specials) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  const int n = static_cast<int>(a.size());
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    Workload w;
    w.entry = "minmax";
    w.f64_buffers["a"] = a;
    w.f64_buffers["b"] = b;
    w.f64_buffers["lo"] = std::vector<double>(a.size());
    w.f64_buffers["hi"] = std::vector<double>(a.size());
    w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
              Workload::Arg::buf_f64("lo"), Workload::Arg::buf_f64("hi"),
              Workload::Arg::i64(n)};
    check_program(program, "ault23", w, 1);
    Workload m;
    m.entry = "magnitudes";
    m.f64_buffers["a"] = a;
    m.f64_buffers["b"] = b;
    m.f64_buffers["out"] = std::vector<double>(a.size());
    m.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
              Workload::Arg::buf_f64("out"), Workload::Arg::i64(n)};
    check_program(program, "ault23", m, 1);
  }
}

TEST(VmEquivalence, AliasedInputOutput) {
  // In-place update (x reads and writes the same buffer) and an
  // out-stream that also feeds a load: the decoded machine must keep the
  // reference interpreter's read-then-write order.
  const std::string src =
      "void inplace(double* x, int n) {\n"
      "  for (int i = 0; i < n; i++) { x[i] = 2.0 * x[i] + 1.0; }\n"
      "}\n"
      "void mix(double* x, double* y, int n) {\n"
      "  for (int i = 0; i < n; i++) { y[i] = x[i] + y[i]; }\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : {0, 8, 67, 1003}) {
      Workload wi;
      wi.entry = "inplace";
      wi.f64_buffers["x"] = ramp(n, 0.5, -1.0);
      wi.args = {Workload::Arg::buf_f64("x"), Workload::Arg::i64(n)};
      check_program(program, "ault23", wi, 1);

      Workload wm;
      wm.entry = "mix";
      wm.f64_buffers["x"] = ramp(n, 1.0, 0.0);
      wm.f64_buffers["y"] = ramp(n, -1.0, 3.0);
      wm.args = {Workload::Arg::buf_f64("x"), Workload::Arg::buf_f64("y"),
                 Workload::Arg::i64(n)};
      check_program(program, "ault23", wm, 1);

      // Same buffer passed as both streams: load aliases store exactly.
      Workload wa;
      wa.entry = "mix";
      wa.f64_buffers["x"] = ramp(n, 1.0, 0.5);
      wa.args = {Workload::Arg::buf_f64("x"), Workload::Arg::buf_f64("x"),
                 Workload::Arg::i64(n)};
      check_program(program, "ault23", wa, 1);
    }
  }
}

TEST(VmEquivalence, ParallelLoops) {
  const std::string src =
      "double pdot(double* a, double* b, int n) {\n"
      "  double acc = 0.0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
      "  return acc;\n"
      "}\n";
  for (isa::VectorIsa visa : {isa::VectorIsa::None, isa::VectorIsa::AVX_512}) {
    const Program program = compile_program(src, visa);
    for (int n : {0, 67, 1000}) {
      for (int threads : {1, 8}) {
        Workload w;
        w.entry = "pdot";
        w.f64_buffers["a"] = ramp(n, 0.25, -3.0);
        w.f64_buffers["b"] = ramp(n, 0.5, 1.0);
        w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
                  Workload::Arg::i64(n)};
        check_program(program, "ault23", w, threads);
      }
    }
  }
}

TEST(VmEquivalence, OutOfBoundsTrapsIdentical) {
  // A stream running past its buffer traps at the same instruction in
  // both tiers, leaving partially-written buffers in exactly the
  // reference state.
  const std::string src =
      "void stomp(double* x, int n) {\n"
      "  for (int i = 0; i < n; i++) { x[i] = 1.0 + x[i]; }\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    for (int n : {10, 64, 1000}) {
      Workload w;
      w.entry = "stomp";
      w.f64_buffers["x"] = ramp(n / 2, 1.0, 0.0);  // half the claimed size
      w.args = {Workload::Arg::buf_f64("x"), Workload::Arg::i64(n)};
      check_program(program, "ault23", w, 1);
    }
  }
}

TEST(VmEquivalence, BudgetTrapsIdentical) {
  // Instruction-budget traps inside loops: the decoded machine falls
  // back to per-op accounting in the block that crosses the budget, so
  // the trap fires at exactly max_instructions + 1 retired instructions
  // in both tiers, with identical partial buffer state.
  const std::string src =
      "double work(double* a, double* b, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
      "  for (int i = 0; i < n; i++) { b[i] = acc * a[i]; }\n"
      "  return acc;\n"
      "}\n";
  for (isa::VectorIsa visa : kIsas) {
    const Program program = compile_program(src, visa);
    // Sweep budgets across the whole program: trap in the first loop,
    // between the loops, mid-second-loop, and just-barely-enough.
    for (long long budget : {5LL, 40LL, 97LL, 200LL, 301LL, 1000LL, 5000LL}) {
      Workload w;
      w.entry = "work";
      w.f64_buffers["a"] = ramp(200, 0.25, -3.0);
      w.f64_buffers["b"] = ramp(200, -0.5, 2.0);
      w.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
                Workload::Arg::i64(200)};
      check_program(program, "ault23", w, 1, budget);
    }
  }
}

TEST(VmEquivalence, UnresolvedCallDiagnostics) {
  // A fully linked program never decodes CallKind::Unresolved (irgen
  // rejects unknown callees inside a module; Program::link rejects
  // unresolved cross-module symbols), so unresolved() must be empty —
  // it is the tripwire for drift between the frontend's intrinsic set
  // and the VM's table, which would otherwise have silently costed as
  // the removed Intrinsic::Other catch-all.
  const std::string src =
      "double f(double x) { return helper(x) + sqrt(x); }\n"
      "double helper(double x) { return x + 1.0; }\n";
  const Program program = compile_program(src, isa::VectorIsa::None);
  const DecodedProgram decoded = DecodedProgram::build(program);
  EXPECT_TRUE(decoded.unresolved().empty());

  // An intrinsic name shadows any user function of the same name in
  // both tiers (decode classifies intrinsic-first, exactly like the
  // reference interpreter's Call path).
  const std::string shadow_src =
      "double sqrt(double x) { return x * 1000.0; }\n"
      "double g(double x) { return sqrt(x); }\n";
  const Program shadow = compile_program(shadow_src, isa::VectorIsa::None);
  for (bool reference : {false, true}) {
    ExecutorOptions options;
    options.reference_interpreter = reference;
    Workload w;
    w.entry = "g";
    w.args = {Workload::Arg::f64(4.0)};
    const RunResult r = Executor(shadow, node("devbox"), options).run(w);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(testing::bits(r.ret_f64), testing::bits(2.0));
  }
}

TEST(VmEquivalence, IntrinsicTableCoversFrontend) {
  // The static table is the single source of truth for both tiers; it
  // must stay in bijection with the frontend's intrinsic set.
  const auto& table = intrinsic_table();
  ASSERT_EQ(table.size(), 8u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const IntrinsicSpec& spec = table[i];
    EXPECT_EQ(static_cast<std::size_t>(spec.tag), i)
        << "table must be in tag order";
    EXPECT_TRUE(minicc::ir::is_intrinsic(std::string(spec.name)))
        << spec.name;
    EXPECT_EQ(find_intrinsic(spec.name), &spec);
    EXPECT_EQ(intrinsic_cost_units(spec.tag), spec.cost_units);
    EXPECT_GT(spec.cost_units, 0);
  }
  EXPECT_EQ(find_intrinsic("sin"), nullptr);
  EXPECT_EQ(find_intrinsic(""), nullptr);
}

// ---------------------------------------------------------------------------
// Scalar broadcast-on-write. The decoded machine keeps a width-1 result in
// every lane of the bank it was written through, so a wide instruction
// reads lane l of any operand directly, while the reference reads lane 0
// of a scalar. Each kind of scalar producer below feeds wide arithmetic,
// a wide store and a reduction, at the fixed widths and at a width only
// the runtime-width body runs; both tiers must agree bit for bit.

using minicc::ir::Inst;
using minicc::ir::Opcode;
using minicc::ir::RegType;

Inst ir(Opcode op, int dst, int a = -1, int b = -1, int width = 1) {
  Inst inst{};
  inst.op = op;
  inst.dst = dst;
  inst.a = a;
  inst.b = b;
  inst.width = width;
  return inst;
}

enum class Producer {
  EntryArgument,
  ScalarLoad,
  IntrinsicResult,
  ReduceAdd,
  CallResult,
  MovFromVector,
};

// k(double* buf, double x, long* ibuf, long n) -> double. The float
// scalar s comes from `producer`; the int scalars are the entry argument
// n and a scalar load. Both feed width-`width` arithmetic on lanes loaded
// from the buffers, whose results are stored back and reduced.
Program broadcast_program(Producer producer, int width) {
  minicc::ir::Function k;
  k.name = "k";
  k.ret_type = RegType::F64;
  for (RegType t : {RegType::PtrF, RegType::F64, RegType::F64, RegType::I64,
                    RegType::F64, RegType::F64, RegType::F64, RegType::F64,
                    RegType::I64, RegType::PtrI, RegType::I64, RegType::I64,
                    RegType::I64, RegType::I64}) {
    k.add_reg(t);
  }
  k.params = {{RegType::PtrF, "buf", 0},
              {RegType::F64, "x", 1},
              {RegType::PtrI, "ibuf", 9},
              {RegType::I64, "n", 10}};
  std::vector<Inst> body;
  Inst zero = ir(Opcode::ConstI, 3);
  Inst eleven = ir(Opcode::ConstI, 8);
  eleven.iimm = 11;
  body = {zero, eleven, ir(Opcode::LoadF, 4, 0, 3, width)};
  int s = 2;
  switch (producer) {
    case Producer::EntryArgument:
      s = 1;
      break;
    case Producer::ScalarLoad:
      body.push_back(ir(Opcode::LoadF, 2, 0, 8));
      break;
    case Producer::IntrinsicResult: {
      Inst call = ir(Opcode::Call, 2);
      call.callee = "sqrt";
      call.args = {1};
      body.push_back(call);
      break;
    }
    case Producer::ReduceAdd:
      body.push_back(ir(Opcode::HReduceAdd, 2, 4));
      break;
    case Producer::CallResult: {
      Inst call = ir(Opcode::Call, 2);
      call.callee = "twice";
      call.args = {1};
      body.push_back(call);
      break;
    }
    case Producer::MovFromVector:
      body.push_back(ir(Opcode::Mov, 2, 4));
      break;
  }
  Inst fma = ir(Opcode::Fma, 6, 5, s, width);
  fma.c = s;
  Inst store = ir(Opcode::StoreF, -1, 0, 3, width);
  store.c = 6;
  Inst istore = ir(Opcode::StoreI, -1, 9, 3, width);
  istore.c = 12;
  for (const Inst& inst :
       {ir(Opcode::FMul, 5, 4, s, width), fma,
        ir(Opcode::FSub, 6, 6, s, width), store,
        ir(Opcode::HReduceAdd, 7, 6), ir(Opcode::FAdd, 7, 7, s),
        ir(Opcode::LoadI, 11, 9, 3, width), ir(Opcode::LoadI, 13, 9, 8),
        ir(Opcode::IAdd, 12, 11, 10, width),
        ir(Opcode::IMul, 12, 12, 13, width), istore,
        ir(Opcode::Ret, -1, 7)}) {
    body.push_back(inst);
  }
  k.blocks.push_back({"entry", std::move(body)});

  minicc::ir::Function twice;
  twice.name = "twice";
  twice.ret_type = RegType::F64;
  twice.add_reg(RegType::F64);
  twice.add_reg(RegType::F64);
  twice.params = {{RegType::F64, "y", 0}};
  Inst two = ir(Opcode::ConstF, 1);
  two.fimm = 2.0;
  twice.blocks.push_back(
      {"entry", {two, ir(Opcode::FMul, 1, 0, 1), ir(Opcode::Ret, -1, 1)}});

  minicc::MachineModule module;
  module.code.source_path = "broadcast.ir";
  module.code.functions = {std::move(k), std::move(twice)};
  std::vector<minicc::MachineModule> modules;
  modules.push_back(std::move(module));
  std::string link_error;
  Program program = Program::link(std::move(modules), &link_error);
  EXPECT_TRUE(program.ok()) << link_error;
  return program;
}

Workload broadcast_workload(double x) {
  Workload w;
  w.entry = "k";
  w.f64_buffers["buf"] = ramp(16, 0.75, -2.5);
  auto& ibuf = w.i64_buffers["ibuf"];
  for (int i = 0; i < 16; ++i) ibuf.push_back(3 * i - 7);
  w.args = {Workload::Arg::buf_f64("buf"), Workload::Arg::f64(x),
            Workload::Arg::buf_i64("ibuf"), Workload::Arg::i64(-5)};
  return w;
}

TEST(VmEquivalence, ScalarProducersFeedWideInstructions) {
  for (Producer producer :
       {Producer::EntryArgument, Producer::ScalarLoad,
        Producer::IntrinsicResult, Producer::ReduceAdd, Producer::CallResult,
        Producer::MovFromVector}) {
    for (int width : {2, 3, 4, 8}) {
      SCOPED_TRACE("producer=" + std::to_string(static_cast<int>(producer)) +
                   " width=" + std::to_string(width));
      const Program program = broadcast_program(producer, width);
      for (double x : {2.25, -0.0, std::numeric_limits<double>::quiet_NaN()}) {
        check_program(program, "ault23", broadcast_workload(x), 1);
      }
    }
  }
}

// A width-1 Mov of a vector register keeps lane 0 only; a following wide
// instruction must see that lane in every position, not the vector's.
TEST(VmEquivalence, ScalarMovOfVectorBroadcastsLaneZero) {
  for (int width : {2, 4, 8}) {
    const Program program =
        broadcast_program(Producer::MovFromVector, width);
    Workload decoded = broadcast_workload(1.0);
    ExecutorOptions options;
    const RunResult r = Executor(program, node("ault23"), options).run(decoded);
    ASSERT_TRUE(r.ok) << r.error;
    // buf[l] = (buf[l] * s) * s + s - s with s = buf[0] = -2.5.
    const std::vector<double> in = ramp(16, 0.75, -2.5);
    const std::vector<double>& out = decoded.f64_buffers["buf"];
    const double s = in[0];
    for (std::size_t l = 0; l < static_cast<std::size_t>(width); ++l) {
      const double expect = (in[l] * s) * s + s - s;
      EXPECT_EQ(testing::bits(out[l]), testing::bits(expect)) << "lane " << l;
    }
    check_program(program, "ault23", broadcast_workload(1.0), 1);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzzer. Named *Stress* so it joins the stress label and
// runs under TSan and ASan+UBSan in CI (see XAAS_STRESS_FILTER).

struct FuzzCase {
  std::string src;
  std::string entry;
  int buffers = 0;      // number of double* parameters
  bool wants_scalar = false;  // trailing double scalar parameter
};

// Kernel grammar: every template takes (buffers..., [scalar,] n). The
// bodies mix unit-stride streams, reversed and gathered indexing,
// loop-carried memory recurrences, parallel loops, and non-loop code.
FuzzCase fuzz_case(std::mt19937_64& rng) {
  static const FuzzCase kCases[] = {
      {"double k(double* a, double* b, int n) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
       "  return acc;\n}\n",
       "k", 2, false},
      {"void k(double* a, double* b, double s, int n) {\n"
       "  for (int i = 0; i < n; i++) { b[i] = s * a[i] + b[i]; }\n}\n",
       "k", 2, true},
      {"void k(double* a, double* b, double s, int n) {\n"
       "  for (int i = 0; i < n; i++) { b[i] = fmax(a[i] * s, b[i]); }\n}\n",
       "k", 2, true},
      {"double k(double* a, int n) {\n"
       "  double acc = 1.0;\n"
       "  for (int i = 0; i < n; i++) { acc += fabs(a[i]) * 0.5; }\n"
       "  return acc;\n}\n",
       "k", 1, false},
      {"double k(double* a, double* b, int n) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; i++) { acc += sqrt(fabs(a[i])) - b[i]; }\n"
       "  return acc;\n}\n",
       "k", 2, false},
      {"void k(double* a, double* b, int n) {\n"
       "  for (int i = 0; i < n; i++) { b[i] = exp(floor(a[i])); }\n}\n",
       "k", 2, false},
      // Reversed iteration (negative step).
      {"double k(double* a, int n) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = n - 1; i >= 0; i = i - 1) { acc += a[i]; }\n"
       "  return acc;\n}\n",
       "k", 1, false},
      // Loop-carried recurrence through memory.
      {"void k(double* a, int n) {\n"
       "  for (int i = 1; i < n; i++) { a[i] = a[i] + a[i - 1]; }\n}\n",
       "k", 1, false},
      // Gather through a computed index.
      {"double k(double* a, double* b, int n) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; i++) { acc += a[i] * b[n - 1 - i]; }\n"
       "  return acc;\n}\n",
       "k", 2, false},
      // Two loops back to back sharing a stream.
      {"double k(double* a, double* b, double s, int n) {\n"
       "  for (int i = 0; i < n; i++) { b[i] = s * a[i]; }\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; i++) { acc += b[i] * b[i]; }\n"
       "  return acc;\n}\n",
       "k", 2, true},
      // Scalar epilogue after the loop keeps the exit path honest.
      {"double k(double* a, double s, int n) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; i++) { acc += a[i] * s; }\n"
       "  if (acc > 100.0) { acc = acc - 100.0; }\n"
       "  return acc * 2.0;\n}\n",
       "k", 1, true},
      // Parallel loop.
      {"double k(double* a, double* b, int n) {\n"
       "  double acc = 0.0;\n"
       "#pragma omp parallel for\n"
       "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
       "  return acc;\n}\n",
       "k", 2, false},
  };
  return kCases[rng() % (sizeof(kCases) / sizeof(kCases[0]))];
}

double fuzz_value(std::mt19937_64& rng) {
  switch (rng() % 16) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    case 4:
      return 1e308;
    case 5:
      return 1e-308;  // subnormal territory after a multiply
    default: {
      const double mag = static_cast<double>(rng() % 4000) / 16.0 - 125.0;
      return mag;
    }
  }
}

void run_fuzz_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const FuzzCase fc = fuzz_case(rng);
  const isa::VectorIsa visa = kIsas[rng() % 4];
  const Program program = compile_program(fc.src, visa);

  const int n = static_cast<int>(rng() % 1200);
  // Sometimes under-allocate to force an OOB trap mid-loop.
  const bool short_buffer = (rng() % 8) == 0 && n > 4;
  const int alloc = short_buffer ? n / 2 : n;

  Workload w;
  w.entry = fc.entry;
  const char* names[] = {"a", "b"};
  for (int bi = 0; bi < fc.buffers; ++bi) {
    auto& buf = w.f64_buffers[names[bi]];
    buf.resize(static_cast<std::size_t>(alloc));
    for (double& v : buf) v = fuzz_value(rng);
    w.args.push_back(Workload::Arg::buf_f64(names[bi]));
  }
  if (fc.wants_scalar) w.args.push_back(Workload::Arg::f64(fuzz_value(rng)));
  w.args.push_back(Workload::Arg::i64(n));

  const int threads = (rng() % 4 == 0) ? 8 : 1;
  // Sometimes squeeze the budget to land a trap inside the loop.
  long long budget = -1;
  if (rng() % 4 == 0) budget = static_cast<long long>(rng() % 4000) + 1;
  check_program(program, "ault23", w, threads, budget);
}

TEST(VmEquivalenceStress, DifferentialFuzz) {
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_fuzz_seed(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(VmEquivalenceStress, SharedDecodedProgramAcrossThreads) {
  // Many executors racing over one DecodedProgram: TSan checks the
  // decoded structures are genuinely read-only during execution.
  const std::string src =
      "double dot(double* a, double* b, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; i++) { acc += a[i] * b[i]; }\n"
      "  return acc;\n"
      "}\n";
  const Program program = compile_program(src, isa::VectorIsa::AVX_512);
  const Executor warm(program, node("ault23"));
  const auto decoded = warm.decoded_program();
  ASSERT_NE(decoded, nullptr);

  const int n = 1003;
  Workload base;
  base.entry = "dot";
  base.f64_buffers["a"] = ramp(n, 0.25, -3.0);
  base.f64_buffers["b"] = ramp(n, -0.5, 9.0);
  base.args = {Workload::Arg::buf_f64("a"), Workload::Arg::buf_f64("b"),
               Workload::Arg::i64(n)};
  Workload probe = base;
  const RunResult expected = warm.run(probe);
  ASSERT_TRUE(expected.ok) << expected.error;

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      const Executor exec(program, node("ault23"), ExecutorOptions{}, decoded);
      for (int iter = 0; iter < 50; ++iter) {
        Workload w = base;
        const RunResult r = exec.run(w);
        if (!r.ok ||
            testing::bits(r.ret_f64) != testing::bits(expected.ret_f64) ||
            r.instructions != expected.instructions) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace xaas::vm
