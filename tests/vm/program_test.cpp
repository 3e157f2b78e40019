#include "vm/program.hpp"

#include <gtest/gtest.h>

#include "tests/minicc/test_util.hpp"
#include "vm/decoded.hpp"
#include "vm/executor.hpp"

namespace xaas::vm {
namespace {

using minicc::ir::Inst;
using minicc::ir::Opcode;
using xaas::testing::compile_one;

Inst make_inst(Opcode op, int dst, int a = -1, int b = -1) {
  Inst inst{};
  inst.op = op;
  inst.dst = dst;
  inst.a = a;
  inst.b = b;
  return inst;
}

// One function `f(double r0) -> double` over `nregs` float registers
// whose single block is `insts` followed by `ret r2`.
minicc::MachineModule hand_module(std::vector<Inst> insts, int nregs = 3) {
  minicc::ir::Function fn;
  fn.name = "f";
  fn.ret_type = minicc::ir::RegType::F64;
  for (int r = 0; r < nregs; ++r) fn.add_reg(minicc::ir::RegType::F64);
  fn.params.push_back({minicc::ir::RegType::F64, "x", 0});
  insts.push_back(make_inst(Opcode::Ret, -1, 2));
  fn.blocks.push_back({"entry", std::move(insts)});
  minicc::MachineModule module;
  module.code.source_path = "hand.ir";
  module.code.functions.push_back(std::move(fn));
  return module;
}

LinkError link_error_of(std::vector<Inst> insts, int nregs = 3) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(hand_module(std::move(insts), nregs));
  const Program p = Program::link(std::move(modules));
  EXPECT_FALSE(p.ok());
  return p.link_error();
}

TEST(Program, LinksMultipleModules) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(compile_one("double helper(double x) { return x * 2.0; }\n"));
  modules.push_back(
      compile_one("double helper(double x);\n"
                  "double main_fn(double x) { return helper(x) + 1.0; }\n"));
  // Declarations produce no code, so no duplicate symbol.
  std::string error;
  const Program p = Program::link(std::move(modules), &error);
  ASSERT_TRUE(p.ok()) << error;
  EXPECT_NE(p.find_function("helper"), nullptr);
  EXPECT_NE(p.find_function("main_fn"), nullptr);
  EXPECT_EQ(p.find_function("absent"), nullptr);
  EXPECT_EQ(p.num_modules(), 2u);
}

TEST(Program, DuplicateSymbolFails) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(compile_one("void f() { }\n"));
  modules.push_back(compile_one("void f() { }\n"));
  std::string error;
  const Program p = Program::link(std::move(modules), &error);
  EXPECT_FALSE(p.ok());
  EXPECT_NE(error.find("duplicate symbol"), std::string::npos);
}

TEST(Program, UnresolvedSymbolFails) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(
      compile_one("double missing(double x);\n"
                  "double f(double x) { return missing(x); }\n"));
  std::string error;
  const Program p = Program::link(std::move(modules), &error);
  EXPECT_FALSE(p.ok());
  EXPECT_NE(error.find("unresolved symbol"), std::string::npos);
}

TEST(Program, MixedTargetIsaFailsToLink) {
  minicc::TargetSpec sse;
  sse.visa = isa::VectorIsa::SSE2;
  minicc::TargetSpec avx;
  avx.visa = isa::VectorIsa::AVX_512;
  std::vector<minicc::MachineModule> modules;
  modules.push_back(compile_one("void a() { }\n", sse));
  modules.push_back(compile_one("void b() { }\n", avx));
  std::string error;
  const Program p = Program::link(std::move(modules), &error);
  EXPECT_FALSE(p.ok());
  EXPECT_NE(error.find("target ISA mismatch"), std::string::npos);
}

TEST(Program, IntrinsicsNeedNoDefinition) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(compile_one("double f(double x) { return sqrt(x); }\n"));
  std::string error;
  const Program p = Program::link(std::move(modules), &error);
  EXPECT_TRUE(p.ok()) << error;
}

// A register operand of -1 would index regs[-1] in both tiers; link
// rejects it and names the offending instruction.
TEST(Program, NegativeOperandRegisterFailsToLink) {
  const LinkError e = link_error_of(
      {make_inst(Opcode::ConstF, 1), make_inst(Opcode::FAdd, 2, -1, 1)});
  EXPECT_EQ(e.kind, LinkError::Kind::BadOperand);
  EXPECT_EQ(e.function, "f");
  EXPECT_EQ(e.block, 0);
  EXPECT_EQ(e.inst, 1);
  EXPECT_NE(e.message.find("operand a register -1"), std::string::npos)
      << e.message;

  // The same module with a valid operand links and runs.
  std::vector<minicc::MachineModule> modules;
  modules.push_back(hand_module(
      {make_inst(Opcode::ConstF, 1), make_inst(Opcode::FAdd, 2, 0, 1)}));
  const Program ok = Program::link(std::move(modules));
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.link_error().kind, LinkError::Kind::None);
  Workload w;
  w.entry = "f";
  w.args = {Workload::Arg::f64(1.5)};
  const RunResult r = Executor(ok, node("devbox")).run(w);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ret_f64, 1.5);
}

TEST(Program, OutOfRangeOperandsFailToLink) {
  Inst wide_dst = make_inst(Opcode::ConstF, 3);
  Inst low_dst = make_inst(Opcode::ConstF, -2);
  Inst bad_b = make_inst(Opcode::FMul, 2, 0, 7);
  Inst bad_c = make_inst(Opcode::StoreF, -1, 0, 1);
  bad_c.c = 3;
  Inst bad_arg = make_inst(Opcode::Call, 2);
  bad_arg.callee = "sqrt";
  bad_arg.args = {0, 5};
  Inst zero_width = make_inst(Opcode::Mov, 2, 0);
  zero_width.width = 0;
  Inst too_wide = make_inst(Opcode::Mov, 2, 0);
  too_wide.width = kMaxLanes + 1;
  Inst bad_branch = make_inst(Opcode::Br, -1);
  bad_branch.t1 = 4;
  for (const Inst& inst :
       {wide_dst, low_dst, bad_b, bad_c, bad_arg, zero_width, too_wide,
        bad_branch}) {
    const LinkError e = link_error_of({inst});
    EXPECT_EQ(e.kind, LinkError::Kind::BadOperand) << e.message;
    EXPECT_EQ(e.inst, 0) << e.message;
  }
  // A bad return register (the terminator link_error_of appends).
  EXPECT_EQ(link_error_of({}, 2).kind, LinkError::Kind::BadOperand);
}

TEST(Program, BadParameterRegisterFailsToLink) {
  std::vector<minicc::MachineModule> modules;
  modules.push_back(hand_module({make_inst(Opcode::Mov, 2, 0)}));
  modules.front().code.functions.front().params.front().reg = 9;
  const Program p = Program::link(std::move(modules));
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.link_error().kind, LinkError::Kind::BadOperand);
  EXPECT_EQ(p.link_error().block, -1);
  EXPECT_NE(p.error().find("parameter register 9"), std::string::npos);
}

TEST(Program, EmptyLinkFails) {
  std::string error;
  const Program p = Program::link({}, &error);
  EXPECT_FALSE(p.ok());
}

}  // namespace
}  // namespace xaas::vm
