#include "vm/program.hpp"

#include "vm/decoded.hpp"

namespace xaas::vm {

namespace {

using minicc::ir::Function;
using minicc::ir::Inst;
using minicc::ir::Opcode;

// The register operands an opcode reads (besides call arguments).
struct Reads {
  bool a = false, b = false, c = false;
};

Reads reads_of(Opcode op) {
  switch (op) {
    case Opcode::ConstF:
    case Opcode::ConstI:
    case Opcode::Call:
    case Opcode::Br:
    case Opcode::Ret:  // a is optional; checked separately
      return {};
    case Opcode::Mov:
    case Opcode::FNeg:
    case Opcode::INeg:
    case Opcode::LNot:
    case Opcode::SiToFp:
    case Opcode::FpToSi:
    case Opcode::CBr:
    case Opcode::VSplat:
    case Opcode::HReduceAdd:
      return {true, false, false};
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::IAdd:
    case Opcode::ISub:
    case Opcode::IMul:
    case Opcode::IDiv:
    case Opcode::IMod:
    case Opcode::ICmp:
    case Opcode::FCmp:
    case Opcode::LAnd:
    case Opcode::LOr:
    case Opcode::LoadF:
    case Opcode::LoadI:
      return {true, true, false};
    case Opcode::Fma:
    case Opcode::StoreF:
    case Opcode::StoreI:
      return {true, true, true};
  }
  return {true, true, true};
}

// Why `inst` cannot execute in `fn`, or empty when it can.
std::string bad_operand(const Function& fn, const Inst& inst) {
  const int nregs = fn.num_regs();
  const auto in_file = [&](int reg) { return reg >= 0 && reg < nregs; };
  const auto reg_error = [&](const char* role, int reg) {
    return std::string(role) + " register " + std::to_string(reg) +
           " outside [0, " + std::to_string(nregs) + ")";
  };
  if (inst.width < 1 || inst.width > kMaxLanes) {
    return "width " + std::to_string(inst.width) + " outside [1, " +
           std::to_string(kMaxLanes) + "]";
  }
  if (inst.dst != -1 && !in_file(inst.dst)) {
    return reg_error("destination", inst.dst);
  }
  const Reads r = reads_of(inst.op);
  if (r.a && !in_file(inst.a)) return reg_error("operand a", inst.a);
  if (r.b && !in_file(inst.b)) return reg_error("operand b", inst.b);
  if (r.c && !in_file(inst.c)) return reg_error("operand c", inst.c);
  if (inst.op == Opcode::Ret && inst.a != -1 && !in_file(inst.a)) {
    return reg_error("return", inst.a);
  }
  for (int arg : inst.args) {
    if (!in_file(arg)) return reg_error("call argument", arg);
  }
  const int nblocks = static_cast<int>(fn.blocks.size());
  const auto bad_target = [&](int t) { return t < 0 || t >= nblocks; };
  if ((inst.op == Opcode::Br && bad_target(inst.t1)) ||
      (inst.op == Opcode::CBr &&
       (bad_target(inst.t1) || bad_target(inst.t2)))) {
    return "branch target outside [0, " + std::to_string(nblocks) + ")";
  }
  return {};
}

}  // namespace

Program Program::link(std::vector<minicc::MachineModule> modules,
                      std::string* error) {
  Program program;
  const auto fail = [&](LinkError::Kind kind, const std::string& msg) {
    program.error_.kind = kind;
    program.error_.message = msg;
    if (error) *error = msg;
    return program;
  };

  if (modules.empty()) {
    return fail(LinkError::Kind::NoModules, "no modules to link");
  }

  program.target_ = modules.front().target;
  for (const auto& m : modules) {
    if (m.target.visa != program.target_.visa) {
      return fail(LinkError::Kind::IsaMismatch,
                  "target ISA mismatch while linking: " +
                      std::string(isa::to_string(m.target.visa)) + " vs " +
                      std::string(isa::to_string(program.target_.visa)));
    }
  }

  program.modules_ = std::move(modules);
  for (const auto& m : program.modules_) {
    for (const auto& fn : m.code.functions) {
      const auto [it, inserted] = program.symbols_.emplace(fn.name, &fn);
      (void)it;
      if (!inserted) {
        return fail(LinkError::Kind::DuplicateSymbol,
                    "duplicate symbol: " + fn.name + " (defined in " +
                        m.code.source_path + ")");
      }
    }
  }

  // Resolve every call target and check every register operand, so
  // neither tier indexes outside a register file.
  for (const auto& m : program.modules_) {
    for (const auto& fn : m.code.functions) {
      const auto bad = [&](int block, int inst, const std::string& why) {
        program.error_.function = fn.name;
        program.error_.block = block;
        program.error_.inst = inst;
        return fail(LinkError::Kind::BadOperand,
                    "bad operand in " + fn.name + " (block " +
                        std::to_string(block) + ", instruction " +
                        std::to_string(inst) + "): " + why);
      };
      if (fn.num_regs() > kMaxRegisters) {
        return bad(-1, -1,
                   std::to_string(fn.num_regs()) + " registers, more than " +
                       std::to_string(kMaxRegisters));
      }
      for (const auto& param : fn.params) {
        if (param.reg < 0 || param.reg >= fn.num_regs()) {
          return bad(-1, -1,
                     "parameter register " + std::to_string(param.reg) +
                         " outside [0, " + std::to_string(fn.num_regs()) +
                         ")");
        }
      }
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].insts;
        for (std::size_t k = 0; k < insts.size(); ++k) {
          const Inst& inst = insts[k];
          const std::string why = bad_operand(fn, inst);
          if (!why.empty()) {
            return bad(static_cast<int>(b), static_cast<int>(k), why);
          }
          if (inst.op != Opcode::Call) continue;
          if (minicc::ir::is_intrinsic(inst.callee)) continue;
          if (program.symbols_.count(inst.callee) == 0) {
            return fail(LinkError::Kind::UnresolvedSymbol,
                        "unresolved symbol: " + inst.callee +
                            " (referenced from " + fn.name + ")");
          }
        }
      }
    }
  }

  program.ok_ = true;
  return program;
}

const minicc::ir::Function* Program::find_function(
    const std::string& name) const {
  const auto it = symbols_.find(name);
  return it == symbols_.end() ? nullptr : it->second;
}

}  // namespace xaas::vm
