#include "minicc/ir.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "common/strings.hpp"

namespace xaas::minicc::ir {

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::ConstF: return "const.f";
    case Opcode::ConstI: return "const.i";
    case Opcode::Mov: return "mov";
    case Opcode::FAdd: return "fadd";
    case Opcode::FSub: return "fsub";
    case Opcode::FMul: return "fmul";
    case Opcode::FDiv: return "fdiv";
    case Opcode::FNeg: return "fneg";
    case Opcode::Fma: return "fma";
    case Opcode::IAdd: return "iadd";
    case Opcode::ISub: return "isub";
    case Opcode::IMul: return "imul";
    case Opcode::IDiv: return "idiv";
    case Opcode::IMod: return "imod";
    case Opcode::INeg: return "ineg";
    case Opcode::ICmp: return "icmp";
    case Opcode::FCmp: return "fcmp";
    case Opcode::LAnd: return "land";
    case Opcode::LOr: return "lor";
    case Opcode::LNot: return "lnot";
    case Opcode::SiToFp: return "sitofp";
    case Opcode::FpToSi: return "fptosi";
    case Opcode::LoadF: return "loadf";
    case Opcode::StoreF: return "storef";
    case Opcode::LoadI: return "loadi";
    case Opcode::StoreI: return "storei";
    case Opcode::Call: return "call";
    case Opcode::Br: return "br";
    case Opcode::CBr: return "cbr";
    case Opcode::Ret: return "ret";
    case Opcode::VSplat: return "vsplat";
    case Opcode::HReduceAdd: return "hreduce.add";
  }
  return "?";
}

namespace {

std::optional<Opcode> opcode_from_name(std::string_view s) {
  static const std::map<std::string, Opcode, std::less<>> kMap = {
      {"const.f", Opcode::ConstF}, {"const.i", Opcode::ConstI},
      {"mov", Opcode::Mov},        {"fadd", Opcode::FAdd},
      {"fsub", Opcode::FSub},      {"fmul", Opcode::FMul},
      {"fdiv", Opcode::FDiv},      {"fneg", Opcode::FNeg},
      {"fma", Opcode::Fma},        {"iadd", Opcode::IAdd},
      {"isub", Opcode::ISub},      {"imul", Opcode::IMul},
      {"idiv", Opcode::IDiv},      {"imod", Opcode::IMod},
      {"ineg", Opcode::INeg},      {"icmp", Opcode::ICmp},
      {"fcmp", Opcode::FCmp},      {"land", Opcode::LAnd},
      {"lor", Opcode::LOr},        {"lnot", Opcode::LNot},
      {"sitofp", Opcode::SiToFp},  {"fptosi", Opcode::FpToSi},
      {"loadf", Opcode::LoadF},    {"storef", Opcode::StoreF},
      {"loadi", Opcode::LoadI},    {"storei", Opcode::StoreI},
      {"call", Opcode::Call},      {"br", Opcode::Br},
      {"cbr", Opcode::CBr},        {"ret", Opcode::Ret},
      {"vsplat", Opcode::VSplat},  {"hreduce.add", Opcode::HReduceAdd},
  };
  const auto it = kMap.find(s);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

}  // namespace

std::string_view pred_name(CmpPred pred) {
  switch (pred) {
    case CmpPred::LT: return "lt";
    case CmpPred::LE: return "le";
    case CmpPred::GT: return "gt";
    case CmpPred::GE: return "ge";
    case CmpPred::EQ: return "eq";
    case CmpPred::NE: return "ne";
  }
  return "?";
}

namespace {

std::optional<CmpPred> pred_from_name(std::string_view s) {
  if (s == "lt") return CmpPred::LT;
  if (s == "le") return CmpPred::LE;
  if (s == "gt") return CmpPred::GT;
  if (s == "ge") return CmpPred::GE;
  if (s == "eq") return CmpPred::EQ;
  if (s == "ne") return CmpPred::NE;
  return std::nullopt;
}

}  // namespace

std::string_view regtype_name(RegType t) {
  switch (t) {
    case RegType::I64: return "i64";
    case RegType::F64: return "f64";
    case RegType::PtrF: return "ptrf";
    case RegType::PtrI: return "ptri";
  }
  return "?";
}

namespace {

std::optional<RegType> regtype_from_name(std::string_view s) {
  if (s == "i64") return RegType::I64;
  if (s == "f64") return RegType::F64;
  if (s == "ptrf") return RegType::PtrF;
  if (s == "ptri") return RegType::PtrI;
  return std::nullopt;
}

}  // namespace

bool is_intrinsic(const std::string& name) {
  return name == "sqrt" || name == "fabs" || name == "exp" ||
         name == "floor" || name == "fmin" || name == "fmax" ||
         name == "pow2" || name == "rsqrt";
}

bool is_vectorizable_intrinsic(const std::string& name) {
  // exp has no vector lowering on our targets; everything else does.
  return is_intrinsic(name) && name != "exp" && name != "floor";
}

std::string print(const Module& module) {
  std::ostringstream out;
  out << "; minicc IR\n";
  out << "module \"" << module.source_path << "\"\n";
  for (const auto& fn : module.functions) {
    out << "func @" << fn.name << " ret "
        << (fn.returns_void ? "void" : std::string(regtype_name(fn.ret_type)));
    if (fn.gpu_kernel) out << " gpu_kernel";
    out << "\n";
    for (const auto& p : fn.params) {
      out << "  param %" << p.reg << " " << regtype_name(p.type) << " \""
          << p.name << "\"\n";
    }
    out << "  regs";
    for (const auto& t : fn.reg_types) out << " " << regtype_name(t);
    out << "\n";
    for (const auto& loop : fn.loops) {
      out << "  loop pre=" << loop.preheader << " hdr=" << loop.header
          << " body=" << loop.body << " latch=" << loop.latch
          << " exit=" << loop.exit << " ind=" << loop.induction_reg
          << " bound=" << loop.bound_reg << " par=" << (loop.parallel ? 1 : 0)
          << " simd=" << (loop.simd ? 1 : 0)
          << " vec=" << (loop.vectorized ? 1 : 0) << " w=" << loop.vector_width
          << " blocks=";
      for (std::size_t i = 0; i < loop.blocks.size(); ++i) {
        if (i) out << ",";
        out << loop.blocks[i];
      }
      out << "\n";
    }
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const Block& block = fn.blocks[b];
      out << "  block " << b << " \"" << block.name << "\"\n";
      for (const Inst& inst : block.insts) {
        out << "    " << opcode_name(inst.op);
        if (inst.width != 1) out << " w" << inst.width;
        out << " d" << inst.dst << " a" << inst.a << " b" << inst.b << " c"
            << inst.c;
        if (inst.op == Opcode::ConstF) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g", inst.fimm);
          out << " f" << buf;
        }
        if (inst.op == Opcode::ConstI) out << " i" << inst.iimm;
        if (inst.op == Opcode::ICmp || inst.op == Opcode::FCmp) {
          out << " p" << pred_name(inst.pred);
        }
        if (inst.op == Opcode::Call) {
          out << " @" << inst.callee << " (";
          for (std::size_t i = 0; i < inst.args.size(); ++i) {
            if (i) out << ",";
            out << inst.args[i];
          }
          out << ")";
        }
        if (inst.op == Opcode::Br || inst.op == Opcode::CBr) {
          out << " ->" << inst.t1 << "," << inst.t2;
        }
        out << "\n";
      }
    }
    out << "endfunc\n";
  }
  return out.str();
}

namespace {

// Pull a labeled integer out of "key=value" text.
bool parse_kv_int(const std::string& word, const char* key, int& out) {
  const std::string prefix = std::string(key) + "=";
  if (!common::starts_with(word, prefix)) return false;
  out = std::atoi(word.c_str() + prefix.size());
  return true;
}

}  // namespace

ParseIrResult parse_ir(const std::string& text) {
  ParseIrResult result;
  Module module;
  Function* fn = nullptr;
  Block* block = nullptr;

  const auto fail = [&](const std::string& msg, std::size_t line_no) {
    result.error = "IR parse error at line " + std::to_string(line_no + 1) +
                   ": " + msg;
    return result;
  };

  const auto lines = common::split(text, '\n');
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string_view line = common::trim(lines[ln]);
    if (line.empty() || line[0] == ';') continue;
    const auto words = common::split_ws(line);
    const std::string& head = words[0];

    if (head == "module") {
      // module "path"
      const auto q1 = line.find('"');
      const auto q2 = line.rfind('"');
      if (q1 != std::string_view::npos && q2 > q1) {
        module.source_path = std::string(line.substr(q1 + 1, q2 - q1 - 1));
      }
    } else if (head == "func") {
      module.functions.emplace_back();
      fn = &module.functions.back();
      block = nullptr;
      if (words.size() < 4 || words[1].empty() || words[1][0] != '@') {
        return fail("malformed func header", ln);
      }
      fn->name = words[1].substr(1);
      if (words[3] == "void") {
        fn->returns_void = true;
      } else {
        const auto rt = regtype_from_name(words[3]);
        if (!rt) return fail("bad return type", ln);
        fn->ret_type = *rt;
      }
      for (std::size_t i = 4; i < words.size(); ++i) {
        if (words[i] == "gpu_kernel") fn->gpu_kernel = true;
      }
    } else if (head == "param") {
      if (!fn) return fail("param outside func", ln);
      if (words.size() < 4) return fail("malformed param", ln);
      Param p;
      p.reg = std::atoi(words[1].c_str() + 1);  // skip '%'
      const auto rt = regtype_from_name(words[2]);
      if (!rt) return fail("bad param type", ln);
      p.type = *rt;
      const auto q1 = line.find('"');
      const auto q2 = line.rfind('"');
      if (q1 != std::string_view::npos && q2 > q1) {
        p.name = std::string(line.substr(q1 + 1, q2 - q1 - 1));
      }
      fn->params.push_back(std::move(p));
    } else if (head == "regs") {
      if (!fn) return fail("regs outside func", ln);
      for (std::size_t i = 1; i < words.size(); ++i) {
        const auto rt = regtype_from_name(words[i]);
        if (!rt) return fail("bad reg type: " + words[i], ln);
        fn->reg_types.push_back(*rt);
      }
    } else if (head == "loop") {
      if (!fn) return fail("loop outside func", ln);
      LoopInfo loop;
      for (std::size_t i = 1; i < words.size(); ++i) {
        int v = 0;
        if (parse_kv_int(words[i], "pre", v)) loop.preheader = v;
        else if (parse_kv_int(words[i], "hdr", v)) loop.header = v;
        else if (parse_kv_int(words[i], "body", v)) loop.body = v;
        else if (parse_kv_int(words[i], "latch", v)) loop.latch = v;
        else if (parse_kv_int(words[i], "exit", v)) loop.exit = v;
        else if (parse_kv_int(words[i], "ind", v)) loop.induction_reg = v;
        else if (parse_kv_int(words[i], "bound", v)) loop.bound_reg = v;
        else if (parse_kv_int(words[i], "par", v)) loop.parallel = v != 0;
        else if (parse_kv_int(words[i], "simd", v)) loop.simd = v != 0;
        else if (parse_kv_int(words[i], "vec", v)) loop.vectorized = v != 0;
        else if (parse_kv_int(words[i], "w", v)) loop.vector_width = v;
        else if (common::starts_with(words[i], "blocks=")) {
          const auto ids = common::split(words[i].substr(7), ',');
          for (const auto& id : ids) loop.blocks.push_back(std::atoi(id.c_str()));
        }
      }
      fn->loops.push_back(std::move(loop));
    } else if (head == "block") {
      if (!fn) return fail("block outside func", ln);
      fn->blocks.emplace_back();
      block = &fn->blocks.back();
      const auto q1 = line.find('"');
      const auto q2 = line.rfind('"');
      if (q1 != std::string_view::npos && q2 > q1) {
        block->name = std::string(line.substr(q1 + 1, q2 - q1 - 1));
      }
    } else if (head == "endfunc") {
      fn = nullptr;
      block = nullptr;
    } else {
      // Instruction line.
      if (!block) return fail("instruction outside block", ln);
      const auto op = opcode_from_name(head);
      if (!op) return fail("unknown opcode: " + head, ln);
      Inst inst;
      inst.op = *op;
      for (std::size_t i = 1; i < words.size(); ++i) {
        const std::string& w = words[i];
        if (w.empty()) continue;
        switch (w[0]) {
          case 'w': inst.width = std::atoi(w.c_str() + 1); break;
          case 'd': inst.dst = std::atoi(w.c_str() + 1); break;
          case 'a': inst.a = std::atoi(w.c_str() + 1); break;
          case 'b': inst.b = std::atoi(w.c_str() + 1); break;
          case 'c': inst.c = std::atoi(w.c_str() + 1); break;
          case 'f': inst.fimm = std::strtod(w.c_str() + 1, nullptr); break;
          case 'i': inst.iimm = std::strtoll(w.c_str() + 1, nullptr, 10); break;
          case 'p': {
            const auto pred = pred_from_name(w.substr(1));
            if (!pred) return fail("bad predicate: " + w, ln);
            inst.pred = *pred;
            break;
          }
          case '@': inst.callee = w.substr(1); break;
          case '(': {
            std::string list = w.substr(1);
            if (!list.empty() && list.back() == ')') list.pop_back();
            for (const auto& arg : common::split(list, ',')) {
              inst.args.push_back(std::atoi(arg.c_str()));
            }
            break;
          }
          case '-': {
            if (common::starts_with(w, "->")) {
              const auto targets = common::split(w.substr(2), ',');
              if (!targets.empty()) inst.t1 = std::atoi(targets[0].c_str());
              if (targets.size() > 1) inst.t2 = std::atoi(targets[1].c_str());
            }
            break;
          }
          default:
            break;
        }
      }
      block->insts.push_back(std::move(inst));
    }
  }
  result.ok = true;
  result.module = std::move(module);
  return result;
}

std::string loop_metadata_error(const Module& module) {
  for (const auto& fn : module.functions) {
    const int nblocks = static_cast<int>(fn.blocks.size());
    for (std::size_t li = 0; li < fn.loops.size(); ++li) {
      const LoopInfo& loop = fn.loops[li];
      const auto bad = [&](const char* field, int block) {
        return "loop " + std::to_string(li) + " of " + fn.name + ": " +
               field + " block " + std::to_string(block) + " outside [0, " +
               std::to_string(nblocks) + ")";
      };
      const std::pair<const char*, int> ends[] = {
          {"preheader", loop.preheader}, {"header", loop.header},
          {"body", loop.body},           {"latch", loop.latch},
          {"exit", loop.exit}};
      for (const auto& [field, block] : ends) {
        if (block != -1 && (block < 0 || block >= nblocks)) {
          return bad(field, block);
        }
      }
      for (int block : loop.blocks) {
        if (block < 0 || block >= nblocks) return bad("member", block);
      }
    }
  }
  return {};
}

}  // namespace xaas::minicc::ir
