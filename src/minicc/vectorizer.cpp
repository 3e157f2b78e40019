#include "minicc/vectorizer.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace xaas::minicc {

using ir::Block;
using ir::CmpPred;
using ir::Function;
using ir::Inst;
using ir::LoopInfo;
using ir::Opcode;
using ir::RegType;

namespace {

void collect_reads(const Inst& inst, std::vector<int>& out) {
  if (inst.a >= 0) out.push_back(inst.a);
  if (inst.b >= 0) out.push_back(inst.b);
  if (inst.c >= 0) out.push_back(inst.c);
  for (int arg : inst.args) out.push_back(arg);
}

struct LoopAnalysis {
  bool legal = false;
  // Reduction accumulators: register -> opcode of the combining operation
  // (FAdd or FSub with the accumulator as the left operand).
  std::map<int, Opcode> reductions;
  // Registers not written anywhere inside the loop (loop-invariant).
  std::set<int> invariants;
};

// Block indices come from ir::loop_metadata_error-checked metadata: each
// is -1 or a block of `fn`. The rewrite needs a real preheader and header.
LoopAnalysis analyze(const Function& fn, const LoopInfo& loop) {
  LoopAnalysis result;
  if (loop.body < 0 || loop.header < 0 || loop.preheader < 0 ||
      loop.induction_reg < 0 || loop.bound_reg < 0 || loop.vectorized) {
    return result;
  }
  const Block& body = fn.blocks[loop.body];

  // Registers written anywhere inside the loop (header/body/latch).
  std::set<int> written_in_loop;
  for (int b : loop.blocks) {
    for (const auto& inst : fn.blocks[b].insts) {
      if (inst.dst >= 0) written_in_loop.insert(inst.dst);
    }
  }
  // The bound must be loop-invariant.
  if (written_in_loop.count(loop.bound_reg)) return result;

  const auto invariant = [&](int reg) {
    return reg >= 0 && written_in_loop.count(reg) == 0;
  };
  // Unit-stride address: the induction variable itself, or an affine
  // offset `induction + invariant` computed once in the body (matmul-style
  // `w[row_base + c]` addressing).
  const auto affine_in_induction = [&](int reg) {
    if (reg == loop.induction_reg) return true;
    const Inst* def = nullptr;
    int writes = 0;
    for (const auto& inst : body.insts) {
      if (inst.dst == reg) {
        ++writes;
        def = &inst;
      }
    }
    if (writes != 1 || !def) return false;
    if (def->op == Opcode::IAdd) {
      return (def->a == loop.induction_reg && invariant(def->b)) ||
             (def->b == loop.induction_reg && invariant(def->a));
    }
    if (def->op == Opcode::ISub) {
      return def->a == loop.induction_reg && invariant(def->b);
    }
    return false;
  };

  std::set<int> written_in_body;
  std::set<int> read_before_write;
  std::map<int, int> write_count;
  for (const auto& inst : body.insts) {
    std::vector<int> reads;
    collect_reads(inst, reads);
    for (int r : reads) {
      if (!written_in_body.count(r)) read_before_write.insert(r);
    }
    if (inst.dst >= 0) {
      written_in_body.insert(inst.dst);
      write_count[inst.dst]++;
    }

    switch (inst.op) {
      case Opcode::LoadF:
      case Opcode::LoadI:
        // Unit-stride (induction/affine) or loop-invariant (broadcast).
        if (!invariant(inst.b) && !affine_in_induction(inst.b)) {
          return result;  // gather — not supported
        }
        break;
      case Opcode::StoreF:
      case Opcode::StoreI:
        // Unit-stride only; an invariant address would be a scatter
        // collision across lanes.
        if (!affine_in_induction(inst.b)) return result;
        break;
      case Opcode::Call:
        if (!ir::is_vectorizable_intrinsic(inst.callee)) return result;
        break;
      case Opcode::CBr:
      case Opcode::Ret:
        return result;  // control flow in body
      case Opcode::IDiv:
      case Opcode::IMod:
        return result;  // integer division has no vector form on our targets
      default:
        break;
    }
  }

  // Classify cross-iteration registers: anything both read-before-write
  // and written in the body is a recurrence; only reductions are legal.
  for (int reg : written_in_body) {
    if (reg == loop.induction_reg) return result;  // induction written in body
    if (!read_before_write.count(reg)) continue;   // plain temp
    // Recurrence: require the canonical reduction shape
    //   t = fadd/fsub reg, x   (single such combine)
    //   mov reg, t             (single write of reg)
    if (write_count[reg] != 1) return result;
    if (reg >= fn.num_regs() || fn.reg_types[reg] != RegType::F64) {
      return result;
    }
    int combine_reg = -1;
    Opcode combine_op = Opcode::FAdd;
    bool found_mov = false;
    for (const auto& inst : body.insts) {
      if (inst.dst == reg) {
        if (inst.op != Opcode::Mov) return result;
        combine_reg = inst.a;
        found_mov = true;
      }
    }
    if (!found_mov) return result;
    bool found_combine = false;
    for (const auto& inst : body.insts) {
      if (inst.dst == combine_reg) {
        if (inst.op == Opcode::FAdd &&
            (inst.a == reg || inst.b == reg)) {
          combine_op = Opcode::FAdd;
          found_combine = true;
        } else if (inst.op == Opcode::FSub && inst.a == reg) {
          combine_op = Opcode::FSub;
          found_combine = true;
        } else {
          return result;
        }
      }
    }
    if (!found_combine) return result;
    // The combined value must not feed anything else in the body.
    int uses = 0;
    for (const auto& inst : body.insts) {
      std::vector<int> reads;
      collect_reads(inst, reads);
      uses += static_cast<int>(
          std::count(reads.begin(), reads.end(), combine_reg));
    }
    if (uses != 1) return result;
    result.reductions[reg] = combine_op;
  }

  // Registers written in the body must not be observed outside the loop,
  // except reductions (handled via scalar merge) — vector lanes would leak.
  for (int b = 0; b < static_cast<int>(fn.blocks.size()); ++b) {
    const bool inside =
        std::find(loop.blocks.begin(), loop.blocks.end(), b) !=
        loop.blocks.end();
    if (inside) continue;
    for (const auto& inst : fn.blocks[b].insts) {
      std::vector<int> reads;
      collect_reads(inst, reads);
      for (int r : reads) {
        if (written_in_body.count(r) && r != loop.induction_reg &&
            !result.reductions.count(r)) {
          return result;
        }
      }
    }
  }

  for (int r = 0; r < fn.num_regs(); ++r) {
    if (!written_in_loop.count(r)) result.invariants.insert(r);
  }
  result.legal = true;
  return result;
}

// Rewrite one loop. Appends vector blocks at the end of the function and
// redirects the preheader into them; the original loop remains as the
// scalar remainder.
void vectorize_loop(Function& fn, std::size_t loop_index, int width,
                    const LoopAnalysis& analysis) {
  LoopInfo& loop = fn.loops[loop_index];
  const int header = loop.header;
  const int body = loop.body;

  // Fresh vector accumulators for each reduction.
  std::map<int, int> acc_to_vacc;
  for (const auto& [reg, op] : analysis.reductions) {
    (void)op;
    acc_to_vacc[reg] = fn.add_reg(RegType::F64);
  }

  const int vpre = static_cast<int>(fn.blocks.size());
  fn.blocks.push_back(Block{"vec.pre", {}});
  const int vheader = static_cast<int>(fn.blocks.size());
  fn.blocks.push_back(Block{"vec.header", {}});
  const int vbody = static_cast<int>(fn.blocks.size());
  fn.blocks.push_back(Block{"vec.body", {}});
  const int vlatch = static_cast<int>(fn.blocks.size());
  fn.blocks.push_back(Block{"vec.latch", {}});
  const int vmerge = static_cast<int>(fn.blocks.size());
  fn.blocks.push_back(Block{"vec.merge", {}});

  // vpre: zero-splat the vector accumulators, then enter the vector loop.
  {
    Block& b = fn.blocks[vpre];
    for (const auto& [acc, vacc] : acc_to_vacc) {
      (void)acc;
      const int zero = fn.add_reg(RegType::F64);
      Inst ci;
      ci.op = Opcode::ConstF;
      ci.dst = zero;
      ci.fimm = 0.0;
      b.insts.push_back(ci);
      Inst splat;
      splat.op = Opcode::VSplat;
      splat.dst = vacc;
      splat.a = zero;
      splat.width = width;
      b.insts.push_back(splat);
    }
    Inst br;
    br.op = Opcode::Br;
    br.t1 = vheader;
    b.insts.push_back(br);
  }

  // vheader: continue while i + (width-1) < bound (strict-< canonical form;
  // the scalar remainder re-checks with the original predicate).
  {
    Block& b = fn.blocks[vheader];
    const int wconst = fn.add_reg(RegType::I64);
    Inst ci;
    ci.op = Opcode::ConstI;
    ci.dst = wconst;
    ci.iimm = width - 1;
    b.insts.push_back(ci);
    const int last_lane = fn.add_reg(RegType::I64);
    Inst add;
    add.op = Opcode::IAdd;
    add.dst = last_lane;
    add.a = loop.induction_reg;
    add.b = wconst;
    b.insts.push_back(add);
    const int cond = fn.add_reg(RegType::I64);
    Inst cmp;
    cmp.op = Opcode::ICmp;
    cmp.pred = CmpPred::LT;
    cmp.dst = cond;
    cmp.a = last_lane;
    cmp.b = loop.bound_reg;
    b.insts.push_back(cmp);
    Inst cbr;
    cbr.op = Opcode::CBr;
    cbr.a = cond;
    cbr.t1 = vbody;
    cbr.t2 = vmerge;
    b.insts.push_back(cbr);
  }

  // vbody: clone the scalar body at vector width, remapping accumulators.
  {
    Block& b = fn.blocks[vbody];
    for (const Inst& orig : fn.blocks[body].insts) {
      if (orig.op == Opcode::Br) continue;  // terminator replaced below
      Inst inst = orig;
      inst.width = width;
      // Loads from loop-invariant addresses stay scalar: the value is
      // broadcast lane-wise at use, not streamed.
      if ((orig.op == Opcode::LoadF || orig.op == Opcode::LoadI) &&
          analysis.invariants.count(orig.b)) {
        inst.width = 1;
      }
      const auto remap = [&](int reg) {
        const auto it = acc_to_vacc.find(reg);
        return it == acc_to_vacc.end() ? reg : it->second;
      };
      inst.a = inst.a >= 0 ? remap(inst.a) : inst.a;
      inst.b = inst.b >= 0 ? remap(inst.b) : inst.b;
      inst.c = inst.c >= 0 ? remap(inst.c) : inst.c;
      if (inst.dst >= 0) inst.dst = remap(inst.dst);
      for (int& arg : inst.args) arg = remap(arg);
      b.insts.push_back(std::move(inst));
    }
    Inst br;
    br.op = Opcode::Br;
    br.t1 = vlatch;
    b.insts.push_back(br);
  }

  // vlatch: i += width.
  {
    Block& b = fn.blocks[vlatch];
    const int wconst = fn.add_reg(RegType::I64);
    Inst ci;
    ci.op = Opcode::ConstI;
    ci.dst = wconst;
    ci.iimm = width;
    b.insts.push_back(ci);
    const int next = fn.add_reg(RegType::I64);
    Inst add;
    add.op = Opcode::IAdd;
    add.dst = next;
    add.a = loop.induction_reg;
    add.b = wconst;
    b.insts.push_back(add);
    Inst mov;
    mov.op = Opcode::Mov;
    mov.dst = loop.induction_reg;
    mov.a = next;
    b.insts.push_back(mov);
    Inst br;
    br.op = Opcode::Br;
    br.t1 = vheader;
    b.insts.push_back(br);
  }

  // vmerge: fold vector accumulators back into the scalar ones, then fall
  // through to the original (remainder) loop.
  {
    Block& b = fn.blocks[vmerge];
    for (const auto& [acc, vacc] : acc_to_vacc) {
      const int partial = fn.add_reg(RegType::F64);
      Inst hr;
      hr.op = Opcode::HReduceAdd;
      hr.dst = partial;
      hr.a = vacc;
      b.insts.push_back(hr);
      Inst add;
      add.op = Opcode::FAdd;
      add.dst = acc;
      add.a = acc;
      add.b = partial;
      b.insts.push_back(add);
    }
    Inst br;
    br.op = Opcode::Br;
    br.t1 = header;
    b.insts.push_back(br);
  }

  // Redirect the preheader's entry into the vector phase.
  {
    Block& pre = fn.blocks[loop.preheader];
    for (auto it = pre.insts.rbegin(); it != pre.insts.rend(); ++it) {
      if (it->op == Opcode::Br && it->t1 == header) {
        it->t1 = vpre;
        break;
      }
      if (it->op == Opcode::CBr && (it->t1 == header || it->t2 == header)) {
        if (it->t1 == header) it->t1 = vpre;
        if (it->t2 == header) it->t2 = vpre;
        break;
      }
    }
  }

  // Register the vector loop; keep the original as scalar remainder.
  LoopInfo vloop;
  vloop.preheader = vpre;
  vloop.header = vheader;
  vloop.body = vbody;
  vloop.latch = vlatch;
  vloop.exit = vmerge;
  vloop.blocks = {vheader, vbody, vlatch};
  vloop.induction_reg = loop.induction_reg;
  vloop.bound_reg = loop.bound_reg;
  vloop.parallel = loop.parallel;
  vloop.simd = loop.simd;
  vloop.vectorized = true;
  vloop.vector_width = width;

  // Any enclosing loop that contains the original header must also contain
  // the new blocks (parallel-region cycle attribution depends on this).
  for (auto& other : fn.loops) {
    if (&other == &loop) continue;
    if (std::find(other.blocks.begin(), other.blocks.end(), header) !=
        other.blocks.end()) {
      other.blocks.push_back(vpre);
      other.blocks.push_back(vheader);
      other.blocks.push_back(vbody);
      other.blocks.push_back(vlatch);
      other.blocks.push_back(vmerge);
    }
  }

  fn.loops.push_back(std::move(vloop));
}

}  // namespace

bool is_vectorizable(const Function& fn, const LoopInfo& loop) {
  return analyze(fn, loop).legal;
}

VectorizeStats vectorize_module(ir::Module& module, int width) {
  VectorizeStats stats;
  if (width <= 1) return stats;
  for (auto& fn : module.functions) {
    // Snapshot: vectorizing appends loops; only examine the originals.
    const std::size_t n = fn.loops.size();
    for (std::size_t li = 0; li < n; ++li) {
      if (fn.loops[li].body >= 0 && fn.loops[li].induction_reg >= 0) {
        ++stats.candidates;
      }
      const LoopAnalysis analysis = analyze(fn, fn.loops[li]);
      if (!analysis.legal) continue;
      vectorize_loop(fn, li, width, analysis);
      ++stats.vectorized;
    }
  }
  return stats;
}

}  // namespace xaas::minicc
