#include "vm/decoded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xaas::vm {

using minicc::ir::Block;
using minicc::ir::CmpPred;
using minicc::ir::Function;
using minicc::ir::Inst;
using minicc::ir::Opcode;

long long op_cost_units(Opcode op) {
  // The seed model in cycles, times kCostUnitScale (20).
  switch (op) {
    case Opcode::ConstF:
    case Opcode::ConstI:
    case Opcode::Mov:
      return 5;  // 0.25
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::Fma:
      return 20;  // 1.0
    case Opcode::FNeg:
      return 10;  // 0.5
    case Opcode::FDiv:
      return 160;  // 8.0
    case Opcode::IAdd:
    case Opcode::ISub:
      return 6;  // 0.3
    case Opcode::IMul:
      return 20;  // 1.0
    case Opcode::IDiv:
    case Opcode::IMod:
      return 200;  // 10.0
    case Opcode::INeg:
      return 6;  // 0.3
    case Opcode::ICmp:
    case Opcode::FCmp:
    case Opcode::LAnd:
    case Opcode::LOr:
    case Opcode::LNot:
      return 6;  // 0.3
    case Opcode::SiToFp:
    case Opcode::FpToSi:
      return 20;  // 1.0
    case Opcode::LoadF:
    case Opcode::LoadI:
    case Opcode::StoreF:
    case Opcode::StoreI:
      return 20;  // 1.0
    case Opcode::Call:
      return 100;  // 5.0
    case Opcode::Br:
      return 6;  // 0.3
    case Opcode::CBr:
      return 10;  // 0.5
    case Opcode::Ret:
      return 20;  // 1.0
    case Opcode::VSplat:
      return 20;  // 1.0
    case Opcode::HReduceAdd:
      return 60;  // 3.0
  }
  return 20;
}

const std::vector<IntrinsicSpec>& intrinsic_table() {
  // In tag order, so the table doubles as the tag -> spec index.
  static const std::vector<IntrinsicSpec> table = {
      {"sqrt", Intrinsic::Sqrt, 200},   // 10.0 cycles
      {"rsqrt", Intrinsic::Rsqrt, 80},  // 4.0
      {"exp", Intrinsic::Exp, 400},     // 20.0
      {"fabs", Intrinsic::Fabs, 10},    // 0.5
      {"floor", Intrinsic::Floor, 40},  // 2.0
      {"fmin", Intrinsic::Fmin, 20},    // 1.0
      {"fmax", Intrinsic::Fmax, 20},    // 1.0
      {"pow2", Intrinsic::Pow2, 20},    // 1.0
  };
  return table;
}

const IntrinsicSpec* find_intrinsic(std::string_view name) {
  static const auto index = [] {
    std::unordered_map<std::string_view, const IntrinsicSpec*> m;
    for (const auto& spec : intrinsic_table()) m.emplace(spec.name, &spec);
    return m;
  }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

long long intrinsic_cost_units(Intrinsic tag) {
  return intrinsic_table()[static_cast<std::size_t>(tag)].cost_units;
}

namespace {

constexpr int kMaxLanes = 8;
constexpr int kMaxDepth = 64;

bool is_terminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::CBr || op == Opcode::Ret;
}

}  // namespace

DecodedProgram DecodedProgram::build(const Program& program) {
  DecodedProgram dp;

  // First pass: allocate decoded slots so calls can resolve forward.
  const auto& symbols = program.symbols();
  dp.functions_.reserve(symbols.size());
  for (const auto& [name, fn] : symbols) {
    dp.index_.emplace(name, dp.functions_.size());
    DecodedFunction df;
    df.source = fn;
    df.name = name;
    dp.functions_.push_back(std::move(df));
  }

  for (auto& df : dp.functions_) {
    const Function& fn = *df.source;
    df.gpu_kernel = fn.gpu_kernel;
    df.num_regs = fn.num_regs();
    df.param_regs.reserve(fn.params.size());
    for (const auto& p : fn.params) df.param_regs.push_back(p.reg);

    const int nblocks = static_cast<int>(fn.blocks.size());
    df.blocks.resize(static_cast<std::size_t>(nblocks));

    // Parallel-loop metadata, folded into flat per-block data. Loops that
    // fork at the same header stay contiguous in header_loops so a block
    // stores only a [begin, end) range.
    std::vector<std::vector<const minicc::ir::LoopInfo*>> per_header(
        static_cast<std::size_t>(nblocks));
    for (const auto& loop : fn.loops) {
      if (!loop.parallel) continue;
      for (int b : loop.blocks) {
        if (b >= 0 && b < nblocks) {
          df.blocks[static_cast<std::size_t>(b)].parallel = 1;
        }
      }
      if (loop.header >= 0 && loop.header < nblocks) {
        per_header[static_cast<std::size_t>(loop.header)].push_back(&loop);
      }
    }
    for (int b = 0; b < nblocks; ++b) {
      const auto& loops = per_header[static_cast<std::size_t>(b)];
      if (loops.empty()) continue;
      DecodedBlock& header = df.blocks[static_cast<std::size_t>(b)];
      header.loops_begin = static_cast<int>(df.header_loops.size());
      for (const auto* loop : loops) {
        DecodedLoop dl;
        dl.member.assign(static_cast<std::size_t>(nblocks), 0);
        for (int m : loop->blocks) {
          if (m >= 0 && m < nblocks) dl.member[static_cast<std::size_t>(m)] = 1;
        }
        df.header_loops.push_back(std::move(dl));
      }
      header.loops_end = static_cast<int>(df.header_loops.size());
    }

    // Flatten instruction streams, truncating each block after its first
    // terminator (trailing instructions are unreachable in the seed too).
    for (int b = 0; b < nblocks; ++b) {
      const Block& block = fn.blocks[static_cast<std::size_t>(b)];
      DecodedBlock& db = df.blocks[static_cast<std::size_t>(b)];
      db.first = static_cast<int>(df.insts.size());
      for (const Inst& inst : block.insts) {
        DecodedInst di;
        di.op = inst.op;
        di.pred = inst.pred;
        di.width = std::min(inst.width, kMaxLanes);
        di.dst = inst.dst;
        di.a = inst.a;
        di.b = inst.b;
        di.c = inst.c;
        di.t1 = inst.t1;
        di.t2 = inst.t2;
        di.iimm = inst.iimm;
        di.fimm = inst.fimm;

        long long units = op_cost_units(inst.op);
        if (inst.op == Opcode::Call) {
          di.args_begin = static_cast<int>(df.call_args.size());
          df.call_args.insert(df.call_args.end(), inst.args.begin(),
                              inst.args.end());
          di.args_end = static_cast<int>(df.call_args.size());
          if (const IntrinsicSpec* spec = find_intrinsic(inst.callee)) {
            di.call_kind = CallKind::IntrinsicCall;
            di.intrinsic = spec->tag;
            units = spec->cost_units;
          } else {
            const auto it = dp.index_.find(inst.callee);
            if (it != dp.index_.end()) {
              di.call_kind = CallKind::User;
              di.callee = static_cast<int>(it->second);
            } else {
              // Neither intrinsic nor linked: surface through the
              // unresolved() diagnostics (deduplicated, first-seen
              // order) and trap with the name if ever reached.
              di.call_kind = CallKind::Unresolved;
              int uidx = -1;
              for (std::size_t u = 0; u < dp.unresolved_names_.size(); ++u) {
                if (dp.unresolved_names_[u] == inst.callee) {
                  uidx = static_cast<int>(u);
                  break;
                }
              }
              if (uidx < 0) {
                uidx = static_cast<int>(dp.unresolved_names_.size());
                dp.unresolved_names_.push_back(inst.callee);
              }
              di.callee = uidx;
            }
          }
        }
        db.static_cost_units += units;
        df.insts.push_back(di);
        ++db.count;
        if (is_terminator(inst.op)) break;
      }
    }
  }
  return dp;
}

namespace {

struct Slot {
  double f[kMaxLanes] = {0};
  long long i[kMaxLanes] = {0};
  int lanes = 1;
};

struct Buffer {
  std::vector<double>* f = nullptr;
  std::vector<long long>* i = nullptr;
};

struct Cost {
  long long serial_units = 0;
  long long parallel_units = 0;
  double gpu = 0.0;
  long long fork_joins = 0;
  long long instructions = 0;
};

// Register-file arena: one frame per call depth, reused across calls and
// across runs on this thread (the hot portability-sweep pattern).
struct FrameArena {
  std::vector<Slot> frames[kMaxDepth + 1];

  Slot* acquire(int depth, int num_regs) {
    auto& frame = frames[depth];
    if (static_cast<int>(frame.size()) < num_regs) {
      frame.resize(static_cast<std::size_t>(num_regs));
    }
    std::fill_n(frame.data(), num_regs, Slot{});
    return frame.data();
  }
};

thread_local FrameArena g_arena;

class DecodedMachine {
public:
  DecodedMachine(const DecodedProgram& program, const NodeSpec& node,
                 const ExecutorOptions& options, Workload& workload)
      : program_(program), node_(node), options_(options) {
    if (node_.gpu) {
      gpu_launch_units_ = cycles_to_units(node_.gpu->launch_overhead_cycles);
      gpu_speedup_ = node_.gpu->speedup_vs_core;
    }
    buffers_.reserve(workload.f64_buffers.size() + workload.i64_buffers.size());
    for (auto& [name, vec] : workload.f64_buffers) {
      handles_.emplace(name, static_cast<int>(buffers_.size()));
      buffers_.push_back({&vec, nullptr});
    }
    for (auto& [name, vec] : workload.i64_buffers) {
      handles_.emplace(name, static_cast<int>(buffers_.size()));
      buffers_.push_back({nullptr, &vec});
    }
  }

  RunResult run(const Workload& workload) {
    RunResult result;
    const DecodedFunction* entry = program_.find(workload.entry);
    if (!entry) {
      result.error = "entry function not found: " + workload.entry;
      return result;
    }
    if (entry->param_regs.size() != workload.args.size()) {
      result.error = "entry argument count mismatch";
      return result;
    }
    std::vector<Slot> args(workload.args.size());
    for (std::size_t k = 0; k < workload.args.size(); ++k) {
      const auto& arg = workload.args[k];
      switch (arg.kind) {
        case Workload::Arg::Kind::F64:
          args[k].f[0] = arg.f;
          break;
        case Workload::Arg::Kind::I64:
          args[k].i[0] = arg.i;
          break;
        case Workload::Arg::Kind::BufF64:
        case Workload::Arg::Kind::BufI64: {
          const auto it = handles_.find(arg.buffer);
          if (it == handles_.end()) {
            result.error = "unknown buffer: " + arg.buffer;
            return result;
          }
          args[k].i[0] = it->second;
          break;
        }
      }
    }

    Cost cost;
    Slot ret;
    try {
      ret = exec_function(*entry, args.data(), args.size(),
                          /*in_parallel=*/false, cost);
    } catch (const BudgetExceeded& e) {
      // The retired count at the trap is observable (and pinned by the
      // equivalence tests): exactly what the reference retires.
      result.error = e.what();
      result.instructions = e.instructions;
      return result;
    } catch (const std::runtime_error& e) {
      result.error = e.what();
      return result;
    }

    result.ok = true;
    result.ret_f64 = ret.f[0];
    result.ret_i64 = ret.i[0];
    result.cycles_serial = units_to_cycles(cost.serial_units);
    result.cycles_parallel = units_to_cycles(cost.parallel_units);
    result.cycles_gpu = cost.gpu;
    result.fork_joins = cost.fork_joins;
    result.instructions = cost.instructions;
    return result;
  }

private:
  [[noreturn]] void trap(const std::string& msg) {
    throw std::runtime_error("vm trap: " + msg);
  }

  Buffer& buffer(int handle) {
    if (handle < 0 || handle >= static_cast<int>(buffers_.size())) {
      trap("invalid buffer handle");
    }
    return buffers_[static_cast<std::size_t>(handle)];
  }

  Slot exec_function(const DecodedFunction& fn, const Slot* args,
                     std::size_t nargs, bool in_parallel, Cost& cost) {
    if (++depth_ > kMaxDepth) trap("call stack overflow");
    Slot* regs = g_arena.acquire(depth_, fn.num_regs);
    const std::size_t nparams = std::min(nargs, fn.param_regs.size());
    for (std::size_t p = 0; p < nparams; ++p) {
      regs[fn.param_regs[p]] = args[p];
    }

    const int nblocks = static_cast<int>(fn.blocks.size());
    int block_id = 0;
    int prev_block = -1;

    while (true) {
      if (block_id < 0 || block_id >= nblocks) {
        trap("branch out of range in " + fn.name);
      }
      const DecodedBlock& block =
          fn.blocks[static_cast<std::size_t>(block_id)];
      const bool parallel_here = in_parallel || block.parallel != 0;

      // Fork/join accounting: entering a parallel loop header from
      // outside the loop (only the outermost parallel region counts).
      if (!in_parallel && block.loops_end != block.loops_begin) {
        for (int li = block.loops_begin; li < block.loops_end; ++li) {
          const DecodedLoop& loop =
              fn.header_loops[static_cast<std::size_t>(li)];
          const bool from_inside =
              prev_block >= 0 &&
              loop.member[static_cast<std::size_t>(prev_block)] != 0;
          if (!from_inside) ++cost.fork_joins;
        }
      }

      Slot ret;
      bool returned = false;
      int next_block;
      int overrun_at = -1;
      if (block.count <= options_.max_instructions - cost.instructions) {
        // Folded fast path: the whole block fits under the remaining
        // budget, so accounting stays one add per block traversal.
        cost.instructions += block.count;
        if (parallel_here) {
          cost.parallel_units += block.static_cost_units;
        } else {
          cost.serial_units += block.static_cost_units;
        }
        next_block = exec_block<false>(fn, block, 0, regs, parallel_here,
                                       cost, ret, returned, overrun_at);
        if (overrun_at >= 0) {
          // A callee's retired instructions merged into this frame
          // mid-block and crossed the budget. Un-count the instructions
          // that never ran and finish the block per-op: the reference
          // traps within this tail, at the exact instruction the per-op
          // check reproduces.
          cost.instructions -= block.count - overrun_at;
          next_block = exec_block<true>(fn, block, overrun_at, regs,
                                        parallel_here, cost, ret, returned,
                                        overrun_at);
        }
      } else {
        // Near the budget boundary: per-op accounting reproduces the
        // reference interpreter's trap point exactly (see decoded.hpp).
        next_block = exec_block<true>(fn, block, 0, regs, parallel_here,
                                      cost, ret, returned, overrun_at);
      }
      if (returned) {
        --depth_;
        return ret;
      }
      if (next_block < 0) {
        trap("block fell through without terminator in " + fn.name);
      }
      prev_block = block_id;
      block_id = next_block;
    }
  }

  // One block's instruction loop, shared by both accounting modes. The
  // template parameter selects folded (false) or per-op (true) budget
  // and unit accounting, so the fast path carries no boundary branches.
  // `overrun_at` is set (folded mode only) when a callee's merged
  // instruction count crossed the budget mid-block; the dispatcher then
  // resumes this block per-op from that index.
  template <bool kPerOp>
  int exec_block(const DecodedFunction& fn, const DecodedBlock& block,
                 int start, Slot* regs, bool parallel_here, Cost& cost,
                 Slot& ret, bool& returned, int& overrun_at) {
      const DecodedInst* insts = fn.insts.data() + block.first;
      const int count = block.count;
      int next_block = -1;

      for (int k = start; k < count; ++k) {
        const DecodedInst& inst = insts[k];
        if constexpr (kPerOp) {
          // Mirrors the reference interpreter: count, check, then
          // execute — the trapping instruction retires in the count but
          // has no side effects.
          if (++cost.instructions > options_.max_instructions) {
            throw BudgetExceeded(fn.name, cost.instructions);
          }
        }
        const int w = inst.width;

        const auto lane_f = [&](int reg, int lane) -> double {
          const Slot& s = regs[reg];
          return s.lanes == 1 ? s.f[0] : s.f[lane];
        };
        const auto lane_i = [&](int reg, int lane) -> long long {
          const Slot& s = regs[reg];
          return s.lanes == 1 ? s.i[0] : s.i[lane];
        };
        // Width-specialized register writes: only the computed lanes of
        // the computed bank are stored (plus i[0] := 0 on scalar float
        // results, which keeps ret_i64 exact). Lanes beyond `lanes` and
        // the other bank of a typed register are never read by well-typed
        // IR, so skipping the seed's full 136-byte zero+copy per
        // instruction is unobservable — the equivalence test asserts this
        // over the real workloads.
        const auto write_f = [&](const double* v) {
          if (inst.dst < 0) return;
          Slot& d = regs[inst.dst];
          for (int l = 0; l < w; ++l) d.f[l] = v[l];
          if (w == 1) d.i[0] = 0;
          d.lanes = w;
        };
        const auto write_i = [&](const long long* v) {
          if (inst.dst < 0) return;
          Slot& d = regs[inst.dst];
          for (int l = 0; l < w; ++l) d.i[l] = v[l];
          if (w == 1) d.f[0] = 0.0;
          d.lanes = w;
        };
        double tf[kMaxLanes];
        long long ti[kMaxLanes];

        switch (inst.op) {
          case Opcode::ConstF:
            for (int l = 0; l < w; ++l) tf[l] = inst.fimm;
            write_f(tf);
            break;
          case Opcode::ConstI:
            for (int l = 0; l < w; ++l) ti[l] = inst.iimm;
            write_i(ti);
            break;
          case Opcode::Mov:
            if (inst.dst >= 0) {
              for (int l = 0; l < w; ++l) {
                tf[l] = lane_f(inst.a, l);
                ti[l] = lane_i(inst.a, l);
              }
              Slot& d = regs[inst.dst];
              for (int l = 0; l < w; ++l) {
                d.f[l] = tf[l];
                d.i[l] = ti[l];
              }
              d.lanes = w;
            }
            break;
          case Opcode::FAdd:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) + lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FSub:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) - lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FMul:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) * lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FDiv:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) / lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FNeg:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(-lane_f(inst.a, l));
            write_f(tf);
            break;
          case Opcode::Fma:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) * lane_f(inst.b, l) +
                                       lane_f(inst.c, l));
            write_f(tf);
            break;
          case Opcode::IAdd:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) + lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::ISub:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) - lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::IMul:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) * lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::IDiv:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer division by zero in " + fn.name);
              ti[l] = lane_i(inst.a, l) / d;
            }
            write_i(ti);
            break;
          case Opcode::IMod:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer modulo by zero in " + fn.name);
              ti[l] = lane_i(inst.a, l) % d;
            }
            write_i(ti);
            break;
          case Opcode::INeg:
            for (int l = 0; l < w; ++l) ti[l] = -lane_i(inst.a, l);
            write_i(ti);
            break;
          case Opcode::ICmp:
            for (int l = 0; l < w; ++l) {
              const long long a = lane_i(inst.a, l);
              const long long b = lane_i(inst.b, l);
              bool v = false;
              switch (inst.pred) {
                case CmpPred::LT: v = a < b; break;
                case CmpPred::LE: v = a <= b; break;
                case CmpPred::GT: v = a > b; break;
                case CmpPred::GE: v = a >= b; break;
                case CmpPred::EQ: v = a == b; break;
                case CmpPred::NE: v = a != b; break;
              }
              ti[l] = v ? 1 : 0;
            }
            write_i(ti);
            break;
          case Opcode::FCmp:
            for (int l = 0; l < w; ++l) {
              const double a = lane_f(inst.a, l);
              const double b = lane_f(inst.b, l);
              bool v = false;
              switch (inst.pred) {
                case CmpPred::LT: v = a < b; break;
                case CmpPred::LE: v = a <= b; break;
                case CmpPred::GT: v = a > b; break;
                case CmpPred::GE: v = a >= b; break;
                case CmpPred::EQ: v = a == b; break;
                case CmpPred::NE: v = a != b; break;
              }
              ti[l] = v ? 1 : 0;
            }
            write_i(ti);
            break;
          case Opcode::LAnd:
            for (int l = 0; l < w; ++l)
              ti[l] = (lane_i(inst.a, l) != 0 && lane_i(inst.b, l) != 0);
            write_i(ti);
            break;
          case Opcode::LOr:
            for (int l = 0; l < w; ++l)
              ti[l] = (lane_i(inst.a, l) != 0 || lane_i(inst.b, l) != 0);
            write_i(ti);
            break;
          case Opcode::LNot:
            for (int l = 0; l < w; ++l) ti[l] = lane_i(inst.a, l) == 0;
            write_i(ti);
            break;
          case Opcode::SiToFp:
            for (int l = 0; l < w; ++l)
              tf[l] = static_cast<double>(lane_i(inst.a, l));
            write_f(tf);
            break;
          case Opcode::FpToSi:
            for (int l = 0; l < w; ++l)
              ti[l] = static_cast<long long>(lane_f(inst.a, l));
            write_i(ti);
            break;
          case Opcode::LoadF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float load from int buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.f->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds load in " + fn.name);
              }
              tf[0] = (*buf.f)[static_cast<std::size_t>(base)];
            } else {
              // Contiguous vector access: one range check for all lanes.
              if (base < 0 || base + w > size) {
                trap("out-of-bounds load in " + fn.name);
              }
              const double* p = buf.f->data() + base;
              for (int l = 0; l < w; ++l) tf[l] = p[l];
            }
            write_f(tf);
            break;
          }
          case Opcode::LoadI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int load from float buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.i->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds load in " + fn.name);
              }
              ti[0] = (*buf.i)[static_cast<std::size_t>(base)];
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds load in " + fn.name);
              }
              const long long* p = buf.i->data() + base;
              for (int l = 0; l < w; ++l) ti[l] = p[l];
            }
            write_i(ti);
            break;
          }
          case Opcode::StoreF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float store to int buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.f->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.f)[static_cast<std::size_t>(base)] = lane_f(inst.c, 0);
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds store in " + fn.name);
              }
              double* p = buf.f->data() + base;
              for (int l = 0; l < w; ++l) p[l] = lane_f(inst.c, l);
            }
            break;
          }
          case Opcode::StoreI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int store to float buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.i->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.i)[static_cast<std::size_t>(base)] = lane_i(inst.c, 0);
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds store in " + fn.name);
              }
              long long* p = buf.i->data() + base;
              for (int l = 0; l < w; ++l) p[l] = lane_i(inst.c, l);
            }
            break;
          }
          case Opcode::VSplat:
            if (inst.dst >= 0) {
              const double f0 = lane_f(inst.a, 0);
              const long long i0 = lane_i(inst.a, 0);
              Slot& d = regs[inst.dst];
              for (int l = 0; l < w; ++l) {
                d.f[l] = f0;
                d.i[l] = i0;
              }
              d.lanes = w;
            }
            break;
          case Opcode::HReduceAdd: {
            const Slot& v = regs[inst.a];
            double sum = 0.0;
            for (int l = 0; l < v.lanes; ++l)
              sum = canonicalize_nan(sum + v.f[l]);
            if (inst.dst >= 0) {
              Slot& d = regs[inst.dst];
              d.f[0] = sum;
              d.i[0] = 0;
              d.lanes = 1;
            }
            break;
          }
          case Opcode::Call: {
            const Slot out = exec_call(fn, inst, regs, parallel_here, cost);
            // Full-slot write: call results carry seed-exact zeros.
            if (inst.dst >= 0) regs[inst.dst] = out;
            if constexpr (!kPerOp) {
              if (cost.instructions > options_.max_instructions &&
                  k + 1 < count) {
                // Callee counts pushed this frame over budget mid-block;
                // hand the tail back for per-op execution.
                overrun_at = k + 1;
                return -1;
              }
            }
            break;
          }
          case Opcode::Br:
            next_block = inst.t1;
            break;
          case Opcode::CBr:
            next_block = lane_i(inst.a, 0) != 0 ? inst.t1 : inst.t2;
            break;
          case Opcode::Ret:
            if (inst.a >= 0) ret = regs[inst.a];
            returned = true;
            break;
        }

        if constexpr (kPerOp) {
          // Unit accounting after execution, like the reference: the
          // retiring instruction's units land before control transfers.
          const long long units = inst.call_kind == CallKind::IntrinsicCall
                                      ? intrinsic_cost_units(inst.intrinsic)
                                      : op_cost_units(inst.op);
          if (parallel_here) {
            cost.parallel_units += units;
          } else {
            cost.serial_units += units;
          }
        }
        if (returned || next_block >= 0) break;
      }

      return next_block;
  }

  Slot exec_call(const DecodedFunction& caller, const DecodedInst& inst,
                 Slot* regs, bool parallel_here, Cost& cost) {
    const int w = inst.width;
    Slot out;
    out.lanes = w;
    if (inst.call_kind == CallKind::IntrinsicCall) {
      const int argc = inst.args_end - inst.args_begin;
      const int a0 =
          argc > 0 ? caller.call_args[static_cast<std::size_t>(inst.args_begin)]
                   : -1;
      const int a1 =
          argc > 1
              ? caller.call_args[static_cast<std::size_t>(inst.args_begin + 1)]
              : -1;
      const auto lane_f = [&](int reg, int lane) -> double {
        const Slot& s = regs[reg];
        return s.lanes == 1 ? s.f[0] : s.f[lane];
      };
      for (int l = 0; l < w; ++l) {
        const double x = a0 >= 0 ? lane_f(a0, l) : 0.0;
        const double y = a1 >= 0 ? lane_f(a1, l) : 0.0;
        double v = 0.0;
        switch (inst.intrinsic) {
          case Intrinsic::Sqrt: v = std::sqrt(x); break;
          case Intrinsic::Rsqrt: v = 1.0 / std::sqrt(x); break;
          case Intrinsic::Exp: v = std::exp(x); break;
          case Intrinsic::Fabs: v = std::fabs(x); break;
          case Intrinsic::Floor: v = std::floor(x); break;
          case Intrinsic::Fmin: v = vm_fmin(x, y); break;
          case Intrinsic::Fmax: v = vm_fmax(x, y); break;
          case Intrinsic::Pow2: v = x * x; break;
        }
        out.f[l] = canonicalize_nan(v);
      }
      return out;
    }
    if (inst.call_kind == CallKind::Unresolved) {
      trap("unresolved call: " + program_.unresolved_name(inst.callee));
    }

    const DecodedFunction& callee =
        program_.functions()[static_cast<std::size_t>(inst.callee)];
    // Gather arguments into a stack buffer when they fit (the common
    // case; the seed allocated a heap vector per call) and fall back to
    // the heap for very wide signatures.
    constexpr int kInlineArgs = 24;
    Slot inline_args[kInlineArgs];
    std::vector<Slot> heap_args;
    const int argc = inst.args_end - inst.args_begin;
    Slot* call_args = inline_args;
    if (argc > kInlineArgs) {
      heap_args.resize(static_cast<std::size_t>(argc));
      call_args = heap_args.data();
    }
    for (int k = 0; k < argc; ++k) {
      call_args[k] =
          regs[caller.call_args[static_cast<std::size_t>(inst.args_begin + k)]];
    }

    if (callee.gpu_kernel) {
      if (!node_.gpu) {
        trap("GPU kernel '" + callee.name +
             "' invoked on a node without a GPU");
      }
      Cost child;
      const Slot r = exec_function(callee, call_args,
                                   static_cast<std::size_t>(argc),
                                   /*in_parallel=*/false, child);
      // All device cycles run at GPU throughput; host pays the launch
      // overhead.
      cost.gpu += gpu_offload_cycles(child.serial_units, child.parallel_units,
                                     child.gpu, gpu_speedup_);
      if (parallel_here) {
        cost.parallel_units += gpu_launch_units_;
      } else {
        cost.serial_units += gpu_launch_units_;
      }
      cost.instructions += child.instructions;
      out = r;
      out.lanes = 1;
      return out;
    }

    Cost child;
    const Slot r = exec_function(callee, call_args,
                                 static_cast<std::size_t>(argc),
                                 parallel_here, child);
    if (parallel_here) {
      // Entire callee executes inside the parallel region.
      cost.parallel_units += child.serial_units + child.parallel_units;
    } else {
      cost.serial_units += child.serial_units;
      cost.parallel_units += child.parallel_units;
      cost.fork_joins += child.fork_joins;
    }
    cost.gpu += child.gpu;
    cost.instructions += child.instructions;
    out = r;
    out.lanes = 1;
    return out;
  }

  const DecodedProgram& program_;
  const NodeSpec& node_;
  const ExecutorOptions& options_;
  std::vector<Buffer> buffers_;
  std::unordered_map<std::string, int> handles_;
  long long gpu_launch_units_ = 0;
  double gpu_speedup_ = 1.0;
  int depth_ = 0;
};

}  // namespace

RunResult run_decoded(const DecodedProgram& program, const NodeSpec& node,
                      const ExecutorOptions& options, Workload& workload) {
  DecodedMachine machine(program, node, options, workload);
  return machine.run(workload);
}

}  // namespace xaas::vm
