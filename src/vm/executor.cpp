#include "vm/executor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vm/decoded.hpp"

namespace xaas::vm {

using minicc::ir::Block;
using minicc::ir::CmpPred;
using minicc::ir::Function;
using minicc::ir::Inst;
using minicc::ir::Opcode;
using minicc::ir::RegType;

namespace {

// Modeled-time constants: cycles inside parallel regions divide by
// threads * kParallelEfficiency, and each outermost parallel-loop entry
// adds kForkJoinOverheadCycles.
constexpr double kParallelEfficiency = 0.92;
constexpr double kForkJoinOverheadCycles = 2000.0;

struct Slot {
  double f[kMaxLanes] = {0};
  long long i[kMaxLanes] = {0};
  int lanes = 1;
};

struct Buffer {
  std::vector<double>* f = nullptr;
  std::vector<long long>* i = nullptr;
};

// Costs accumulate in integer 1/20-cycle units (see decoded.hpp): exact,
// associative arithmetic shared with the pre-decoded interpreter so the
// two stay bit-identical.
struct Cost {
  long long serial = 0;    // units
  long long parallel = 0;  // units
  double gpu = 0.0;        // cycles
  long long fork_joins = 0;
  long long instructions = 0;
};

class Machine {
public:
  Machine(const Program& program, const NodeSpec& node,
          const ExecutorOptions& options, Workload& workload)
      : program_(program), node_(node), options_(options) {
    // Bind workload buffers to handles.
    for (auto& [name, vec] : workload.f64_buffers) {
      handles_[name] = static_cast<int>(buffers_.size());
      buffers_.push_back({&vec, nullptr});
    }
    for (auto& [name, vec] : workload.i64_buffers) {
      handles_[name] = static_cast<int>(buffers_.size());
      buffers_.push_back({nullptr, &vec});
    }
  }

  RunResult run(const Workload& workload) {
    RunResult result;
    const Function* entry = program_.find_function(workload.entry);
    if (!entry) {
      result.error = "entry function not found: " + workload.entry;
      return result;
    }
    if (entry->params.size() != workload.args.size()) {
      result.error = "entry argument count mismatch";
      return result;
    }
    std::vector<Slot> args;
    for (const auto& arg : workload.args) {
      Slot s;
      switch (arg.kind) {
        case Workload::Arg::Kind::F64:
          s.f[0] = arg.f;
          break;
        case Workload::Arg::Kind::I64:
          s.i[0] = arg.i;
          break;
        case Workload::Arg::Kind::BufF64:
        case Workload::Arg::Kind::BufI64: {
          const auto it = handles_.find(arg.buffer);
          if (it == handles_.end()) {
            result.error = "unknown buffer: " + arg.buffer;
            return result;
          }
          s.i[0] = it->second;
          break;
        }
      }
      args.push_back(s);
    }

    Cost cost;
    Slot ret;
    try {
      ret = exec_function(*entry, args, /*in_parallel=*/false, cost);
    } catch (const BudgetExceeded& e) {
      // Keep the retired count observable at the trap: the decoded tier
      // pins its trap accounting against it.
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
    result.cycles_serial = units_to_cycles(cost.serial);
    result.cycles_parallel = units_to_cycles(cost.parallel);
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

  // Per-function static info, computed once and cached.
  struct FnInfo {
    std::vector<bool> block_parallel;               // block -> inside a parallel loop
    std::map<int, std::vector<const minicc::ir::LoopInfo*>> parallel_headers;
  };

  const FnInfo& fn_info(const Function& fn) {
    auto it = fn_info_.find(&fn);
    if (it != fn_info_.end()) return it->second;
    FnInfo info;
    info.block_parallel.assign(fn.blocks.size(), false);
    for (const auto& loop : fn.loops) {
      if (!loop.parallel) continue;
      for (int b : loop.blocks) {
        if (b >= 0 && b < static_cast<int>(fn.blocks.size())) {
          info.block_parallel[static_cast<std::size_t>(b)] = true;
        }
      }
      info.parallel_headers[loop.header].push_back(&loop);
    }
    return fn_info_.emplace(&fn, std::move(info)).first->second;
  }

  Slot exec_function(const Function& fn, const std::vector<Slot>& args,
                     bool in_parallel, Cost& cost) {
    if (++depth_ > 64) trap("call stack overflow");
    const FnInfo& info = fn_info(fn);

    std::vector<Slot> regs(static_cast<std::size_t>(fn.num_regs()));
    for (std::size_t p = 0; p < fn.params.size(); ++p) {
      regs[static_cast<std::size_t>(fn.params[p].reg)] = args[p];
    }

    int block_id = 0;
    int prev_block = -1;
    Slot ret;

    while (true) {
      if (block_id < 0 || block_id >= static_cast<int>(fn.blocks.size())) {
        trap("branch out of range in " + fn.name);
      }
      const bool parallel_here =
          in_parallel || info.block_parallel[static_cast<std::size_t>(block_id)];

      // Fork/join accounting: entering a parallel loop header from
      // outside the loop (only the outermost parallel region counts).
      if (!in_parallel) {
        const auto hit = info.parallel_headers.find(block_id);
        if (hit != info.parallel_headers.end()) {
          for (const auto* loop : hit->second) {
            if (!loop->contains(prev_block)) ++cost.fork_joins;
          }
        }
      }

      const Block& block = fn.blocks[static_cast<std::size_t>(block_id)];
      int next_block = -1;

      for (const Inst& inst : block.insts) {
        if (++cost.instructions > options_.max_instructions) {
          throw BudgetExceeded(fn.name, cost.instructions);
        }
        long long cycles = op_cost_units(inst.op);
        const int w = std::min(inst.width, kMaxLanes);

        const auto lane_f = [&](int reg, int lane) -> double {
          const Slot& s = regs[static_cast<std::size_t>(reg)];
          return s.lanes == 1 ? s.f[0] : s.f[lane];
        };
        const auto lane_i = [&](int reg, int lane) -> long long {
          const Slot& s = regs[static_cast<std::size_t>(reg)];
          return s.lanes == 1 ? s.i[0] : s.i[lane];
        };
        Slot out;
        out.lanes = w;

        switch (inst.op) {
          case Opcode::ConstF:
            for (int l = 0; l < w; ++l) out.f[l] = inst.fimm;
            break;
          case Opcode::ConstI:
            for (int l = 0; l < w; ++l) out.i[l] = inst.iimm;
            break;
          case Opcode::Mov:
            for (int l = 0; l < w; ++l) {
              out.f[l] = lane_f(inst.a, l);
              out.i[l] = lane_i(inst.a, l);
            }
            break;
          case Opcode::FAdd:
            for (int l = 0; l < w; ++l)
              out.f[l] =
                  canonicalize_nan(lane_f(inst.a, l) + lane_f(inst.b, l));
            break;
          case Opcode::FSub:
            for (int l = 0; l < w; ++l)
              out.f[l] =
                  canonicalize_nan(lane_f(inst.a, l) - lane_f(inst.b, l));
            break;
          case Opcode::FMul:
            for (int l = 0; l < w; ++l)
              out.f[l] =
                  canonicalize_nan(lane_f(inst.a, l) * lane_f(inst.b, l));
            break;
          case Opcode::FDiv:
            for (int l = 0; l < w; ++l)
              out.f[l] =
                  canonicalize_nan(lane_f(inst.a, l) / lane_f(inst.b, l));
            break;
          case Opcode::FNeg:
            for (int l = 0; l < w; ++l)
              out.f[l] = canonicalize_nan(-lane_f(inst.a, l));
            break;
          case Opcode::Fma:
            for (int l = 0; l < w; ++l)
              out.f[l] = canonicalize_nan(lane_f(inst.a, l) *
                                              lane_f(inst.b, l) +
                                          lane_f(inst.c, l));
            break;
          case Opcode::IAdd:
            for (int l = 0; l < w; ++l)
              out.i[l] = lane_i(inst.a, l) + lane_i(inst.b, l);
            break;
          case Opcode::ISub:
            for (int l = 0; l < w; ++l)
              out.i[l] = lane_i(inst.a, l) - lane_i(inst.b, l);
            break;
          case Opcode::IMul:
            for (int l = 0; l < w; ++l)
              out.i[l] = lane_i(inst.a, l) * lane_i(inst.b, l);
            break;
          case Opcode::IDiv:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer division by zero in " + fn.name);
              out.i[l] = lane_i(inst.a, l) / d;
            }
            break;
          case Opcode::IMod:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer modulo by zero in " + fn.name);
              out.i[l] = lane_i(inst.a, l) % d;
            }
            break;
          case Opcode::INeg:
            for (int l = 0; l < w; ++l) out.i[l] = -lane_i(inst.a, l);
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
              out.i[l] = v ? 1 : 0;
            }
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
              out.i[l] = v ? 1 : 0;
            }
            break;
          case Opcode::LAnd:
            for (int l = 0; l < w; ++l)
              out.i[l] = (lane_i(inst.a, l) != 0 && lane_i(inst.b, l) != 0);
            break;
          case Opcode::LOr:
            for (int l = 0; l < w; ++l)
              out.i[l] = (lane_i(inst.a, l) != 0 || lane_i(inst.b, l) != 0);
            break;
          case Opcode::LNot:
            for (int l = 0; l < w; ++l) out.i[l] = lane_i(inst.a, l) == 0;
            break;
          case Opcode::SiToFp:
            for (int l = 0; l < w; ++l)
              out.f[l] = static_cast<double>(lane_i(inst.a, l));
            break;
          case Opcode::FpToSi:
            for (int l = 0; l < w; ++l)
              out.i[l] = static_cast<long long>(lane_f(inst.a, l));
            break;
          case Opcode::LoadF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float load from int buffer");
            const long long base_idx = lane_i(inst.b, 0);
            for (int l = 0; l < w; ++l) {
              const long long idx = w == 1 ? base_idx : base_idx + l;
              if (idx < 0 || idx >= static_cast<long long>(buf.f->size())) {
                trap("out-of-bounds load in " + fn.name);
              }
              out.f[l] = (*buf.f)[static_cast<std::size_t>(idx)];
            }
            break;
          }
          case Opcode::LoadI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int load from float buffer");
            const long long base_idx = lane_i(inst.b, 0);
            for (int l = 0; l < w; ++l) {
              const long long idx = w == 1 ? base_idx : base_idx + l;
              if (idx < 0 || idx >= static_cast<long long>(buf.i->size())) {
                trap("out-of-bounds load in " + fn.name);
              }
              out.i[l] = (*buf.i)[static_cast<std::size_t>(idx)];
            }
            break;
          }
          case Opcode::StoreF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float store to int buffer");
            const long long base_idx = lane_i(inst.b, 0);
            for (int l = 0; l < w; ++l) {
              const long long idx = w == 1 ? base_idx : base_idx + l;
              if (idx < 0 || idx >= static_cast<long long>(buf.f->size())) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.f)[static_cast<std::size_t>(idx)] = lane_f(inst.c, l);
            }
            break;
          }
          case Opcode::StoreI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int store to float buffer");
            const long long base_idx = lane_i(inst.b, 0);
            for (int l = 0; l < w; ++l) {
              const long long idx = w == 1 ? base_idx : base_idx + l;
              if (idx < 0 || idx >= static_cast<long long>(buf.i->size())) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.i)[static_cast<std::size_t>(idx)] = lane_i(inst.c, l);
            }
            break;
          }
          case Opcode::VSplat:
            for (int l = 0; l < w; ++l) {
              out.f[l] = lane_f(inst.a, 0);
              out.i[l] = lane_i(inst.a, 0);
            }
            break;
          case Opcode::HReduceAdd: {
            const Slot& v = regs[static_cast<std::size_t>(inst.a)];
            double sum = 0.0;
            for (int l = 0; l < v.lanes; ++l)
              sum = canonicalize_nan(sum + v.f[l]);
            out.lanes = 1;
            out.f[0] = sum;
            break;
          }
          case Opcode::Call: {
            if (const IntrinsicSpec* spec = find_intrinsic(inst.callee)) {
              cycles = spec->cost_units;
              for (int l = 0; l < w; ++l) {
                const double x =
                    inst.args.empty() ? 0.0 : lane_f(inst.args[0], l);
                const double y =
                    inst.args.size() > 1 ? lane_f(inst.args[1], l) : 0.0;
                double v = 0.0;
                switch (spec->tag) {
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
            } else {
              const Function* callee = program_.find_function(inst.callee);
              if (!callee) trap("unresolved call: " + inst.callee);
              std::vector<Slot> call_args;
              call_args.reserve(inst.args.size());
              for (int arg : inst.args) {
                call_args.push_back(regs[static_cast<std::size_t>(arg)]);
              }
              if (callee->gpu_kernel) {
                if (!node_.gpu) {
                  trap("GPU kernel '" + inst.callee +
                       "' invoked on a node without a GPU");
                }
                Cost child;
                const Slot r =
                    exec_function(*callee, call_args, /*in_parallel=*/false,
                                  child);
                // All device cycles run at GPU throughput; host pays the
                // launch overhead.
                cost.gpu += gpu_offload_cycles(child.serial, child.parallel,
                                               child.gpu,
                                               node_.gpu->speedup_vs_core);
                const long long launch =
                    cycles_to_units(node_.gpu->launch_overhead_cycles);
                if (parallel_here) {
                  cost.parallel += launch;
                } else {
                  cost.serial += launch;
                }
                cost.instructions += child.instructions;
                out = r;
                out.lanes = 1;
              } else {
                Cost child;
                const Slot r =
                    exec_function(*callee, call_args, parallel_here, child);
                if (parallel_here) {
                  // Entire callee executes inside the parallel region.
                  cost.parallel += child.serial + child.parallel;
                } else {
                  cost.serial += child.serial;
                  cost.parallel += child.parallel;
                  cost.fork_joins += child.fork_joins;
                }
                cost.gpu += child.gpu;
                cost.instructions += child.instructions;
                out = r;
                out.lanes = 1;
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
            if (inst.a >= 0) ret = regs[static_cast<std::size_t>(inst.a)];
            if (parallel_here) {
              cost.parallel += cycles;
            } else {
              cost.serial += cycles;
            }
            --depth_;
            return ret;
        }

        if (parallel_here) {
          cost.parallel += cycles;
        } else {
          cost.serial += cycles;
        }

        if (inst.dst >= 0) {
          regs[static_cast<std::size_t>(inst.dst)] = out;
        }
        if (next_block >= 0) break;
      }

      if (next_block < 0) {
        trap("block fell through without terminator in " + fn.name);
      }
      prev_block = block_id;
      block_id = next_block;
    }
  }

  const Program& program_;
  const NodeSpec& node_;
  ExecutorOptions options_;
  std::vector<Buffer> buffers_;
  std::map<std::string, int> handles_;
  std::map<const Function*, FnInfo> fn_info_;
  int depth_ = 0;
};

}  // namespace

Executor::Executor(const Program& program, const NodeSpec& node,
                   ExecutorOptions options)
    : program_(program), node_(node), options_(options) {}

Executor::Executor(const Program& program, const NodeSpec& node,
                   ExecutorOptions options,
                   std::shared_ptr<const DecodedProgram> decoded)
    : program_(program), node_(node), options_(options) {
  if (decoded) {
    std::call_once(decode_once_, [&] { decoded_ = std::move(decoded); });
  }
}

Executor::~Executor() = default;

std::shared_ptr<const DecodedProgram> Executor::decoded_program() const {
  std::call_once(decode_once_, [this] {
    decoded_ = std::make_shared<const DecodedProgram>(
        DecodedProgram::build(program_));
  });
  return decoded_;
}

RunResult Executor::run(Workload& workload) const {
  RunResult result = run_impl(workload);
  if (options_.stats_hook) options_.stats_hook(result);
  return result;
}

RunResult Executor::run_impl(Workload& workload) const {
  RunResult result;
  if (!program_.ok()) {
    result.error = "program not linked: " + program_.error();
    return result;
  }
  // ISA compatibility: the deployment artifact must run on this host.
  const isa::VectorIsa code_isa = program_.target().visa;
  const isa::VectorIsa host_isa = node_.best_vector_isa();
  if (code_isa != isa::VectorIsa::None) {
    if (isa::arch_of(code_isa) != node_.cpu.arch) {
      result.error = "exec format error: binary is " +
                     std::string(isa::to_string(isa::arch_of(code_isa))) +
                     ", host is " +
                     std::string(isa::to_string(node_.cpu.arch));
      return result;
    }
    if (!isa::runs_on(code_isa, host_isa)) {
      result.error = "illegal instruction: binary requires " +
                     std::string(isa::to_string(code_isa)) +
                     ", host supports up to " +
                     std::string(isa::to_string(host_isa));
      return result;
    }
  }

  if (options_.reference_interpreter) {
    Machine machine(program_, node_, options_, workload);
    result = machine.run(workload);
  } else {
    result = run_decoded(*decoded_program(), node_, options_, workload);
  }
  if (!result.ok) return result;

  const int threads = std::max(1, std::min(options_.threads, node_.cpu.cores));
  result.threads_used = threads;
  const double eff_threads =
      threads == 1 ? 1.0 : threads * kParallelEfficiency;
  const double total_cycles =
      result.cycles_serial + result.cycles_parallel / eff_threads +
      static_cast<double>(result.fork_joins) * kForkJoinOverheadCycles +
      result.cycles_gpu;
  result.elapsed_seconds = total_cycles / (node_.cpu.clock_ghz * 1e9);
  return result;
}

}  // namespace xaas::vm
