#include "vm/decoded.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

constexpr int kMaxDepth = 64;

bool is_terminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::CBr || op == Opcode::Ret;
}

// One VM register: both banks of kMaxLanes lanes and the lane count of
// its last write.
struct Slot {
  double f[kMaxLanes] = {0};
  long long i[kMaxLanes] = {0};
  int lanes = 1;
};

// Dispatch tags (DecodedInst::dispatch) number the bodies of the
// execution switch: one per (opcode, width class). Widths 1, 2, 4 and 8
// — every width lowering emits — get fixed-width bodies; class 4 is the
// runtime-width body for any other clamped width. Ops whose body ignores
// the width (branches, return, horizontal reduction) always take class 0,
// and calls to user functions have a tag of their own. HReduceAdd is the
// last opcode, so it bounds the opcode range.
constexpr int kWidthClasses = 5;
constexpr int kNumOpcodes = static_cast<int>(Opcode::HReduceAdd) + 1;
constexpr std::uint16_t kUserCallTag = kNumOpcodes * kWidthClasses;

constexpr std::uint16_t dispatch_tag(Opcode op, int width_class) {
  return static_cast<std::uint16_t>(static_cast<int>(op) * kWidthClasses +
                                    width_class);
}

// Operand registers decode to byte offsets into the frame, so an operand
// access is one add; -1 (no register) stays -1. Program::link bounds the
// register count, so the offsets of a linked program fit an int.
int frame_offset(int reg) {
  return reg < 0 ? -1
                 : static_cast<int>(static_cast<long long>(reg) *
                                    static_cast<long long>(sizeof(Slot)));
}

std::uint16_t decode_dispatch(Opcode op, CallKind call_kind, int width) {
  switch (op) {
    case Opcode::Br:
    case Opcode::CBr:
    case Opcode::Ret:
    case Opcode::HReduceAdd:
      return dispatch_tag(op, 0);
    case Opcode::Call:
      if (call_kind != CallKind::IntrinsicCall) return kUserCallTag;
      break;
    default:
      break;
  }
  switch (width) {
    case 1: return dispatch_tag(op, 0);
    case 2: return dispatch_tag(op, 1);
    case 4: return dispatch_tag(op, 2);
    case 8: return dispatch_tag(op, 3);
    default: return dispatch_tag(op, 4);
  }
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
        di.width = std::clamp(inst.width, 1, kMaxLanes);
        di.dst = frame_offset(inst.dst < 0 ? df.num_regs : inst.dst);
        di.a = frame_offset(inst.a);
        di.b = frame_offset(inst.b);
        di.c = frame_offset(inst.c);
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
            di.a = frame_offset(inst.args.size() > 0 ? inst.args[0] : -1);
            di.b = frame_offset(inst.args.size() > 1 ? inst.args[1] : -1);
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
        di.dispatch = decode_dispatch(di.op, di.call_kind, di.width);
        db.static_cost_units += units;
        df.insts.push_back(di);
        ++db.count;
        if (is_terminator(inst.op)) break;
      }
    }
  }
  return dp;
}

// Forces an instruction body into the block loop: the dispatch switch
// selects a body once per instruction, and the body must not be a call.
#define XAAS_VM_INLINE [[gnu::always_inline]] inline

namespace {

// The register at a decoded frame offset.
XAAS_VM_INLINE Slot& reg(Slot* regs, int offset) {
  return *reinterpret_cast<Slot*>(reinterpret_cast<char*>(regs) + offset);
}

// Stands in for an intrinsic's missing arguments, which read as 0.0.
const Slot kZeroSlot{};

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

  Slot* acquire(int depth, int num_slots) {
    auto& frame = frames[depth];
    if (static_cast<int>(frame.size()) < num_slots) {
      frame.resize(static_cast<std::size_t>(num_slots));
    }
    std::fill_n(frame.data(), num_slots, Slot{});
    return frame.data();
  }
};

thread_local FrameArena g_arena;

// Register writes keep the decoded-tier register invariant (decoded.hpp):
// a width-1 result is broadcast into every lane of the bank it is written
// through, so every body reads lane l of an operand as plain f[l] / i[l].
// A width-1 write also zeroes lane 0 of the other bank, so a Ret of the
// register reports the reference's ret_f64/ret_i64. Wider results are
// computed into a temporary first: every operand lane is read before dst,
// which may alias an operand, is written.
template <class T>
XAAS_VM_INLINE void fill_lanes(T* bank, T v) {
  for (int l = 0; l < kMaxLanes; ++l) bank[l] = v;
}

// Lanes [0, W) — [0, w) for the runtime-width body — of src into dst.
// Fixed widths move 16-byte chunks, all loaded before any is stored (src
// may alias dst); a constant-size memmove would still be a library call.
template <int W, class T>
XAAS_VM_INLINE void copy_lanes(T* dst, const T* src, int w) {
  static_assert(sizeof(T) == 8);
  if constexpr (W == 0) {
    std::memmove(dst, src, sizeof(T) * static_cast<std::size_t>(w));
  } else if constexpr (W == 1) {
    dst[0] = src[0];
  } else {
    char t[W / 2][16];
    for (int c = 0; c < W / 2; ++c) std::memcpy(t[c], src + 2 * c, 16);
    for (int c = 0; c < W / 2; ++c) std::memcpy(dst + 2 * c, t[c], 16);
  }
}

template <int W, class Lane>
XAAS_VM_INLINE void put_f(Slot& d, int w, Lane lane) {
  if constexpr (W == 1) {
    fill_lanes(d.f, static_cast<double>(lane(0)));
    d.i[0] = 0;
  } else {
    double t[kMaxLanes];
    for (int l = 0; l < w; ++l) t[l] = lane(l);
    copy_lanes<W>(d.f, t, w);
  }
  d.lanes = w;
}

template <int W, class Lane>
XAAS_VM_INLINE void put_i(Slot& d, int w, Lane lane) {
  if constexpr (W == 1) {
    fill_lanes(d.i, static_cast<long long>(lane(0)));
    d.f[0] = 0.0;
  } else {
    long long t[kMaxLanes];
    for (int l = 0; l < w; ++l) t[l] = lane(l);
    copy_lanes<W>(d.i, t, w);
  }
  d.lanes = w;
}

// Two float lanes at a time, as a GCC/Clang vector type (SSE2 on x86-64,
// NEON on AArch64). Fixed-width float arithmetic runs through it because
// the compiler unrolls the fixed-W lane loops early and leaves them
// scalar, with one cmov per lane for the NaN canonicalization.
typedef double F64x2 __attribute__((vector_size(16)));

XAAS_VM_INLINE F64x2 load2(const double* p) {
  F64x2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// canonicalize_nan for two lanes; per lane the same function.
XAAS_VM_INLINE F64x2 canonicalize_nan(F64x2 r) {
  const F64x2 nan = {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::quiet_NaN()};
  return r != r ? nan : r;
}
using vm::canonicalize_nan;

// fabs, fmin and fmax for one lane and for two, with the semantics of
// vm_fmin/vm_fmax in decoded.hpp: a NaN operand loses (the caller
// canonicalizes two NaNs), and equal operands — the ±0 pair — resolve by
// sign, fmax preferring +0 and fmin preferring -0.
typedef long long I64x2 __attribute__((vector_size(16)));

XAAS_VM_INLINE double vm_fabs(double x) { return std::fabs(x); }
XAAS_VM_INLINE F64x2 vm_fabs(F64x2 x) {
  return reinterpret_cast<F64x2>(reinterpret_cast<I64x2>(x) &
                                 std::numeric_limits<long long>::max());
}
using vm::vm_fmax;
using vm::vm_fmin;
XAAS_VM_INLINE F64x2 vm_fmax(F64x2 x, F64x2 y) {
  const I64x2 x_negative = reinterpret_cast<I64x2>(x) < 0;
  F64x2 r = x < y ? y : x;
  r = (x == y) & x_negative ? y : r;
  return x != x ? y : r;
}
XAAS_VM_INLINE F64x2 vm_fmin(F64x2 x, F64x2 y) {
  const I64x2 x_negative = reinterpret_cast<I64x2>(x) < 0;
  F64x2 r = y < x ? y : x;
  r = (x == y) & ~x_negative ? y : r;
  return x != x ? y : r;
}

// An elementwise float result from float operand lanes: `fn` is generic
// over one lane (double) and two lanes (F64x2).
template <int W, class Fn, class... Src>
XAAS_VM_INLINE void put_f_simd(Slot& d, int w, Fn fn, const Src*... src) {
  if constexpr (W == 1 || W == 0) {
    put_f<W>(d, w, [&](int l) { return fn(src[l]...); });
  } else {
    F64x2 t[W / 2];
    for (int c = 0; c < W / 2; ++c) t[c] = fn(load2(src + 2 * c)...);
    std::memcpy(d.f, t, sizeof(t));
    d.lanes = W;
  }
}

// Compare lanes of x and y under `pred` into dst's integer bank (0/1).
template <int W, class T>
XAAS_VM_INLINE void put_cmp(Slot& d, int w, CmpPred pred, const T* x,
                            const T* y) {
  switch (pred) {
    case CmpPred::LT:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] < y[l]; });
      break;
    case CmpPred::LE:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] <= y[l]; });
      break;
    case CmpPred::GT:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] > y[l]; });
      break;
    case CmpPred::GE:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] >= y[l]; });
      break;
    case CmpPred::EQ:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] == y[l]; });
      break;
    case CmpPred::NE:
      put_i<W>(d, w, [&](int l) -> long long { return x[l] != y[l]; });
      break;
  }
}

// exec_block's exits besides a successor block index.
constexpr int kFellThrough = -1;  // no terminator ran
constexpr int kReturned = -2;     // a Ret ran
constexpr int kOverrun = -3;      // folded block crossed the budget mid-way

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
    // Entry arguments are scalars: broadcast like every width-1 write.
    Slot* regs = enter(*entry);
    for (std::size_t k = 0; k < workload.args.size(); ++k) {
      const auto& arg = workload.args[k];
      Slot& s = regs[entry->param_regs[k]];
      s = Slot{};
      switch (arg.kind) {
        case Workload::Arg::Kind::F64:
          fill_lanes(s.f, arg.f);
          break;
        case Workload::Arg::Kind::I64:
          fill_lanes(s.i, arg.i);
          break;
        case Workload::Arg::Kind::BufF64:
        case Workload::Arg::Kind::BufI64: {
          const auto it = handles_.find(arg.buffer);
          if (it == handles_.end()) {
            result.error = "unknown buffer: " + arg.buffer;
            return result;
          }
          fill_lanes(s.i, static_cast<long long>(it->second));
          break;
        }
      }
    }

    Cost cost;
    const Slot* ret = nullptr;
    try {
      ret = run_frame(*entry, regs, /*in_parallel=*/false, cost);
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
    result.ret_f64 = ret ? ret->f[0] : 0.0;
    result.ret_i64 = ret ? ret->i[0] : 0;
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

  // A zeroed register file for a call one level deeper, plus the sink
  // slot (index num_regs) that discarded results are written to.
  Slot* enter(const DecodedFunction& fn) {
    if (++depth_ > kMaxDepth) trap("call stack overflow");
    return g_arena.acquire(depth_, fn.num_regs + 1);
  }

  // Runs fn's blocks on `regs` until a Ret. Returns the returned register
  // (null for a void return); it lives in this depth's frame, which stays
  // untouched until the caller's next call.
  const Slot* run_frame(const DecodedFunction& fn, Slot* regs,
                        bool in_parallel, Cost& cost) {
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

      const Slot* ret = nullptr;
      int at = 0;
      int next_block;
      if (block.count <= options_.max_instructions - cost.instructions) {
        // Folded fast path: the whole block fits under the remaining
        // budget, so accounting stays one add per block traversal.
        cost.instructions += block.count;
        if (parallel_here) {
          cost.parallel_units += block.static_cost_units;
        } else {
          cost.serial_units += block.static_cost_units;
        }
        next_block =
            exec_block<false>(fn, block, at, regs, parallel_here, cost, ret);
        if (next_block == kOverrun) {
          // A callee's retired instructions merged into this frame
          // mid-block and crossed the budget. Un-count the instructions
          // that never ran and finish the block per-op: the reference
          // traps within this tail, at the exact instruction the per-op
          // check reproduces.
          cost.instructions -= block.count - at;
          next_block =
              exec_block_per_op(fn, block, at, regs, parallel_here, cost, ret);
        }
      } else {
        // Near the budget boundary: per-op accounting reproduces the
        // reference interpreter's trap point exactly (see decoded.hpp).
        next_block =
            exec_block_per_op(fn, block, at, regs, parallel_here, cost, ret);
      }
      if (next_block == kReturned) {
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

  // One block's instructions from index `at`, shared by both accounting
  // modes. kPerOp selects folded (false) or per-op (true) budget and unit
  // accounting, so the fast path carries no boundary branches. Decode
  // ends every block at its first terminator, so the loop needs no
  // early exit. In folded mode, a callee whose merged instruction count
  // crosses the budget mid-block makes this return kOverrun with `at` set
  // to the next instruction, which the caller resumes per-op.
  template <bool kPerOp>
  XAAS_VM_INLINE int exec_block(const DecodedFunction& fn,
                                const DecodedBlock& block, int& at,
                                Slot* regs, bool parallel_here, Cost& cost,
                                const Slot*& ret) {
    const DecodedInst* insts = fn.insts.data() + block.first;
    const int count = block.count;
    int next_block = kFellThrough;

    for (int k = at; k < count; ++k) {
      const DecodedInst& inst = insts[k];
      if constexpr (kPerOp) {
        // Mirrors the reference interpreter: count, check, then execute
        // — the trapping instruction retires in the count but has no
        // side effects.
        if (++cost.instructions > options_.max_instructions) {
          throw BudgetExceeded(fn.name, cost.instructions);
        }
      }

      switch (inst.dispatch) {
#define XAAS_VM_WIDTH_CASES(OP)                          \
  case dispatch_tag(Opcode::OP, 0):                      \
    exec_op<Opcode::OP, 1>(fn, inst, regs);              \
    break;                                               \
  case dispatch_tag(Opcode::OP, 1):                      \
    exec_op<Opcode::OP, 2>(fn, inst, regs);              \
    break;                                               \
  case dispatch_tag(Opcode::OP, 2):                      \
    exec_op<Opcode::OP, 4>(fn, inst, regs);              \
    break;                                               \
  case dispatch_tag(Opcode::OP, 3):                      \
    exec_op<Opcode::OP, 8>(fn, inst, regs);              \
    break;                                               \
  case dispatch_tag(Opcode::OP, 4):                      \
    exec_op<Opcode::OP, 0>(fn, inst, regs);              \
    break;
        XAAS_VM_WIDTH_CASES(ConstF)
        XAAS_VM_WIDTH_CASES(ConstI)
        XAAS_VM_WIDTH_CASES(Mov)
        XAAS_VM_WIDTH_CASES(FAdd)
        XAAS_VM_WIDTH_CASES(FSub)
        XAAS_VM_WIDTH_CASES(FMul)
        XAAS_VM_WIDTH_CASES(FDiv)
        XAAS_VM_WIDTH_CASES(FNeg)
        XAAS_VM_WIDTH_CASES(Fma)
        XAAS_VM_WIDTH_CASES(IAdd)
        XAAS_VM_WIDTH_CASES(ISub)
        XAAS_VM_WIDTH_CASES(IMul)
        XAAS_VM_WIDTH_CASES(IDiv)
        XAAS_VM_WIDTH_CASES(IMod)
        XAAS_VM_WIDTH_CASES(INeg)
        XAAS_VM_WIDTH_CASES(ICmp)
        XAAS_VM_WIDTH_CASES(FCmp)
        XAAS_VM_WIDTH_CASES(LAnd)
        XAAS_VM_WIDTH_CASES(LOr)
        XAAS_VM_WIDTH_CASES(LNot)
        XAAS_VM_WIDTH_CASES(SiToFp)
        XAAS_VM_WIDTH_CASES(FpToSi)
        XAAS_VM_WIDTH_CASES(LoadF)
        XAAS_VM_WIDTH_CASES(LoadI)
        XAAS_VM_WIDTH_CASES(StoreF)
        XAAS_VM_WIDTH_CASES(StoreI)
        XAAS_VM_WIDTH_CASES(VSplat)
        XAAS_VM_WIDTH_CASES(Call)  // intrinsic calls
#undef XAAS_VM_WIDTH_CASES
        case dispatch_tag(Opcode::HReduceAdd, 0):
          exec_op<Opcode::HReduceAdd, 1>(fn, inst, regs);
          break;
        case kUserCallTag:
          call_user(fn, inst, regs, parallel_here, cost);
          if constexpr (!kPerOp) {
            if (cost.instructions > options_.max_instructions &&
                k + 1 < count) {
              // Callee counts pushed this frame over budget mid-block;
              // hand the tail back for per-op execution.
              at = k + 1;
              return kOverrun;
            }
          }
          break;
        case dispatch_tag(Opcode::Br, 0):
          next_block = inst.t1;
          break;
        case dispatch_tag(Opcode::CBr, 0):
          next_block = reg(regs, inst.a).i[0] != 0 ? inst.t1 : inst.t2;
          break;
        case dispatch_tag(Opcode::Ret, 0):
          ret = inst.a >= 0 ? &reg(regs, inst.a) : nullptr;
          next_block = kReturned;
          break;
        default:
          // decode_dispatch emits only the tags above.
          __builtin_unreachable();
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
    }
    return next_block;
  }

  // The per-op instantiation stays out of line: it runs only near the
  // budget boundary.
  [[gnu::noinline]] int exec_block_per_op(const DecodedFunction& fn,
                                          const DecodedBlock& block, int& at,
                                          Slot* regs, bool parallel_here,
                                          Cost& cost, const Slot*& ret) {
    return exec_block<true>(fn, block, at, regs, parallel_here, cost, ret);
  }

  // Bounds-checked lanes [base, base + w) of a buffer for a load.
  template <class T>
  XAAS_VM_INLINE const T* load_lanes(const DecodedFunction& fn,
                                     const std::vector<T>& vec,
                                     long long base, int w) {
    if (base < 0 || base > static_cast<long long>(vec.size()) - w) {
      trap("out-of-bounds load in " + fn.name);
    }
    return vec.data() + base;
  }

  // Stores lanes [0, w) of `src` at base. An out-of-bounds store replays
  // the reference lane by lane, storing the in-bounds prefix before the
  // trap, so a trapping run leaves identical buffers.
  template <int W, class T>
  XAAS_VM_INLINE void store_lanes(const DecodedFunction& fn,
                                  std::vector<T>& vec, long long base, int w,
                                  const T* src) {
    const auto size = static_cast<long long>(vec.size());
    T* p = vec.data();
    if (base < 0 || base > size - w) {
      const long long room = base < 0 ? 0 : size - base;
      for (int l = 0; l < w; ++l) {
        if (l >= room) trap("out-of-bounds store in " + fn.name);
        p[base + l] = src[l];
      }
    } else {
      copy_lanes<W>(p + base, src, w);
    }
  }

  // The body of one (opcode, width) pair. W is the lane count, or 0 for
  // the runtime-width body. Operands are referenced only by the opcodes
  // that read them: the link check guarantees just those are in range.
  template <Opcode Op, int W>
  XAAS_VM_INLINE void exec_op(const DecodedFunction& fn,
                              const DecodedInst& inst, Slot* regs) {
    const int w = W != 0 ? W : inst.width;
    Slot& d = reg(regs, inst.dst);
    if constexpr (Op == Opcode::ConstF) {
      put_f<W>(d, w, [&](int) { return inst.fimm; });
    } else if constexpr (Op == Opcode::ConstI) {
      put_i<W>(d, w, [&](int) { return inst.iimm; });
    } else if constexpr (Op == Opcode::Mov) {
      const Slot& a = reg(regs, inst.a);
      if constexpr (W == 1) {
        const double f0 = a.f[0];
        const long long i0 = a.i[0];
        fill_lanes(d.f, f0);
        fill_lanes(d.i, i0);
      } else {
        copy_lanes<W>(d.f, a.f, w);
        copy_lanes<W>(d.i, a.i, w);
      }
      d.lanes = w;
    } else if constexpr (Op == Opcode::VSplat) {
      const double f0 = reg(regs, inst.a).f[0];
      const long long i0 = reg(regs, inst.a).i[0];
      fill_lanes(d.f, f0);
      fill_lanes(d.i, i0);
      d.lanes = w;
    } else if constexpr (Op == Opcode::FAdd) {
      put_f_simd<W>(
          d, w, [](auto x, auto y) { return canonicalize_nan(x + y); },
          reg(regs, inst.a).f, reg(regs, inst.b).f);
    } else if constexpr (Op == Opcode::FSub) {
      put_f_simd<W>(
          d, w, [](auto x, auto y) { return canonicalize_nan(x - y); },
          reg(regs, inst.a).f, reg(regs, inst.b).f);
    } else if constexpr (Op == Opcode::FMul) {
      put_f_simd<W>(
          d, w, [](auto x, auto y) { return canonicalize_nan(x * y); },
          reg(regs, inst.a).f, reg(regs, inst.b).f);
    } else if constexpr (Op == Opcode::FDiv) {
      put_f_simd<W>(
          d, w, [](auto x, auto y) { return canonicalize_nan(x / y); },
          reg(regs, inst.a).f, reg(regs, inst.b).f);
    } else if constexpr (Op == Opcode::FNeg) {
      put_f_simd<W>(
          d, w, [](auto x) { return canonicalize_nan(-x); },
          reg(regs, inst.a).f);
    } else if constexpr (Op == Opcode::Fma) {
      put_f_simd<W>(
          d, w,
          [](auto x, auto y, auto z) { return canonicalize_nan(x * y + z); },
          reg(regs, inst.a).f, reg(regs, inst.b).f, reg(regs, inst.c).f);
    } else if constexpr (Op == Opcode::IAdd || Op == Opcode::ISub ||
                         Op == Opcode::IMul || Op == Opcode::LAnd ||
                         Op == Opcode::LOr) {
      const long long* x = reg(regs, inst.a).i;
      const long long* y = reg(regs, inst.b).i;
      put_i<W>(d, w, [&](int l) -> long long {
        if constexpr (Op == Opcode::IAdd) return x[l] + y[l];
        if constexpr (Op == Opcode::ISub) return x[l] - y[l];
        if constexpr (Op == Opcode::IMul) return x[l] * y[l];
        if constexpr (Op == Opcode::LAnd) return (x[l] != 0) & (y[l] != 0);
        if constexpr (Op == Opcode::LOr) return (x[l] != 0) | (y[l] != 0);
      });
    } else if constexpr (Op == Opcode::IDiv || Op == Opcode::IMod) {
      const long long* x = reg(regs, inst.a).i;
      const long long* y = reg(regs, inst.b).i;
      put_i<W>(d, w, [&](int l) -> long long {
        const long long den = y[l];
        if constexpr (Op == Opcode::IDiv) {
          if (den == 0) trap("integer division by zero in " + fn.name);
          return x[l] / den;
        } else {
          if (den == 0) trap("integer modulo by zero in " + fn.name);
          return x[l] % den;
        }
      });
    } else if constexpr (Op == Opcode::INeg) {
      const long long* x = reg(regs, inst.a).i;
      put_i<W>(d, w, [&](int l) { return -x[l]; });
    } else if constexpr (Op == Opcode::LNot) {
      const long long* x = reg(regs, inst.a).i;
      put_i<W>(d, w, [&](int l) -> long long { return x[l] == 0; });
    } else if constexpr (Op == Opcode::ICmp) {
      put_cmp<W>(d, w, inst.pred, reg(regs, inst.a).i, reg(regs, inst.b).i);
    } else if constexpr (Op == Opcode::FCmp) {
      put_cmp<W>(d, w, inst.pred, reg(regs, inst.a).f, reg(regs, inst.b).f);
    } else if constexpr (Op == Opcode::SiToFp) {
      const long long* x = reg(regs, inst.a).i;
      put_f<W>(d, w, [&](int l) { return static_cast<double>(x[l]); });
    } else if constexpr (Op == Opcode::FpToSi) {
      const double* x = reg(regs, inst.a).f;
      put_i<W>(d, w, [&](int l) { return static_cast<long long>(x[l]); });
    } else if constexpr (Op == Opcode::LoadF) {
      const Buffer& buf = buffer(static_cast<int>(reg(regs, inst.a).i[0]));
      if (!buf.f) trap("float load from int buffer");
      const double* p = load_lanes(fn, *buf.f, reg(regs, inst.b).i[0], w);
      if constexpr (W == 1) {
        put_f<1>(d, 1, [&](int) { return p[0]; });
      } else {
        copy_lanes<W>(d.f, p, w);
        d.lanes = w;
      }
    } else if constexpr (Op == Opcode::LoadI) {
      const Buffer& buf = buffer(static_cast<int>(reg(regs, inst.a).i[0]));
      if (!buf.i) trap("int load from float buffer");
      const long long* p = load_lanes(fn, *buf.i, reg(regs, inst.b).i[0], w);
      if constexpr (W == 1) {
        put_i<1>(d, 1, [&](int) { return p[0]; });
      } else {
        copy_lanes<W>(d.i, p, w);
        d.lanes = w;
      }
    } else if constexpr (Op == Opcode::StoreF) {
      const Buffer& buf = buffer(static_cast<int>(reg(regs, inst.a).i[0]));
      if (!buf.f) trap("float store to int buffer");
      store_lanes<W>(fn, *buf.f, reg(regs, inst.b).i[0], w,
                     reg(regs, inst.c).f);
    } else if constexpr (Op == Opcode::StoreI) {
      const Buffer& buf = buffer(static_cast<int>(reg(regs, inst.a).i[0]));
      if (!buf.i) trap("int store to float buffer");
      store_lanes<W>(fn, *buf.i, reg(regs, inst.b).i[0], w,
                     reg(regs, inst.c).i);
    } else if constexpr (Op == Opcode::HReduceAdd) {
      const Slot& v = reg(regs, inst.a);
      double sum = 0.0;
      for (int l = 0; l < v.lanes; ++l) sum = canonicalize_nan(sum + v.f[l]);
      put_f<1>(d, 1, [&](int) { return sum; });
    } else if constexpr (Op == Opcode::Call) {
      // Intrinsic calls (user calls dispatch to call_user). Decode put
      // the first two arguments in a and b.
      const double* x = inst.a >= 0 ? reg(regs, inst.a).f : kZeroSlot.f;
      const double* y = inst.b >= 0 ? reg(regs, inst.b).f : kZeroSlot.f;
      switch (inst.intrinsic) {
        case Intrinsic::Sqrt:
          put_f<W>(d, w,
                   [&](int l) { return canonicalize_nan(std::sqrt(x[l])); });
          break;
        case Intrinsic::Rsqrt:
          put_f<W>(d, w, [&](int l) {
            return canonicalize_nan(1.0 / std::sqrt(x[l]));
          });
          break;
        case Intrinsic::Exp:
          put_f<W>(d, w,
                   [&](int l) { return canonicalize_nan(std::exp(x[l])); });
          break;
        case Intrinsic::Fabs:
          put_f_simd<W>(
              d, w, [](auto v) { return canonicalize_nan(vm_fabs(v)); }, x);
          break;
        case Intrinsic::Floor:
          put_f<W>(d, w,
                   [&](int l) { return canonicalize_nan(std::floor(x[l])); });
          break;
        case Intrinsic::Fmin:
          put_f_simd<W>(
              d, w,
              [](auto u, auto v) { return canonicalize_nan(vm_fmin(u, v)); },
              x, y);
          break;
        case Intrinsic::Fmax:
          put_f_simd<W>(
              d, w,
              [](auto u, auto v) { return canonicalize_nan(vm_fmax(u, v)); },
              x, y);
          break;
        case Intrinsic::Pow2:
          put_f_simd<W>(
              d, w, [](auto v) { return canonicalize_nan(v * v); }, x);
          break;
      }
    }
  }

  // A call to a linked user function (or a trap for an unresolved one).
  // Arguments are copied straight from the caller's registers into the
  // callee's frame; the result is a scalar and is broadcast into dst.
  void call_user(const DecodedFunction& caller, const DecodedInst& inst,
                 Slot* regs, bool parallel_here, Cost& cost) {
    if (inst.call_kind == CallKind::Unresolved) {
      trap("unresolved call: " + program_.unresolved_name(inst.callee));
    }
    const DecodedFunction& callee =
        program_.functions()[static_cast<std::size_t>(inst.callee)];
    if (callee.gpu_kernel && !node_.gpu) {
      trap("GPU kernel '" + callee.name + "' invoked on a node without a GPU");
    }
    Slot* callee_regs = enter(callee);
    const int* args = caller.call_args.data() + inst.args_begin;
    const std::size_t nparams =
        std::min(static_cast<std::size_t>(inst.args_end - inst.args_begin),
                 callee.param_regs.size());
    for (std::size_t p = 0; p < nparams; ++p) {
      callee_regs[callee.param_regs[p]] = regs[args[p]];
    }

    Cost child;
    const Slot* r;
    if (callee.gpu_kernel) {
      r = run_frame(callee, callee_regs, /*in_parallel=*/false, child);
      // All device cycles run at GPU throughput; host pays the launch
      // overhead.
      cost.gpu += gpu_offload_cycles(child.serial_units, child.parallel_units,
                                     child.gpu, gpu_speedup_);
      if (parallel_here) {
        cost.parallel_units += gpu_launch_units_;
      } else {
        cost.serial_units += gpu_launch_units_;
      }
    } else {
      r = run_frame(callee, callee_regs, parallel_here, child);
      if (parallel_here) {
        // Entire callee executes inside the parallel region.
        cost.parallel_units += child.serial_units + child.parallel_units;
      } else {
        cost.serial_units += child.serial_units;
        cost.parallel_units += child.parallel_units;
        cost.fork_joins += child.fork_joins;
      }
      cost.gpu += child.gpu;
    }
    cost.instructions += child.instructions;

    // The reference keeps the whole returned slot with lanes = 1, so
    // every read of the result sees lane 0 of both banks (zeros for a
    // void return).
    const double f0 = r ? r->f[0] : 0.0;
    const long long i0 = r ? r->i[0] : 0;
    Slot& d = reg(regs, inst.dst);
    fill_lanes(d.f, f0);
    fill_lanes(d.i, i0);
    d.lanes = 1;
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

#undef XAAS_VM_INLINE

RunResult run_decoded(const DecodedProgram& program, const NodeSpec& node,
                      const ExecutorOptions& options, Workload& workload) {
  DecodedMachine machine(program, node, options, workload);
  return machine.run(workload);
}

}  // namespace xaas::vm
