// Pre-decoded program representation for the cycle-cost executor.
//
// The seed interpreter re-derived everything on every run: per-instruction
// cost lookups, callee resolution by string, intrinsic dispatch by string
// comparison, and per-run `FnInfo` maps. Deployment sweeps (portability
// tables, benchmarks) call `Executor::run` many times on the same linked
// program, so we lower each `Function` once into a flat, resolved form:
//
//  - a flattened instruction stream per function with branch targets kept
//    as block indices and per-block {first, count} ranges,
//  - user-call callees resolved to decoded-function indices, intrinsic
//    callees resolved to enum tags (no string compares at execution),
//  - per-block static cost and instruction totals folded at decode time,
//    so a block traversal adds one number instead of one per instruction,
//  - parallel-loop metadata (which blocks are inside a parallel region,
//    which loops fork at which header) as flat vectors instead of maps,
//  - operand registers as byte offsets into the frame, and a result with
//    no destination register aimed at a sink register past the last one.
//
// One dispatch per instruction. Decode tags every instruction with its
// (opcode, width) pair (`DecodedInst::dispatch`). The machine's block loop
// is one switch over that tag, and every case is the instruction's body
// instantiated for its width and inlined into the loop: widths 1, 2, 4
// and 8 (everything lowering emits) get fixed-width bodies whose float
// lanes run two at a time as vector code, and one runtime-width body
// serves any other width in [1, kMaxLanes].
//
// The decoded-tier register invariant: a register whose last write had
// width 1 (lanes == 1) holds that value in all kMaxLanes lanes of the
// bank it was written through. Every width-1 producer broadcasts —
// arithmetic, compares, conversions, loads, constants, Mov, VSplat,
// HReduceAdd, intrinsic and user-call results, and entry arguments — so
// a width-W body reads lane l of any operand as plain f[l] / i[l], where
// the reference reads lane 0 of a scalar. Only HReduceAdd still reads
// `lanes`. A width-1 write also zeroes lane 0 of the other bank, which
// keeps a returned register's ret_f64/ret_i64 equal to the reference's.
// Well-typed IR never reads the other bank of a register or lanes past a
// vector's width, where the two tiers' register files may differ.
//
// Cost model arithmetic: every per-instruction cost is a multiple of
// 0.05 cycles, so costs are accumulated as integers in 1/20-cycle units
// (`kCostUnitScale`). Integer addition is exact and associative, which is
// what makes the decode-time block folding *provably* equal to the seed's
// per-instruction accumulation — no floating-point reassociation error.
// Both the decoded machine and the reference interpreter in executor.cpp
// share these unit helpers, so their results are bit-identical.
//
// The instruction budget is enforced per instruction in every tier. The
// decoded machine keeps the folded fast path while a whole block fits
// under the remaining budget; a block that could cross the boundary is
// executed through a per-op-accounting instantiation of the same
// switch, so the trap fires after exactly max_instructions + 1 retired
// instructions — the same count, error text, and architectural state as
// the per-instruction reference interpreter (`BudgetExceeded` below
// carries the count so RunResult can report it).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minicc/ir.hpp"
#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "vm/program.hpp"

namespace xaas::vm {

/// Lane count of a VM register, the widest vector width either tier
/// executes. Program::link rejects instruction widths outside
/// [1, kMaxLanes].
inline constexpr int kMaxLanes = 8;

/// Largest register file a function may declare; Program::link rejects
/// bigger ones, which bounds a frame and its decoded offsets.
inline constexpr int kMaxRegisters = 1 << 20;

/// Fixed-point scale of the cost model: 1 cycle == 20 units, chosen so
/// every op/intrinsic cost (multiples of 0.05 cycles) is integral.
inline constexpr long long kCostUnitScale = 20;

inline double units_to_cycles(long long units) {
  return static_cast<double>(units) / kCostUnitScale;
}
inline long long cycles_to_units(double cycles) {
  return std::llround(cycles * kCostUnitScale);
}

/// GPU-offload cost formula shared by both interpreters so they round
/// identically: device cycles run at GPU throughput, host keeps the rest.
inline double gpu_offload_cycles(long long child_serial_units,
                                 long long child_parallel_units,
                                 double child_gpu_cycles, double speedup) {
  return units_to_cycles(child_serial_units + child_parallel_units) / speedup +
         child_gpu_cycles;
}

/// Static cost of one opcode in 1/20-cycle units (Call = the generic call
/// overhead; intrinsic calls use intrinsic_cost_units instead).
long long op_cost_units(minicc::ir::Opcode op);

/// Intrinsics resolved to tags at decode time. There is no catch-all
/// tag: a callee that is not in the table decodes as
/// `CallKind::Unresolved` and traps with its name if reached, instead of
/// silently costing like a mismodeled intrinsic.
enum class Intrinsic : std::uint8_t {
  Sqrt, Rsqrt, Exp, Fabs, Floor, Fmin, Fmax, Pow2,
};

/// One row of the static intrinsic table: frontend name, decoded tag,
/// and static cost in 1/20-cycle units.
struct IntrinsicSpec {
  std::string_view name;
  Intrinsic tag;
  long long cost_units;
};

/// The full table, in tag order (for diagnostics and coverage tests).
const std::vector<IntrinsicSpec>& intrinsic_table();

/// Single lookup used by decode and by the reference interpreter's Call
/// path; nullptr when `name` is not an intrinsic.
const IntrinsicSpec* find_intrinsic(std::string_view name);

long long intrinsic_cost_units(Intrinsic tag);

/// Every float op in both tiers funnels its result through this: a NaN
/// result — propagated or freshly produced by an invalid operation —
/// becomes THE canonical quiet NaN (0x7FF8000000000000), WebAssembly
/// style. Without it bit-identity across tiers is at the mercy of the
/// C++ compiler: x86 `addsd` keeps the *first* NaN operand, GCC freely
/// commutes `a + b` per translation unit, so `+NaN + -NaN` compiled in
/// executor.cpp and in decoded.cpp can disagree on the sign bit. The
/// ternary compiles branch-free (unordered-compare + blend).
inline double canonicalize_nan(double r) {
  return r != r ? std::numeric_limits<double>::quiet_NaN() : r;
}

/// fmin/fmax with pinned-down semantics. C leaves fmax(+0, -0)
/// unspecified, so libm and an auto-vectorized loop can legitimately
/// pick different zero signs. The VM defines: NaN operands lose (both
/// NaN -> canonical NaN), and equal operands — the ±0 pair — resolve by
/// sign, fmax preferring +0 and fmin preferring -0. Both tiers call
/// these, never libm directly.
inline double vm_fmax(double x, double y) {
  if (x != x) return canonicalize_nan(y != y ? x : y);
  if (y != y) return x;
  if (x < y) return y;
  if (y < x) return x;
  return std::signbit(x) ? y : x;
}
inline double vm_fmin(double x, double y) {
  if (x != x) return canonicalize_nan(y != y ? x : y);
  if (y != y) return x;
  if (x < y) return x;
  if (y < x) return y;
  return std::signbit(x) ? x : y;
}

/// Thrown when a frame retires more than `max_instructions`; carries the
/// retired count (always budget + 1: the check runs before each
/// instruction executes) so RunResult can report the exact trap point.
class BudgetExceeded : public std::runtime_error {
public:
  BudgetExceeded(const std::string& fn, long long retired)
      : std::runtime_error("vm trap: instruction budget exceeded in " + fn),
        instructions(retired) {}
  long long instructions;
};

/// How a Call instruction's callee was resolved at decode time.
enum class CallKind : std::uint8_t { None, User, IntrinsicCall, Unresolved };

struct DecodedInst {
  minicc::ir::Opcode op;
  minicc::ir::CmpPred pred;
  CallKind call_kind = CallKind::None;
  Intrinsic intrinsic = Intrinsic::Sqrt;  // meaningful only for IntrinsicCall
  /// Selects the (opcode, width) body the machine runs; see decoded.cpp.
  std::uint16_t dispatch = 0;
  int width = 1;  // clamped to [1, kMaxLanes]
  /// Register written, as a byte offset into the frame like the operands
  /// below. An instruction without one (IR dst -1) writes the frame's
  /// sink register at index num_regs, so writes never branch.
  int dst = -1;
  /// Operand registers as byte offsets into the frame (register index
  /// times the register size), -1 when absent. Intrinsic calls carry
  /// their first two arguments here; an absent one reads as 0.0.
  int a = -1, b = -1, c = -1;
  int t1 = -1, t2 = -1;
  int callee = -1;          // decoded-function index (User) or name index (Unresolved)
  int args_begin = 0, args_end = 0;  // range in DecodedFunction::call_args
  long long iimm = 0;
  double fimm = 0.0;
};

/// One parallel loop forking at a header block.
struct DecodedLoop {
  std::vector<std::uint8_t> member;  // member[b]: block b is inside the loop
};

struct DecodedBlock {
  int first = 0;  // range in DecodedFunction::insts, truncated after the
  int count = 0;  // first terminator (anything past it is unreachable)
  long long static_cost_units = 0;  // folded per-instruction static costs
  std::uint8_t parallel = 0;        // block sits inside a parallel loop
  int loops_begin = 0, loops_end = 0;  // parallel loops headed here
};

struct DecodedFunction {
  const minicc::ir::Function* source = nullptr;
  std::string name;
  bool gpu_kernel = false;
  int num_regs = 0;
  std::vector<int> param_regs;
  std::vector<DecodedInst> insts;   // flattened across blocks
  std::vector<DecodedBlock> blocks;
  std::vector<int> call_args;       // flattened Call argument registers
  std::vector<DecodedLoop> header_loops;
};

/// A linked program pre-lowered for execution. Built once per Program and
/// cached on the Executor; safe to share across runs and threads
/// (execution never mutates it).
class DecodedProgram {
public:
  static DecodedProgram build(const Program& program);

  const DecodedFunction* find(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &functions_[it->second];
  }
  const std::vector<DecodedFunction>& functions() const { return functions_; }
  const std::string& unresolved_name(int idx) const {
    return unresolved_names_[static_cast<std::size_t>(idx)];
  }
  /// Diagnostics: every callee name that decoded to CallKind::Unresolved
  /// (neither an intrinsic nor a linked function). Deduplicated, in
  /// first-seen order. Empty for a fully linked program.
  const std::vector<std::string>& unresolved() const {
    return unresolved_names_;
  }

private:
  std::vector<DecodedFunction> functions_;
  std::vector<std::string> unresolved_names_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Execute a workload on a pre-decoded program. Implements exactly the
/// seed cost semantics (see executor.hpp). Register files come from a
/// thread-local per-depth arena, so neither repeated runs nor nested
/// calls allocate once the arena is warm.
RunResult run_decoded(const DecodedProgram& program, const NodeSpec& node,
                      const ExecutorOptions& options, Workload& workload);

}  // namespace xaas::vm
