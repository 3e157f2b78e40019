// minicc intermediate representation.
//
// A register-machine IR over basic blocks: typed virtual registers
// (mutable slots, not SSA), explicit branches, and structured loop
// metadata recorded by the IR generator. The textual form serializes
// losslessly — IR containers store these files in image layers and parse
// them back at deployment time for late vectorization and lowering,
// exactly the role LLVM bitcode plays in the paper (§4.2).
//
// Width: every instruction carries a vector width (1 = scalar). The
// vectorizer rewrites loop bodies to width = lanes(ISA) at lowering time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace xaas::minicc::ir {

enum class Opcode {
  // Constants / moves
  ConstF,   // dst <- fimm
  ConstI,   // dst <- iimm
  Mov,      // dst <- a
  // Float arithmetic
  FAdd, FSub, FMul, FDiv, FNeg,
  Fma,      // dst <- a * b + c (formed at lowering on FMA targets)
  // Integer arithmetic
  IAdd, ISub, IMul, IDiv, IMod, INeg,
  // Comparison (result is i64 0/1)
  ICmp, FCmp,
  // Logical on i64 0/1 values
  LAnd, LOr, LNot,
  // Conversions
  SiToFp, FpToSi,
  // Memory: element-addressed loads/stores through pointer registers
  LoadF,    // dst <- mem_f64[a][b]   (a: pointer reg, b: index reg)
  StoreF,   // mem_f64[a][b] <- c
  LoadI,
  StoreI,
  // Calls (user functions and intrinsics)
  Call,     // dst (optional) <- callee(args...)
  // Control flow
  Br,       // jump t1
  CBr,      // if a != 0 jump t1 else t2
  Ret,      // return a (or void when a < 0)
  // Vector support (introduced by the vectorizer)
  VSplat,      // dst <- broadcast a (scalar) into `width` lanes
  HReduceAdd,  // dst (scalar) <- horizontal sum of vector reg a
};

enum class CmpPred { LT, LE, GT, GE, EQ, NE };

enum class RegType { I64, F64, PtrF, PtrI };

struct Inst {
  Opcode op;
  int dst = -1;
  int a = -1, b = -1, c = -1;
  double fimm = 0.0;
  long long iimm = 0;
  CmpPred pred = CmpPred::LT;
  std::string callee;
  std::vector<int> args;
  int t1 = -1, t2 = -1;  // branch targets (block indices)
  int width = 1;
};

struct Block {
  std::string name;
  std::vector<Inst> insts;
};

/// Structured loop metadata captured at IR generation: the vectorizer and
/// the parallel-execution model consume this instead of rediscovering
/// loops from the CFG.
struct LoopInfo {
  int preheader = -1;
  int header = -1;
  int body = -1;       // single body block for vectorizable candidates; -1 if complex
  int latch = -1;
  int exit = -1;
  std::vector<int> blocks;   // all blocks strictly inside the loop (incl. body/latch)

  /// Membership test for the block list (the pre-decoded executor folds
  /// this into per-loop bitmaps at decode time; see vm/decoded.hpp).
  bool contains(int block) const {
    for (int b : blocks) {
      if (b == block) return true;
    }
    return false;
  }

  int induction_reg = -1;
  int bound_reg = -1;        // register compared against in the header
  bool parallel = false;     // #pragma omp parallel for (honored iff -fopenmp)
  bool simd = false;         // #pragma omp simd hint
  bool vectorized = false;   // set by the vectorizer
  int vector_width = 1;
};

struct Param {
  RegType type;
  std::string name;
  int reg = -1;
};

struct Function {
  std::string name;
  RegType ret_type = RegType::I64;
  bool returns_void = false;
  bool gpu_kernel = false;
  std::vector<Param> params;
  std::vector<RegType> reg_types;
  std::vector<Block> blocks;
  std::vector<LoopInfo> loops;

  int num_regs() const { return static_cast<int>(reg_types.size()); }
  int add_reg(RegType t) {
    reg_types.push_back(t);
    return num_regs() - 1;
  }
};

struct Module {
  std::string source_path;  // provenance: which TU produced this module
  std::vector<Function> functions;

  const Function* find(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  Function* find(const std::string& name) {
    for (auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
};

/// Lossless textual serialization (the "IR file" stored in containers).
std::string print(const Module& module);

struct ParseIrResult {
  bool ok = false;
  std::string error;
  Module module;
};

/// Parse the textual form back; print(parse(print(m))) == print(m).
ParseIrResult parse_ir(const std::string& text);

/// Why `module`'s loop metadata names a block its function lacks, or
/// empty when it names none: every LoopInfo preheader, header, body,
/// latch and exit must be -1 (unset) or an index into the function's
/// blocks, and every blocks[] entry an index. Lowering (the vectorizer)
/// walks this metadata unchecked, so IR from an image must pass it
/// before minicc::lower.
std::string loop_metadata_error(const Module& module);

std::string_view opcode_name(Opcode op);
std::string_view pred_name(CmpPred pred);
std::string_view regtype_name(RegType t);

/// Names of intrinsic functions the IR Call instruction recognizes.
bool is_intrinsic(const std::string& name);
/// Whether the intrinsic can be widened lane-wise by the vectorizer.
bool is_vectorizable_intrinsic(const std::string& name);

}  // namespace xaas::minicc::ir
