// Cycle-cost executor: interprets lowered machine modules, computing real
// results (so tests can verify vectorized == scalar numerics) while
// accumulating a deterministic cycle model.
//
// The model captures the performance levers the paper evaluates:
//  - vector width (a width-W instruction costs the same as scalar but
//    retires W lanes),
//  - FMA fusion (one instruction instead of two),
//  - OpenMP parallel loops (cycles inside parallel regions are divided
//    by the thread count, with an efficiency factor and fork/join cost),
//  - GPU offload (functions marked gpu_kernel run at the node GPU's
//    throughput plus a launch overhead),
//  - ISA compatibility (executing AVX-512 code on a non-AVX-512 host is
//    an illegal-instruction error, exactly why portable containers must
//    target the weakest ISA).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vm/node.hpp"
#include "vm/program.hpp"

namespace xaas::vm {

class DecodedProgram;

/// Named input/output buffers plus entry-point arguments.
struct Workload {
  struct Arg {
    enum class Kind { BufF64, BufI64, F64, I64 };
    Kind kind;
    std::string buffer;  // for Buf* kinds
    double f = 0.0;
    long long i = 0;

    static Arg buf_f64(std::string name) {
      return {Kind::BufF64, std::move(name), 0.0, 0};
    }
    static Arg buf_i64(std::string name) {
      return {Kind::BufI64, std::move(name), 0.0, 0};
    }
    static Arg f64(double v) { return {Kind::F64, "", v, 0}; }
    static Arg i64(long long v) { return {Kind::I64, "", 0.0, v}; }
  };

  std::string entry = "main";
  std::vector<Arg> args;
  std::map<std::string, std::vector<double>> f64_buffers;
  std::map<std::string, std::vector<long long>> i64_buffers;
};

struct RunResult {
  bool ok = false;
  std::string error;

  double ret_f64 = 0.0;
  long long ret_i64 = 0;

  // Cost model outputs.
  double cycles_serial = 0.0;
  double cycles_parallel = 0.0;  // before division by threads
  double cycles_gpu = 0.0;
  long long fork_joins = 0;
  long long instructions = 0;

  int threads_used = 1;
  /// Modeled wall-clock on the node.
  double elapsed_seconds = 0.0;
};

struct ExecutorOptions {
  int threads = 1;
  long long max_instructions = 4'000'000'000LL;
  /// Run on the per-instruction reference interpreter instead of the
  /// pre-decoded one. The two produce bit-identical results (asserted by
  /// tests/vm/decoded_equivalence_test.cpp); the reference exists as the
  /// executable specification of the cost model.
  bool reference_interpreter = false;
  /// Per-run stats hook: invoked once at the end of every run() (success
  /// and failure) with the final RunResult, before it is returned. The
  /// serving layer points this at its telemetry counters (instructions
  /// retired, modeled seconds); it must not mutate executor state and is
  /// called on the thread that called run().
  std::function<void(const RunResult&)> stats_hook;
};

class Executor {
public:
  Executor(const Program& program, const NodeSpec& node,
           ExecutorOptions options = {});
  /// Construct with a pre-built decoded form of `program` (e.g. from the
  /// service-layer specialization cache): every executor of a fleet
  /// deployment shares one DecodedProgram instead of re-decoding per
  /// executor. `decoded` may be null (falls back to lazy decode).
  Executor(const Program& program, const NodeSpec& node,
           ExecutorOptions options,
           std::shared_ptr<const DecodedProgram> decoded);
  ~Executor();

  /// Run the workload's entry function; buffers are mutated in place.
  RunResult run(Workload& workload) const;

  /// The decoded form of the program, building it on first use — the
  /// handle a caller stashes to share decode work across executors.
  std::shared_ptr<const DecodedProgram> decoded_program() const;

private:
  RunResult run_impl(Workload& workload) const;

  // Lifetime contract: the Program is held by reference and must outlive
  // the Executor (every caller — tests, gateway, fleet — owns the linked
  // Program for the deployment's lifetime; an Executor is a cheap view
  // plus a cached decode). The NodeSpec is copied: fleet and gateway
  // paths routinely pass node specs materialized on the stack, and a
  // dangling reference there survives just long enough to corrupt a
  // later run (see ExecutorTest.NodeSpecTemporaryDoesNotDangle).
  const Program& program_;
  const NodeSpec node_;
  ExecutorOptions options_;
  // Pre-decoded form of program_, built on first run() and reused by
  // every later run (the benchmark / portability-sweep pattern).
  mutable std::shared_ptr<const DecodedProgram> decoded_;
  mutable std::once_flag decode_once_;
};

}  // namespace xaas::vm
