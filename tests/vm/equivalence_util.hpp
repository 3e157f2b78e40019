// Shared bit-identity assertions for the interpreter-equivalence suites.
//
// The two execution tiers (reference interpreter, decoded machine) must
// be observationally identical: same return values, same cost-model
// outputs to the last bit, same buffer contents, same errors and trap
// counts. Costs accumulate in exact integer units in both tiers (see
// decoded.hpp), so every comparison here is strict equality, not a
// tolerance.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "vm/program.hpp"

namespace xaas::vm::testing {

inline std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

inline void expect_identical(const RunResult& actual,
                             const RunResult& expected) {
  ASSERT_EQ(actual.ok, expected.ok);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(bits(actual.ret_f64), bits(expected.ret_f64));
  EXPECT_EQ(actual.ret_i64, expected.ret_i64);
  EXPECT_EQ(bits(actual.cycles_serial), bits(expected.cycles_serial));
  EXPECT_EQ(bits(actual.cycles_parallel), bits(expected.cycles_parallel));
  EXPECT_EQ(bits(actual.cycles_gpu), bits(expected.cycles_gpu));
  EXPECT_EQ(actual.fork_joins, expected.fork_joins);
  EXPECT_EQ(actual.instructions, expected.instructions);
  EXPECT_EQ(actual.threads_used, expected.threads_used);
  EXPECT_EQ(bits(actual.elapsed_seconds), bits(expected.elapsed_seconds));
}

inline void expect_buffers_identical(const Workload& a, const Workload& b) {
  // memcmp's pointers must be valid even for zero bytes, and an empty
  // vector's data() may be null: compare only non-empty buffers.
  const auto same_bytes = [](const void* x, const void* y, std::size_t n) {
    return n == 0 || std::memcmp(x, y, n) == 0;
  };
  ASSERT_EQ(a.f64_buffers.size(), b.f64_buffers.size());
  for (const auto& [name, va] : a.f64_buffers) {
    const auto& vb = b.f64_buffers.at(name);
    ASSERT_EQ(va.size(), vb.size()) << name;
    EXPECT_TRUE(same_bytes(va.data(), vb.data(), va.size() * sizeof(double)))
        << name;
  }
  ASSERT_EQ(a.i64_buffers.size(), b.i64_buffers.size());
  for (const auto& [name, va] : a.i64_buffers) {
    const auto& vb = b.i64_buffers.at(name);
    ASSERT_EQ(va.size(), vb.size()) << name;
    EXPECT_TRUE(
        same_bytes(va.data(), vb.data(), va.size() * sizeof(long long)))
        << name;
  }
}

/// Run the workload through both interpreters on the same program/node
/// and assert every observable output matches. The reference run is the
/// spec; the decoded run must match it bit for bit, trap runs included.
/// A non-negative `max_instructions` overrides the default budget.
inline void check_program(const Program& program, const std::string& node_name,
                          const Workload& workload, int threads,
                          long long max_instructions = -1) {
  ExecutorOptions decoded_options;
  decoded_options.threads = threads;
  if (max_instructions >= 0) {
    decoded_options.max_instructions = max_instructions;
  }
  ExecutorOptions reference_options = decoded_options;
  reference_options.reference_interpreter = true;

  Workload w_decoded = workload;
  Workload w_reference = workload;
  const Executor decoded(program, node(node_name), decoded_options);
  const Executor reference(program, node(node_name), reference_options);
  const RunResult rd = decoded.run(w_decoded);
  const RunResult rr = reference.run(w_reference);
  expect_identical(rd, rr);
  expect_buffers_identical(w_decoded, w_reference);
}

}  // namespace xaas::vm::testing
