// Linking: combine per-TU machine modules into one executable program
// with a resolved symbol table. This is the "Linking, Installation" stage
// of IR-container deployment (Fig. 8).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "minicc/lower.hpp"

namespace xaas::vm {

/// Why Program::link failed. For a bad operand, the location names the
/// offending instruction (block and instruction index in `function`;
/// both -1 when a parameter register is at fault).
struct LinkError {
  enum class Kind {
    None,
    NoModules,
    IsaMismatch,
    DuplicateSymbol,
    UnresolvedSymbol,
    BadOperand,
  };
  Kind kind = Kind::None;
  std::string message;
  std::string function;
  int block = -1;
  int inst = -1;
};

class Program {
public:
  /// Link machine modules; fails on duplicate or unresolved symbols, on
  /// mixed target ISAs (object files from different targets do not
  /// link, same as real toolchains), and on instructions neither tier
  /// can execute safely: a register operand outside the function's
  /// register file, a register file larger than kMaxRegisters, a branch
  /// to a block that does not exist, or a width outside [1, kMaxLanes].
  static Program link(std::vector<minicc::MachineModule> modules,
                      std::string* error = nullptr);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_.message; }
  const LinkError& link_error() const { return error_; }

  const minicc::ir::Function* find_function(const std::string& name) const;
  const minicc::TargetSpec& target() const { return target_; }
  std::size_t num_modules() const { return modules_.size(); }
  /// Linked modules in link order — serialization of a deployment
  /// round-trips through these (re-linking equal modules in equal order
  /// reproduces the program bit-identically).
  const std::vector<minicc::MachineModule>& modules() const {
    return modules_;
  }
  std::size_t num_functions() const { return symbols_.size(); }
  /// Resolved symbol table (name -> function), for pre-decoding.
  const std::map<std::string, const minicc::ir::Function*>& symbols() const {
    return symbols_;
  }

private:
  bool ok_ = false;
  LinkError error_;
  std::vector<minicc::MachineModule> modules_;
  std::map<std::string, const minicc::ir::Function*> symbols_;
  minicc::TargetSpec target_;
};

}  // namespace xaas::vm
