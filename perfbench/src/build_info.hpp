// How the linked xaas_core was compiled. build_info.cpp is compiled as part
// of the core library, so these describe the library's flags, not only the
// benchmark's.
#pragma once

namespace perfbench {

struct CoreBuild {
  const char* build_type;  // CMAKE_BUILD_TYPE of the core library
  const char* sanitizer;   // "none", "address" or "thread"
  bool assertions;         // NDEBUG not defined
  const char* compiler;
};

CoreBuild core_build();

}  // namespace perfbench
