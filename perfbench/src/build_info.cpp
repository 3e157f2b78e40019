#include "build_info.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZER "thread"
#endif
#endif
#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER "none"
#endif

namespace perfbench {

CoreBuild core_build() {
#ifdef NDEBUG
  constexpr bool kAssertions = false;
#else
  constexpr bool kAssertions = true;
#endif
#if defined(__clang__)
  constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  constexpr const char* kCompiler = "gcc " __VERSION__;
#else
  constexpr const char* kCompiler = "unknown";
#endif
  return {PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZER, kAssertions, kCompiler};
}

}  // namespace perfbench
