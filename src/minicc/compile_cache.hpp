// Shared compile-memoization layer.
//
// The IR-container pipeline (src/xaas/ir_pipeline.cpp) and the
// source-container build farm (src/service/build_farm.cpp) both face the
// same redundancy: many (configuration, target) pairs hand the compiler
// near-identical translation units. The memo-key machinery that makes the
// redundancy detectable — macro-relevance scans over a source's include
// closure, effective-define canonicalization, preprocess keys — lives
// here, hoisted out of the IR pipeline so both consumers share one
// implementation.
//
// On top of the key machinery, `CompileCache` is a thread-safe,
// single-flight, content-addressed cache of full per-TU compiles:
// preprocess results memoize by (source, macro-relevant defines, include
// dirs), parses by preprocessed-content hash, and machine modules by
// (source, post-preprocess hash, codegen-relevant flags, TargetSpec).
// Two deployments that disagree on build options but agree on a TU's
// preprocessed text and target share that TU's compiled module.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/single_flight.hpp"
#include "common/vfs.hpp"
#include "minicc/driver.hpp"
#include "minicc/lower.hpp"
#include "minicc/parser.hpp"

namespace xaas::minicc {

// ---- Macro-relevance machinery (hoisted from the IR pipeline) ------------
//
// A -D flag whose macro name never appears in a source's textual include
// closure cannot change the preprocessed output (the preprocessor has no
// token pasting), so memo keys keep only the *macro-relevant* defines.

/// Owning identifier set with heterogeneous lookup: queries by
/// string_view never allocate (the scans sit in the IR pipeline's
/// N-configs x M-TUs relevance loop), while the storage owns its
/// strings so cached scans outlive any particular build's buffers.
struct IdentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using IdentSet = std::unordered_set<std::string, IdentHash, std::equal_to<>>;

/// Identifiers mentioned anywhere in a source's include closure.
struct SourceScan {
  /// An #include target failed to resolve in the scan: fall back to
  /// treating every define as relevant (never merges incorrectly).
  bool conservative = false;
  IdentSet idents;

  bool relevant(std::string_view macro_name) const {
    return conservative || idents.find(macro_name) != idents.end();
  }
};

/// Collect every C-identifier-shaped token of `text` into `out`.
void scan_idents(std::string_view text, IdentSet& out);

/// Every #include target in the text, regardless of conditional nesting
/// (an over-approximation of what preprocessing may pull in).
std::vector<std::string> scan_includes(std::string_view text);

/// Scan a source's include closure (resolved exactly like the real
/// preprocessor via resolve_include, so the scan can never diverge).
SourceScan build_scan(const common::Vfs& vfs, const std::string& source,
                      const std::vector<std::string>& include_dirs);

/// Precomputed key material shared by every TU of one (configuration,
/// target): the effective define list (name-sorted, last definition wins,
/// as in PreprocessOptions) and the include-dir suffix.
struct TargetFlagInfo {
  std::vector<std::pair<std::string, std::string>> defines;  // name, spec
  /// Identifiers appearing in the *bodies* of the command-line defines:
  /// a define referenced only through another define's body (-DGRID=BASE
  /// -DBASE=8) never shows up in the source scan, so names in this set
  /// count as referenced too (over-approximates chains — sound, it only
  /// splits memo keys further).
  IdentSet body_idents;
  std::string dirs_suffix;

  bool relevant(const SourceScan& scan, std::string_view name) const {
    return scan.relevant(name) || body_idents.find(name) != body_idents.end();
  }
};

TargetFlagInfo make_flag_info(const CompileFlags& flags);

/// Memo key for one preprocess input: source + macro-relevant defines +
/// include dirs.
std::string preprocess_key(const std::string& source,
                           const TargetFlagInfo& info, const SourceScan& scan);

// ---- TU-level compile cache ----------------------------------------------

/// Everything that determines one TU's compiled machine module. The
/// preprocessed-content hash subsumes defines and include dirs; `openmp`
/// and `opt_level` are the codegen-relevant flags the hash cannot see;
/// the target pins lowering (modules of different targets never link).
struct TuKey {
  std::string source;   // path, because IR embeds the source name
  std::string pp_hash;  // sha256 of the preprocessed text
  bool openmp = false;  // effective -fopenmp (IR generation)
  int opt_level = 2;
  TargetSpec target;

  /// Collision-free composite ('\x1f'-joined, like service::SpecKey).
  std::string to_string() const;
};

struct TuCompileResult {
  bool ok = false;
  CompileError error;
  /// Shared, immutable compiled module; copy it into Program::link.
  std::shared_ptr<const MachineModule> machine;
  std::string pp_hash;
  /// Whether the machine module came from the cache (another deployment
  /// already compiled an identical TU).
  bool tu_cache_hit = false;
  /// Whether this resolution revived the module from the persistent tier
  /// instead of compiling (reported by the single-flight leader only;
  /// later in-memory hits report tu_cache_hit).
  bool disk_hit = false;
};

/// Thread-safe single-flight compile cache. One instance serves one
/// source tree (scan and preprocess keys assume path -> content is
/// stable); the build farm keeps one per source-image digest.
///
/// Entries (including preprocessed text) are retained for the cache's
/// lifetime: the footprint is bounded by the image's configuration
/// space, not by request volume, and the farm drops the whole cache
/// with the image state. Revisit with eviction if images ever carry
/// unbounded option spaces.
class CompileCache {
public:
  /// Telemetry event, one per machine-module cache resolution: whether
  /// the module (possibly a cached *failure*) was reused, whether the TU
  /// compiled, and the call's wall seconds (for a hit, the lookup cost;
  /// for a miss, the full preprocess→lower pipeline). Preprocess
  /// failures resolve no module and emit no event, so observer-side
  /// hit/compile counts stay equal to tu_hits()/tu_compiles().
  struct CompileEvent {
    bool tu_cache_hit = false;
    /// Revived from the persistent tier (no compilation performed).
    bool disk_hit = false;
    bool ok = false;
    double seconds = 0.0;
  };
  using Observer = std::function<void(const CompileEvent&)>;

  CompileCache() = default;
  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// Install the telemetry observer (the serving layer points it at its
  /// metrics registry). NOT thread-safe with respect to concurrent
  /// compile(): set it once, before the cache starts serving.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Persistent tier consulted on in-memory misses (memory hit → tier
  /// hit → compile; only the single-flight leader consults it). minicc
  /// stays service-agnostic: the serving layer binds its ArtifactTier
  /// and the TU codec into these two calls, keyed by TuKey::to_string().
  /// `load` returns null on a miss; `store` persists a freshly compiled
  /// module. Both must be safe from any thread and never throw. NOT
  /// thread-safe with respect to concurrent compile(): set it once,
  /// before the cache starts serving.
  struct Tier {
    std::function<std::shared_ptr<const MachineModule>(const std::string&)>
        load;
    std::function<void(const std::string&, const MachineModule&)> store;
  };
  void set_tier(Tier tier) { tier_ = std::move(tier); }

  /// Failure-injection hook, consulted by the single-flight leader before
  /// resolving a machine module: a returned string fails that resolution
  /// with the given message, modeling a transient infrastructure failure
  /// (flaky builder, I/O error). Transient failures are never retained —
  /// the entry is erased before publication, so the next request for the
  /// key elects a fresh leader and recompiles. Deterministic *compile*
  /// failures (bad source) stay cached as before: retrying those cannot
  /// help. minicc stays service-agnostic; the build farm installs a hook
  /// that consults the serving layer's fault plan. NOT thread-safe with
  /// respect to concurrent compile(): set it once, before serving.
  using FaultHook = std::function<std::optional<std::string>(const TuKey&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Full per-TU pipeline (preprocess -> parse -> irgen -> optimize ->
  /// lower) with every stage memoized. Equal TuKeys return the same
  /// shared MachineModule, bit-identical to an uncached
  /// compile_to_target of the same inputs. Concurrent callers of one key
  /// elect a single compiler; the rest block on its result.
  TuCompileResult compile(const common::Vfs& vfs, const std::string& source,
                          const CompileFlags& flags, const TargetSpec& target);

  // Monotonic statistics since construction.
  /// Preprocessor runs actually performed.
  std::size_t preprocess_runs() const { return preprocess_runs_.load(); }
  /// Machine-module compilations actually performed (cache misses).
  std::size_t tu_compiles() const { return tu_compiles_.load(); }
  /// Compile requests served from the machine-module cache.
  std::size_t tu_hits() const { return tu_hits_.load(); }
  /// Modules revived from the persistent tier instead of compiling.
  std::size_t tu_disk_hits() const { return tu_disk_hits_.load(); }

private:
  TuCompileResult compile_impl(const common::Vfs& vfs,
                               const std::string& source,
                               const CompileFlags& flags,
                               const TargetSpec& target);

  struct PpEntry {
    bool ok = false;
    std::string error;
    std::string output;
    std::string hash;
  };
  struct ParseEntry {
    ParseResult parsed;
  };
  struct MachineEntry {
    bool ok = false;
    CompileError error;
    std::shared_ptr<const MachineModule> machine;
    /// Revived from the persistent tier by the single-flight leader.
    bool from_disk = false;
  };

  Observer observer_;      // set once before serving; called after each compile
  Tier tier_;              // set once before serving
  FaultHook fault_hook_;   // set once before serving

  // Every memo level is single-flight. Entries are only ever evicted by
  // erase(): compiles are deterministic, so genuine compile failures
  // cache too; only injected/transient failures (see set_fault_hook) are
  // erased, before publication.
  common::SingleFlightMap<TargetFlagInfo> infos_;   // ordered flags
  common::SingleFlightMap<SourceScan> scans_;       // source + dirs_suffix
  common::SingleFlightMap<PpEntry> pps_;            // preprocess_key(...)
  common::SingleFlightMap<ParseEntry> parses_;      // pp hash
  common::SingleFlightMap<MachineEntry> machines_;  // TuKey::to_string()

  std::atomic<std::size_t> preprocess_runs_{0};
  std::atomic<std::size_t> tu_compiles_{0};
  std::atomic<std::size_t> tu_hits_{0};
  std::atomic<std::size_t> tu_disk_hits_{0};
};

}  // namespace xaas::minicc
