// Persistent content-addressed artifact store: the on-disk tier under the
// serving caches.
//
// The paper's premise is that specialized builds are *reusable artifacts*
// pushed to and pulled from a registry — yet the SpecializationCache and
// minicc::CompileCache are process-lifetime maps, so every gateway
// restart repaid the full heterogeneous-fleet build cost. This store
// closes that gap, in the spirit of ccache/sccache TU caching and OCI
// layer digests (§5.2): both whole-deployment specializations and
// individual compiled TUs persist under their existing canonical cache
// keys, and a restarted gateway warm-starts from disk with zero
// recompiles and bit-identical numerics (bench/warm_start.cpp).
//
// Layout under the store root:
//
//   objects/<d0d1>/<d2d3>/<digest>   blob; digest = sha256(kind \x1f key)
//   index.json                       LRU clock + byte accounting
//
// Each blob is self-describing — a one-line JSON header (kind, key,
// payload sha256, payload size) followed by the raw payload — so the
// index is purely an acceleration structure: a store opened on a
// directory whose index.json is missing or stale (unclean shutdown)
// recovers every entry by scanning the fanout directories. Writes are
// atomic (unique temp file + rename), reads verify the payload's sha256
// and reject corrupt blobs as misses, and a byte budget evicts
// least-recently-used blobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "minicc/compile_cache.hpp"
#include "service/spec_cache.hpp"

namespace xaas::service {

/// Blob kinds the serving tiers persist. The kind participates in the
/// content address (blob_digest), so "spec" and "tu" blobs never collide
/// even for equal keys; the distribution layer uses the same constants
/// when it resolves a cache key to a wire digest.
inline constexpr std::string_view kSpecArtifactKind = "spec";
inline constexpr std::string_view kTuArtifactKind = "tu";

struct ArtifactStoreOptions {
  /// Root directory; created (with parents) if absent.
  std::string dir;
  /// Byte budget over blob file sizes; 0 = unlimited. Exceeding the
  /// budget on a write evicts least-recently-used blobs (never the one
  /// just written) until the total fits.
  std::uint64_t max_bytes = 0;
};

/// Content-addressed on-disk blob store with sha256-verified reads,
/// atomic writes, and byte-budgeted LRU eviction.
///
/// Thread-safety: put(), get(), note_corrupt(), flush_index(), and every
/// stats accessor are safe from any thread (one internal mutex — this is
/// the disk tier, not the hot path). Multiple ArtifactStore instances
/// (including in other processes) may share one directory: writes are
/// temp-file+rename atomic so readers never observe a partial blob, a
/// get() whose key is absent from the in-memory accounting still probes
/// the directory (so one store sees another's writes), and a blob
/// evicted underneath a reader degrades to a miss. set_observer() must
/// be called before the store starts serving.
/// Ownership: typically owned by the Gateway (or a test/bench) and
/// borrowed by the SpecArtifactTier / TuArtifactTier adapters installed
/// on the caches; must outlive every cache it backs.
class ArtifactStore {
public:
  /// One telemetry event per store operation of interest.
  struct Event {
    enum class Kind { DiskHit, DiskMiss, Write, Eviction, VerifyFailure };
    Kind kind;
    /// Blob bytes written (Write) or payload bytes served (DiskHit);
    /// 0 for the other kinds.
    std::uint64_t bytes = 0;
  };
  using Observer = std::function<void(const Event&)>;

  explicit ArtifactStore(ArtifactStoreOptions options);
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Persist `payload` under (kind, key). Returns false on I/O failure
  /// (the store is then simply not warm for this key — callers never
  /// fail a build over it). Overwrites an existing blob of the same key.
  bool put(std::string_view kind, std::string_view key,
           std::string_view payload);

  /// The payload previously persisted under (kind, key), or nullopt on
  /// miss. A blob whose header is malformed, whose recorded key does not
  /// match, or whose payload fails sha256 verification is deleted,
  /// counted as a verify failure, and reported as a miss — a corrupt
  /// blob can cost a recompile, never produce a wrong artifact. The
  /// deletion evicts the entry synchronously everywhere: blob file,
  /// in-memory accounting, AND the persisted LRU index, so no later
  /// recovery can resurrect the dead entry.
  std::optional<std::string> get(std::string_view kind, std::string_view key);

  /// Report a blob whose *payload* deserialized to garbage one level up
  /// (e.g. IR text that no longer parses): counts a verify failure and
  /// deletes the blob so the next request recompiles.
  void note_corrupt(std::string_view kind, std::string_view key);

  /// Persist the LRU index now (also done on every put/eviction and at
  /// destruction). Losing the index never loses blobs — see recovery.
  void flush_index();

  /// Install the telemetry observer (the Gateway points it at its
  /// MetricsRegistry). NOT thread-safe with concurrent operations: set
  /// it once, before the store starts serving.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  const std::string& dir() const { return options_.dir; }
  std::uint64_t max_bytes() const { return options_.max_bytes; }

  /// Entries currently accounted (after open-time directory scan).
  std::size_t entry_count() const;
  /// Total blob bytes currently accounted.
  std::uint64_t total_bytes() const;

  // Monotonic statistics since construction.
  std::size_t disk_hits() const { return disk_hits_.load(); }
  std::size_t disk_misses() const { return disk_misses_.load(); }
  std::size_t writes() const { return writes_.load(); }
  std::size_t evictions() const { return evictions_.load(); }
  std::size_t verify_failures() const { return verify_failures_.load(); }

  /// Path digest for (kind, key): sha256 over the '\x1f'-joined pair —
  /// collision-free for any component content (exposed for tests).
  static std::string blob_digest(std::string_view kind, std::string_view key);

  // ---- Blob-level registry surface (service/distribution.hpp) ------------
  //
  // The distribution protocol replicates *blobs* — the exact on-disk
  // bytes, one-line header plus payload — between stores; digests are
  // the wire currency and blobs stay self-describing in flight.

  /// One content-addressed blob as the replication protocol sees it.
  struct BlobRef {
    std::string digest;       // two-level-fanout address, sha256(kind\x1fkey)
    std::uint64_t bytes = 0;  // full blob size (header + payload)
  };

  /// Every blob currently accounted, digest-sorted (so manifests are
  /// deterministic). Touches neither the LRU clock nor hit/miss counters.
  std::vector<BlobRef> enumerate_blobs() const;

  /// Whether `digest` is present (accounted, or published on disk by a
  /// sibling store sharing the directory). Never counts a hit or a miss.
  bool contains_blob(const std::string& digest) const;

  /// Accounted blob size (header + payload) for `digest`, or 0 when the
  /// digest is not in this store's accounting.
  std::uint64_t blob_bytes(const std::string& digest) const;

  /// The raw blob bytes for `digest`, verified end-to-end, or nullopt.
  /// A blob failing verification is deleted and counted exactly as in
  /// get(); unlike get(), read_blob() never counts disk hits/misses —
  /// replication traffic must not skew the cache-tier statistics.
  std::optional<std::string> read_blob(const std::string& digest);

  /// Adopt a blob received from a peer: verify it end-to-end against
  /// `digest` first, then publish it atomically (counts as a write).
  /// Returns false when verification or the write fails; a rejected blob
  /// never touches the store — the *distribution* layer counts the
  /// rejection, store verify_failures only ever count corrupt blobs that
  /// were accepted here.
  bool adopt_blob(const std::string& digest, std::string_view blob);

  /// Structural verification of raw blob bytes against their content
  /// address: one-line JSON header, blob_digest(kind, key) == digest,
  /// recorded payload size and sha256 match the body.
  static bool verify_blob(const std::string& digest, std::string_view blob);

private:
  struct BlobInfo {
    std::uint64_t size = 0;       // blob file size (header + payload)
    std::uint64_t last_used = 0;  // logical LRU clock tick
  };

  std::string blob_path(const std::string& digest) const;
  /// Shared tail of put()/adopt_blob(): atomic write + accounting +
  /// eviction + periodic index flush, Write/Eviction notifications.
  bool publish_blob(const std::string& digest, std::string_view blob);
  /// Scan objects/ and merge with index.json (locked by caller).
  void recover_locked();
  /// Returns the number of blobs evicted.
  std::size_t evict_to_budget_locked(const std::string& keep_digest);
  void write_index_locked();
  void remove_blob_locked(const std::string& digest, Event::Kind why);
  void notify(Event::Kind kind, std::uint64_t bytes = 0) const;

  ArtifactStoreOptions options_;
  Observer observer_;  // set once before serving; called outside mutex_

  /// Puts between index flushes (the index is an LRU accelerator, not
  /// the source of truth — see recovery).
  static constexpr std::uint64_t kIndexFlushInterval = 32;

  mutable std::mutex mutex_;
  std::map<std::string, BlobInfo> blobs_;  // digest -> accounting
  std::uint64_t total_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t temp_seq_ = 0;  // unique temp-file suffix within this store
  std::uint64_t puts_since_index_flush_ = 0;

  std::atomic<std::size_t> disk_hits_{0};
  std::atomic<std::size_t> disk_misses_{0};
  std::atomic<std::size_t> writes_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> verify_failures_{0};
};

// ---- Artifact serialization ----------------------------------------------
//
// Whole deployments and compiled TUs serialize as JSON documents reusing
// the layers that already round-trip losslessly: container::Image::to_json
// for the derived image and ir::print/parse_ir for compiled modules
// (print(parse(print(m))) == print(m) is the IR container contract), so a
// reloaded deployment is bit-identical to the one that was stored.

/// MachineModule -> JSON (IR text + target + lowering counters).
common::Json machine_module_to_json(const minicc::MachineModule& machine);
/// Parse machine_module_to_json() output; nullopt (with `error` set) on
/// malformed documents.
std::optional<minicc::MachineModule> machine_module_from_json(
    const common::Json& doc, std::string* error);

/// Successful DeployedApp -> JSON (derived image, modules in link order,
/// configuration, target, log). The node name and decoded program are
/// not serialized: cache entries are node-agnostic and the decoded form
/// is rebuilt on load.
common::Json deployed_app_to_json(const DeployedApp& app);
/// Reconstruct a deployment: parse modules, re-link the program, verify
/// the recorded image digest, and pre-decode. Returns null (with `error`
/// set) when anything fails to parse, link, or verify.
std::shared_ptr<const DeployedApp> deployed_app_from_json(
    const common::Json& doc, std::string* error);

// ---- Cache tier adapters -------------------------------------------------

/// SpecializationCache disk tier over an ArtifactStore (kind "spec",
/// keyed by SpecKey::to_string()).
///
/// Thread-safety: load()/store() are safe from any thread (the store
/// serializes). Ownership: borrows the ArtifactStore, which must outlive
/// the adapter; owned by the service (farm/scheduler) whose cache it
/// backs.
class SpecArtifactTier : public SpecDiskTier {
public:
  explicit SpecArtifactTier(ArtifactStore& store) : store_(store) {}

  std::shared_ptr<const DeployedApp> load(const SpecKey& key) override;
  void store(const SpecKey& key, const DeployedApp& app) override;

private:
  ArtifactStore& store_;
};

/// CompileCache disk tier over an ArtifactStore (kind "tu", keyed by
/// TuKey::to_string()). TU artifacts are image-independent — the key's
/// post-preprocess hash pins the content — so deployments of different
/// source images share persisted TUs too.
///
/// Thread-safety / ownership: as SpecArtifactTier; one adapter serves
/// every per-image CompileCache of a BuildFarm.
class TuArtifactTier : public minicc::TuDiskTier {
public:
  explicit TuArtifactTier(ArtifactStore& store) : store_(store) {}

  std::shared_ptr<const minicc::MachineModule> load(
      const minicc::TuKey& key) override;
  void store(const minicc::TuKey& key,
             const minicc::MachineModule& machine) override;

private:
  ArtifactStore& store_;
};

}  // namespace xaas::service
