// Networked artifact distribution: a simulated remote-registry protocol
// over the content-addressed ArtifactStore, priced by the §6.5 fabric
// bandwidth model (fabric::transfer_seconds).
//
// The paper's containers are cheap to *reuse* but expensive to *produce*;
// before this layer every artifact lived on one node's local disk, so a
// new node in a real fleet cold-built everything. Here each gateway's
// store becomes a peer registry in the style of the HPC container pull
// model (Sarus/Shifter, PAPERS.md): peers push and pull self-describing
// blobs addressed by sha256 digest, negotiate deltas so only missing
// layers travel (OCI cross-repo blob mount, at TU/spec granularity),
// lazily pull on first cache miss under the existing single-flight
// leaders, and gossip hot digests around the cluster ring so peers warm
// up before their first request. See docs/DISTRIBUTION.md for the wire
// protocol, failure semantics, and telemetry identities.
//
// Everything is in-process simulation: "sending" a message means charging
// its modeled wire size to the DistributionFabric and invoking the peer
// directly. Transfer time accumulates in integer nanoseconds so the
// telemetry reconciles exactly after drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/bandwidth.hpp"
#include "service/artifact_store.hpp"

namespace xaas::service {

// ---- Wire messages --------------------------------------------------------
//
// Four message shapes make up the whole protocol. Wire sizes follow a
// fixed deterministic model (framing constant + per-entry cost) so runs
// are reproducible; the payload-bearing BlobEnvelope dominates real
// traffic by orders of magnitude.

/// Hex sha256 digest size on the wire.
inline constexpr std::uint64_t kDigestWireBytes = 64;
/// Fixed per-message framing overhead.
inline constexpr std::uint64_t kMessageFrameBytes = 32;
/// Per-entry overhead beyond the digest (size field + separators).
inline constexpr std::uint64_t kEntryOverheadBytes = 8;
/// Per-envelope overhead (digest + framing).
inline constexpr std::uint64_t kEnvelopeOverheadBytes =
    kMessageFrameBytes + kDigestWireBytes;

/// One advertised hot blob: "I have `digest`, it is `bytes` long."
struct WarmHint {
  std::string digest;
  std::uint64_t bytes = 0;
};

/// Everything a peer has: the digest-sorted blob list of its store.
/// Sent by a pusher to open delta negotiation.
struct Manifest {
  std::string peer;  // advertising peer's name
  std::vector<ArtifactStore::BlobRef> blobs;
  std::uint64_t wire_bytes() const {
    return kMessageFrameBytes +
           blobs.size() * (kDigestWireBytes + kEntryOverheadBytes);
  }
};

/// The digests a receiver is missing (reply to a Manifest), or a lazy
/// pull's single wanted digest.
struct BlobRequest {
  std::vector<std::string> digests;
  std::uint64_t wire_bytes() const {
    return kMessageFrameBytes + digests.size() * kDigestWireBytes;
  }
};

/// One blob in flight: the exact on-disk bytes (self-describing header
/// line + payload), so the receiver re-verifies end-to-end before
/// adopting it.
struct BlobEnvelope {
  std::string digest;
  std::string blob;
  std::uint64_t wire_bytes() const {
    return kEnvelopeOverheadBytes + blob.size();
  }
};

/// One gossip round's advertisement: hot digests the sender *has* (the
/// advertise-only-what-you-have invariant — a peer never relays a hint
/// it could not itself serve).
struct GossipMessage {
  std::string from;
  std::vector<WarmHint> hints;
  std::uint64_t wire_bytes() const {
    return kMessageFrameBytes +
           hints.size() * (kDigestWireBytes + kEntryOverheadBytes);
  }
};

/// Outcome of one push (delta or full).
struct PushResult {
  std::size_t shipped = 0;          // envelopes sent
  std::size_t skipped = 0;          // dedup: receiver already had these
  std::uint64_t shipped_bytes = 0;  // envelope wire bytes sent
  std::uint64_t saved_bytes = 0;    // blob bytes dedup avoided shipping
};

// ---- Fabric ---------------------------------------------------------------

struct DistributionOptions {
  /// Bandwidth model pricing every message (§6.5).
  fabric::MpiStack stack{"cluster fabric (container MPICH + cxi)", "mpich",
                         "cxi", true};
  /// Ring successors each gossip round advertises to.
  std::size_t gossip_fanout = 2;
};

/// Monotonic fabric-wide counters. Identities (asserted by tests and the
/// cold_fleet gate; see docs/DISTRIBUTION.md):
///   blobs_sent == blobs_accepted + blobs_rejected
///   bytes_total() == manifest_bytes + request_bytes + blob_bytes
///                    + gossip_bytes
///   messages_total() == manifest_msgs + request_msgs + blobs_sent
///                       + gossip_msgs
struct DistributionStats {
  std::uint64_t manifest_msgs = 0;
  std::uint64_t manifest_bytes = 0;
  std::uint64_t request_msgs = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t blobs_sent = 0;  // BlobEnvelope messages
  std::uint64_t blob_bytes = 0;
  std::uint64_t gossip_msgs = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t blobs_accepted = 0;
  std::uint64_t blobs_rejected = 0;  // failed verification on arrival
  std::uint64_t dedup_saved_bytes = 0;
  std::uint64_t transfer_nanos = 0;  // modeled wire time, integral

  std::uint64_t messages_total() const {
    return manifest_msgs + request_msgs + blobs_sent + gossip_msgs;
  }
  std::uint64_t bytes_total() const {
    return manifest_bytes + request_bytes + blob_bytes + gossip_bytes;
  }
  double transfer_seconds() const {
    return static_cast<double>(transfer_nanos) * 1e-9;
  }
};

class DistributionPeer;

/// The simulated wire connecting peers: a registration-ordered ring plus
/// the per-message-kind accounting above. Peers register at construction
/// and deregister at destruction; ring order is registration order (the
/// cluster registers gateways in shard order, so the ring is stable and
/// seeded runs are reproducible).
///
/// Thread-safety: all methods are safe from any thread (one mutex guards
/// the ring, atomics carry the counters). Ownership: owned by the
/// Cluster (or a test/bench); must outlive every peer registered on it.
class DistributionFabric {
public:
  enum class MessageKind { Manifest, Request, Blob, Gossip };

  explicit DistributionFabric(DistributionOptions options = {});

  DistributionFabric(const DistributionFabric&) = delete;
  DistributionFabric& operator=(const DistributionFabric&) = delete;

  const DistributionOptions& options() const { return options_; }

  /// Price `wire_bytes` for one message of `kind`: bumps the per-kind
  /// message/byte counters and accumulates transfer_seconds as integer
  /// nanoseconds.
  void charge(MessageKind kind, std::uint64_t wire_bytes);

  void count_sent() { blobs_sent_.fetch_add(1, std::memory_order_relaxed); }
  void count_accepted() {
    blobs_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_rejected() {
    blobs_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_saved(std::uint64_t bytes) {
    dedup_saved_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Ring snapshot, registration order. Pointers stay valid as long as
  /// the named peers live (they deregister before dying).
  std::vector<DistributionPeer*> peers() const;
  DistributionPeer* find(std::string_view name) const;

  DistributionStats stats() const;

private:
  friend class DistributionPeer;
  void register_peer(DistributionPeer* peer);
  void deregister_peer(DistributionPeer* peer);

  DistributionOptions options_;

  mutable std::mutex mutex_;
  std::vector<DistributionPeer*> ring_;  // registration order

  std::atomic<std::uint64_t> manifest_msgs_{0};
  std::atomic<std::uint64_t> manifest_bytes_{0};
  std::atomic<std::uint64_t> request_msgs_{0};
  std::atomic<std::uint64_t> request_bytes_{0};
  std::atomic<std::uint64_t> blob_msgs_{0};
  std::atomic<std::uint64_t> blob_bytes_{0};
  std::atomic<std::uint64_t> gossip_msgs_{0};
  std::atomic<std::uint64_t> gossip_bytes_{0};
  std::atomic<std::uint64_t> blobs_sent_{0};
  std::atomic<std::uint64_t> blobs_accepted_{0};
  std::atomic<std::uint64_t> blobs_rejected_{0};
  std::atomic<std::uint64_t> dedup_saved_bytes_{0};
  std::atomic<std::uint64_t> transfer_nanos_{0};
};

// ---- Peer -----------------------------------------------------------------

/// Why a blob arrived at a peer — classifies accepted blobs in the
/// per-peer statistics (their sum is blobs_in).
enum class BlobSource { Push, Prewarm, Lazy };

/// Per-peer monotonic counters. Identity (fabric-wide, after drain):
///   fabric blobs_accepted == Σ peers (pushed_in + prewarm_fetches
///                                     + lazy_fetches)
struct PeerStats {
  std::uint64_t blobs_in = 0;   // accepted from any source
  std::uint64_t bytes_in = 0;   // envelope wire bytes accepted
  std::uint64_t blobs_out = 0;  // envelopes served to peers
  std::uint64_t bytes_out = 0;
  std::uint64_t pushed_in = 0;        // accepted via push_to/push_full
  std::uint64_t prewarm_fetches = 0;  // accepted via gossip pre-warming
  std::uint64_t lazy_fetches = 0;     // accepted via ensure_local
  std::uint64_t verify_rejects = 0;   // arrivals that failed verification
};

/// One node's (gateway's) registry endpoint: serves blobs out of its
/// ArtifactStore and adopts verified blobs into it.
///
/// Thread-safety: every method is safe from any thread — counters are
/// atomic, the hot-hint set has its own mutex, and no peer-level lock is
/// ever held across a cross-peer call (so two peers may push/pull/gossip
/// at each other concurrently without deadlock; the stores serialize
/// disk access themselves).
/// Ownership: borrows the ArtifactStore and the DistributionFabric, both
/// of which must outlive the peer. Registers itself on the fabric at
/// construction, deregisters at destruction — destroy peers before the
/// fabric, and quiesce in-flight transfers (the Cluster joins its
/// dispatchers) before destroying any peer.
class DistributionPeer {
public:
  DistributionPeer(std::string name, ArtifactStore& store,
                   DistributionFabric& fabric);
  ~DistributionPeer();

  DistributionPeer(const DistributionPeer&) = delete;
  DistributionPeer& operator=(const DistributionPeer&) = delete;

  const std::string& name() const { return name_; }
  ArtifactStore& store() { return store_; }

  // -- Server side ----------------------------------------------------------

  /// Digest-sorted advertisement of everything in the local store.
  Manifest manifest() const;

  /// The subset of `theirs` this peer does not have (delta negotiation:
  /// the pusher ships exactly these).
  BlobRequest missing_digests(const Manifest& theirs) const;

  /// Serve one blob as an envelope: read + verify from the local store,
  /// then apply the in-flight corruption fault point (dist.transfer) —
  /// corruption strikes *after* the sender's verification, so only the
  /// receiver can catch it. Charges the envelope to the fabric and
  /// counts blobs_out. nullopt when the blob is absent or locally
  /// corrupt (the caller tries another peer).
  std::optional<BlobEnvelope> send_envelope(const std::string& digest);

  /// Adopt an arriving envelope: end-to-end verification against the
  /// digest, then an atomic store write. A blob that fails verification
  /// is rejected — counted, never written, and the transfer degrades to
  /// a miss (the caller re-fetches from another peer); a verify failure
  /// can cost a re-fetch, never a wrong artifact.
  bool accept(const BlobEnvelope& envelope, BlobSource source);

  // -- Client side ----------------------------------------------------------

  /// Delta push: manifest → missing_digests → envelopes for exactly the
  /// digests `target` lacks. Blobs the target already has are skipped
  /// and their bytes counted as dedup savings.
  PushResult push_to(DistributionPeer& target);

  /// Naive full replication (the baseline cold_fleet measures against):
  /// no negotiation, every local blob shipped as an envelope.
  PushResult push_full(DistributionPeer& target);

  /// Lazy pull: make blob_digest(kind, key) local, fetching it from the
  /// first ring peer that can serve it. Called by the tier adapters
  /// below under the caches' single-flight, so one elected leader per
  /// key fetches while the rest wait. A rejected (corrupt-in-flight)
  /// envelope is retried from the next peer. Returns true when the blob
  /// is local afterwards.
  bool ensure_local(std::string_view kind, std::string_view key);

  /// Mark a digest hot: it joins this peer's gossip advertisements once
  /// it is present locally. The spec tier announces on every store
  /// (finished specializations are what the fleet re-requests); TU
  /// intermediates are never announced — they replicate on demand.
  void announce(std::string_view kind, std::string_view key);

  /// One gossip round: advertise (up to) the whole hot set to
  /// `gossip_fanout` ring successors. Receivers pull what they miss.
  /// Returns the number of blobs peers accepted as a result.
  std::size_t gossip_round();

  /// Handle one arriving advertisement: merge the hints into the local
  /// hot set (so they keep propagating around the ring) and pull every
  /// missing advertised blob from `sender`.
  std::size_t receive_gossip(const GossipMessage& message,
                             DistributionPeer& sender);

  PeerStats stats() const;

private:
  std::vector<WarmHint> hot_hints_snapshot() const;

  std::string name_;
  ArtifactStore& store_;
  DistributionFabric& fabric_;

  mutable std::mutex hints_mutex_;
  std::map<std::string, std::uint64_t> hot_hints_;  // digest -> bytes

  std::atomic<std::uint64_t> blobs_in_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> blobs_out_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> pushed_in_{0};
  std::atomic<std::uint64_t> prewarm_fetches_{0};
  std::atomic<std::uint64_t> lazy_fetches_{0};
  std::atomic<std::uint64_t> verify_rejects_{0};
};

// ---- Remote cache tiers ---------------------------------------------------
//
// The fourth cache level (memory → disk → remote registry → build): each
// adapter fronts the local disk tier and, on a load, first asks the peer
// to ensure the blob is local (a no-op when it already is). Because the
// caches consult their disk tier only from the elected single-flight
// leader, exactly one remote fetch happens per cold key per node.

/// SpecDiskTier with a remote-registry level under the local store.
class SpecDistributionTier : public SpecDiskTier {
public:
  explicit SpecDistributionTier(DistributionPeer& peer)
      : peer_(peer), local_(peer.store()) {}

  std::shared_ptr<const DeployedApp> load(const SpecKey& key) override;
  void store(const SpecKey& key, const DeployedApp& app) override;

private:
  DistributionPeer& peer_;
  SpecArtifactTier local_;
};

/// TuDiskTier with a remote-registry level under the local store. Unlike
/// the spec tier, stores are NOT announced to gossip: TU blobs travel
/// only by lazy pull and delta push, so pre-warming stays proportional
/// to the hot-class working set, not the whole build cache.
class TuDistributionTier : public minicc::TuDiskTier {
public:
  explicit TuDistributionTier(DistributionPeer& peer)
      : peer_(peer), local_(peer.store()) {}

  std::shared_ptr<const minicc::MachineModule> load(
      const minicc::TuKey& key) override;
  void store(const minicc::TuKey& key,
             const minicc::MachineModule& machine) override;

private:
  DistributionPeer& peer_;
  TuArtifactTier local_;
};

}  // namespace xaas::service
