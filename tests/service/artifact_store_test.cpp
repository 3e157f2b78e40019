#include "service/artifact_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "apps/minimd.hpp"
#include "common/json.hpp"
#include "service/build_farm.hpp"
#include "service/distribution.hpp"
#include "service/fault.hpp"

namespace xaas::service {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on scope exit.
class TempDir {
public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("xaas-artifact-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

private:
  fs::path path_;
};

fs::path blob_file(const std::string& dir, const std::string& kind,
                   const std::string& key) {
  const std::string digest = ArtifactStore::blob_digest(kind, key);
  return fs::path(dir) / "objects" / digest.substr(0, 2) / digest.substr(2, 2) /
         digest;
}

/// Flip the final byte of a file (payload region of a blob).
void flip_last_byte(const fs::path& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(static_cast<std::streamoff>(size) - 1);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(size) - 1);
  f.write(&c, 1);
}

TEST(ArtifactStore, PutGetRoundTripAndLayout) {
  TempDir dir("roundtrip");
  ArtifactStore store({dir.str(), 0});

  const std::string key = "some\x1f" "composite\x1f" "key";
  const std::string payload = "payload bytes\nwith\x1f controls";
  ASSERT_TRUE(store.put("tu", key, payload));
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_GT(store.total_bytes(), payload.size());

  // Two-level fanout layout: objects/ab/cd/<digest>.
  EXPECT_TRUE(fs::exists(blob_file(dir.str(), "tu", key)));

  const auto loaded = store.get("tu", key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store.disk_hits(), 1u);

  // Kind participates in the address: same key, other kind = other blob.
  EXPECT_FALSE(store.get("spec", key).has_value());
  EXPECT_EQ(store.disk_misses(), 1u);

  // Overwrite replaces, never duplicates.
  ASSERT_TRUE(store.put("tu", key, "v2"));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(*store.get("tu", key), "v2");
}

TEST(ArtifactStore, CorruptBlobRejectedAndDeleted) {
  TempDir dir("corrupt");
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put("tu", "k", "genuine payload"));

  flip_last_byte(blob_file(dir.str(), "tu", "k"));

  // A flipped byte fails sha256 verification: miss, counted, deleted.
  EXPECT_FALSE(store.get("tu", "k").has_value());
  EXPECT_EQ(store.verify_failures(), 1u);
  EXPECT_EQ(store.disk_misses(), 1u);
  EXPECT_FALSE(fs::exists(blob_file(dir.str(), "tu", "k")));

  // The slot is reusable afterwards.
  ASSERT_TRUE(store.put("tu", "k", "fresh payload"));
  EXPECT_EQ(*store.get("tu", "k"), "fresh payload");
}

TEST(ArtifactStore, TamperedHeaderKeyRejected) {
  TempDir dir("header");
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put("tu", "honest-key", "payload"));

  // Graft the honest blob onto another key's address: the echoed header
  // key no longer matches the request, so the read must reject it.
  const auto victim = blob_file(dir.str(), "tu", "other-key");
  fs::create_directories(victim.parent_path());
  fs::copy_file(blob_file(dir.str(), "tu", "honest-key"), victim);
  EXPECT_FALSE(store.get("tu", "other-key").has_value());
  EXPECT_EQ(store.verify_failures(), 1u);
  EXPECT_EQ(*store.get("tu", "honest-key"), "payload");
}

TEST(ArtifactStore, LruEvictionRespectsByteBudget) {
  TempDir dir("lru");
  const std::string payload(256, 'x');
  // Budget fits roughly two blobs (one-line header + 256-byte payload).
  ArtifactStore store({dir.str(), 900});

  ASSERT_TRUE(store.put("tu", "a", payload));
  ASSERT_TRUE(store.put("tu", "b", payload));
  EXPECT_EQ(store.evictions(), 0u);
  ASSERT_TRUE(store.get("tu", "a").has_value());  // touch a: b is now LRU

  ASSERT_TRUE(store.put("tu", "c", payload));
  EXPECT_LE(store.total_bytes(), 900u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.get("tu", "b").has_value());  // the LRU victim
  EXPECT_TRUE(store.get("tu", "a").has_value());
  EXPECT_TRUE(store.get("tu", "c").has_value());
}

TEST(ArtifactStore, NeverEvictsTheBlobJustWritten) {
  TempDir dir("tiny-budget");
  ArtifactStore store({dir.str(), 8});  // smaller than any single blob
  ASSERT_TRUE(store.put("tu", "k", "payload larger than the budget"));
  // The newest artifact survives a degenerate budget; the store must not
  // become a no-op that pretends to persist.
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_TRUE(store.get("tu", "k").has_value());
}

TEST(ArtifactStore, VerifyFailureEvictsDeadEntryEverywhereSynchronously) {
  TempDir dir("verify-evict");
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put("tu", "dead", std::string(128, 'd')));
  ASSERT_TRUE(store.put("tu", "live", std::string(128, 'l')));
  store.flush_index();  // the persisted index now lists both entries
  const auto bytes_before = store.total_bytes();

  flip_last_byte(blob_file(dir.str(), "tu", "dead"));
  EXPECT_FALSE(store.get("tu", "dead").has_value());

  // Regression: the dead entry must be gone from ALL three places
  // immediately — blob file, in-memory accounting, and the persisted
  // index — with no flush_index() call in between. A crash right here
  // must not let recovery resurrect the entry's LRU record.
  EXPECT_FALSE(fs::exists(blob_file(dir.str(), "tu", "dead")));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_LT(store.total_bytes(), bytes_before);
  const auto dead_digest = ArtifactStore::blob_digest("tu", "dead");
  std::ifstream index(dir.path() / "index.json");
  ASSERT_TRUE(index.is_open());
  const std::string index_text((std::istreambuf_iterator<char>(index)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(index_text.find(dead_digest), std::string::npos) << index_text;
  EXPECT_NE(index_text.find(ArtifactStore::blob_digest("tu", "live")),
            std::string::npos);
}

TEST(ArtifactStore, InjectedWriteFaultFailsThePutCleanly) {
  TempDir dir("fault-write");
  ArtifactStore store({dir.str(), 0});
  fault::FaultPlan plan(21);
  plan.set_probability(fault::kStoreWrite, 1.0);
  fault::ScopedFaultPlan guard(plan);

  EXPECT_FALSE(store.put("tu", "k", "payload"));
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_FALSE(fs::exists(blob_file(dir.str(), "tu", "k")));
  EXPECT_FALSE(store.get("tu", "k").has_value());
  EXPECT_GE(plan.injected(fault::kStoreWrite), 1u);
}

TEST(ArtifactStore, InjectedReadFaultIsTransientNotDestructive) {
  TempDir dir("fault-read");
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put("tu", "k", "payload"));

  fault::FaultPlan plan(22);
  plan.set_probability(fault::kStoreRead, 1.0);
  {
    fault::ScopedFaultPlan guard(plan);
    // An injected read I/O error is a miss, but the blob stays on disk
    // and accounted — unlike a truly unreadable blob, nothing is purged.
    EXPECT_FALSE(store.get("tu", "k").has_value());
    EXPECT_EQ(store.entry_count(), 1u);
    EXPECT_TRUE(fs::exists(blob_file(dir.str(), "tu", "k")));
  }
  EXPECT_EQ(*store.get("tu", "k"), "payload");  // plan gone: read recovers
  EXPECT_EQ(store.verify_failures(), 0u);
}

TEST(ArtifactStore, InjectedCorruptionIsCaughtByVerification) {
  TempDir dir("fault-corrupt");
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put("tu", "k", "genuine payload"));

  fault::FaultPlan plan(23);
  plan.set_probability(fault::kStoreCorrupt, 1.0);
  fault::ScopedFaultPlan guard(plan);
  // The flipped byte fails sha256 verification: a corrupt read can cost
  // a recompile, never serve wrong bytes.
  EXPECT_FALSE(store.get("tu", "k").has_value());
  EXPECT_EQ(store.verify_failures(), 1u);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_GE(plan.injected(fault::kStoreCorrupt), 1u);
}

TEST(ArtifactStore, IndexRoundTripAfterUncleanShutdown) {
  TempDir dir("recovery");
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put("tu", "k1", "one"));
    ASSERT_TRUE(store.put("spec", "k2", "two"));
  }

  // Simulate an unclean shutdown: the index vanishes (or is stale) but
  // the atomically-renamed blobs survive; also leave a writer's orphan
  // temp file behind.
  fs::remove(dir.path() / "index.json");
  fs::create_directories(dir.path() / "objects" / "ab");
  {
    std::ofstream orphan(dir.path() / "objects" / "ab" / ".tmp-999-2-y");
    orphan << "partial write";
  }

  ArtifactStore reopened({dir.str(), 0});
  EXPECT_EQ(reopened.entry_count(), 2u);
  EXPECT_EQ(*reopened.get("tu", "k1"), "one");
  EXPECT_EQ(*reopened.get("spec", "k2"), "two");
  // Orphan temp files are garbage-collected, not resurrected as blobs.
  EXPECT_FALSE(fs::exists(dir.path() / "objects" / "ab" / ".tmp-999-2-y"));
}

TEST(ArtifactStore, IndexPreservesLruOrderAcrossReopen) {
  TempDir dir("lru-reopen");
  const std::string payload(256, 'x');
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put("tu", "old", payload));
    ASSERT_TRUE(store.put("tu", "newer", payload));
    ASSERT_TRUE(store.get("tu", "old").has_value());  // old is now MRU
  }
  // Reopen with a budget that only fits two blobs, then add a third: the
  // persisted LRU clock must make "newer" (not the re-touched "old") the
  // victim.
  ArtifactStore reopened({dir.str(), 900});
  ASSERT_TRUE(reopened.put("tu", "third", payload));
  EXPECT_TRUE(reopened.get("tu", "old").has_value());
  EXPECT_FALSE(reopened.get("tu", "newer").has_value());
}

// Two stores sharing one directory, hammered from several threads —
// the multi-process shape (atomic publish, cross-store visibility,
// verify-or-miss reads). Runs under TSan via the stress label.
TEST(ArtifactStoreStress, ConcurrentWritersSharedDirectory) {
  TempDir dir("stress");
  ArtifactStore store_a({dir.str(), 0});
  ArtifactStore store_b({dir.str(), 0});

  constexpr int kThreads = 4;
  constexpr int kKeys = 16;
  constexpr int kRounds = 25;
  const auto payload_for = [](int key) {
    return std::string("payload-") + std::to_string(key) + "-" +
           std::string(64 + key, 'p');
  };

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactStore& mine = (t % 2 == 0) ? store_a : store_b;
      ArtifactStore& other = (t % 2 == 0) ? store_b : store_a;
      for (int round = 0; round < kRounds; ++round) {
        const int key_index = (t + round) % kKeys;
        const std::string key = "key-" + std::to_string(key_index);
        const std::string payload = payload_for(key_index);
        if (!mine.put("tu", key, payload)) bad.fetch_add(1);
        // Reads through either store see a complete payload or nothing —
        // never a torn write.
        for (ArtifactStore* reader : {&mine, &other}) {
          const auto got = reader->get("tu", key);
          if (got && *got != payload) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);

  // A third store opened afterwards recovers every key from disk alone.
  ArtifactStore late({dir.str(), 0});
  for (int key_index = 0; key_index < kKeys; ++key_index) {
    const auto got = late.get("tu", "key-" + std::to_string(key_index));
    ASSERT_TRUE(got.has_value()) << key_index;
    EXPECT_EQ(*got, payload_for(key_index));
  }
}

// ---- Disk tier under the real caches -------------------------------------

SourceDeployOptions explicit_selection(const std::string& simd,
                                       const std::string& fft) {
  SourceDeployOptions options;
  options.auto_specialize = false;
  options.selections = {{"MD_SIMD", simd}, {"MD_FFT", fft}};
  return options;
}

container::Image small_minimd_image() {
  apps::MinimdOptions options;
  options.module_count = 6;
  options.gpu_module_count = 1;
  return build_source_image(apps::make_minimd(options), isa::Arch::X86_64);
}

TEST(ArtifactStore, BuildFarmWarmRestartsWithZeroCompiles) {
  TempDir dir("farm-warm");
  ArtifactStore store({dir.str(), 0});

  const auto image = small_minimd_image();
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");

  const std::vector<std::pair<std::string, SourceDeployOptions>> groups = {
      {"ault23", explicit_selection("AVX_512", "fftw3")},
      {"devbox", explicit_selection("AVX2_256", "fftpack")},
  };
  const auto requests_for = [&] {
    std::vector<SourceDeployRequest> requests;
    for (const auto& [base, options] : groups) {
      for (auto& node : vm::simulated_fleet(vm::node(base), 2, base + "-w-")) {
        requests.push_back({std::move(node), "spcl/minimd:src", options});
      }
    }
    return requests;
  };

  BuildFarmOptions farm_options;
  farm_options.threads = 2;
  farm_options.artifact_store = &store;

  // Cold farm: builds for real, persisting as it goes.
  std::vector<std::string> cold_digests;
  std::vector<std::string> cold_numerics;
  {
    BuildFarm cold(registry, farm_options);
    const auto results = cold.deploy_batch(requests_for());
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok) << r.error;
      cold_digests.push_back(r.app->image_digest);
      vm::Workload w = apps::minimd_workload({32, 8, 2, 16});
      const auto run = r.run(w, 1);
      ASSERT_TRUE(run.ok) << run.error;
      cold_numerics.push_back(std::to_string(run.ret_f64) + "/" +
                              std::to_string(run.cycles_serial));
    }
    EXPECT_EQ(cold.cache().lowerings(), groups.size());
    EXPECT_GT(cold.tu_compiles(), 0u);
    EXPECT_EQ(cold.cache().disk_hits(), 0u);
  }

  // "Restarted" farm on the same directory: every deployment revives
  // from disk — zero builds, zero TU compiles, bit-identical artifacts.
  BuildFarm warm(registry, farm_options);
  const auto results = warm.deploy_batch(requests_for());
  ASSERT_EQ(results.size(), cold_digests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_TRUE(results[i].cache_hit);
    EXPECT_EQ(results[i].app->image_digest, cold_digests[i]);
    vm::Workload w = apps::minimd_workload({32, 8, 2, 16});
    const auto run = results[i].run(w, 1);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(std::to_string(run.ret_f64) + "/" +
                  std::to_string(run.cycles_serial),
              cold_numerics[i]);
  }
  EXPECT_EQ(warm.cache().lowerings(), 0u);
  EXPECT_EQ(warm.tu_compiles(), 0u);
  EXPECT_EQ(warm.cache().disk_hits(), groups.size());
}

TEST(ArtifactStore, CorruptedStoreRecompilesNeverServesWrongImage) {
  TempDir dir("farm-corrupt");
  const auto image = small_minimd_image();
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");

  const auto request = [&] {
    std::vector<SourceDeployRequest> requests;
    requests.push_back({vm::node("ault23"), "spcl/minimd:src",
                        explicit_selection("AVX_512", "fftw3")});
    return requests;
  };

  std::string reference_digest;
  {
    ArtifactStore store({dir.str(), 0});
    BuildFarmOptions farm_options;
    farm_options.artifact_store = &store;
    BuildFarm cold(registry, farm_options);
    const auto results = cold.deploy_batch(request());
    ASSERT_TRUE(results[0].ok) << results[0].error;
    reference_digest = results[0].app->image_digest;
  }

  // Flip a byte in EVERY persisted blob: whatever the warm farm touches
  // first, it must detect the corruption and rebuild.
  int corrupted = 0;
  for (const auto& entry : fs::recursive_directory_iterator(
           dir.path() / "objects")) {
    if (!entry.is_regular_file()) continue;
    flip_last_byte(entry.path());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);

  ArtifactStore store({dir.str(), 0});
  BuildFarmOptions farm_options;
  farm_options.artifact_store = &store;
  BuildFarm warm(registry, farm_options);
  const auto results = warm.deploy_batch(request());
  ASSERT_TRUE(results[0].ok) << results[0].error;
  // Corruption cost a rebuild — never a wrong artifact.
  EXPECT_EQ(results[0].app->image_digest, reference_digest);
  EXPECT_EQ(warm.cache().lowerings(), 1u);
  EXPECT_GT(store.verify_failures(), 0u);
  EXPECT_EQ(warm.cache().disk_hits(), 0u);
}

// ---- The one tier: hash-valid but undecodable blobs ----------------------

/// Every (kind, key) persisted in the store, read from the blob headers.
std::vector<std::pair<std::string, std::string>> persisted_keys(
    const fs::path& dir) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& entry : fs::recursive_directory_iterator(dir / "objects")) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string header;
    std::getline(in, header);
    const auto doc = common::Json::parse(header);
    keys.emplace_back(doc.get_string("kind"), doc.get_string("key"));
  }
  return keys;
}

TEST(ArtifactTier, UndecodablePayloadIsDroppedAsCorruptOnBothKinds) {
  TempDir dir("tier-undecodable");
  ArtifactStore store({dir.str(), 0});
  ArtifactTier spec(store, kSpecArtifactKind, nullptr, /*gossip=*/true);
  ArtifactTier tu(store, kTuArtifactKind, nullptr, /*gossip=*/false);

  // Both payloads pass the store's sha256 check (put() hashed them), but
  // neither decodes: one is not JSON, the other is JSON of the wrong shape.
  spec.store("spec-key", "not json at all");
  tu.store("tu-key", "{\"ir\": 7}");
  ASSERT_EQ(store.entry_count(), 2u);

  EXPECT_EQ(spec.load("spec-key", decode_deployed_app), nullptr);
  EXPECT_EQ(store.verify_failures(), 1u);
  EXPECT_EQ(tu.load("tu-key", decode_machine_module), nullptr);
  EXPECT_EQ(store.verify_failures(), 2u);

  // Dropped, not kept around to fail again: the next load is a plain miss.
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_FALSE(fs::exists(blob_file(dir.str(), "spec", "spec-key")));
  EXPECT_FALSE(fs::exists(blob_file(dir.str(), "tu", "tu-key")));
  EXPECT_EQ(spec.load("spec-key", decode_deployed_app), nullptr);
  EXPECT_EQ(store.verify_failures(), 2u);
}

TEST(ArtifactTier, UndecodableBlobsUnderTheFarmAreRebuiltNeverServed) {
  TempDir dir("tier-rebuild");
  const auto image = small_minimd_image();
  ShardedRegistry registry;
  registry.push(image, "spcl/minimd:src");
  const auto request = [&] {
    std::vector<SourceDeployRequest> requests;
    requests.push_back({vm::node("ault23"), "spcl/minimd:src",
                        explicit_selection("AVX_512", "fftw3")});
    return requests;
  };

  std::string reference_digest;
  std::size_t cold_compiles = 0;
  {
    ArtifactStore store({dir.str(), 0});
    BuildFarmOptions farm_options;
    farm_options.artifact_store = &store;
    BuildFarm cold(registry, farm_options);
    const auto results = cold.deploy_batch(request());
    ASSERT_TRUE(results[0].ok) << results[0].error;
    reference_digest = results[0].app->image_digest;
    cold_compiles = cold.tu_compiles();
    ASSERT_GT(cold_compiles, 0u);
  }

  // Replace every persisted spec and TU payload with hash-valid garbage.
  std::size_t spec_blobs = 0;
  std::size_t tu_blobs = 0;
  {
    ArtifactStore store({dir.str(), 0});
    for (const auto& [kind, key] : persisted_keys(dir.path())) {
      ASSERT_TRUE(store.put(kind, key, "{\"garbage\": true}"));
      (kind == kSpecArtifactKind ? spec_blobs : tu_blobs) += 1;
    }
  }
  ASSERT_EQ(spec_blobs, 1u);
  ASSERT_EQ(tu_blobs, cold_compiles);

  {
    ArtifactStore store({dir.str(), 0});
    BuildFarmOptions farm_options;
    farm_options.artifact_store = &store;
    BuildFarm warm(registry, farm_options);
    const auto results = warm.deploy_batch(request());
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].app->image_digest, reference_digest);
    // Every garbage blob cost a rebuild, none was served.
    EXPECT_EQ(warm.cache().disk_hits(), 0u);
    EXPECT_EQ(warm.cache().lowerings(), 1u);
    EXPECT_EQ(warm.tu_disk_hits(), 0u);
    EXPECT_EQ(warm.tu_compiles(), cold_compiles);
    EXPECT_EQ(store.verify_failures(), spec_blobs + tu_blobs);
  }

  // The rebuild persisted good blobs again: a fresh farm revives them.
  ArtifactStore store({dir.str(), 0});
  BuildFarmOptions farm_options;
  farm_options.artifact_store = &store;
  BuildFarm revived(registry, farm_options);
  const auto results = revived.deploy_batch(request());
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].app->image_digest, reference_digest);
  EXPECT_EQ(revived.cache().disk_hits(), 1u);
  EXPECT_EQ(revived.cache().lowerings(), 0u);
  EXPECT_EQ(store.verify_failures(), 0u);
}

}  // namespace
}  // namespace xaas::service
