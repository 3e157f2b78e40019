#include "service/artifact_store.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/sha256.hpp"
#include "service/fault.hpp"
#include "vm/decoded.hpp"

namespace xaas::service {

namespace fs = std::filesystem;
using common::Json;

namespace {

constexpr int kBlobVersion = 1;
constexpr const char* kIndexName = "index.json";
constexpr const char* kObjectsDir = "objects";

/// Read a whole file as bytes; nullopt when absent/unreadable.
std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string out;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return std::nullopt;
  out.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (!in) return std::nullopt;
  return out;
}

/// Atomic publish: write to a unique sibling temp file, then rename.
/// Readers (this process or another sharing the directory) either see
/// the old complete file or the new complete file, never a partial one.
bool write_file_atomic(const fs::path& path, std::string_view contents,
                       std::uint64_t unique_seq) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  fs::path temp = path.parent_path() /
                  (".tmp-" + std::to_string(::getpid()) + "-" +
                   std::to_string(unique_seq) + "-" +
                   path.filename().string());
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      out.close();
      fs::remove(temp, ec);
      return false;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

}  // namespace

std::string ArtifactStore::blob_digest(std::string_view kind,
                                       std::string_view key) {
  common::Sha256 hasher;
  hasher.update(kind);
  hasher.update("\x1f", 1);
  hasher.update(key);
  return hasher.hex_digest();
}

std::string ArtifactStore::blob_path(const std::string& digest) const {
  // Two-level fanout (OCI-style): objects/ab/cd/<digest> keeps any one
  // directory small even for millions of artifacts.
  std::string path = options_.dir;
  path += '/';
  path += kObjectsDir;
  path += '/';
  path += digest.substr(0, 2);
  path += '/';
  path += digest.substr(2, 2);
  path += '/';
  path += digest;
  return path;
}

ArtifactStore::ArtifactStore(ArtifactStoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  fs::create_directories(fs::path(options_.dir) / kObjectsDir, ec);
  std::lock_guard lock(mutex_);
  recover_locked();
}

ArtifactStore::~ArtifactStore() { flush_index(); }

void ArtifactStore::recover_locked() {
  // The index is an acceleration structure, never the source of truth:
  // LRU ordering comes from it, existence and sizes come from the scan.
  // A store opened after an unclean shutdown (stale or missing index)
  // therefore recovers every blob that finished its atomic rename.
  std::map<std::string, std::uint64_t> index_last_used;
  if (const auto text = read_file(fs::path(options_.dir) / kIndexName)) {
    try {
      const Json doc = Json::parse(*text);
      clock_ = static_cast<std::uint64_t>(doc.get_int("clock", 0));
      if (const Json* entries = doc.find("entries")) {
        for (const auto& entry : entries->items()) {
          index_last_used[entry.get_string("digest")] =
              static_cast<std::uint64_t>(entry.get_int("last_used", 0));
        }
      }
    } catch (const common::JsonError&) {
      // Corrupt index: fall back to scan order (last_used = 0).
    }
  }

  blobs_.clear();
  total_bytes_ = 0;
  std::error_code ec;
  const fs::path objects = fs::path(options_.dir) / kObjectsDir;
  for (fs::recursive_directory_iterator it(objects, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) {
      // Leftover temp file from a crashed writer: never published.
      fs::remove(it->path(), ec);
      continue;
    }
    BlobInfo info;
    info.size = static_cast<std::uint64_t>(it->file_size(ec));
    const auto found = index_last_used.find(name);
    if (found != index_last_used.end()) info.last_used = found->second;
    clock_ = std::max(clock_, info.last_used);
    total_bytes_ += info.size;
    blobs_[name] = info;
  }
}

void ArtifactStore::write_index_locked() {
  puts_since_index_flush_ = 0;
  Json doc = Json::object();
  doc["v"] = kBlobVersion;
  doc["clock"] = static_cast<std::int64_t>(clock_);
  Json entries = Json::array();
  for (const auto& [digest, info] : blobs_) {
    Json entry = Json::object();
    entry["digest"] = digest;
    entry["size"] = static_cast<std::int64_t>(info.size);
    entry["last_used"] = static_cast<std::int64_t>(info.last_used);
    entries.push_back(std::move(entry));
  }
  doc["entries"] = std::move(entries);
  write_file_atomic(fs::path(options_.dir) / kIndexName, doc.dump(), ++temp_seq_);
}

void ArtifactStore::flush_index() {
  std::lock_guard lock(mutex_);
  write_index_locked();
}

void ArtifactStore::notify(Event::Kind kind, std::uint64_t bytes) const {
  if (!observer_) return;
  Event event;
  event.kind = kind;
  event.bytes = bytes;
  observer_(event);
}

void ArtifactStore::remove_blob_locked(const std::string& digest,
                                       Event::Kind why) {
  std::error_code ec;
  fs::remove(blob_path(digest), ec);
  const auto it = blobs_.find(digest);
  if (it != blobs_.end()) {
    total_bytes_ -= std::min(total_bytes_, it->second.size);
    blobs_.erase(it);
  }
  if (why == Event::Kind::Eviction) evictions_.fetch_add(1);
  if (why == Event::Kind::VerifyFailure) verify_failures_.fetch_add(1);
}

std::size_t ArtifactStore::evict_to_budget_locked(
    const std::string& keep_digest) {
  std::size_t evicted = 0;
  if (options_.max_bytes == 0) return evicted;
  while (total_bytes_ > options_.max_bytes) {
    const std::map<std::string, BlobInfo>::iterator end = blobs_.end();
    auto victim = end;
    for (auto it = blobs_.begin(); it != end; ++it) {
      if (it->first == keep_digest) continue;
      if (victim == end || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    // The just-written blob is never its own victim: a budget smaller
    // than one artifact still keeps that artifact (evicting it would
    // make the store a no-op that pretends to persist).
    if (victim == end) break;
    remove_blob_locked(victim->first, Event::Kind::Eviction);
    ++evicted;
  }
  return evicted;
}

bool ArtifactStore::publish_blob(const std::string& digest,
                                 std::string_view blob) {
  std::size_t evicted = 0;
  {
    std::lock_guard lock(mutex_);
    // Injected write I/O error first: the blob is never published, and
    // the caller degrades exactly as on a real failed write (the store
    // is simply not warm for this key).
    if (XAAS_FAULT_POINT(fault::kStoreWrite, digest) ||
        !write_file_atomic(blob_path(digest), blob, ++temp_seq_)) {
      return false;
    }
    auto& info = blobs_[digest];
    total_bytes_ -= std::min<std::uint64_t>(total_bytes_, info.size);
    info.size = blob.size();
    info.last_used = ++clock_;
    total_bytes_ += info.size;
    evicted = evict_to_budget_locked(digest);
    // The index is only an LRU accelerator (blobs recover by scan), so
    // it need not be rewritten per put — O(entries) serialization on
    // every write would make a cold N-artifact build O(N^2). Flush on
    // eviction (budget pressure), periodically, and at destruction.
    if (evicted > 0 || ++puts_since_index_flush_ >= kIndexFlushInterval) {
      write_index_locked();
    }
  }
  writes_.fetch_add(1);
  notify(Event::Kind::Write, blob.size());
  for (std::size_t i = 0; i < evicted; ++i) notify(Event::Kind::Eviction);
  return true;
}

bool ArtifactStore::put(std::string_view kind, std::string_view key,
                        std::string_view payload) {
  const std::string digest = blob_digest(kind, key);

  Json header = Json::object();
  header["v"] = kBlobVersion;
  header["kind"] = kind;
  header["key"] = key;
  header["payload_sha256"] = common::sha256_hex(payload);
  header["payload_size"] = static_cast<std::int64_t>(payload.size());
  std::string blob = header.dump();
  blob.push_back('\n');
  blob.append(payload);
  return publish_blob(digest, blob);
}

std::optional<std::string> ArtifactStore::get(std::string_view kind,
                                              std::string_view key) {
  const std::string digest = blob_digest(kind, key);
  bool corrupt = false;
  std::optional<std::string> payload;
  {
    std::lock_guard lock(mutex_);
    // Always probe the directory, even when the digest is absent from
    // the in-memory accounting: another store (or process) sharing the
    // directory may have published the blob after this store opened.
    auto blob = read_file(blob_path(digest));
    // Injected transient read I/O error: report a miss, but leave the
    // accounting alone — the blob is still on disk and still valid, so
    // this must not look like a sibling-store eviction.
    const bool injected_read_error =
        blob.has_value() && XAAS_FAULT_POINT(fault::kStoreRead, digest);
    if (injected_read_error) blob.reset();
    if (!blob) {
      // Accounted but unreadable = evicted/removed underneath us by a
      // sibling store; drop the stale accounting entry.
      if (!injected_read_error) {
        const auto it = blobs_.find(digest);
        if (it != blobs_.end()) {
          total_bytes_ -= std::min(total_bytes_, it->second.size);
          blobs_.erase(it);
        }
      }
    } else {
      // Injected on-disk corruption: flip one byte of the blob we just
      // read, exactly as a decaying disk would, and let the verification
      // below catch it.
      fault::corrupts(fault::kStoreCorrupt, digest, *blob);
      const std::size_t newline = blob->find('\n');
      std::string verify_error;
      if (newline == std::string::npos) {
        verify_error = "no header line";
      } else {
        try {
          const Json header = Json::parse(std::string_view(*blob).substr(0, newline));
          const std::string_view body =
              std::string_view(*blob).substr(newline + 1);
          if (header.get_string("kind") != kind ||
              header.get_string("key") != key) {
            verify_error = "header key mismatch";
          } else if (header.get_int("payload_size", -1) !=
                     static_cast<std::int64_t>(body.size())) {
            verify_error = "payload size mismatch";
          } else if (header.get_string("payload_sha256") !=
                     common::sha256_hex(body)) {
            verify_error = "payload sha256 mismatch";
          } else {
            payload = std::string(body);
          }
        } catch (const common::JsonError&) {
          verify_error = "malformed header";
        }
      }
      if (payload) {
        // Adopt/refresh the accounting entry (a sibling store may have
        // written or rewritten this blob after we opened).
        auto& info = blobs_[digest];
        total_bytes_ -= std::min(total_bytes_, info.size);
        info.size = blob->size();
        total_bytes_ += info.size;
        info.last_used = ++clock_;
      } else {
        // Corrupt blob: delete it so the next request recompiles into a
        // fresh one. Corruption can cost a rebuild, never a wrong image.
        corrupt = true;
        (void)verify_error;
        remove_blob_locked(digest, Event::Kind::VerifyFailure);
        // Evict from the persisted index synchronously too (as
        // note_corrupt does): a store recovered from a stale index must
        // not resurrect the dead entry's LRU record, and entry_count /
        // total_bytes must reflect the deletion immediately.
        write_index_locked();
      }
    }
  }
  if (corrupt) notify(Event::Kind::VerifyFailure);
  if (payload) {
    disk_hits_.fetch_add(1);
    notify(Event::Kind::DiskHit, payload->size());
  } else {
    disk_misses_.fetch_add(1);
    notify(Event::Kind::DiskMiss);
  }
  return payload;
}

void ArtifactStore::note_corrupt(std::string_view kind, std::string_view key) {
  {
    std::lock_guard lock(mutex_);
    remove_blob_locked(blob_digest(kind, key), Event::Kind::VerifyFailure);
    write_index_locked();
  }
  notify(Event::Kind::VerifyFailure);
}

// ---- Blob-level registry surface -----------------------------------------

bool ArtifactStore::verify_blob(const std::string& digest,
                                std::string_view blob) {
  const std::size_t newline = blob.find('\n');
  if (newline == std::string_view::npos) return false;
  try {
    const Json header = Json::parse(blob.substr(0, newline));
    const std::string_view body = blob.substr(newline + 1);
    // The header echoes the address inputs: a blob grafted onto another
    // digest (or corrupted anywhere) fails one of these three checks.
    if (blob_digest(header.get_string("kind"), header.get_string("key")) !=
        digest) {
      return false;
    }
    if (header.get_int("payload_size", -1) !=
        static_cast<std::int64_t>(body.size())) {
      return false;
    }
    return header.get_string("payload_sha256") == common::sha256_hex(body);
  } catch (const common::JsonError&) {
    return false;
  }
}

std::vector<ArtifactStore::BlobRef> ArtifactStore::enumerate_blobs() const {
  std::lock_guard lock(mutex_);
  std::vector<BlobRef> refs;
  refs.reserve(blobs_.size());
  for (const auto& [digest, info] : blobs_) {
    refs.push_back({digest, info.size});
  }
  return refs;  // digest-sorted: blobs_ is an ordered map
}

bool ArtifactStore::contains_blob(const std::string& digest) const {
  std::lock_guard lock(mutex_);
  if (blobs_.count(digest) != 0) return true;
  std::error_code ec;
  return fs::exists(blob_path(digest), ec);
}

std::uint64_t ArtifactStore::blob_bytes(const std::string& digest) const {
  std::lock_guard lock(mutex_);
  const auto it = blobs_.find(digest);
  return it == blobs_.end() ? 0 : it->second.size;
}

std::optional<std::string> ArtifactStore::read_blob(const std::string& digest) {
  bool corrupt = false;
  std::optional<std::string> blob;
  {
    std::lock_guard lock(mutex_);
    blob = read_file(blob_path(digest));
    if (!blob) {
      // Evicted/removed underneath us by a sibling store: drop the
      // stale accounting entry, as get() does.
      const auto it = blobs_.find(digest);
      if (it != blobs_.end()) {
        total_bytes_ -= std::min(total_bytes_, it->second.size);
        blobs_.erase(it);
      }
    } else {
      fault::corrupts(fault::kStoreCorrupt, digest, *blob);
      if (verify_blob(digest, *blob)) {
        auto& info = blobs_[digest];
        total_bytes_ -= std::min(total_bytes_, info.size);
        info.size = blob->size();
        total_bytes_ += info.size;
        info.last_used = ++clock_;
      } else {
        // Same discipline as get(): a corrupt blob is deleted — from
        // disk, accounting, and the persisted index — and never served.
        corrupt = true;
        blob.reset();
        remove_blob_locked(digest, Event::Kind::VerifyFailure);
        write_index_locked();
      }
    }
  }
  if (corrupt) notify(Event::Kind::VerifyFailure);
  return blob;
}

bool ArtifactStore::adopt_blob(const std::string& digest,
                               std::string_view blob) {
  if (!verify_blob(digest, blob)) return false;
  return publish_blob(digest, blob);
}

std::size_t ArtifactStore::entry_count() const {
  std::lock_guard lock(mutex_);
  return blobs_.size();
}

std::uint64_t ArtifactStore::total_bytes() const {
  std::lock_guard lock(mutex_);
  return total_bytes_;
}

// ---- Artifact serialization ----------------------------------------------

namespace {

Json target_to_json(const minicc::TargetSpec& target) {
  Json doc = Json::object();
  doc["visa"] = std::string(isa::to_string(target.visa));
  doc["openmp"] = target.openmp;
  doc["opt_level"] = target.opt_level;
  return doc;
}

bool target_from_json(const Json& doc, minicc::TargetSpec* target,
                      std::string* error) {
  const auto visa = isa::vector_isa_from_string(doc.get_string("visa", "?"));
  if (!visa) {
    *error = "unknown vector ISA '" + doc.get_string("visa") + "'";
    return false;
  }
  target->visa = *visa;
  target->openmp = doc.get_bool("openmp");
  target->opt_level = static_cast<int>(doc.get_int("opt_level", 2));
  return true;
}

}  // namespace

common::Json machine_module_to_json(const minicc::MachineModule& machine) {
  Json doc = Json::object();
  // The textual IR is the lossless serialization the paper's containers
  // store in layers (§4.2) — reused here verbatim.
  doc["ir"] = minicc::ir::print(machine.code);
  doc["target"] = target_to_json(machine.target);
  doc["fused_fma"] = machine.fused_fma;
  doc["vectorized_loops"] = machine.vectorized_loops;
  return doc;
}

std::optional<minicc::MachineModule> machine_module_from_json(
    const common::Json& doc, std::string* error) {
  const Json* ir_text = doc.find("ir");
  const Json* target_doc = doc.find("target");
  if (!ir_text || !ir_text->is_string() || !target_doc) {
    *error = "machine module document missing ir/target";
    return std::nullopt;
  }
  minicc::MachineModule machine;
  if (!target_from_json(*target_doc, &machine.target, error)) {
    return std::nullopt;
  }
  auto parsed = minicc::ir::parse_ir(ir_text->as_string());
  if (!parsed.ok) {
    *error = "IR parse failed: " + parsed.error;
    return std::nullopt;
  }
  machine.code = std::move(parsed.module);
  machine.fused_fma = static_cast<int>(doc.get_int("fused_fma", 0));
  machine.vectorized_loops =
      static_cast<int>(doc.get_int("vectorized_loops", 0));
  return machine;
}

common::Json deployed_app_to_json(const DeployedApp& app) {
  Json doc = Json::object();
  doc["image"] = app.image.to_json();
  doc["image_digest"] =
      app.image_digest.empty() ? app.image.digest() : app.image_digest;
  Json modules = Json::array();
  for (const auto& machine : app.program.modules()) {
    modules.push_back(machine_module_to_json(machine));
  }
  doc["modules"] = std::move(modules);
  doc["configuration"] = app.configuration.to_json();
  doc["target"] = target_to_json(app.target);
  Json log = Json::array();
  for (const auto& line : app.log) log.push_back(line);
  doc["log"] = std::move(log);
  return doc;
}

std::shared_ptr<const DeployedApp> deployed_app_from_json(
    const common::Json& doc, std::string* error) {
  auto app = std::make_shared<DeployedApp>();
  try {
    const Json* image_doc = doc.find("image");
    const Json* modules_doc = doc.find("modules");
    const Json* config_doc = doc.find("configuration");
    const Json* target_doc = doc.find("target");
    if (!image_doc || !modules_doc || !config_doc || !target_doc) {
      *error = "deployment document missing image/modules/configuration/target";
      return nullptr;
    }
    app->image = container::Image::from_json(*image_doc);
    app->image_digest = app->image.digest();
    // The recorded digest is the content address the caches key on —
    // a reconstruction that hashes differently is corrupt by definition.
    const std::string recorded = doc.get_string("image_digest");
    if (!recorded.empty() && recorded != app->image_digest) {
      *error = "reconstructed image digest mismatch";
      return nullptr;
    }
    std::vector<minicc::MachineModule> modules;
    modules.reserve(modules_doc->items().size());
    for (const auto& entry : modules_doc->items()) {
      auto machine = machine_module_from_json(entry, error);
      if (!machine) return nullptr;
      modules.push_back(std::move(*machine));
    }
    // Re-link in stored order: link is a pure function of the module
    // sequence, so the program is bit-identical to the one persisted.
    std::string link_error;
    app->program = vm::Program::link(std::move(modules), &link_error);
    if (!app->program.ok()) {
      *error = "re-link failed: " + link_error;
      return nullptr;
    }
    app->configuration = buildsys::Configuration::from_json(*config_doc);
    if (!target_from_json(*target_doc, &app->target, error)) return nullptr;
    if (const Json* log = doc.find("log")) {
      for (const auto& line : log->items()) app->log.push_back(line.as_string());
    }
  } catch (const common::JsonError& e) {
    *error = std::string("deployment document malformed: ") + e.what();
    return nullptr;
  }
  app->decoded = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::build(app->program));
  app->ok = true;
  return app;
}

// ---- Cache tier adapters -------------------------------------------------

std::shared_ptr<const DeployedApp> SpecArtifactTier::load(const SpecKey& key) {
  const std::string composite = key.to_string();
  const auto payload = store_.get(kSpecArtifactKind, composite);
  if (!payload) return nullptr;
  std::string error;
  std::shared_ptr<const DeployedApp> app;
  try {
    app = deployed_app_from_json(Json::parse(*payload), &error);
  } catch (const common::JsonError&) {
    app = nullptr;
  }
  if (!app) {
    // Hash-valid payload that no longer deserializes (format drift or a
    // serializer bug): drop it so the next request rebuilds cleanly.
    store_.note_corrupt(kSpecArtifactKind, composite);
    return nullptr;
  }
  return app;
}

void SpecArtifactTier::store(const SpecKey& key, const DeployedApp& app) {
  if (!app.ok) return;
  store_.put(kSpecArtifactKind, key.to_string(), deployed_app_to_json(app).dump());
}

std::shared_ptr<const minicc::MachineModule> TuArtifactTier::load(
    const minicc::TuKey& key) {
  const std::string composite = key.to_string();
  const auto payload = store_.get(kTuArtifactKind, composite);
  if (!payload) return nullptr;
  std::string error;
  std::optional<minicc::MachineModule> machine;
  try {
    machine = machine_module_from_json(Json::parse(*payload), &error);
  } catch (const common::JsonError&) {
    machine = std::nullopt;
  }
  if (!machine) {
    store_.note_corrupt(kTuArtifactKind, composite);
    return nullptr;
  }
  return std::make_shared<const minicc::MachineModule>(std::move(*machine));
}

void TuArtifactTier::store(const minicc::TuKey& key,
                           const minicc::MachineModule& machine) {
  store_.put(kTuArtifactKind, key.to_string(), machine_module_to_json(machine).dump());
}

}  // namespace xaas::service
