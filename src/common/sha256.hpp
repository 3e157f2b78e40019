// SHA-256 (FIPS 180-4), implemented from scratch so container digests are
// content-addressed without an external crypto dependency.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace xaas::common {

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update("abc");
///   std::string digest = h.hex_digest();
///
/// Whole blocks are compressed by the fastest compressor this CPU has,
/// chosen once per process (see sha256_implementation()).
class Sha256 {
public:
  Sha256();

  /// Absorb more bytes. May be called repeatedly. `data` may be null
  /// when `len` is 0.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Finalize and return the 32-byte digest. The hasher must not be
  /// updated afterwards.
  std::array<std::uint8_t, 32> digest();

  /// Finalize and return the digest as a 64-character lowercase hex string.
  std::string hex_digest();

private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

/// One-shot convenience: hex SHA-256 of a byte string.
std::string sha256_hex(std::string_view data);

/// A block compressor: folds `blocks` consecutive 64-byte blocks starting
/// at `data` (any alignment) into the eight-word chaining `state`.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks);

/// The FIPS 180-4 compressor in plain C++; runs on every CPU.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// The x86 SHA-extensions compressor when this CPU has them, else null.
Sha256Compress sha256_compress_accelerated();

/// Which compressor Sha256 uses in this process: "sha-ni" or "portable".
const char* sha256_implementation();

}  // namespace xaas::common
