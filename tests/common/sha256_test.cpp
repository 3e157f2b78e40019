#include "common/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace xaas::common {
namespace {

// NIST FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : data) h.update(&c, 1);
  EXPECT_EQ(h.hex_digest(), sha256_hex(data));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  EXPECT_NE(sha256_hex(block), sha256_hex(two_blocks));
  // 55/56/57 bytes straddle the padding boundary.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string msg(n, 'y');
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.hex_digest(), sha256_hex(msg)) << n;
  }
}

// Known-answer vectors (NIST CAVP SHA256ShortMsg / FIPS 180-4 examples)
// exercising the direct-from-input block path at various alignments.
TEST(Sha256, KnownAnswerVectors) {
  // 896-bit FIPS 180-4 example: two blocks via the direct path.
  EXPECT_EQ(
      sha256_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                 "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(sha256_hex("a"),
            "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
  EXPECT_EQ(sha256_hex("message digest"),
            "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
  EXPECT_EQ(sha256_hex("abcdefghijklmnopqrstuvwxyz"),
            "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2daf18b73");
  // Exactly one block (64 bytes) and two blocks (128 bytes) of zeros.
  EXPECT_EQ(sha256_hex(std::string(64, '\0')),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b");
  EXPECT_EQ(sha256_hex(std::string(128, '\0')),
            "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca");
}

TEST(Sha256, MixedChunkSizesMatchOneShot) {
  // Feed the same 1000-byte message in awkward chunk sizes so updates
  // straddle the staging buffer / direct-block boundary in every way.
  std::string data(1000, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const std::string expect = sha256_hex(data);
  for (std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 127u, 128u, 200u, 999u}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(data.substr(off, chunk));
    }
    EXPECT_EQ(h.hex_digest(), expect) << chunk;
  }
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256_hex("a"), sha256_hex("b"));
  EXPECT_NE(sha256_hex("content-a"), sha256_hex("content-b"));
}

TEST(Sha256, DigestIs64HexChars) {
  const std::string d = sha256_hex("anything");
  ASSERT_EQ(d.size(), 64u);
  for (char c : d) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

TEST(Sha256, ReportsItsImplementation) {
  const std::string impl = sha256_implementation();
  EXPECT_EQ(impl, sha256_compress_accelerated() ? "sha-ni" : "portable");
}

// The whole hash on the portable compressor alone: the reference the
// accelerated path must reproduce.
std::string portable_sha256_hex(const std::uint8_t* data, std::size_t len) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_compress_portable(state, data, len / 64);
  std::vector<std::uint8_t> tail(data + len / 64 * 64, data + len);
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int i = 7; i >= 0; --i) {
    tail.push_back(
        static_cast<std::uint8_t>((std::uint64_t{len} * 8) >> (8 * i)));
  }
  sha256_compress_portable(state, tail.data(), tail.size() / 64);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint32_t word : state) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kHex[(word >> shift) & 0xF];
    }
  }
  return out;
}

// Empty updates are no-ops whatever the pointer: an empty vector's data()
// may be null, and a partially filled staging buffer must not memcpy
// from it.
TEST(Sha256Stress, EmptyUpdateWithNullData) {
  const std::vector<double> empty;
  Sha256 h;
  h.update(nullptr, 0);
  h.update("ab");
  h.update(empty.data(), empty.size() * sizeof(double));
  h.update(nullptr, 0);
  h.update("c");
  EXPECT_EQ(h.hex_digest(), sha256_hex("abc"));
}

// Seeded differential check of the SHA-extensions compressor against the
// portable one: block functions called directly from random chaining
// states at unaligned addresses, and whole hashes fed in random chunks
// that cross block edges.
TEST(Sha256Stress, AcceleratedBlocksMatchPortable) {
  const Sha256Compress accelerated = sha256_compress_accelerated();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "this CPU has no SHA extensions; only the portable "
                    "compressor runs here";
  }
  Rng rng(0x5eed5a256ULL);
  std::vector<std::uint8_t> storage(4096 + 64);
  const std::size_t kEdges[] = {0, 1, 55, 56, 63, 64, 65, 128, 4095, 4096};
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t len =
        trial < std::size(kEdges) ? kEdges[trial] : rng.next_below(4097);
    const std::size_t offset = rng.next_below(16);
    std::uint8_t* data = storage.data() + offset;
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(rng.next_u64());
    }

    std::uint32_t portable[8];
    for (std::uint32_t& word : portable) {
      word = static_cast<std::uint32_t>(rng.next_u64());
    }
    std::uint32_t fast[8];
    std::memcpy(fast, portable, sizeof(fast));
    sha256_compress_portable(portable, data, len / 64);
    accelerated(fast, data, len / 64);
    ASSERT_EQ(std::memcmp(portable, fast, sizeof(fast)), 0)
        << "len " << len << " offset " << offset;

    Sha256 h;
    for (std::size_t at = 0; at < len;) {
      const std::size_t chunk =
          std::min<std::size_t>(len - at, rng.next_below(200));
      h.update(data + at, chunk);
      at += chunk;
    }
    ASSERT_EQ(h.hex_digest(), portable_sha256_hex(data, len))
        << "len " << len << " offset " << offset;
  }
}

}  // namespace
}  // namespace xaas::common
