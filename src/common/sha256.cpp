#include "common/sha256.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xaas::common {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)
#define XAAS_SHA_NI __attribute__((target("sha,sse4.1")))

// Four rounds. `abef` and `cdgh` are the chaining words in the lane order
// sha256rnds2 expects; `w` holds the group's four message words.
XAAS_SHA_NI inline void sha_ni_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                                      int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(
             reinterpret_cast<const __m128i*>(kRoundConstants.data()) + group));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The message words of group g+4 from those of groups g..g+3:
// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
XAAS_SHA_NI inline __m128i sha_ni_schedule(__m128i w0, __m128i w1, __m128i w2,
                                           __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

XAAS_SHA_NI void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                                 std::size_t blocks) {
  // Byte swap within each 32-bit word: the message is big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // state = A B C D | E F G H  ->  abef = A B E F, cdgh = C D G H.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  dcba = _mm_shuffle_epi32(dcba, 0xB1);
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byte_swap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byte_swap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byte_swap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byte_swap);
    // Groups 0..11 each also schedule the group four ahead, reusing the
    // register of the words they just consumed.
    for (int group = 0; group < 12; group += 4) {
      sha_ni_rounds(abef, cdgh, w0, group);
      w0 = sha_ni_schedule(w0, w1, w2, w3);
      sha_ni_rounds(abef, cdgh, w1, group + 1);
      w1 = sha_ni_schedule(w1, w2, w3, w0);
      sha_ni_rounds(abef, cdgh, w2, group + 2);
      w2 = sha_ni_schedule(w2, w3, w0, w1);
      sha_ni_rounds(abef, cdgh, w3, group + 3);
      w3 = sha_ni_schedule(w3, w0, w1, w2);
    }
    sha_ni_rounds(abef, cdgh, w0, 12);
    sha_ni_rounds(abef, cdgh, w1, 13);
    sha_ni_rounds(abef, cdgh, w2, 14);
    sha_ni_rounds(abef, cdgh, w3, 15);

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

// Chosen once per process from the host CPU, not fixed by the build: the
// paper's deploy-time rule applied to our own hot path.
Sha256Compress chosen_compress() {
  static const Sha256Compress chosen = [] {
    const Sha256Compress accelerated = sha256_compress_accelerated();
    return accelerated ? accelerated : sha256_compress_portable;
  }();
  return chosen;
}

}  // namespace

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[i * 4]} << 24) |
             (std::uint32_t{data[i * 4 + 1]} << 16) |
             (std::uint32_t{data[i * 4 + 2]} << 8) |
             std::uint32_t{data[i * 4 + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compress sha256_compress_accelerated() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return compress_sha_ni;
  }
#endif
  return nullptr;
}

const char* sha256_implementation() {
  return chosen_compress() == sha256_compress_portable ? "portable" : "sha-ni";
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const void* data, std::size_t len) {
  assert(!finalized_);
  if (len == 0) return;  // `data` may be null (an empty vector's data())
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  // Top up a partially filled buffer first.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    chosen_compress()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks are compressed straight from the caller's memory, all in
  // one call — no staging copy. This is the hot path for result digests
  // and for the IR pipeline, which hashes every preprocessed TU.
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    chosen_compress()(state_.data(), bytes, blocks);
    bytes += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), bytes, len);
    buffer_len_ = len;
  }
}

std::array<std::uint8_t, 32> Sha256::digest() {
  assert(!finalized_);
  finalized_ = true;

  const std::uint64_t bit_len = total_bytes_ * 8;
  // Append the 0x80 terminator, zero padding, and the 64-bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  finalized_ = false;  // allow internal updates
  update(pad, pad_len);
  update(len_bytes, 8);
  finalized_ = true;

  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256::hex_digest() {
  static constexpr char kHex[] = "0123456789abcdef";
  const auto d = digest();
  std::string out(64, '0');
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i * 2] = kHex[d[i] >> 4];
    out[i * 2 + 1] = kHex[d[i] & 0xF];
  }
  return out;
}

std::string sha256_hex(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.hex_digest();
}

}  // namespace xaas::common
