// DES / Triple-DES correctness against published test vectors.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "workloads/des_core.h"

namespace pagoda::workloads {
namespace {

// ECB over whole 8-byte blocks, the mode the 3DES kernel runs per thread.
void triple_des_encrypt_ecb(std::span<const std::uint64_t> in,
                            std::span<std::uint64_t> out,
                            const TripleDesKey& key) {
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = triple_des_encrypt_block(in[i], key);
  }
}

void triple_des_decrypt_ecb(std::span<const std::uint64_t> in,
                            std::span<std::uint64_t> out,
                            const TripleDesKey& key) {
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = triple_des_decrypt_block(in[i], key);
  }
}

// The classic worked example (Stallings / FIPS walkthrough).
TEST(Des, KnownVectorEncrypts) {
  const auto ks = des_key_schedule(0x133457799BBCDFF1ULL);
  EXPECT_EQ(des_encrypt_block(0x0123456789ABCDEFULL, ks),
            0x85E813540F0AB405ULL);
}

TEST(Des, DecryptInvertsEncrypt) {
  const auto ks = des_key_schedule(0x0E329232EA6D0D73ULL);
  const std::uint64_t pt = 0x8787878787878787ULL;
  const std::uint64_t ct = des_encrypt_block(pt, ks);
  EXPECT_EQ(ct, 0x0000000000000000ULL);  // another published vector
  EXPECT_EQ(des_decrypt_block(ct, ks), pt);
}

TEST(Des, RoundTripManyBlocks) {
  const auto ks = des_key_schedule(0xDEADBEEF01234567ULL);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t pt = i * 0x9E3779B97F4A7C15ULL;
    EXPECT_EQ(des_decrypt_block(des_encrypt_block(pt, ks), ks), pt);
  }
}

TEST(TripleDes, DegeneratesToSingleDesWithEqualKeys) {
  // E(k, D(k, E(k, x))) == E(k, x).
  const std::uint64_t k = 0x133457799BBCDFF1ULL;
  const auto tk = triple_des_key(k, k, k);
  const auto ks = des_key_schedule(k);
  const std::uint64_t pt = 0x0123456789ABCDEFULL;
  EXPECT_EQ(triple_des_encrypt_block(pt, tk), des_encrypt_block(pt, ks));
}

TEST(TripleDes, RoundTripWithDistinctKeys) {
  const auto tk = triple_des_key(0x0123456789ABCDEFULL, 0x23456789ABCDEF01ULL,
                                 0x456789ABCDEF0123ULL);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t pt = i * 0xD1B54A32D192ED03ULL + 7;
    const std::uint64_t ct = triple_des_encrypt_block(pt, tk);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(triple_des_decrypt_block(ct, tk), pt);
  }
}

TEST(TripleDes, EcbSpansRoundTrip) {
  const auto tk = triple_des_key(1, 2, 3);
  std::vector<std::uint64_t> pt(100);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = i * 12345 + 678;
  std::vector<std::uint64_t> ct(pt.size());
  std::vector<std::uint64_t> back(pt.size());
  triple_des_encrypt_ecb(pt, ct, tk);
  triple_des_decrypt_ecb(ct, back, tk);
  EXPECT_EQ(back, pt);
}

}  // namespace
}  // namespace pagoda::workloads
