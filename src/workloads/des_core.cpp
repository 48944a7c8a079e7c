#include "workloads/des_core.h"

namespace pagoda::workloads {
namespace {

// FIPS 46-3 tables. Bit numbering follows the standard (1-based, MSB first).

constexpr std::array<int, 64> kIp = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr std::array<int, 64> kFp = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr std::array<int, 48> kE = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr std::array<int, 32> kP = {16, 7,  20, 21, 29, 12, 28, 17,
                                    1,  15, 23, 26, 5,  18, 31, 10,
                                    2,  8,  24, 14, 32, 27, 3,  9,
                                    19, 13, 30, 6,  22, 11, 4,  25};

constexpr std::array<int, 56> kPc1 = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr std::array<int, 48> kPc2 = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
    26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
    51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr std::array<int, 16> kShifts = {1, 1, 2, 2, 2, 2, 2, 2,
                                         1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

/// Applies a bit-selection table: output bit i (MSB-first, n bits total)
/// takes input bit table[i] (1-based from MSB of a w-bit word).
template <std::size_t N>
constexpr std::uint64_t permute(std::uint64_t in, const std::array<int, N>& table,
                                int in_width) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const int bit = table[i];
    const std::uint64_t sel = (in >> (in_width - bit)) & 1ULL;
    out = (out << 1) | sel;
  }
  return out;
}

std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey) {
  const std::uint64_t expanded = permute(r, kE, 32);  // 48 bits
  const std::uint64_t x = expanded ^ subkey;
  std::uint32_t s_out = 0;
  for (int box = 0; box < 8; ++box) {
    const auto six =
        static_cast<std::uint32_t>((x >> (42 - 6 * box)) & 0x3F);
    // Row = outer two bits, column = inner four.
    const std::uint32_t row = ((six & 0x20) >> 4) | (six & 1);
    const std::uint32_t col = (six >> 1) & 0xF;
    s_out = (s_out << 4) | kSbox[box][row * 16 + col];
  }
  return static_cast<std::uint32_t>(permute(s_out, kP, 32));
}

}  // namespace

DesKeySchedule des_key_schedule(std::uint64_t key) {
  const std::uint64_t pc1 = permute(key, kPc1, 64);  // 56 bits
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28) & 0x0FFFFFFF;
  std::uint32_t d = static_cast<std::uint32_t>(pc1) & 0x0FFFFFFF;
  DesKeySchedule ks{};
  for (int round = 0; round < 16; ++round) {
    const int s = kShifts[static_cast<std::size_t>(round)];
    c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
    d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
    const std::uint64_t cd =
        (static_cast<std::uint64_t>(c) << 28) | static_cast<std::uint64_t>(d);
    ks[static_cast<std::size_t>(round)] = permute(cd, kPc2, 56);  // 48 bits
  }
  return ks;
}

namespace {
std::uint64_t des_rounds(std::uint64_t block, const DesKeySchedule& ks,
                         bool decrypt) {
  const std::uint64_t ip = permute(block, kIp, 64);
  std::uint32_t l = static_cast<std::uint32_t>(ip >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(ip);
  for (int round = 0; round < 16; ++round) {
    const std::size_t k =
        decrypt ? static_cast<std::size_t>(15 - round)
                : static_cast<std::size_t>(round);
    const std::uint32_t next_r = l ^ feistel(r, ks[k]);
    l = r;
    r = next_r;
  }
  // Final swap: R16 L16, then FP.
  const std::uint64_t pre_out =
      (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint64_t>(l);
  return permute(pre_out, kFp, 64);
}
}  // namespace

std::uint64_t des_encrypt_block(std::uint64_t block, const DesKeySchedule& ks) {
  return des_rounds(block, ks, /*decrypt=*/false);
}

std::uint64_t des_decrypt_block(std::uint64_t block, const DesKeySchedule& ks) {
  return des_rounds(block, ks, /*decrypt=*/true);
}

TripleDesKey triple_des_key(std::uint64_t key1, std::uint64_t key2,
                            std::uint64_t key3) {
  return TripleDesKey{des_key_schedule(key1), des_key_schedule(key2),
                      des_key_schedule(key3)};
}

std::uint64_t triple_des_encrypt_block(std::uint64_t block,
                                       const TripleDesKey& key) {
  return des_encrypt_block(
      des_decrypt_block(des_encrypt_block(block, key.k1), key.k2), key.k3);
}

std::uint64_t triple_des_decrypt_block(std::uint64_t block,
                                       const TripleDesKey& key) {
  return des_decrypt_block(
      des_encrypt_block(des_decrypt_block(block, key.k3), key.k2), key.k1);
}

}  // namespace pagoda::workloads
