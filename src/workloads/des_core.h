// A real software DES / Triple-DES (EDE3) implementation.
//
// The paper's 3DES benchmark encrypts network packets (FIPS 46-3); this is a
// straightforward table-driven implementation — correct, not constant-time,
// exactly what a benchmark kernel needs. Validated against FIPS test vectors
// in tests/des_test.cpp.
#pragma once

#include <array>
#include <cstdint>

namespace pagoda::workloads {

/// Expanded key schedule: 16 round keys of 48 bits each.
using DesKeySchedule = std::array<std::uint64_t, 16>;

/// Builds the key schedule from a 64-bit key (parity bits ignored).
DesKeySchedule des_key_schedule(std::uint64_t key);

/// Encrypts/decrypts one 64-bit block.
std::uint64_t des_encrypt_block(std::uint64_t block, const DesKeySchedule& ks);
std::uint64_t des_decrypt_block(std::uint64_t block, const DesKeySchedule& ks);

/// Triple-DES EDE: E(k3, D(k2, E(k1, block))).
struct TripleDesKey {
  DesKeySchedule k1, k2, k3;
};
TripleDesKey triple_des_key(std::uint64_t key1, std::uint64_t key2,
                            std::uint64_t key3);
std::uint64_t triple_des_encrypt_block(std::uint64_t block,
                                       const TripleDesKey& key);
std::uint64_t triple_des_decrypt_block(std::uint64_t block,
                                       const TripleDesKey& key);

}  // namespace pagoda::workloads
