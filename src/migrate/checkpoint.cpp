#include "migrate/checkpoint.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "common/check.h"

namespace pagoda::migrate {

namespace {

constexpr std::uint32_t kMagic = 0x50474d31;  // "PGM1"
constexpr std::uint16_t kVersion = 2;  // 2: + the vres hints

// FNV-1a, 64-bit: stable across platforms, no seeding, byte-order free.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(&out) {}
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::byte raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    // Canonical little-endian regardless of host order.
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(le_byte(raw, i, sizeof(T)));
    }
  }
  void put_bytes(const std::byte* p, std::size_t n) {
    out_->insert(out_->end(), p, p + n);
  }

 private:
  static std::byte le_byte(const std::byte* raw, std::size_t i, std::size_t n) {
    if constexpr (std::endian::native == std::endian::big) {
      return raw[n - 1 - i];
    } else {
      (void)n;
      return raw[i];
    }
  }
  std::vector<std::byte>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : in_(in) {}
  template <typename T>
  bool get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > in_.size()) return false;
    std::byte raw[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      if constexpr (std::endian::native == std::endian::big) {
        raw[sizeof(T) - 1 - i] = in_[pos_ + i];
      } else {
        raw[i] = in_[pos_ + i];
      }
    }
    std::memcpy(v, raw, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool get_bytes(std::byte* p, std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::byte> serialize(const TaskCheckpoint& cp) {
  PAGODA_CHECK_MSG(cp.params.args_size >= 0 &&
                       cp.params.args_size <=
                           static_cast<std::int32_t>(runtime::kMaxArgBytes),
                   "checkpoint carries an oversized argument blob");
  std::vector<std::byte> out;
  out.reserve(96 + static_cast<std::size_t>(cp.params.args_size));
  Writer w(out);
  w.put(kMagic);
  w.put(kVersion);
  // Ledger identity.
  w.put(cp.uid);
  w.put(cp.arrival);
  w.put(cp.attempt);
  // Request envelope.
  w.put(static_cast<std::uint8_t>(cp.cls));
  w.put(cp.slo);
  w.put(cp.cost);
  w.put(cp.h2d_bytes);
  w.put(cp.d2h_bytes);
  w.put(cp.data_key);
  w.put(cp.index);
  // Task descriptor. The kernel ref serializes as a zero symbol slot — a
  // pointer would be run-dependent bytes; the restoring host re-binds it.
  w.put(std::uint64_t{0});
  w.put(cp.params.num_blocks);
  w.put(cp.params.threads_per_block);
  w.put(cp.params.shared_mem_bytes);
  w.put(cp.params.shmem_used_256);
  w.put(cp.params.regs_used);
  w.put(static_cast<std::uint8_t>(cp.params.needs_sync ? 1 : 0));
  w.put(cp.params.sched_class);
  w.put(cp.params.deadline_us);
  w.put(cp.params.args_size);
  w.put_bytes(cp.params.args.data(),
              static_cast<std::size_t>(cp.params.args_size));
  // Capture context.
  w.put(static_cast<std::uint8_t>(cp.point));
  w.put(cp.source_node);
  w.put(fnv1a(out));
  return out;
}

bool deserialize(std::span<const std::byte> image, TaskCheckpoint* out) {
  PAGODA_CHECK(out != nullptr);
  if (image.size() < sizeof(std::uint64_t)) return false;
  const std::size_t body = image.size() - sizeof(std::uint64_t);
  Reader digest_r(image.subspan(body));
  std::uint64_t digest = 0;
  if (!digest_r.get(&digest) || digest != fnv1a(image.first(body))) {
    return false;
  }
  Reader r(image.first(body));
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  if (!r.get(&magic) || magic != kMagic) return false;
  if (!r.get(&version) || version != kVersion) return false;
  TaskCheckpoint cp;
  std::uint8_t cls = 0, needs_sync = 0, point = 0;
  std::uint64_t fn_slot = 0;
  if (!r.get(&cp.uid) || !r.get(&cp.arrival) || !r.get(&cp.attempt) ||
      !r.get(&cls) || !r.get(&cp.slo) || !r.get(&cp.cost) ||
      !r.get(&cp.h2d_bytes) || !r.get(&cp.d2h_bytes) || !r.get(&cp.data_key) ||
      !r.get(&cp.index) || !r.get(&fn_slot) || !r.get(&cp.params.num_blocks) ||
      !r.get(&cp.params.threads_per_block) ||
      !r.get(&cp.params.shared_mem_bytes) ||
      !r.get(&cp.params.shmem_used_256) || !r.get(&cp.params.regs_used) ||
      !r.get(&needs_sync) ||
      !r.get(&cp.params.sched_class) || !r.get(&cp.params.deadline_us) ||
      !r.get(&cp.params.args_size)) {
    return false;
  }
  if (cp.params.args_size < 0 ||
      cp.params.args_size > static_cast<std::int32_t>(runtime::kMaxArgBytes)) {
    return false;
  }
  if (!r.get_bytes(cp.params.args.data(),
                   static_cast<std::size_t>(cp.params.args_size))) {
    return false;
  }
  if (!r.get(&point) || !r.get(&cp.source_node)) return false;
  if (r.pos() != body) return false;  // trailing garbage
  // Canonical images only: every accepted image reserializes to the same
  // bytes, so a field this build would drop or normalize is rejected — the
  // kernel slot (always written as 0; restore re-binds the kernel) and a
  // needs_sync byte other than 0 or 1.
  if (fn_slot != 0 || needs_sync > 1) return false;
  if (cls >= sched::kNumClasses || point > 2) return false;
  cp.cls = static_cast<sched::Class>(cls);
  cp.params.needs_sync = needs_sync != 0;
  cp.params.fn = nullptr;
  cp.point = static_cast<SafePoint>(point);
  *out = cp;
  return true;
}

std::int64_t transfer_bytes(const TaskCheckpoint& cp) {
  switch (cp.point) {
    case SafePoint::kQueued:
      // Nothing ever reached the node: the descriptor lives host-side and
      // re-placement is pure bookkeeping.
      return 0;
    case SafePoint::kStaged:
      return cp.h2d_bytes;
    case SafePoint::kTableParked:
      return cp.h2d_bytes +
             static_cast<std::int64_t>(runtime::kEntryCopyBytes);
  }
  return 0;
}

std::uint64_t image_digest(std::span<const std::byte> image) {
  if (image.size() < sizeof(std::uint64_t)) return 0;
  std::uint64_t digest = 0;
  std::memcpy(&digest, image.data() + image.size() - sizeof(std::uint64_t),
              sizeof(digest));
  return digest;
}

}  // namespace pagoda::migrate
