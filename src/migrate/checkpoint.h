// TaskCheckpoint: the serialized image of one not-yet-claimed placement
// attempt, captured at a well-defined safe point of the dispatcher's request
// state machine and restored — as the SAME request — into another node's
// dispatch flow.
//
// What makes narrow tasks cheap to migrate is that the host runtime already
// owns the complete descriptor: TaskParams (kernel ref, geometry, vres
// hints, argument blob, QoS tags), the request envelope (payload sizes,
// data key, SLO, cost), and the ledger identity (uid, arrival, attempt). A
// checkpoint is a straight serialization of that state — no GPU context,
// register file or shared memory is ever captured, because the safe points
// are exactly the states in which the task has not been claimed by a
// scheduler warp:
//
//   kQueued       parked on the node's slot ReadyQueue; nothing staged.
//   kStaged       H2D input copy landed; no TaskTable entry yet.
//   kTableParked  spawned into the TaskTable and revoked host-side before
//                 any scheduler warp claimed the entry.
//
// Claimed/executing attempts are never checkpointed — they run to completion
// or take the existing retry/redispatch paths.
//
// The byte image is deterministic and byte-stable: fixed field order, fixed
// widths, little-endian, no pointers (the kernel ref is a symbol slot the
// restoring host re-binds), trailing FNV-1a digest. Two checkpoints of the
// same attempt state serialize to identical bytes, so the image size — the
// quantity the PCIe layer charges as the migrate_xfer phase — is a pure
// function of simulation state and every migration replays identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/time_types.h"
#include "pagoda/task_table.h"
#include "sched/policy.h"

namespace pagoda::migrate {

/// Where in the request state machine the attempt was captured.
enum class SafePoint : std::uint8_t {
  kQueued = 0,      // admitted, parked on the slot queue
  kStaged = 1,      // input payload staged on the source node
  kTableParked = 2  // TaskTable entry revoked before a warp claimed it
};

/// The in-memory checkpoint. `fn` is process-local and deliberately excluded
/// from the byte image (a real system ships a kernel symbol id and re-binds
/// it at restore; the restoring dispatcher re-injects the pointer the same
/// way).
struct TaskCheckpoint {
  // --- ledger identity: restore re-enters as the SAME request ------------
  std::uint64_t uid = 0;
  std::int64_t arrival = 0;  // sim::Time, admission instant
  std::int32_t attempt = 1;  // 1-based; migration never charges the budget
  // --- request envelope --------------------------------------------------
  sched::Class cls = sched::Class::kStandard;
  std::int64_t slo = 0;  // sim::Duration
  double cost = 0.0;
  std::int64_t h2d_bytes = 0;
  std::int64_t d2h_bytes = 0;
  std::uint64_t data_key = 0;
  std::int32_t index = 0;
  // --- task descriptor ---------------------------------------------------
  runtime::TaskParams params{};
  // --- capture context ---------------------------------------------------
  SafePoint point = SafePoint::kQueued;
  std::int32_t source_node = -1;
};

/// Serializes to the canonical byte image (header, fields in declaration
/// order, argument blob truncated to args_size, FNV-1a digest).
std::vector<std::byte> serialize(const TaskCheckpoint& cp);

/// Restores from a byte image. Returns false on a malformed image (bad
/// magic/version, short buffer, digest mismatch, or a field serialize()
/// would not write back verbatim, such as a non-zero kernel slot); `out` is
/// untouched then.
/// `out->params.fn` is left null — the caller re-binds the kernel ref.
bool deserialize(std::span<const std::byte> image, TaskCheckpoint* out);

/// The wire bytes a migration moves off the source node: the checkpoint
/// image itself plus whatever state was node-resident at the safe point
/// (staged input payload; the revoked TaskTable descriptor). A kQueued
/// attempt never put state on the node, so only host-side work moves and
/// nothing is charged to the link.
std::int64_t transfer_bytes(const TaskCheckpoint& cp);

/// Deterministic digest of an image (the serializer's trailing word;
/// exported under migrate.* so two runs can be diffed by value).
std::uint64_t image_digest(std::span<const std::byte> image);

}  // namespace pagoda::migrate
