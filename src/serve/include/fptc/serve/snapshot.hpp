// Durable flow-state snapshots for the streaming classifier.
//
// The serve worker's only irreplaceable state is soft: the rolling
// per-flow packet windows in the FlowTable plus the typed-accounting
// counters that make `flows_ingested == flows_classified + sheds` checkable.
// A crash (SIGKILL, watchdog self-termination, OOM) loses at most one
// snapshot period of it: the assembler periodically serializes the table
// and the counter cut into a versioned, CRC32-checksummed binary blob and
// publishes it through util::DurableFile (temp + fsync + rename + parent
// fsync), so a reader never observes a torn snapshot and a crash mid-write
// leaves only a scavengeable temp file.
//
// The snapshot is written at a *consistent cut*: the driver injects a
// marker into the ingest queue carrying its exact event watermark and
// driver-side counters; when the assembler dequeues the marker, every event
// before the watermark has been folded into the table (FIFO queue), so the
// assembler-side counters and table contents agree with the watermark
// exactly.  Classifier-side counters are sampled with relaxed loads and may
// lag — the restore-time deficit math tolerates that (see below).
//
// On restart the worker loads the snapshot (any validation failure —
// missing file, short file, unknown version, CRC mismatch, config
// fingerprint mismatch — is a *cold start*, never a crash), re-bases its
// counters on the snapshot cut, restores the table, skips the deterministic
// stream past the watermark and resumes.  The bounded loss window is the
// set of flows the snapshot says were ingested but are neither classified,
// shed, nor present in the restored table (they were in the ready queue or
// mid-batch at the cut): they are accounted as the typed `restart_loss`
// shed reason, which extends the accounting invariant across process
// generations.
#pragma once

#include "fptc/flow/packet.hpp"
#include "fptc/serve/counters.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fptc::serve {

/// Current snapshot format version.  A loader seeing any other value
/// treats the file as a cold start (forward/backward format changes must
/// bump this).  v2 added the open-set / drift / reload counters and the
/// model generation; v3 encodes the persisted rows of counters.hpp in list
/// order and adds slo_considered.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// One tracked flow's replayable state.
struct SnapshotFlow {
    std::uint64_t flow_id = 0;
    std::uint32_t label = 0;
    double first_ts = 0.0;
    std::vector<flow::Packet> packets;
};

/// Everything a restarted worker needs to resume.
struct ServeSnapshot {
    std::uint64_t watermark = 0;      ///< stream events the driver had emitted at the cut
    double stream_now = 0.0;          ///< assembler stream clock at the cut
    std::uint32_t generation = 0;     ///< worker generation that wrote the snapshot
    std::uint32_t model_generation = 0; ///< accepted hot reloads at the cut
    std::uint64_t config_fingerprint = 0;  ///< serve config hash; mismatch = cold start
    ServeCounters counters;           ///< the accounting cut: rows counters.hpp persists
    std::vector<SnapshotFlow> flows;  ///< in window-close (FIFO) order
};

/// Serialize to the on-disk byte string: the util/codec.hpp frame around
/// the payload (magic "FPTCSNAP").
[[nodiscard]] std::string encode_snapshot(const ServeSnapshot& snapshot);

/// Parse an on-disk byte string.  Any malformation — bad magic, unknown
/// version, truncation, trailing garbage, CRC mismatch — returns nullopt
/// (the caller cold-starts); this function never throws on bad input.
[[nodiscard]] std::optional<ServeSnapshot> decode_snapshot(std::string_view data);

/// The loss window of a restored snapshot: flows the cut says were ingested
/// but are neither classified, unknown, shed, nor in the persisted table.
/// Classifier-side counters in the cut can only lag, so this over-estimates.
[[nodiscard]] std::uint64_t restart_loss(const ServeSnapshot& snapshot);

/// Durably replace `path` with the encoded snapshot (DurableFile:
/// temp + fsync + rename + parent fsync).  Propagates util::IoError.
void save_snapshot(const std::string& path, const ServeSnapshot& snapshot);

/// Load and validate `path`.  A missing, unreadable or invalid file is a
/// cold start (nullopt), never an error.  When `expect_fingerprint` is
/// nonzero a snapshot with a different config fingerprint is rejected too.
[[nodiscard]] std::optional<ServeSnapshot> load_snapshot(const std::string& path,
                                                         std::uint64_t expect_fingerprint = 0);

} // namespace fptc::serve
