// Model weight (de)serialization.
//
// The paper publishes trained models among its artifacts; this module plays
// that role: a tiny versioned binary format for the parameter tensors of a
// Sequential (or any parameter list).  Shapes are stored and verified on
// load, so loading into a mismatched architecture fails loudly, naming the
// offending parameter.
//
// Format v2 appends a CRC32 of the payload, so truncated or bit-flipped
// checkpoints are rejected instead of silently loading garbage.  Format v3
// (current) additionally carries the model's calibration record (the fitted
// softmax temperature, calibration.hpp) inside the checksummed payload, so
// a hot-reloaded model arrives with the calibration it was trained with.
// v1/v2 files remain readable (calibration defaults to T = 1).  save_network
// writes via a temp file + atomic rename and re-verifies the written bytes,
// retrying once on a corrupted write — the recovery path exercised by the
// fault injector's truncated-write faults.
//
// Loading is validated on two axes: *structural* (magic, version, shapes,
// exact length, CRC — catches truncation, trailing bytes and bit rot) and *semantic* (every
// weight finite and within kMaxAbsWeight, temperature sane — catches
// garbage a buggy writer checksummed and fsync'd correctly).  Semantic
// defects throw the typed CheckpointError, which callers must treat as
// fatal for that file: retrying the load cannot fix bad bytes.
#pragma once

#include "fptc/nn/calibration.hpp"
#include "fptc/nn/sequential.hpp"

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

namespace fptc::nn {

/// Current checkpoint format version (v3 = checksummed + calibration).
inline constexpr std::uint32_t kSerializeVersion = 3;

/// Largest weight magnitude a checkpoint may carry.  Trained parameters in
/// this repo live in [-10, 10]; anything beyond this bound is a corrupt or
/// diverged writer, not a model.
inline constexpr float kMaxAbsWeight = 1e6f;

/// A checkpoint whose *content* is invalid: non-finite or out-of-range
/// weights, an insane calibration record.  Structural defects (truncation,
/// CRC) stay std::runtime_error; this subtype marks the fatal-for-this-file
/// class — the bytes verified, the data is garbage, retry cannot help.
class CheckpointError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Write all parameters to a binary stream.  `version` may be 1 (legacy,
/// no checksum — kept for compatibility tests), 2 (checksummed) or 3
/// (checksummed + calibration; `calibration` is only persisted at v3).
/// Throws std::runtime_error on stream failure or unknown version.
void save_parameters(const std::vector<Parameter*>& parameters, std::ostream& out,
                     std::uint32_t version = kSerializeVersion,
                     const Calibration& calibration = {});

/// Read parameters back; count and shapes must match exactly.  Accepts v1,
/// v2 and v3 streams.  Throws std::runtime_error on format/shape/checksum
/// mismatch or stream failure (naming the parameter index in the message)
/// and CheckpointError on semantically invalid content.  When `calibration`
/// is non-null it receives the persisted record (T = 1 for v1/v2 streams).
void load_parameters(const std::vector<Parameter*>& parameters, std::istream& in,
                     Calibration* calibration = nullptr);

/// Validate a checkpoint stream structurally (magic, version, shape table,
/// payload length, checksum) AND semantically (finite, in-range weights and
/// calibration) without loading it into a network: the same decode as
/// load_parameters, minus the final shape match and commit.  Returns false
/// and fills `error` (when non-null) on any defect, including bytes after
/// the checkpoint.  save_network runs this on the bytes it wrote.
[[nodiscard]] bool verify_checkpoint(std::istream& in, std::string* error = nullptr);

/// Convenience wrappers over whole networks and files.  save_network is
/// atomic (temp file + rename) and verifies the written checkpoint,
/// rewriting it once if the bytes on disk fail validation.  load_network
/// throws CheckpointError on semantically invalid weights (a fatal,
/// not-retryable defect for that file).
void save_network(Sequential& network, const std::string& path,
                  const Calibration& calibration = {});
void load_network(Sequential& network, const std::string& path,
                  Calibration* calibration = nullptr);

} // namespace fptc::nn
