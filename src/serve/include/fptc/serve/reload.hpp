// Canary-gated hot model reload.
//
// A drift alarm (drift.hpp) — or an operator dropping a new checkpoint at
// the FPTC_SERVE_RELOAD path — must not put an unvetted model on the live
// path: a corrupt or regressed candidate silently misclassifying is worse
// than the drift it was meant to fix.  The reloader gates every candidate
// through a three-stage canary before the swap:
//
//   1. *Structural + semantic validation* and
//   2. *Scratch load* — one nn::load_parameters into a scratch network
//      (plus its persisted calibration): magic, shapes, CRC, and every
//      weight finite and in-range are checked before a weight is written.
//      A NaN-poisoned file with a correct checksum dies here, not in
//      production batches; the incumbent is untouched if anything throws.
//   3. *Golden replay* — a fixed buffer of labeled flows (regenerated
//      deterministically from the trafficgen seed, so it survives process
//      restarts bit-identically) is classified by incumbent and candidate;
//      the candidate must score within `tolerance` of the incumbent or the
//      attempt is rolled back and counted.
//
// Acceptance bumps the model generation (persisted in serve snapshots, so
// it survives SIGKILL + restore); the candidate file's CRC is remembered so
// an unchanged file is not re-canaried every poll.
//
// Thread safety: none — poll() runs on the classifier thread between
// batches, which is the only user of the target backend; the swap needs no
// locks.
#pragma once

#include "fptc/serve/backend.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace fptc::serve {

struct ReloadConfig {
    std::string path;               ///< candidate checkpoint path; "" disables
    double tolerance = 0.1;         ///< max golden-accuracy drop vs incumbent
    std::size_t canary_flows = 12;  ///< golden flows per class
    std::uint64_t check_every = 8;  ///< poll the path every N batches
    std::size_t num_classes = 5;
    std::uint64_t seed = 1;         ///< golden buffer generator seed
};

struct ReloadStats {
    std::uint64_t attempts = 0;          ///< distinct candidates canaried
    std::uint64_t reloads = 0;           ///< candidates accepted + swapped
    std::uint64_t rollbacks = 0;         ///< candidates rejected (any stage)
    std::uint64_t rejected_invalid = 0;  ///< ... of which failed validation/load
    std::uint64_t rejected_accuracy = 0; ///< ... of which failed the golden replay
    double incumbent_accuracy = 0.0;     ///< golden accuracy at last canary
    double candidate_accuracy = 0.0;
    std::string last_error;              ///< human-readable reason of last rejection
};

class ModelReloader {
public:
    enum class Outcome {
        disabled,     ///< no reload path configured, or target is not a CNN
        not_checked,  ///< between polling intervals
        no_candidate, ///< path configured but no readable file there
        unchanged,    ///< same bytes as the last canaried candidate
        reloaded,     ///< candidate accepted and swapped in
        rolled_back,  ///< candidate rejected; incumbent still serving
    };

    /// `target` may be null (reload disabled — e.g. the gbt_only degraded
    /// worker has no CNN to swap).  The golden buffer is generated in the
    /// constructor; ~canary_flows * num_classes trafficgen flows.
    ModelReloader(const ReloadConfig& config, CnnBackend* target);

    /// Called between batches.  Cheap when the path is unchanged or the
    /// interval has not elapsed.
    Outcome poll();

    /// Force a canary pass now (the drift breaker response), ignoring the
    /// check_every interval.
    Outcome check_now();

    [[nodiscard]] bool enabled() const noexcept
    {
        return target_ != nullptr && !config_.path.empty();
    }
    [[nodiscard]] const ReloadStats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::uint32_t model_generation() const noexcept { return model_generation_; }
    /// Restore the generation counter from a durable snapshot.
    void set_model_generation(std::uint32_t generation) noexcept
    {
        model_generation_ = generation;
    }

    /// Golden-replay accuracy of a backend (exposed for tests/benchmarks).
    [[nodiscard]] double golden_accuracy(Backend& backend) const;

private:
    ReloadConfig config_;
    CnnBackend* target_;
    std::vector<ReadyFlow> golden_;
    std::uint64_t polls_ = 0;
    std::uint32_t last_crc_ = 0;
    bool has_last_crc_ = false;
    std::uint32_t model_generation_ = 0;
    ReloadStats stats_;
};

} // namespace fptc::serve
