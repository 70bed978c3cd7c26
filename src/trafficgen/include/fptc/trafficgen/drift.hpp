// Scheduled distribution drift for generated traffic.
//
// The serve drift monitor needs an *input* whose distribution moves on a
// known schedule, so torture scenarios can assert "no alarm on stationary
// traffic" and "alarm within N flows of the scripted shift".  A
// DriftSchedule describes how a deterministic stream departs from its base
// class profiles as it progresses (progress = flow start time / arrival
// window, in [0, 1]):
//
//   * parameter shift — flows blend from the base profile toward a shifted
//     variant (the ucdavis19 human-partition profiles: the paper's own
//     script-vs-human drift), stepping at `at` or ramping linearly,
//   * unknown-class injection — a fraction of post-shift flows is drawn
//     from a profile outside the trained classes and labeled
//     `num_classes` (the open-set oracle).
//
// All knobs come from FPTC_DRIFT_* environment variables (from_env), and
// everything downstream of the schedule stays seed-deterministic.
#pragma once

#include "fptc/trafficgen/traffic_model.hpp"

#include <cstdint>

namespace fptc::trafficgen {

struct DriftSchedule {
    enum class Mode { none, step, linear };

    Mode mode = Mode::none;    ///< FPTC_DRIFT_MODE: step | linear (unset = none)
    double at = 0.5;           ///< FPTC_DRIFT_AT: progress where the shift begins
    double magnitude = 1.0;    ///< FPTC_DRIFT_MAGNITUDE: full-drift blend weight [0, 1]
    double unknown_rate = 0.0; ///< FPTC_DRIFT_UNKNOWN: unknown-class rate after `at`

    /// Anything scheduled at all?  An inactive schedule must leave the
    /// consuming stream bit-identical to one built without it.
    [[nodiscard]] bool active() const noexcept
    {
        return mode != Mode::none || unknown_rate > 0.0;
    }

    /// Blend weight toward the shifted profile at `progress` in [0, 1]:
    /// 0 before `at`; `magnitude` after it (step) or ramping to it (linear).
    [[nodiscard]] double shift_weight(double progress) const noexcept;

    /// Strictly validated FPTC_DRIFT_* knobs (throws util::EnvError).
    [[nodiscard]] static DriftSchedule from_env();
};

/// Interpolate two class profiles: scalar fields lerp by `t` in [0, 1];
/// structural vectors (handshake, burst placement, size mixture) switch
/// from `base` to `shifted` at t >= 0.5.
[[nodiscard]] ClassProfile blend_profiles(const ClassProfile& base, const ClassProfile& shifted,
                                          double t);

/// A profile deliberately *outside* the trained classes (a procedurally
/// generated mobile-app profile), for open-set injection.
[[nodiscard]] ClassProfile unknown_app_profile(std::uint64_t seed);

} // namespace fptc::trafficgen
