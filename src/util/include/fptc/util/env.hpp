// Environment-variable based configuration of campaign scale.
//
// The paper's campaigns (2,760 experiments, weeks of V100 time) are replayed
// here at reduced replication counts by default so the whole bench suite runs
// in minutes on a laptop.  The following knobs restore paper scale:
//
//   FPTC_FULL=1     use the paper's split/seed counts and enable 1500x1500 runs
//   FPTC_SPLITS=n   override the number of dataset splits per campaign
//   FPTC_SEEDS=n    override the number of training seeds per split
//   FPTC_EPOCHS=n   cap the maximum number of training epochs
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace fptc::util {

/// A malformed FPTC_* knob.  Every numeric knob is validated strictly: a
/// non-numeric value, trailing garbage ("12abc"), a negative number, or one
/// that overflows the target type is a hard configuration error carrying the
/// offending name and value — silently falling back to a default would make
/// a typo'd campaign run with the wrong scale/budget and waste hours before
/// anyone notices.
class EnvError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Read a non-negative integer environment variable.  Unset or empty returns
/// std::nullopt; anything else that is not a plain non-negative decimal
/// integer throws EnvError.
[[nodiscard]] std::optional<std::int64_t> env_int(const std::string& name);

/// Read a non-negative, finite floating point environment variable (e.g.
/// FPTC_UNIT_TIMEOUT_S=0.25).  Unset or empty returns std::nullopt;
/// non-numeric, trailing garbage, negative, non-finite or overflowing values
/// throw EnvError.
[[nodiscard]] std::optional<double> env_double(const std::string& name);

/// Read a string environment variable (paths, roles); unset returns "".
[[nodiscard]] std::string env_string(const std::string& name);

/// True when FPTC_FULL is set to a non-zero value.
[[nodiscard]] bool full_scale();

/// Resolved campaign scale for a bench binary.
struct CampaignScale {
    int splits;      ///< dataset splits (paper: 5)
    int seeds;       ///< training seeds per split (paper: 3 supervised, 5 SimCLR)
    int max_epochs;  ///< epoch cap for early-stopped training
    bool full;       ///< FPTC_FULL was requested
};

/// Compute the effective scale given the paper's counts and fast defaults.
[[nodiscard]] CampaignScale resolve_scale(int paper_splits, int paper_seeds, int default_splits,
                                          int default_seeds, int max_epochs = 50);

} // namespace fptc::util
