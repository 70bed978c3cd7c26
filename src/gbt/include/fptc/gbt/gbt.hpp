// Gradient-boosted decision trees (XGBoost-style) for the ML baseline.
//
// Section 4.1 of the paper: "We used a classic XGBoost as our ML model, with
// default hyper-parameter values (100 estimators, max depth 6)" fed either a
// flattened 32x32 flowpic (1,024 features) or the 30-element early
// time-series vector.  This is a from-scratch reimplementation of the same
// algorithm family: second-order (gradient + hessian) boosting with the
// XGBoost split gain, softmax multi-class objective (one tree per class per
// round), histogram-based split finding and L2 leaf regularization.
//
// The paper also inspects the fitted ensembles ("the trained forests have
// very short trees — an average depth of 1.7 for time series and 1.3 for
// flowpic input"); average_tree_depth() exposes the same diagnostic.
#pragma once

#include "fptc/util/cancel.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fptc::gbt {

/// Upper bound on GbtConfig::num_bins (XGBoost's default max_bin).
inline constexpr int kMaxBins = 256;

/// Boosting hyper-parameters (defaults follow the paper's "default
/// hyper-parameter values": 100 estimators, depth 6).
struct GbtConfig {
    int num_rounds = 100;          ///< boosting rounds
    int max_depth = 6;             ///< maximum tree depth
    double learning_rate = 0.3;    ///< shrinkage (XGBoost default eta)
    double lambda = 1.0;           ///< L2 regularization on leaf weights
    double gamma = 0.0;            ///< minimum gain to split; must be >= 0
    double min_child_weight = 1.0; ///< minimum hessian sum per child
    int num_bins = 32;             ///< histogram bins per feature, 2..kMaxBins
    /// Watchdog hook: fit() polls this token per boosting round, per class
    /// tree and per node build, so a table3 unit unwinds with CancelledError
    /// when its executor deadline trips instead of blowing past
    /// FPTC_UNIT_TIMEOUT_S.  Null = never cancelled.
    const util::CancelToken* cancel = nullptr;
};

/// A regression tree stored as a flat node array.
struct TreeNode {
    int feature = -1;        ///< split feature; -1 for leaves
    float threshold = 0.0f;  ///< go left when x[feature] < threshold
    int left = -1;
    int right = -1;
    float value = 0.0f;      ///< leaf output (already shrunk)
};

struct Tree {
    std::vector<TreeNode> nodes;

    [[nodiscard]] float predict(std::span<const float> x) const;
    [[nodiscard]] int depth() const;
};

/// Multi-class gradient boosted trees with a softmax objective.
class GbtClassifier {
public:
    GbtClassifier(GbtConfig config, std::size_t num_classes);

    /// Train on row-major feature vectors.  All rows must share one length
    /// and hold finite values; labels must be < num_classes.  Throws
    /// std::invalid_argument on malformed input.
    void fit(const std::vector<std::vector<float>>& features,
             const std::vector<std::size_t>& labels);

    /// Per-class probabilities for one sample (softmax of raw margins).
    [[nodiscard]] std::vector<double> predict_proba(std::span<const float> features) const;

    /// Most likely class.
    [[nodiscard]] std::size_t predict(std::span<const float> features) const;

    /// Batch prediction.
    [[nodiscard]] std::vector<std::size_t> predict_batch(
        const std::vector<std::vector<float>>& features) const;

    /// Mean depth over all trees of the fitted ensemble (Sec. 4.1.2).
    [[nodiscard]] double average_tree_depth() const;

    [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }
    [[nodiscard]] std::size_t tree_count() const noexcept;
    /// The fitted ensemble, trees()[round * num_classes + class].
    [[nodiscard]] const std::vector<Tree>& trees() const noexcept { return trees_; }

private:
    GbtConfig config_;
    std::size_t num_classes_;
    std::size_t num_features_ = 0;
    /// trees_[round * num_classes + class]
    std::vector<Tree> trees_;
};

} // namespace fptc::gbt
