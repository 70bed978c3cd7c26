#include "fptc/gbt/gbt.hpp"

#include "fptc/util/membudget.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace fptc::gbt {

float Tree::predict(std::span<const float> x) const
{
    if (nodes.empty()) {
        return 0.0f;
    }
    int index = 0;
    while (nodes[static_cast<std::size_t>(index)].feature >= 0) {
        const auto& node = nodes[static_cast<std::size_t>(index)];
        index = x[static_cast<std::size_t>(node.feature)] < node.threshold ? node.left : node.right;
    }
    return nodes[static_cast<std::size_t>(index)].value;
}

int Tree::depth() const
{
    if (nodes.empty()) {
        return 0;
    }
    // Iterative depth computation over the flat representation.
    std::vector<std::pair<int, int>> stack{{0, 0}};
    int max_depth = 0;
    while (!stack.empty()) {
        const auto [index, depth] = stack.back();
        stack.pop_back();
        const auto& node = nodes[static_cast<std::size_t>(index)];
        if (node.feature < 0) {
            max_depth = std::max(max_depth, depth);
        } else {
            stack.emplace_back(node.left, depth + 1);
            stack.emplace_back(node.right, depth + 1);
        }
    }
    return max_depth;
}

namespace {

/// One histogram cell: the (gradient, hessian) sums of one (feature, bin),
/// two independent IEEE double lanes in one 16-byte vector register.
using v2d = double __attribute__((vector_size(16)));

inline v2d load(const double* p) noexcept
{
    v2d v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store(double* p, v2d v) noexcept
{
    std::memcpy(p, &v, sizeof v);
}

/// A feature whose training values fall into at least two bins.  It owns
/// one histogram slot per bin from first_bin (0, or 1 when no training value
/// lies below the first edge) to the last, edges.size().  Bins no training
/// value falls into, and features with a single bin, never yield a split
/// with positive gain (DESIGN.md "GBT histogram"), so they get no slot.
struct ActiveFeature {
    std::size_t feature = 0;
    std::uint32_t first_bin = 0;
    std::uint32_t offset = 0; ///< slot of first_bin
};

/// Per-feature histogram bin edges (quantile-ish via sorted unique values),
/// and the compact histogram layout of the features that can split.
struct BinMap {
    std::vector<std::vector<float>> edges; ///< edges[f] sorted ascending
    std::vector<ActiveFeature> active;     ///< ascending feature index
    std::size_t slot_count = 0;

    [[nodiscard]] std::uint32_t bin_of(std::size_t feature, float value) const
    {
        const auto& e = edges[feature];
        return static_cast<std::uint32_t>(
            std::upper_bound(e.begin(), e.end(), value) - e.begin());
    }
};

[[nodiscard]] BinMap build_bins(const std::vector<std::vector<float>>& features, int num_bins)
{
    const std::size_t n = features.size();
    const std::size_t d = features.front().size();
    BinMap bins;
    bins.edges.resize(d);
    std::vector<float> column(n);
    for (std::size_t f = 0; f < d; ++f) {
        for (std::size_t i = 0; i < n; ++i) {
            column[i] = features[i][f];
        }
        std::sort(column.begin(), column.end());
        auto& edges = bins.edges[f];
        // Quantile edges; duplicates collapse automatically.
        for (int b = 1; b < num_bins; ++b) {
            const auto idx = static_cast<std::size_t>(
                static_cast<double>(b) / num_bins * static_cast<double>(n - 1));
            const float edge = column[idx];
            if (edges.empty() || edge > edges.back()) {
                edges.push_back(edge);
            }
        }
        // bin_of is monotone, so the extremes bound every value's bin.  The
        // maximum always falls into the last bin, and each bin from 1 on
        // holds its lower edge, a training value: only bin 0 can be empty.
        const auto first_bin = bins.bin_of(f, column.front());
        if (first_bin < edges.size()) {
            bins.active.push_back(
                {f, first_bin, static_cast<std::uint32_t>(bins.slot_count)});
            bins.slot_count += edges.size() + 1 - first_bin;
        }
    }
    return bins;
}

struct SplitCandidate {
    double gain = 0.0;
    std::size_t active = 0; ///< index into BinMap::active
    std::uint32_t bin = 0;  ///< go left when binned value <= bin
    float threshold = 0.0f;
};

struct NodeBuildState {
    std::vector<std::uint32_t> samples;
    int depth = 0;
    int node_index = 0;
};

[[nodiscard]] double leaf_objective(double g, double h, double lambda)
{
    return g * g / (h + lambda);
}

} // namespace

GbtClassifier::GbtClassifier(GbtConfig config, std::size_t num_classes)
    : config_(config), num_classes_(num_classes)
{
    if (num_classes < 2) {
        throw std::invalid_argument("GbtClassifier: need at least 2 classes");
    }
    // num_bins <= 256 is XGBoost's default max_bin; gamma >= 0 (its
    // min_split_loss range) lets fit() skip split candidates with an empty
    // side without changing any tree (DESIGN.md "GBT histogram").
    if (config_.num_rounds < 1 || config_.max_depth < 1 || config_.num_bins < 2 ||
        config_.num_bins > kMaxBins || !(config_.gamma >= 0.0)) {
        throw std::invalid_argument("GbtClassifier: bad configuration");
    }
}

void GbtClassifier::fit(const std::vector<std::vector<float>>& features,
                        const std::vector<std::size_t>& labels)
{
    if (features.empty() || features.size() != labels.size()) {
        throw std::invalid_argument("GbtClassifier::fit: empty or mismatched input");
    }
    const std::size_t n = features.size();
    num_features_ = features.front().size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto& row = features[i];
        if (row.size() != num_features_) {
            throw std::invalid_argument("GbtClassifier::fit: ragged feature rows");
        }
        for (std::size_t f = 0; f < num_features_; ++f) {
            if (!std::isfinite(row[f])) {
                throw std::invalid_argument("GbtClassifier::fit: non-finite value at row " +
                                            std::to_string(i) + ", feature " +
                                            std::to_string(f));
            }
        }
    }
    for (const auto label : labels) {
        if (label >= num_classes_) {
            throw std::invalid_argument("GbtClassifier::fit: label out of range");
        }
    }

    const auto bins = build_bins(features, config_.num_bins);
    const std::size_t active = bins.active.size();
    // Charge the whole training working set (slot matrix, margin /
    // probability / gradient / hessian buffers, split histogram) against the
    // process memory budget up front, before the allocations happen; released
    // when fit() returns or unwinds.
    const util::Charge working_set(
        n * active * sizeof(std::uint32_t) + 2 * n * num_classes_ * sizeof(double) +
            2 * n * sizeof(float) + bins.slot_count * sizeof(v2d),
        "gbt::fit");
    // Row-major slot matrix: slots[i * active + a] is the histogram slot that
    // sample i's value of feature active[a] falls into.
    std::vector<std::uint32_t> slots(n * active);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t* row = slots.data() + i * active;
        for (std::size_t a = 0; a < active; ++a) {
            const auto& af = bins.active[a];
            row[a] = af.offset + bins.bin_of(af.feature, features[i][af.feature]) - af.first_bin;
        }
    }

    trees_.clear();
    trees_.reserve(static_cast<std::size_t>(config_.num_rounds) * num_classes_);

    // Raw margins per (sample, class), updated after every round.
    std::vector<double> margins(n * num_classes_, 0.0);
    std::vector<double> probabilities(n * num_classes_, 0.0);
    std::vector<float> gradients(n);
    std::vector<float> hessians(n);

    // {g, h} per slot, interleaved.
    std::vector<double> hist(2 * bins.slot_count);

    for (int round = 0; round < config_.num_rounds; ++round) {
        FPTC_TRACE_SPAN("gbt_round");
        if (config_.cancel != nullptr) {
            config_.cancel->poll();
        }
        // Softmax over current margins.
        for (std::size_t i = 0; i < n; ++i) {
            const double* m = margins.data() + i * num_classes_;
            double* p = probabilities.data() + i * num_classes_;
            double max_margin = m[0];
            for (std::size_t k = 1; k < num_classes_; ++k) {
                max_margin = std::max(max_margin, m[k]);
            }
            double denom = 0.0;
            for (std::size_t k = 0; k < num_classes_; ++k) {
                p[k] = std::exp(m[k] - max_margin);
                denom += p[k];
            }
            for (std::size_t k = 0; k < num_classes_; ++k) {
                p[k] /= denom;
            }
        }

        for (std::size_t k = 0; k < num_classes_; ++k) {
            if (config_.cancel != nullptr) {
                config_.cancel->poll();
            }
            for (std::size_t i = 0; i < n; ++i) {
                const double p = probabilities[i * num_classes_ + k];
                gradients[i] = static_cast<float>(p - (labels[i] == k ? 1.0 : 0.0));
                hessians[i] = static_cast<float>(std::max(p * (1.0 - p), 1e-6));
            }

            Tree tree;
            tree.nodes.push_back(TreeNode{});
            std::vector<NodeBuildState> stack;
            {
                NodeBuildState root;
                root.samples.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    root.samples[i] = static_cast<std::uint32_t>(i);
                }
                stack.push_back(std::move(root));
            }

            while (!stack.empty()) {
                if (config_.cancel != nullptr) {
                    config_.cancel->poll();
                }
                NodeBuildState state = std::move(stack.back());
                stack.pop_back();

                double g_total = 0.0;
                double h_total = 0.0;
                for (const auto i : state.samples) {
                    g_total += gradients[i];
                    h_total += hessians[i];
                }

                SplitCandidate best;
                if (state.depth < config_.max_depth && state.samples.size() >= 2) {
                    // One pass over the node's samples fills every slot; each
                    // slot gets its terms in ascending sample order.
                    std::fill(hist.begin(), hist.end(), 0.0);
                    for (const auto i : state.samples) {
                        const v2d gh = {static_cast<double>(gradients[i]),
                                        static_cast<double>(hessians[i])};
                        const std::uint32_t* row = slots.data() + i * active;
                        for (std::size_t a = 0; a < active; ++a) {
                            double* cell = hist.data() + 2 * std::size_t{row[a]};
                            store(cell, load(cell) + gh);
                        }
                    }
                    const double parent_obj = leaf_objective(g_total, h_total, config_.lambda);
                    for (std::size_t a = 0; a < active; ++a) {
                        const auto& af = bins.active[a];
                        const auto& edges = bins.edges[af.feature];
                        const double* cell = hist.data() + 2 * std::size_t{af.offset};
                        double g_left = 0.0;
                        double h_left = 0.0;
                        for (std::size_t b = af.first_bin; b < edges.size(); ++b, cell += 2) {
                            g_left += cell[0];
                            h_left += cell[1];
                            const double h_right = h_total - h_left;
                            if (h_left < config_.min_child_weight ||
                                h_right < config_.min_child_weight) {
                                continue;
                            }
                            const double g_right = g_total - g_left;
                            const double gain =
                                0.5 * (leaf_objective(g_left, h_left, config_.lambda) +
                                       leaf_objective(g_right, h_right, config_.lambda) -
                                       parent_obj) -
                                config_.gamma;
                            if (gain > best.gain) {
                                best.gain = gain;
                                best.active = a;
                                best.bin = static_cast<std::uint32_t>(b);
                                best.threshold = edges[b];
                            }
                        }
                    }
                }

                const auto node_index = static_cast<std::size_t>(state.node_index);
                if (best.gain <= 0.0) {
                    tree.nodes[node_index].feature = -1;
                    tree.nodes[node_index].value = static_cast<float>(
                        -config_.learning_rate * g_total / (h_total + config_.lambda));
                    continue;
                }

                NodeBuildState left_state;
                NodeBuildState right_state;
                left_state.depth = right_state.depth = state.depth + 1;
                const auto& split = bins.active[best.active];
                const std::uint32_t last_left_slot = split.offset + best.bin - split.first_bin;
                for (const auto i : state.samples) {
                    if (slots[i * active + best.active] <= last_left_slot) {
                        left_state.samples.push_back(i);
                    } else {
                        right_state.samples.push_back(i);
                    }
                }

                // Append children first: push_back may reallocate, so the
                // parent node is written through a fresh index afterwards.
                const auto left_index = static_cast<int>(tree.nodes.size());
                tree.nodes.push_back(TreeNode{});
                const auto right_index = static_cast<int>(tree.nodes.size());
                tree.nodes.push_back(TreeNode{});

                TreeNode& node = tree.nodes[node_index];
                node.feature = static_cast<int>(split.feature);
                // upper_bound semantics: bin b covers values <= edges[b]; the
                // left child takes bins [0, best.bin], i.e. x <= threshold.
                // Tree::predict tests `x < threshold`, so nudge the stored
                // threshold to the next representable float.
                node.threshold =
                    std::nextafter(best.threshold, std::numeric_limits<float>::infinity());
                node.left = left_index;
                node.right = right_index;
                left_state.node_index = left_index;
                right_state.node_index = right_index;
                stack.push_back(std::move(left_state));
                stack.push_back(std::move(right_state));
            }

            // Update margins with the freshly grown tree.
            for (std::size_t i = 0; i < n; ++i) {
                margins[i * num_classes_ + k] +=
                    static_cast<double>(tree.predict(features[i]));
            }
            trees_.push_back(std::move(tree));
        }
    }
}

std::vector<double> GbtClassifier::predict_proba(std::span<const float> features) const
{
    if (features.size() != num_features_) {
        throw std::invalid_argument("GbtClassifier::predict_proba: feature size mismatch");
    }
    std::vector<double> margins(num_classes_, 0.0);
    for (std::size_t t = 0; t < trees_.size(); ++t) {
        margins[t % num_classes_] += static_cast<double>(trees_[t].predict(features));
    }
    double max_margin = margins[0];
    for (const double m : margins) {
        max_margin = std::max(max_margin, m);
    }
    double denom = 0.0;
    for (auto& m : margins) {
        m = std::exp(m - max_margin);
        denom += m;
    }
    for (auto& m : margins) {
        m /= denom;
    }
    return margins;
}

std::size_t GbtClassifier::predict(std::span<const float> features) const
{
    const auto proba = predict_proba(features);
    return static_cast<std::size_t>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::vector<std::size_t> GbtClassifier::predict_batch(
    const std::vector<std::vector<float>>& features) const
{
    std::vector<std::size_t> predictions;
    predictions.reserve(features.size());
    for (const auto& row : features) {
        predictions.push_back(predict(row));
    }
    return predictions;
}

double GbtClassifier::average_tree_depth() const
{
    if (trees_.empty()) {
        return 0.0;
    }
    double total = 0.0;
    for (const auto& tree : trees_) {
        total += tree.depth();
    }
    return total / static_cast<double>(trees_.size());
}

std::size_t GbtClassifier::tree_count() const noexcept
{
    return trees_.size();
}

} // namespace fptc::gbt
