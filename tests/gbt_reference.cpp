// The helpers and the loop body below are the original GbtClassifier::fit
// code unchanged, less input validation, the MemBudget charge and the trace
// span; locals carry the original member names (config_, num_classes_,
// trees_) so they read verbatim.
#include "gbt_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace fptc::gbt::reference {

namespace {

/// Per-feature histogram bin edges (quantile-ish via sorted unique values).
struct BinMap {
    std::vector<std::vector<float>> edges; ///< edges[f] sorted ascending

    [[nodiscard]] std::uint16_t bin_of(std::size_t feature, float value) const
    {
        const auto& e = edges[feature];
        return static_cast<std::uint16_t>(
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
    }
    return bins;
}

struct SplitCandidate {
    double gain = 0.0;
    std::size_t feature = 0;
    std::uint16_t bin = 0; ///< go left when binned value <= bin
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

std::vector<Tree> fit(const GbtConfig& config_, std::size_t num_classes_,
                      const std::vector<std::vector<float>>& features,
                      const std::vector<std::size_t>& labels)
{
    const std::size_t n = features.size();
    const std::size_t num_features_ = features.front().size();
    const auto bins = build_bins(features, config_.num_bins);
    std::vector<Tree> trees_;
    std::vector<std::vector<std::uint16_t>> binned(num_features_,
                                                   std::vector<std::uint16_t>(n));
    std::size_t max_bins = 0;
    for (std::size_t f = 0; f < num_features_; ++f) {
        for (std::size_t i = 0; i < n; ++i) {
            binned[f][i] = bins.bin_of(f, features[i][f]);
        }
        max_bins = std::max(max_bins, bins.edges[f].size() + 1);
    }

    trees_.clear();
    trees_.reserve(static_cast<std::size_t>(config_.num_rounds) * num_classes_);

    // Raw margins per (sample, class), updated after every round.
    std::vector<double> margins(n * num_classes_, 0.0);
    std::vector<double> probabilities(n * num_classes_, 0.0);
    std::vector<float> gradients(n);
    std::vector<float> hessians(n);

    std::vector<double> hist_g(max_bins);
    std::vector<double> hist_h(max_bins);

    for (int round = 0; round < config_.num_rounds; ++round) {
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
                    const double parent_obj = leaf_objective(g_total, h_total, config_.lambda);
                    for (std::size_t f = 0; f < num_features_; ++f) {
                        const std::size_t bin_count = bins.edges[f].size() + 1;
                        if (bin_count < 2) {
                            continue;
                        }
                        std::fill(hist_g.begin(), hist_g.begin() + static_cast<std::ptrdiff_t>(bin_count), 0.0);
                        std::fill(hist_h.begin(), hist_h.begin() + static_cast<std::ptrdiff_t>(bin_count), 0.0);
                        const auto& column = binned[f];
                        for (const auto i : state.samples) {
                            hist_g[column[i]] += gradients[i];
                            hist_h[column[i]] += hessians[i];
                        }
                        double g_left = 0.0;
                        double h_left = 0.0;
                        for (std::size_t b = 0; b + 1 < bin_count; ++b) {
                            g_left += hist_g[b];
                            h_left += hist_h[b];
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
                                best.feature = f;
                                best.bin = static_cast<std::uint16_t>(b);
                                best.threshold = bins.edges[f][b];
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
                const auto& column = binned[best.feature];
                for (const auto i : state.samples) {
                    if (column[i] <= best.bin) {
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
                node.feature = static_cast<int>(best.feature);
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
    return trees_;
}

} // namespace fptc::gbt::reference
