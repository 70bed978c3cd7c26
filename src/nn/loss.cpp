#include "fptc/nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fptc::nn {

LossResult cross_entropy(const Tensor& logits, std::span<const std::size_t> labels)
{
    if (logits.rank() != 2) {
        throw std::invalid_argument("cross_entropy: logits must be [N, K]");
    }
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    if (labels.size() != batch) {
        throw std::invalid_argument("cross_entropy: label count mismatch");
    }

    LossResult result;
    result.grad = Tensor(logits.shape());
    const auto x = logits.data();
    auto g = result.grad.data();
    double total_loss = 0.0;
    const auto inv_batch = 1.0f / static_cast<float>(batch);

    for (std::size_t n = 0; n < batch; ++n) {
        const float* row = x.data() + n * classes;
        float* grad_row = g.data() + n * classes;
        const std::size_t label = labels[n];
        if (label >= classes) {
            throw std::out_of_range("cross_entropy: label out of range");
        }
        // Numerically stable log-softmax.
        float max_logit = row[0];
        for (std::size_t k = 1; k < classes; ++k) {
            max_logit = std::max(max_logit, row[k]);
        }
        double denom = 0.0;
        for (std::size_t k = 0; k < classes; ++k) {
            denom += std::exp(static_cast<double>(row[k] - max_logit));
        }
        const double log_denom = std::log(denom);
        total_loss += -(static_cast<double>(row[label] - max_logit) - log_denom);
        for (std::size_t k = 0; k < classes; ++k) {
            const double softmax =
                std::exp(static_cast<double>(row[k] - max_logit)) / denom;
            grad_row[k] = (static_cast<float>(softmax) - (k == label ? 1.0f : 0.0f)) * inv_batch;
        }
    }
    result.loss = total_loss / static_cast<double>(batch);
    return result;
}

std::vector<std::size_t> argmax_rows(const Tensor& logits)
{
    if (logits.rank() != 2) {
        throw std::invalid_argument("argmax_rows: expected [N, K]");
    }
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    std::vector<std::size_t> predictions(batch, 0);
    const auto x = logits.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* row = x.data() + n * classes;
        std::size_t best = 0;
        for (std::size_t k = 1; k < classes; ++k) {
            if (row[k] > row[best]) {
                best = k;
            }
        }
        predictions[n] = best;
    }
    return predictions;
}

namespace {

/// L2-normalize every row; returns norms for the gradient pass.
void normalize_rows(const Tensor& input, Tensor& normalized, std::vector<double>& norms)
{
    const std::size_t rows = input.dim(0);
    const std::size_t dim = input.dim(1);
    normalized = input;
    norms.assign(rows, 0.0);
    auto z = normalized.data();
    for (std::size_t r = 0; r < rows; ++r) {
        float* row = z.data() + r * dim;
        double norm_sq = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            norm_sq += static_cast<double>(row[d]) * static_cast<double>(row[d]);
        }
        const double norm = std::sqrt(std::max(norm_sq, 1e-24));
        norms[r] = norm;
        const auto inv = static_cast<float>(1.0 / norm);
        for (std::size_t d = 0; d < dim; ++d) {
            row[d] *= inv;
        }
    }
}

/// Cosine similarity matrix of row-normalized embeddings.
[[nodiscard]] std::vector<double> similarity_matrix(const Tensor& z)
{
    const std::size_t rows = z.dim(0);
    const std::size_t dim = z.dim(1);
    std::vector<double> sim(rows * rows, 0.0);
    const auto data = z.data();
    for (std::size_t i = 0; i < rows; ++i) {
        const float* zi = data.data() + i * dim;
        for (std::size_t j = i + 1; j < rows; ++j) {
            const float* zj = data.data() + j * dim;
            double dot = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
                dot += static_cast<double>(zi[d]) * static_cast<double>(zj[d]);
            }
            sim[i * rows + j] = dot;
            sim[j * rows + i] = dot;
        }
    }
    return sim;
}

} // namespace

LossResult nt_xent(const Tensor& projections, double temperature)
{
    if (projections.rank() != 2 || projections.dim(0) % 2 != 0 || projections.dim(0) < 4) {
        throw std::invalid_argument("nt_xent: expected [2B, D] with B >= 2");
    }
    if (!(temperature > 0.0)) {
        throw std::invalid_argument("nt_xent: temperature must be positive");
    }
    // NT-Xent is SupCon with one positive per anchor: views are interleaved
    // pairs, so rows 2i and 2i+1 share label i.  With one positive, SupCon's
    // "-1 + p" and its "x 1.0" give NT-Xent's bits exactly.
    std::vector<std::size_t> pair_labels(projections.dim(0));
    for (std::size_t row = 0; row < pair_labels.size(); ++row) {
        pair_labels[row] = row / 2;
    }
    return sup_con(projections, pair_labels, temperature);
}

LossResult sup_con(const Tensor& projections, std::span<const std::size_t> labels,
                   double temperature)
{
    if (projections.rank() != 2 || projections.dim(0) < 2) {
        throw std::invalid_argument("sup_con: expected [N >= 2, D]");
    }
    if (labels.size() != projections.dim(0)) {
        throw std::invalid_argument("sup_con: label count mismatch");
    }
    if (!(temperature > 0.0)) {
        throw std::invalid_argument("sup_con: temperature must be positive");
    }
    const std::size_t rows = projections.dim(0);
    const std::size_t dim = projections.dim(1);

    Tensor z;
    std::vector<double> norms;
    normalize_rows(projections, z, norms);
    const auto sim = similarity_matrix(z);

    // dL/ds accumulation, where s_ij = cos(z_i, z_j) / temperature, over the
    // multi-positive objective.
    std::vector<double> grad_s(rows * rows, 0.0);
    double total_loss = 0.0;
    std::size_t active_anchors = 0;
    std::vector<std::size_t> positives;
    for (std::size_t i = 0; i < rows; ++i) {
        positives.clear();
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i && labels[j] == labels[i]) {
                positives.push_back(j);
            }
        }
        if (positives.empty()) {
            continue; // anchor with no positive: skipped (SupCon convention)
        }
        ++active_anchors;
        double max_s = -1e30;
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i) {
                max_s = std::max(max_s, sim[i * rows + j] / temperature);
            }
        }
        double denom = 0.0;
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i) {
                denom += std::exp(sim[i * rows + j] / temperature - max_s);
            }
        }
        const double inv_positives = 1.0 / static_cast<double>(positives.size());
        for (const auto p : positives) {
            const double s_pos = sim[i * rows + p] / temperature;
            total_loss += -(s_pos - max_s - std::log(denom)) * inv_positives;
            grad_s[i * rows + p] -= inv_positives;
        }
        // Softmax pull: each positive term contributes the same softmax
        // distribution over all non-anchor rows, so it enters once.
        for (std::size_t j = 0; j < rows; ++j) {
            if (j == i) {
                continue;
            }
            const double softmax = std::exp(sim[i * rows + j] / temperature - max_s) / denom;
            grad_s[i * rows + j] += softmax;
        }
    }
    if (active_anchors == 0) {
        LossResult empty;
        empty.grad = Tensor(projections.shape());
        return empty;
    }
    const double inv_anchors = 1.0 / static_cast<double>(active_anchors);
    for (auto& g : grad_s) {
        g *= inv_anchors;
    }

    // dL/dz_i = sum_j (G_ij + G_ji) z_j / temperature.
    Tensor grad_z({rows, dim});
    {
        const auto z_data = z.data();
        auto gz = grad_z.data();
        for (std::size_t i = 0; i < rows; ++i) {
            float* gz_row = gz.data() + i * dim;
            for (std::size_t j = 0; j < rows; ++j) {
                if (j == i) {
                    continue;
                }
                const double coeff = (grad_s[i * rows + j] + grad_s[j * rows + i]) / temperature;
                if (coeff == 0.0) {
                    continue;
                }
                const float* z_row = z_data.data() + j * dim;
                for (std::size_t d = 0; d < dim; ++d) {
                    gz_row[d] += static_cast<float>(coeff * static_cast<double>(z_row[d]));
                }
            }
        }
    }

    // Backprop through row normalization: de = (dz - (z . dz) z) / ||e||.
    LossResult result;
    result.loss = total_loss * inv_anchors;
    result.grad = Tensor(projections.shape());
    {
        const auto z_data = z.data();
        const auto gz = grad_z.data();
        auto ge = result.grad.data();
        for (std::size_t i = 0; i < rows; ++i) {
            const float* z_row = z_data.data() + i * dim;
            const float* gz_row = gz.data() + i * dim;
            float* ge_row = ge.data() + i * dim;
            double dot = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
                dot += static_cast<double>(z_row[d]) * static_cast<double>(gz_row[d]);
            }
            const double inv_norm = 1.0 / norms[i];
            for (std::size_t d = 0; d < dim; ++d) {
                ge_row[d] = static_cast<float>(
                    (static_cast<double>(gz_row[d]) - dot * static_cast<double>(z_row[d])) * inv_norm);
            }
        }
    }
    return result;
}

double contrastive_top_k_accuracy(const Tensor& projections, std::size_t k)
{
    if (projections.rank() != 2 || projections.dim(0) % 2 != 0 || projections.dim(0) < 2) {
        throw std::invalid_argument("contrastive_top_k_accuracy: expected [2B, D]");
    }
    const std::size_t rows = projections.dim(0);

    Tensor z;
    std::vector<double> norms;
    normalize_rows(projections, z, norms);
    const auto sim = similarity_matrix(z);

    std::size_t hits = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t positive = i ^ 1;
        const double positive_sim = sim[i * rows + positive];
        std::size_t strictly_better = 0;
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i && j != positive && sim[i * rows + j] > positive_sim) {
                ++strictly_better;
            }
        }
        if (strictly_better < k) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(rows);
}

} // namespace fptc::nn
