// Ablation (paper Sec. 5 future work): SimCLR vs SupCon pre-training.
//
// "such a study should consider the variety of contrastive learning
// approaches including *supervised* contrastive learning methods such as
// SupCon [21]".  This bench runs the Table 5 protocol twice — once with the
// paper's self-supervised NT-Xent pre-training and once with SupCon's
// multi-positive supervised loss (labels available for the 100-sample pool)
// — and compares the 10-shot fine-tuning accuracy on script and human.
//
// Expected shape: SupCon's label-aware latent space matches or beats SimCLR,
// with the larger margin on the shifted human partition.
#include "fptc/core/campaign.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/stats/descriptive.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/table.hpp"

#include <iostream>
#include <optional>
#include <vector>

int main()
{
    using namespace fptc;

    const auto scale = util::resolve_scale(5, 5, /*default_splits=*/2, /*default_seeds=*/1);
    const int finetune_seeds = scale.full ? 5 : 2;
    const auto data = core::load_ucdavis();

    std::cout << "=== Ablation: SimCLR (self-supervised) vs SupCon (supervised contrastive) ===\n"
              << "(" << scale.splits << " splits x " << scale.seeds << " pretrain seeds x "
              << finetune_seeds << " fine-tune seeds; 10 labeled samples/class fine-tune)\n\n";

    util::Table table("10-shot fine-tuning accuracy per pre-training objective (32x32)");
    table.set_header({"Pre-training", "script", "human", "top-5 contrastive acc"});

    // A run that keeps diverging past its retry budget is left out of its
    // cell, which is marked †N instead of failing the whole table.
    const auto expected = static_cast<std::size_t>(scale.splits * scale.seeds * finetune_seeds);
    std::size_t degraded = 0;
    const auto cell = [&](const std::vector<double>& scores) {
        const auto ci = stats::degraded_cell_ci(scores, expected);
        return util::format_degraded_mean_ci(ci.ci.mean, ci.ci.half_width, ci.ci.n, ci.missing);
    };

    for (const bool supervised : {false, true}) {
        std::vector<double> script_scores;
        std::vector<double> human_scores;
        double top5_total = 0.0;
        int pretrains = 0;

        core::SimClrOptions options; // paper pair: Change RTT + Time shift
        for (int split = 0; split < scale.splits; ++split) {
            for (int pre_seed = 0; pre_seed < scale.seeds; ++pre_seed) {
                for (int ft_seed = 0; ft_seed < finetune_seeds; ++ft_seed) {
                    const auto split_seed = 1000 + static_cast<std::uint64_t>(split);
                    const auto pretrain_seed = 70 + static_cast<std::uint64_t>(pre_seed);
                    const auto finetune_seed = 90 + static_cast<std::uint64_t>(ft_seed);
                    std::optional<core::SimClrRunResult> run;
                    try {
                        run = supervised ? core::run_ucdavis_supcon(data, split_seed,
                                                                    pretrain_seed,
                                                                    finetune_seed, options)
                                         : core::run_ucdavis_simclr(data, split_seed,
                                                                    pretrain_seed,
                                                                    finetune_seed, options);
                    } catch (const core::DivergenceError& e) {
                        ++degraded;
                        util::log_info(std::string("ablation_supcon: ") +
                                       (supervised ? "SupCon" : "SimCLR") + " split " +
                                       std::to_string(split) + " degraded: " + e.what());
                        continue;
                    }
                    script_scores.push_back(100.0 * run->script_accuracy());
                    human_scores.push_back(100.0 * run->human_accuracy());
                    top5_total += run->top5_accuracy;
                    ++pretrains;
                }
            }
            util::log_info(std::string("ablation_supcon: ") +
                           (supervised ? "SupCon" : "SimCLR") + " split " +
                           std::to_string(split) + " done");
        }

        table.add_row({supervised ? "SupCon" : "SimCLR (paper)", cell(script_scores),
                       cell(human_scores),
                       pretrains > 0 ? util::format_double(100.0 * top5_total / pretrains, 1)
                                     : "n/a"});
    }
    if (degraded > 0) {
        table.add_footnote("†N: N scheduled run(s) of that cell degraded; "
                           "mean over survivors only.");
    }

    std::cout << table.to_string() << '\n';
    std::cout << "reading guide: with labels available for the pre-training pool, SupCon's\n"
                 "latent space clusters classes explicitly; the comparison quantifies how\n"
                 "much the paper's self-supervised setting leaves on the table.\n";
    return 0;
}
