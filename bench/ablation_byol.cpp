// Ablation (paper Sec. 2.4 related work): SimCLR vs BYOL pre-training.
//
// "The closest related work to the Ref-Paper is [37], where the authors
// applied another off-the-shelf contrastive learning method (Bootstrap Your
// Own Latent - BYOL [12] which, unlike SimCLR, does not rely on negative
// samples) ... Overall, [37] shows comparable performance with respect to
// the Ref-Paper."  This bench verifies that observation on the flowpic
// input: both objectives pre-train the same encoder on the same view pairs
// and are fine-tuned identically with 10 labeled samples per class.
//
// Expected shape: BYOL within a few points of SimCLR on script — the
// "comparable performance" of [37].
#include "fptc/core/byol.hpp"
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

    std::cout << "=== Ablation: SimCLR (negatives) vs BYOL (no negatives) ===\n"
              << "(" << scale.splits << " splits x " << scale.seeds << " pretrain seeds x "
              << finetune_seeds << " fine-tune seeds; 10 labeled samples/class fine-tune)\n\n";

    util::Table table("10-shot fine-tuning accuracy per pre-training method (32x32)");
    table.set_header({"Pre-training", "script", "human"});

    // A run that keeps diverging past its retry budget is left out of its
    // cell, which is marked †N instead of failing the whole table.
    const auto expected = static_cast<std::size_t>(scale.splits * scale.seeds * finetune_seeds);
    std::size_t degraded = 0;
    const auto cell = [&](const std::vector<double>& scores) {
        const auto ci = stats::degraded_cell_ci(scores, expected);
        return util::format_degraded_mean_ci(ci.ci.mean, ci.ci.half_width, ci.ci.n, ci.missing);
    };

    for (const bool byol : {false, true}) {
        std::vector<double> script_scores;
        std::vector<double> human_scores;
        core::SimClrOptions options; // Change RTT + Time shift views
        for (int split = 0; split < scale.splits; ++split) {
            for (int pre_seed = 0; pre_seed < scale.seeds; ++pre_seed) {
                for (int ft_seed = 0; ft_seed < finetune_seeds; ++ft_seed) {
                    const auto split_seed = 1000 + static_cast<std::uint64_t>(split);
                    const auto pretrain_seed = 70 + static_cast<std::uint64_t>(pre_seed);
                    const auto finetune_seed = 90 + static_cast<std::uint64_t>(ft_seed);
                    std::optional<core::SimClrRunResult> run;
                    try {
                        run = byol ? core::run_ucdavis_byol(data, split_seed, pretrain_seed,
                                                            finetune_seed, options)
                                   : core::run_ucdavis_simclr(data, split_seed, pretrain_seed,
                                                              finetune_seed, options);
                    } catch (const core::DivergenceError& e) {
                        ++degraded;
                        util::log_info(std::string("ablation_byol: ") +
                                       (byol ? "BYOL" : "SimCLR") + " split " +
                                       std::to_string(split) + " degraded: " + e.what());
                        continue;
                    }
                    script_scores.push_back(100.0 * run->script_accuracy());
                    human_scores.push_back(100.0 * run->human_accuracy());
                }
            }
            util::log_info(std::string("ablation_byol: ") + (byol ? "BYOL" : "SimCLR") +
                           " split " + std::to_string(split) + " done");
        }
        table.add_row(
            {byol ? "BYOL [12]" : "SimCLR (paper)", cell(script_scores), cell(human_scores)});
    }
    if (degraded > 0) {
        table.add_footnote("†N: N scheduled run(s) of that cell degraded; "
                           "mean over survivors only.");
    }

    std::cout << table.to_string() << '\n';
    std::cout << "paper context: [37] reports BYOL on packet time series to be comparable to\n"
                 "the Ref-Paper's SimCLR-on-flowpic; this bench makes the comparison on the\n"
                 "*same* input representation and protocol.\n";
    return 0;
}
