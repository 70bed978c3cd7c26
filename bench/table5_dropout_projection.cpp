// Regenerates Table 5 (goal G2): "Impact of dropout and SimCLR projection
// layer dimension on fine-tuning (32x32 only, with 10 samples for
// fine-tuning training)" — the 2x2 ablation {projection 30, 84} x
// {with/without dropout}, each cell aggregating (splits x SimCLR seeds x
// fine-tune seeds) experiments.
//
// Paper values: proj 30 w/ dropout 91.81±0.38 script / 72.12±1.37 human;
// removing dropout helps human (74.69±1.13); enlarging the projection to 84
// gives no significant gain.  Expected shape here: script in the low 90s,
// human in the 70s, no-dropout >= with-dropout on human.
//
// Campaign units run through CampaignExecutor (FPTC_JOBS workers, per-unit
// watchdog / retry / degradation); aggregation happens in submission order so
// stdout is bit-identical for any worker count.
#include "fptc/core/campaign.hpp"
#include "fptc/core/executor.hpp"
#include "fptc/stats/descriptive.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/table.hpp"

#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

int main()
{
    using namespace fptc;

    // Paper: 125 experiments per cell (5 splits x 5 SimCLR seeds x 5
    // fine-tune seeds).  Default: 2 x 1 x 2 = 4 per cell.
    const auto scale = util::resolve_scale(5, 5, /*default_splits=*/2, /*default_seeds=*/1);
    const int finetune_seeds = scale.full ? 5 : 2;
    const auto data = core::load_ucdavis();
    long total_retries = 0;
    long total_faults = 0;

    std::cout << "=== Table 5 (G2): dropout & projection dimension vs fine-tuning ===\n"
              << "(" << scale.splits << " splits x " << scale.seeds << " SimCLR seeds x "
              << finetune_seeds << " fine-tune seeds per cell; 10 labeled samples/class)\n\n";

    util::Table table("Fine-tune accuracy (32x32, 10 samples per class)");
    table.set_header({"Proj. dim", "Dropout", "script", "human", "pretrain epochs (avg)"});

    struct UnitMeta {
        std::size_t cell;  ///< index into the 2x2 ablation grid
        std::size_t projection_dim;
        bool with_dropout;
        int split;
    };
    struct Cell {
        std::vector<double> script;
        std::vector<double> human;
        double epoch_total = 0.0;
        std::size_t expected = 0;
    };

    core::CampaignExecutor executor("table5");
    std::vector<UnitMeta> units;
    std::vector<Cell> cells(4);
    std::size_t cell_index = 0;

    for (const std::size_t projection_dim : {std::size_t{30}, std::size_t{84}}) {
        for (const bool with_dropout : {true, false}) {
            core::SimClrOptions options;
            options.projection_dim = projection_dim;
            options.with_dropout = with_dropout;

            for (int split = 0; split < scale.splits; ++split) {
                for (int simclr_seed = 0; simclr_seed < scale.seeds; ++simclr_seed) {
                    for (int ft_seed = 0; ft_seed < finetune_seeds; ++ft_seed) {
                        const std::string key =
                            "proj=" + std::to_string(projection_dim) +
                            "|dropout=" + (with_dropout ? "1" : "0") +
                            "|split=" + std::to_string(split) +
                            "|seed=" + std::to_string(simclr_seed) +
                            "|ft=" + std::to_string(ft_seed);
                        units.push_back({cell_index, projection_dim, with_dropout, split});
                        // Admission-control footprint: unlabeled pool (two
                        // augmented views per sample) plus the evaluation sets.
                        core::FootprintEstimate footprint;
                        footprint.resolution = options.flowpic.resolution;
                        footprint.samples = 2 * options.per_class * data.num_classes();
                        footprint.eval_samples = data.script.size() + data.human.size();
                        footprint.batch = 2 * options.batch_samples;
                        executor.submit(key, [&data, options, split, simclr_seed,
                                              ft_seed](const core::UnitContext& ctx) {
                            auto unit_options = options;
                            unit_options.hooks.cancel = &ctx.cancel;
                            unit_options.batch_samples = ctx.batch(options.batch_samples);
                            const auto run = core::run_ucdavis_simclr(
                                data, 1000 + static_cast<std::uint64_t>(split),
                                70 + static_cast<std::uint64_t>(simclr_seed),
                                90 + static_cast<std::uint64_t>(ft_seed), unit_options);
                            return std::map<std::string, std::string>{
                                {"script",
                                 util::field_from_double(100.0 * run.script_accuracy())},
                                {"human", util::field_from_double(100.0 * run.human_accuracy())},
                                {"epochs", std::to_string(run.pretrain_epochs)},
                                {"retries", std::to_string(run.retries)},
                                {"faults", std::to_string(run.faults_detected)}};
                        }, core::estimate_unit_bytes(footprint));
                    }
                }
            }
            ++cell_index;
        }
    }

    executor.run_all();

    // Ordered reduction (submission order) keeps stdout bit-identical for
    // every FPTC_JOBS value.
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto& meta = units[i];
        const auto& outcome = executor.outcome(i);
        auto& cell = cells[meta.cell];
        ++cell.expected;
        if (!outcome.succeeded()) {
            continue;  // degraded/cancelled: the cell is marked, not averaged
        }
        const auto& fields = outcome.fields;
        cell.script.push_back(util::field_double(fields, "script"));
        cell.human.push_back(util::field_double(fields, "human"));
        cell.epoch_total += static_cast<double>(util::field_long(fields, "epochs"));
        total_retries += util::field_long(fields, "retries");
        total_faults += util::field_long(fields, "faults");
        util::log_info("table5: proj " + std::to_string(meta.projection_dim) + " dropout " +
                       std::to_string(meta.with_dropout) + " split " +
                       std::to_string(meta.split) + " -> script " +
                       util::format_double(cell.script.back()) + " human " +
                       util::format_double(cell.human.back()));
    }

    cell_index = 0;
    for (const std::size_t projection_dim : {std::size_t{30}, std::size_t{84}}) {
        for (const bool with_dropout : {true, false}) {
            const auto& cell = cells[cell_index++];
            const auto script_ci = stats::degraded_cell_ci(cell.script, cell.expected);
            const auto human_ci = stats::degraded_cell_ci(cell.human, cell.expected);
            const auto survivors = cell.script.size();
            table.add_row({std::to_string(projection_dim), with_dropout ? "w/" : "w/o",
                           util::format_degraded_mean_ci(script_ci.ci.mean,
                                                         script_ci.ci.half_width,
                                                         script_ci.ci.n, script_ci.missing),
                           util::format_degraded_mean_ci(human_ci.ci.mean,
                                                         human_ci.ci.half_width, human_ci.ci.n,
                                                         human_ci.missing),
                           survivors > 0
                               ? util::format_double(cell.epoch_total /
                                                         static_cast<double>(survivors),
                                                     1)
                               : "n/a"});
        }
    }
    if (executor.degraded() > 0) {
        table.add_footnote("†N: N scheduled run(s) of that cell degraded; "
                           "mean over survivors only.");
    }

    std::cout << table.to_string() << '\n';
    std::cout << "paper reference (125 exps/cell): proj 30: 91.81±0.38 / 72.12±1.37 (w/),\n"
                 "92.18±0.31 / 74.69±1.13 (w/o); proj 84: 92.02±0.36 / 73.31±1.04 (w/),\n"
                 "92.54±0.33 / 74.35±1.38 (w/o).  Takeaways: dropout does not help (and hurts\n"
                 "human); a larger projection brings no significant gain.\n";
    std::cout << executor.summary() << '\n';
    util::log_info(executor.timing_summary());
    if (total_retries > 0 || total_faults > 0 || executor.retried_units() > 0 ||
        executor.degraded() > 0 || util::fault_injector().enabled()) {
        std::cout << "fault tolerance: " << total_faults << " divergent step(s) detected, "
                  << total_retries << " rollback retrie(s), " << executor.retried_units()
                  << " unit re-execution(s); injected: " << util::fault_injector().summary()
                  << '\n';
    }
    return 0;
}
