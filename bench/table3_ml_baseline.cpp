// Regenerates Table 3 (goal G0): "Baseline ML performance without
// augmentation in a supervised setting" — XGBoost-style gradient boosted
// trees fed either a flattened 32x32 flowpic (1,024 features) or the early
// packet time series (3 x 10 features), trained on 100 flows per class and
// tested on the script and human partitions.  Mean accuracy with 95% CI over
// (splits x seeds) experiments; the paper aggregates 15 (5 splits x 3
// seeds).  Also reports the average tree depth quoted in Sec. 4.1.2.
//
// Campaign units run through CampaignExecutor (FPTC_JOBS workers, per-unit
// watchdog / retry / degradation); GBT training polls the executor's cancel
// token so a stalled unit unwinds instead of ignoring its watchdog.
// Aggregation happens in submission order so stdout is bit-identical for any
// worker count.
#include "fptc/core/campaign.hpp"
#include "fptc/core/executor.hpp"
#include "fptc/flow/features.hpp"
#include "fptc/gbt/gbt.hpp"
#include "fptc/stats/descriptive.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/table.hpp"

#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace fptc;

enum class InputKind { flowpic, time_series };

/// Extract features for one flow according to the input representation.
std::vector<float> features_of(const flow::Flow& f, InputKind kind)
{
    if (kind == InputKind::flowpic) {
        flowpic::FlowpicConfig config;
        config.resolution = 32;
        return flowpic::Flowpic::from_flow(f, config).flattened();
    }
    const auto early = flow::early_time_series(f);
    return {early.begin(), early.end()};
}

/// One GBT experiment: draw the 100-per-class split, 80% per-seed subsample,
/// fit and score on script / human.  Self-contained so it can run as an
/// executor unit on any worker.
std::map<std::string, std::string> run_unit(const core::UcdavisData& data, InputKind kind,
                                            int split, int seed,
                                            const util::CancelToken& cancel)
{
    const auto selection = flow::fixed_per_class_split(data.pretraining, 100,
                                                       1000 + static_cast<std::uint64_t>(split));
    std::vector<std::vector<float>> train_x;
    std::vector<std::size_t> train_y;
    for (const auto index : selection.train) {
        train_x.push_back(features_of(data.pretraining.flows[index], kind));
        train_y.push_back(data.pretraining.flows[index].label);
    }

    // Per-seed 80/20 subsampling mirrors the paper's train/val splits and
    // injects the run-to-run variance behind the CIs.
    util::Rng rng(util::mix_seed(99, static_cast<std::uint64_t>(split),
                                 static_cast<std::uint64_t>(seed)));
    const auto picked = rng.sample_without_replacement(train_x.size(), train_x.size() * 8 / 10);
    std::vector<std::vector<float>> seed_x;
    std::vector<std::size_t> seed_y;
    seed_x.reserve(picked.size());
    for (const auto i : picked) {
        seed_x.push_back(train_x[i]);
        seed_y.push_back(train_y[i]);
    }

    gbt::GbtConfig config; // paper defaults: 100 estimators, depth 6
    config.cancel = &cancel;
    gbt::GbtClassifier model(config, data.num_classes());
    model.fit(seed_x, seed_y);

    const auto score = [&](const flow::Dataset& test) {
        stats::ConfusionMatrix confusion(data.num_classes());
        for (const auto& f : test.flows) {
            confusion.add(f.label, model.predict(features_of(f, kind)));
        }
        return 100.0 * confusion.accuracy();
    };
    return {{"script", util::field_from_double(score(data.script))},
            {"human", util::field_from_double(score(data.human))},
            {"depth", util::field_from_double(model.average_tree_depth())}};
}

struct Cell {
    std::vector<double> script;
    std::vector<double> human;
    double depth_total = 0.0;
    std::size_t expected = 0;
};

} // namespace

int main()
{
    using namespace fptc;

    // Paper scale: 5 splits x 3 seeds = 15 experiments per input.
    const auto scale = util::resolve_scale(/*paper_splits=*/5, /*paper_seeds=*/3,
                                           /*default_splits=*/5, /*default_seeds=*/3);
    const auto data = core::load_ucdavis();

    std::cout << "=== Table 3 (G0): baseline ML performance without augmentation ===\n"
              << "(" << scale.splits << " splits x " << scale.seeds << " seeds per input; "
              << "paper reference: CNN LeNet5 script 98.67 / human 92.40,\n"
              << " XGBoost flowpic 96.80±0.37 / 73.65±2.14, time series 94.53±0.56 / 66.91±1.40)\n\n";

    const std::vector<std::pair<InputKind, std::string>> kinds = {
        {InputKind::flowpic, "flowpic"}, {InputKind::time_series, "timeseries"}};

    core::CampaignExecutor executor("table3");
    std::vector<std::size_t> unit_cells;  ///< submission index -> kind index
    std::vector<Cell> cells(kinds.size());

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto kind = kinds[k].first;
        // Admission-control footprint: flattened feature matrix of the
        // training split (dominant for the flowpic input) plus test sets.
        core::FootprintEstimate footprint;
        footprint.resolution = kind == InputKind::flowpic ? 32 : 6;
        footprint.samples = 100 * data.num_classes();
        footprint.eval_samples = data.script.size() + data.human.size();
        footprint.batch = 1;
        for (int split = 0; split < scale.splits; ++split) {
            for (int seed = 0; seed < scale.seeds; ++seed) {
                const std::string key = "input=" + kinds[k].second +
                                        "|split=" + std::to_string(split) +
                                        "|seed=" + std::to_string(seed);
                unit_cells.push_back(k);
                executor.submit(key, [&data, kind, split, seed](const core::UnitContext& ctx) {
                    return run_unit(data, kind, split, seed, ctx.cancel);
                }, core::estimate_unit_bytes(footprint));
            }
        }
    }

    executor.run_all();

    // Ordered reduction (submission order) keeps stdout bit-identical for
    // every FPTC_JOBS value.
    for (std::size_t i = 0; i < unit_cells.size(); ++i) {
        auto& cell = cells[unit_cells[i]];
        ++cell.expected;
        const auto& outcome = executor.outcome(i);
        if (!outcome.succeeded()) {
            continue;  // degraded/cancelled: the cell is marked, not averaged
        }
        cell.script.push_back(util::field_double(outcome.fields, "script"));
        cell.human.push_back(util::field_double(outcome.fields, "human"));
        cell.depth_total += util::field_double(outcome.fields, "depth");
        util::log_info("table3: " + kinds[unit_cells[i]].second + " unit " + std::to_string(i) +
                       " done");
    }

    util::Table table("(G0) Baseline ML performance without augmentation, supervised setting");
    table.set_header({"Input (size)", "Model", "Origin", "script", "human"});
    table.add_row({"flowpic (32x32)", "CNN LeNet5", "[paper ref]", "98.67", "92.40"});
    const std::vector<std::string> labels = {"flowpic (32x32)", "time series (3x10)"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto& cell = cells[k];
        const auto script_ci = stats::degraded_cell_ci(cell.script, cell.expected);
        const auto human_ci = stats::degraded_cell_ci(cell.human, cell.expected);
        table.add_row({labels[k], "XGBoost", "ours",
                       util::format_degraded_mean_ci(script_ci.ci.mean, script_ci.ci.half_width,
                                                     script_ci.ci.n, script_ci.missing),
                       util::format_degraded_mean_ci(human_ci.ci.mean, human_ci.ci.half_width,
                                                     human_ci.ci.n, human_ci.missing)});
    }
    table.add_footnote("Each ours row aggregates " + std::to_string(scale.splits * scale.seeds) +
                       " experiments (splits x seeds); 95% CI via Student t.");
    if (executor.degraded() > 0) {
        table.add_footnote("†N: N scheduled run(s) of that row degraded; "
                           "mean over survivors only.");
    }
    std::cout << table.to_string() << '\n';

    const auto avg_depth = [](const Cell& cell) {
        return cell.script.empty() ? 0.0
                                   : cell.depth_total / static_cast<double>(cell.script.size());
    };
    std::cout << "average tree depth: flowpic input "
              << util::format_double(avg_depth(cells[0]), 1) << ", time series input "
              << util::format_double(avg_depth(cells[1]), 1)
              << " (paper Sec. 4.1.2: 1.3 and 1.7 — very short trees)\n";
    std::cout << executor.summary() << '\n';
    util::log_info(executor.timing_summary());
    if (executor.retried_units() > 0 || executor.degraded() > 0 ||
        util::fault_injector().enabled()) {
        std::cout << "fault tolerance: " << executor.retried_units()
                  << " unit re-execution(s); injected: " << util::fault_injector().summary()
                  << '\n';
    }
    return 0;
}
