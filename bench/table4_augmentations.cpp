// Regenerates Table 4 (goal G1.1): "Comparing data augmentation functions in
// a supervised training" — 7 augmentation strategies x 3 flowpic resolutions
// (32, 64, 1500), each trained on 100 flows per class expanded by the
// augmentation, evaluated on the script / human / leftover test sets with
// mean accuracy ± 95% CI, plus the "mean diff" row against the Ref-Paper's
// values.
//
// Runtime notes: by default the campaign runs 32x32 and 64x64 with reduced
// splits/seeds; the 1500x1500 column (the paper's own 30-minutes-per-run
// bottleneck) is enabled with FPTC_FULL=1.  Results are also dumped as CSV
// to FPTC_ARTIFACTS_DIR when set.
//
// Campaign units run through CampaignExecutor (FPTC_JOBS workers, per-unit
// watchdog / retry / degradation); aggregation happens in submission order so
// stdout is bit-identical for any worker count.
#include "fptc/core/campaign.hpp"
#include "fptc/core/executor.hpp"
#include "fptc/stats/descriptive.hpp"
#include "fptc/util/csv.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/table.hpp"

#include <cstdlib>
#include <iostream>
#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace fptc;

// Ref-Paper (Horowicz et al.) Table 1-2 values at 32x32 for the mean-diff row.
const std::map<augment::AugmentationKind, std::pair<double, double>> kRefPaper32 = {
    {augment::AugmentationKind::none, {98.67, 92.40}},
    {augment::AugmentationKind::rotate, {98.60, 93.73}},
    {augment::AugmentationKind::horizontal_flip, {98.93, 94.67}},
    {augment::AugmentationKind::color_jitter, {96.73, 82.93}},
    {augment::AugmentationKind::packet_loss, {98.73, 90.93}},
    {augment::AugmentationKind::time_shift, {99.13, 92.80}},
    {augment::AugmentationKind::change_rtt, {99.40, 96.40}},
};

struct CellScores {
    std::vector<double> script;
    std::vector<double> human;
    std::vector<double> leftover;
    std::size_t expected = 0;  ///< units scheduled for this cell
};

struct UnitMeta {
    std::size_t resolution;
    augment::AugmentationKind augmentation;
    std::string aug_name;
    int split;
    int seed;
};

} // namespace

int main()
{
    using namespace fptc;

    // Paper scale: 5 splits x 3 seeds per (augmentation, resolution).
    const auto scale = util::resolve_scale(5, 3, /*default_splits=*/2, /*default_seeds=*/1);
    std::vector<std::size_t> resolutions = {32, 64};
    if (scale.full) {
        resolutions.push_back(1500);
    }

    // FPTC_SAMPLES scales the synthetic dataset (default 0.2) and
    // FPTC_PER_CLASS the paper's 100-per-class training split; the torture
    // harness shrinks both so the kill-point sweep stays inside its budget.
    const auto data = core::load_ucdavis(util::env_double("FPTC_SAMPLES").value_or(0.2));
    const auto per_class =
        static_cast<std::size_t>(util::env_int("FPTC_PER_CLASS").value_or(100));
    const char* artifacts_dir = std::getenv("FPTC_ARTIFACTS_DIR");
    util::CsvWriter csv({"augmentation", "resolution", "split", "seed", "script", "human",
                         "leftover", "epochs"});
    long total_retries = 0;
    long total_faults = 0;

    std::cout << "=== Table 4 (G1.1): data augmentations in supervised training ===\n"
              << "(" << scale.splits << " splits x " << scale.seeds
              << " seeds per cell; resolutions:";
    for (const auto r : resolutions) {
        std::cout << ' ' << r;
    }
    std::cout << (scale.full ? "" : "; set FPTC_FULL=1 for the 1500x1500 column") << ")\n\n";

    core::CampaignExecutor executor("table4");
    std::vector<UnitMeta> units;

    for (const auto resolution : resolutions) {
        for (const auto augmentation : augment::all_augmentations()) {
            core::SupervisedOptions options;
            options.flowpic.resolution = resolution;
            options.per_class = per_class;
            options.max_epochs = scale.max_epochs;
            // 64x64 costs ~4x per sample: halve the expansion factor at
            // default scale to keep the suite fast (paper factor: 10).
            options.augment_copies = scale.full ? 10 : (resolution >= 64 ? 2 : 3);
            // 64x64 and larger cost ~4x per run: halve the split count at
            // reduced scale to keep the default suite under budget.
            const int cell_splits =
                (!scale.full && resolution >= 64) ? std::max(1, scale.splits / 2) : scale.splits;
            const auto aug_name = std::string(augment::augmentation_name(augmentation));
            for (int split = 0; split < cell_splits; ++split) {
                for (int seed = 0; seed < scale.seeds; ++seed) {
                    const std::string key = "res=" + std::to_string(resolution) +
                                            "|aug=" + aug_name + "|split=" +
                                            std::to_string(split) + "|seed=" +
                                            std::to_string(seed);
                    units.push_back({resolution, augmentation, aug_name, split, seed});
                    // Admission-control footprint: training samples after
                    // augmentation expansion plus the evaluation sets.
                    core::FootprintEstimate footprint;
                    footprint.resolution = resolution;
                    footprint.samples = per_class * data.num_classes() *
                                        (1 + static_cast<std::size_t>(options.augment_copies));
                    footprint.eval_samples = data.script.size() + data.human.size() +
                                             options.leftover_cap;
                    footprint.batch = options.batch_size;
                    executor.submit(key, [&data, options, augmentation, split,
                                          seed](const core::UnitContext& ctx) {
                        auto unit_options = options;
                        unit_options.hooks.cancel = &ctx.cancel;
                        unit_options.batch_size = ctx.batch(options.batch_size);
                        const auto run = core::run_ucdavis_supervised(
                            data, augmentation, 1000 + static_cast<std::uint64_t>(split),
                            50 + static_cast<std::uint64_t>(seed), unit_options);
                        return std::map<std::string, std::string>{
                            {"script", util::field_from_double(100.0 * run.script_accuracy())},
                            {"human", util::field_from_double(100.0 * run.human_accuracy())},
                            {"leftover", util::field_from_double(100.0 * run.leftover_accuracy())},
                            {"epochs", std::to_string(run.epochs_run)},
                            {"retries", std::to_string(run.retries)},
                            {"faults", std::to_string(run.faults_detected)}};
                    }, core::estimate_unit_bytes(footprint));
                }
            }
        }
    }

    executor.run_all();

    // Ordered reduction: walk outcomes in submission order so the table, the
    // CSV artifact and the log lines are identical for every FPTC_JOBS.
    // cell_scores[resolution][augmentation]
    std::map<std::size_t, std::map<augment::AugmentationKind, CellScores>> cells;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto& meta = units[i];
        const auto& outcome = executor.outcome(i);
        auto& cell = cells[meta.resolution][meta.augmentation];
        ++cell.expected;
        if (!outcome.succeeded()) {
            continue;  // degraded/cancelled: the cell is marked, not averaged
        }
        const auto& fields = outcome.fields;
        cell.script.push_back(util::field_double(fields, "script"));
        cell.human.push_back(util::field_double(fields, "human"));
        cell.leftover.push_back(util::field_double(fields, "leftover"));
        total_retries += util::field_long(fields, "retries");
        total_faults += util::field_long(fields, "faults");
        csv.add_row({meta.aug_name, std::to_string(meta.resolution),
                     std::to_string(meta.split), std::to_string(meta.seed),
                     util::format_double(cell.script.back()),
                     util::format_double(cell.human.back()),
                     util::format_double(cell.leftover.back()),
                     std::to_string(util::field_long(fields, "epochs"))});
        util::log_info("table4: res " + std::to_string(meta.resolution) + " " + meta.aug_name +
                       " split " + std::to_string(meta.split) + " seed " +
                       std::to_string(meta.seed) + " -> script " +
                       util::format_double(cell.script.back()) + " human " +
                       util::format_double(cell.human.back()));
    }

    for (const auto test_set : {"script", "human", "leftover"}) {
        util::Table table(std::string("Test on ") + test_set +
                          " (mean accuracy ± 95% CI across splits x seeds)");
        std::vector<std::string> header = {"Augmentation"};
        for (const auto r : resolutions) {
            header.push_back(std::to_string(r) + "x" + std::to_string(r));
        }
        table.set_header(header);
        for (const auto augmentation : augment::all_augmentations()) {
            std::vector<std::string> row = {
                std::string(augment::augmentation_name(augmentation))};
            for (const auto r : resolutions) {
                const auto& cell = cells[r][augmentation];
                const auto& scores = std::string(test_set) == "script" ? cell.script
                                     : std::string(test_set) == "human" ? cell.human
                                                                        : cell.leftover;
                const auto ci = stats::degraded_cell_ci(scores, cell.expected);
                row.push_back(util::format_degraded_mean_ci(ci.ci.mean, ci.ci.half_width,
                                                            ci.ci.n, ci.missing));
            }
            table.add_row(row);
        }
        if (executor.degraded() > 0) {
            table.add_footnote("†N: N scheduled run(s) of that cell degraded; "
                               "mean over survivors only.");
        }
        std::cout << table.to_string() << '\n';
        if (artifacts_dir != nullptr) {
            // Durable (temp + fsync + rename) so a crashed campaign never
            // leaves a torn or empty table artifact behind.
            table.write_file(std::string(artifacts_dir) + "/table4_" + test_set + ".txt");
        }
    }

    // Mean diff vs the Ref-Paper at 32x32 (the paper reports -2.05 script,
    // -21.96 human at this resolution for its own reproduction).  Cells with
    // no surviving runs are excluded from the average.
    double diff_script = 0.0;
    double diff_human = 0.0;
    int diff_cells = 0;
    for (const auto& [augmentation, ref] : kRefPaper32) {
        const auto& cell = cells[32][augmentation];
        if (cell.script.empty()) {
            continue;
        }
        diff_script += stats::mean_ci(cell.script).mean - ref.first;
        diff_human += stats::mean_ci(cell.human).mean - ref.second;
        ++diff_cells;
    }
    if (diff_cells > 0) {
        diff_script /= static_cast<double>(diff_cells);
        diff_human /= static_cast<double>(diff_cells);
    }
    std::cout << "mean diff vs Ref-Paper at 32x32: script " << util::format_double(diff_script)
              << " (paper's own reproduction: -2.05), human " << util::format_double(diff_human)
              << " (paper: -21.96 — the data shift)\n";
    std::cout << "expected shape: small script deltas, ~20% human drop, leftover ≈ script.\n";

    std::cout << executor.summary() << '\n';
    util::log_info(executor.timing_summary());
    if (total_retries > 0 || total_faults > 0 || executor.retried_units() > 0 ||
        executor.degraded() > 0 || util::fault_injector().enabled()) {
        std::cout << "fault tolerance: " << total_faults << " divergent step(s) detected, "
                  << total_retries << " rollback retrie(s), " << executor.retried_units()
                  << " unit re-execution(s); injected: " << util::fault_injector().summary()
                  << '\n';
    }

    if (artifacts_dir != nullptr) {
        const std::string path = std::string(artifacts_dir) + "/table4_runs.csv";
        csv.write_file(path);
        std::cout << "per-run artifact written to " << path << '\n';
    }
    return 0;
}
