// perfbench: the repository benchmark.
//
//   perfbench --workload serve_cnn|serve_gbt --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every workload runs the same parts in one process:
//   set-up       UCDAVIS19 generation, the serve tiers (trained for
//                serve_cnn), the replay stream and the closed-loop corpus —
//                done three times, setup_s is the median;
//   jobs         three blocks of (Table-4 cell, Table-5 cell, Table-3 cell,
//                two replays of the stream through StreamingClassifier);
//   closed loop  one client calling the serving tier, in chunks of
//                --seconds / 13 before every job and after the last, so its
//                samples span the whole run.
// The workloads differ in the serve section (see serving.hpp).  With
// --trace 0 the run prints every end-to-end metric; with --trace 1 it runs
// the traced variant and prints every per-layer metric, and writes the
// spans to DIR/trace-<workload>-<seed>.json.  The last stdout line is the
// JSON result; the run exits non-zero when any correctness check fails.
#include "campaign.hpp"
#include "host.hpp"
#include "serving.hpp"
#include "stats.hpp"
#include "timed_layer.hpp"
#include "trace.hpp"

#include "fptc/util/membudget.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace perfbench;
namespace core = fptc::core;

constexpr int kSetups = 3;
/// The timed run's jobs: three identical blocks of (sup, simclr, gbt,
/// replay).  Each cell reports the mean of its three passes: the host's
/// speed drifts from pass to pass, and over the same runs a mean spread
/// less than a median.  events_per_s is the median of the replays, two per
/// block, so that a replay that meets a host stall does not move it.
enum class Job { sup, simclr, gbt, replay };
constexpr std::array<Job, 4> kBlock = {Job::sup, Job::simclr, Job::gbt, Job::replay};
constexpr int kBlocks = 3;
constexpr int kReplaysPerBlock = 2;
/// The serve tiers must beat 5-class chance (20%) by a wide margin.
constexpr double kMinServeAcc = 60.0;
/// The paper's data-shift claim: human accuracy lags script accuracy.
constexpr double kMinHumanLag = 15.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 8.0;
    bool trace = false;
    std::string out_dir = ".";
};

Options parse(int argc, char** argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            options.trace = value == "1";
        } else if (flag == "--out") {
            options.out_dir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload) {
        throw std::invalid_argument("--workload is required");
    }
    return options;
}

/// Checks and failure accounting shared by both modes.
struct Verdict {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(bool ok, const std::string& what)
    {
        if (!ok) {
            correct = false;
            std::cout << "perfbench: CHECK FAILED: " << what << '\n';
        }
    }

    void count_cell(const CellResult& cell)
    {
        ++attempted;
        failed += cell.degraded ? 1 : 0;
        check(!cell.degraded, "every campaign cell completes without degrading");
    }

    void check_shift(const CampaignResult& campaign)
    {
        const CellResult& sup = campaign[CellKind::sup];
        check(sup.script_acc - sup.human_acc >= kMinHumanLag,
              "supervised human accuracy lags script by >= 15 points");
    }

    void count_replay(const ReplayResult& replay)
    {
        const auto& report = replay.report;
        attempted += report.flows_ingested + report.events_total;
        failed += report.flows_unknown + report.shed_total() + report.events_quarantined +
                  report.events_dropped_queue + report.events_dropped_mem +
                  report.events_dropped_slo;
        check(replay.accounted, "ingested == classified + unknown + sheds");
        check(replay.serve_acc >= kMinServeAcc, "serve accuracy far above 20% chance");
    }
};

struct Setup {
    std::optional<core::UcdavisData> data;
    std::optional<ServeSetup> serve;
    std::size_t budget_baseline = 0;  ///< MemBudget in_use() before the serve objects

    /// Tear the serve section down; every byte it charged must come back.
    void release_serve(Verdict& verdict)
    {
        serve.reset();
        verdict.check(fptc::util::mem_budget().in_use() == budget_baseline,
                      "MemBudget in_use() returns to its baseline after the replay");
    }
};

void build_setup(Setup& setup, const ServeWorkload& workload, const CampaignSeeds& seeds,
                 std::uint64_t seed, SpanRecorder* recorder)
{
    setup.serve.reset();
    setup.data.reset();
    {
        const ScopedSpan span(recorder,
                              recorder == nullptr ? 0 : recorder->intern("trafficgen.ucdavis"));
        setup.data = core::load_ucdavis(0.2, seeds.data);
    }
    setup.budget_baseline = fptc::util::mem_budget().in_use();
    setup.serve = build_serve(workload, seed, recorder);
}

void print_cells(const char* label, const CampaignResult& campaign)
{
    for (const CellKind kind : kCells) {
        const CellResult& cell = campaign[kind];
        std::cout << "perfbench: " << label << " cell " << cell_name(kind) << " " << cell.wall_s
                  << " s, script " << cell.script_acc << " %, human " << cell.human_acc
                  << " %, " << cell.retries << " divergence rollbacks\n";
    }
}

/// Per-layer metrics of the traced run (units in the README table).
void add_per_layer(MetricSet& metrics, const SpanRecorder& recorder, const Tally& tally,
                   const ReplayResult& replay, const ServeWorkload& workload,
                   double overhead_pct, double uncovered_pct)
{
    const auto totals = recorder.totals_by_name();
    const auto total_ns = [&](const std::string& name) {
        const auto found = totals.find(name);
        return found == totals.end() ? 0.0 : static_cast<double>(found->second.total_ns);
    };
    const auto calls = [&](const std::string& name) {
        const auto found = totals.find(name);
        return found == totals.end() ? 0.0 : static_cast<double>(found->second.count);
    };
    const auto count = [&](const std::string& key) {
        const auto found = tally.find(key);
        return found == tally.end() ? 0.0 : found->second;
    };
    const auto per = [](double value, double n) { return n > 0.0 ? value / n : 0.0; };
    const auto mean_ns = [&](const std::string& name) { return per(total_ns(name), calls(name)); };

    const double events = count("stream_events");
    metrics.add("trafficgen.ucdavis_s", total_ns("trafficgen.ucdavis") / 1e9, "s");
    metrics.add("trafficgen.stream_build_s", mean_ns("trafficgen.stream_build") / 1e9, "s");
    metrics.add("trafficgen.stream_next_ns", per(total_ns("trafficgen.stream_next"), events), "ns");
    metrics.add("serve.flow_table.add_ns", per(total_ns("serve.flow_table.add"), events), "ns");
    metrics.add("serve.flow_table.pop_ready_ns",
                per(total_ns("serve.flow_table.pop_ready"), events), "ns");
    metrics.add("serve.queue.push_pop_ns", per(total_ns("serve.queue.push_pop"), events), "ns");
    const auto& report = replay.report;
    metrics.add("serve.ingest_wait_us", replay.ingest_wait_us, "us");
    metrics.add("serve.ready_wait_us", replay.ready_wait_us, "us");
    metrics.add("serve.backend_us_per_flow", replay.backend_us_per_flow, "us");
    metrics.add("serve.batches", static_cast<double>(replay.backend_calls), "count");
    const double batch_size = static_cast<double>(serve_config(workload).batch_size);
    metrics.add("serve.batch_fill",
                per(static_cast<double>(report.flows_classified + report.flows_unknown +
                                        report.shed_deadline),
                    static_cast<double>(replay.backend_calls) * batch_size),
                "ratio");
    metrics.add("serve.sheds", static_cast<double>(report.shed_total()), "count");
    metrics.add("serve.events_dropped",
                static_cast<double>(report.events_dropped_queue + report.events_dropped_mem +
                                    report.events_dropped_slo + report.events_quarantined),
                "count");
    metrics.add("flowpic.rasterize_us",
                per(total_ns("flowpic.rasterize"), count("flows_rasterized")) / 1e3, "us");
    metrics.add("flowpic.rasterize_serve_us",
                per(total_ns("flowpic.rasterize_serve"), count("flows_rasterized_serve")) / 1e3,
                "us");
    metrics.add("augment.set_s", total_ns("augment.set") / 1e9, "s");
    metrics.add("augment.view_pair_us", mean_ns("augment.view_pair") / 1e3, "us");
    const double train_samples = count("nn.train.samples");
    const double infer_calls = calls("serve.classify16");
    for (const char* group : kLayerGroups) {
        const std::string train = std::string("nn.train.") + group;
        metrics.add(train + ".fwd_us", per(total_ns(train + ".fwd"), train_samples) / 1e3, "us");
        metrics.add(train + ".bwd_us", per(total_ns(train + ".bwd"), train_samples) / 1e3, "us");
    }
    for (const char* group : kLayerGroups) {
        const std::string infer = std::string("nn.infer.") + group + ".fwd";
        metrics.add(infer + "_us", per(total_ns(infer), infer_calls) / 1e3, "us");
    }
    metrics.add("nn.loss_us", mean_ns("nn.loss") / 1e3, "us");
    metrics.add("nn.ntxent_us", mean_ns("nn.ntxent") / 1e3, "us");
    metrics.add("nn.optimizer_step_us", mean_ns("nn.optimizer_step") / 1e3, "us");
    metrics.add("core.train_epoch_s", mean_ns("core.train_epoch") / 1e9, "s");
    metrics.add("core.evaluate_s", total_ns("core.evaluate") / 1e9, "s");
    metrics.add("core.pretrain_epoch_s", mean_ns("core.pretrain_epoch") / 1e9, "s");
    metrics.add("core.finetune_s", total_ns("core.finetune") / 1e9, "s");
    metrics.add("gbt.fit_s", total_ns("gbt.fit") / 1e9, "s");
    metrics.add("gbt.predict_us", mean_ns("gbt.predict") / 1e3, "us");
    metrics.add("util.membudget_peak_mb",
                static_cast<double>(fptc::util::mem_budget().peak_bytes()) / (1024.0 * 1024.0),
                "MB");
    metrics.add("trace.overhead_pct", overhead_pct, "%");
    metrics.add("trace.uncovered_pct", uncovered_pct, "%");
}

/// Share of the traced time under the root span `root_name` that no layer
/// span accounts for: the self time of the root and of its grouping spans
/// (cell.*, phase.*), over the root's duration less the untraced reference
/// runs (reference.*) it contains.
double uncovered_pct(const SpanRecorder& recorder, const std::string& root_name)
{
    const auto self = recorder.self_times();
    const auto& spans = recorder.spans();
    const auto& names = recorder.names();
    double traced_ns = 0.0;
    double uncovered_ns = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string& name = names[spans[i].name];
        const auto duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        if (name == root_name) {
            traced_ns += duration;
        } else if (name.rfind("reference.", 0) == 0) {
            traced_ns -= duration;
        }
        if (name == root_name || name.rfind("cell.", 0) == 0 || name.rfind("phase.", 0) == 0) {
            uncovered_ns += static_cast<double>(self[i]);
        }
    }
    return traced_ns > 0.0 ? 100.0 * uncovered_ns / traced_ns : 0.0;
}

bool same_accuracy(const CellResult& a, const CellResult& b)
{
    return a.script_acc == b.script_acc && a.human_acc == b.human_acc &&
           a.leftover_acc == b.leftover_acc && a.retries == b.retries;
}

/// One cell's passes reduced to one result: the mean wall time, and the
/// accuracies, which every pass must reproduce exactly (the cells are
/// deterministic in their seeds).
CellResult mean_cell(CellKind kind, const std::vector<CellResult>& runs, Verdict& verdict)
{
    CellResult cell = runs.front();
    double wall_s = 0.0;
    std::cout << "perfbench: cell " << cell_name(kind) << " passes";
    for (const CellResult& run : runs) {
        wall_s += run.wall_s;
        cell.degraded = cell.degraded || run.degraded;
        verdict.check(same_accuracy(run, runs.front()),
                      "every pass reproduces the cell's accuracies");
        std::cout << " " << run.wall_s;
    }
    std::cout << " s\n";
    cell.wall_s = wall_s / static_cast<double>(runs.size());
    return cell;
}

/// The timed run: kBlocks blocks of jobs, with a closed-loop chunk before
/// each job and after the last, so that every measurement samples the same
/// stretches of host time.
void timed_run(const Options& options, const ServeWorkload& workload, const CampaignSeeds& seeds,
               Setup& setup, double setup_s, MetricSet& metrics, Verdict& verdict)
{
    ServeSetup& serve = *setup.serve;
    ClosedLoop loop(serve.serving_backend(workload), serve.corpus);
    const double chunk_s = options.seconds / static_cast<double>(kBlocks * kBlock.size() + 1);
    std::array<std::vector<CellResult>, kCells.size()> cell_runs;
    std::vector<ReplayResult> replays;
    for (int block = 0; block < kBlocks; ++block) {
        for (const Job job : kBlock) {
            loop.run_for(chunk_s);
            if (job == Job::replay) {
                for (int r = 0; r < kReplaysPerBlock; ++r) {
                    replays.push_back(replay(serve, workload, nullptr));
                    verdict.count_replay(replays.back());
                }
                continue;
            }
            const auto kind = static_cast<CellKind>(static_cast<int>(job));
            cell_runs[static_cast<int>(kind)].push_back(run_cell(kind, *setup.data, seeds));
            verdict.count_cell(cell_runs[static_cast<int>(kind)].back());
        }
    }
    loop.run_for(chunk_s);
    loop.finish();

    CampaignResult campaign;
    for (const CellKind kind : kCells) {
        campaign[kind] = mean_cell(kind, cell_runs[static_cast<int>(kind)], verdict);
    }
    print_cells("mean", campaign);
    verdict.check_shift(campaign);
    std::vector<double> events_per_s;
    for (const ReplayResult& replayed : replays) {
        events_per_s.push_back(static_cast<double>(replayed.report.events_total) /
                               replayed.wall_s);
        verdict.check(replayed.serve_acc == replays.front().serve_acc,
                      "every replay of the stream labels the same flows correctly");
        std::cout << "perfbench: replay " << replayed.report.events_total << " events in "
                  << replayed.wall_s << " s, " << replayed.report.batches << " batches, "
                  << replayed.report.flows_classified << " classified, "
                  << replayed.report.shed_total() << " shed, "
                  << replayed.report.events_dropped_queue << " events dropped at the queue\n";
    }
    verdict.attempted += loop.flows_attempted();
    verdict.failed += loop.flows_failed();
    verdict.check(loop.flows_failed() == 0, "every closed-loop classify call succeeds");
    std::cout << "perfbench: closed loop " << loop.batch_ms().size() << " batch-16 samples ("
              << samples_beyond(loop.batch_ms().size(), 0.99) << " beyond p99), "
              << loop.single_ms().size() << " batch-1 samples, " << loop.correct_pct()
              << " % correct; batch-16 p50 " << median(loop.batch_ms()) << " ms, p90 "
              << quantile(loop.batch_ms(), 0.90) << " ms, p95 "
              << quantile(loop.batch_ms(), 0.95) << " ms, p99 "
              << quantile(loop.batch_ms(), 0.99) << " ms; batch-1 p50 "
              << median(loop.single_ms()) << " ms\n";
    setup.release_serve(verdict);

    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (const CellKind kind : kCells) {
        metrics.add(std::string(cell_name(kind)) + "_cell_s", campaign[kind].wall_s, "s");
    }
    for (const CellKind kind : kCells) {
        metrics.add(std::string(cell_name(kind)) + "_human_acc", campaign[kind].human_acc, "%");
    }
    metrics.add("events_per_s", median(events_per_s), "1/s");
    metrics.add("serve_acc", replays.front().serve_acc, "%");
    // p90, not p50: a virtual machine's vCPU can run in a fast and a slow
    // mode, each for seconds at a time, so the per-call latencies are
    // bimodal.  The median jumps between the modes with the share of slow
    // time in a run; p90 stays in the slow mode once a tenth of it is slow.
    metrics.add("classify_ms_p90", reportable_quantile(loop.batch_ms(), 0.90).value(), "ms");
    metrics.add("classify1_ms_p90", reportable_quantile(loop.single_ms(), 0.90).value(), "ms");
}

int run(const Options& options, std::uint64_t process_start_ns)
{
    const HostSample host_start = sample_host();
    const ServeWorkload workload = serve_workload(options.workload);
    const CampaignSeeds& seeds = kCampaignSeeds;
    MetricSet metrics;
    Verdict verdict;
    Setup setup;

    if (!options.trace) {
        std::vector<double> setup_s;
        for (int k = 0; k < kSetups; ++k) {
            const std::uint64_t start = k == 0 ? process_start_ns : now_ns();
            build_setup(setup, workload, seeds, options.seed, nullptr);
            setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
        }
        timed_run(options, workload, seeds, setup, median(setup_s), metrics, verdict);
    } else {
        SpanRecorder recorder;
        Tally tally;
        {
            const ScopedSpan span(&recorder, recorder.intern("phase.setup"));
            build_setup(setup, workload, seeds, options.seed, &recorder);
        }
        CampaignResult reference;
        CampaignResult traced;
        ReplayResult replayed;
        {
            const ScopedSpan root(&recorder, recorder.intern("run"));
            // Each cell runs untraced through the library's runner (the
            // reference, as in the timed run), then traced, back to back.
            for (const CellKind kind : kCells) {
                {
                    const ScopedSpan span(&recorder, recorder.intern(std::string("reference.") +
                                                                     cell_name(kind)));
                    reference[kind] = run_cell(kind, *setup.data, seeds);
                }
                traced[kind] = run_cell_traced(kind, *setup.data, seeds, recorder, tally);
            }
            replayed = replay(*setup.serve, workload, &recorder);
            trace_serve_layers(workload, options.seed, *setup.serve, recorder, tally);
        }
        setup.release_serve(verdict);
        print_cells("runner", reference);
        print_cells("traced", traced);
        for (const CellResult& cell : traced.cells) {
            verdict.count_cell(cell);
        }
        verdict.check_shift(traced);
        verdict.count_replay(replayed);
        for (const CellKind kind : kCells) {
            verdict.check(same_accuracy(traced[kind], reference[kind]),
                          "traced recomposition reproduces the runners' accuracies exactly");
        }
        const auto cells_s = [](const CampaignResult& c) {
            double total = 0.0;
            for (const CellResult& cell : c.cells) {
                total += cell.wall_s;
            }
            return total;
        };
        const double traced_s = cells_s(traced) + tally["overhead.traced_ns"] / 1e9;
        const double untraced_s = cells_s(reference) + tally["overhead.untraced_ns"] / 1e9;
        add_per_layer(metrics, recorder, tally, replayed, workload,
                      100.0 * (traced_s / untraced_s - 1.0), uncovered_pct(recorder, "run"));
        const std::string path =
            options.out_dir + "/trace-" + options.workload + "-" + std::to_string(options.seed) +
            ".json";
        std::ofstream trace_file(path);
        trace_file << recorder.chrome_json();
        verdict.check(static_cast<bool>(trace_file), "the trace file is written");
        std::cout << "perfbench: " << recorder.spans().size() << " spans written to " << path
                  << '\n';
    }

    std::cout << "perfbench: host " << host_record(host_start, sample_host()) << '\n';
    std::cout << metrics.result_line(verdict.correct, verdict.attempted, verdict.failed)
              << std::endl;
    return verdict.correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    const std::uint64_t process_start_ns = now_ns();
    try {
        return run(parse(argc, argv), process_start_ns);
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << '\n';
        return 2;
    }
}
