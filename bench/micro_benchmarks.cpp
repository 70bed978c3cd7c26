// google-benchmark micro-benchmarks over the substrate layers: flowpic
// rasterization, augmentation throughput, CNN forward/backward, NT-Xent,
// and GBT training.  These quantify the per-experiment cost that drives the
// campaign-scale decisions documented in DESIGN.md.
//
// Besides the console table, every run writes BENCH_micro.json (to
// FPTC_ARTIFACTS_DIR when set, else the working directory) with name,
// ns/op, and bytes/op per run, the median ns/op per benchmark and the
// host's CPU count and load, so campaign tooling and the telemetry
// overhead gate (tests/run_telemetry.sh) can consume the numbers without
// scraping stdout.
#include "fptc/augment/augmentation.hpp"
#include "fptc/core/data.hpp"
#include "fptc/serve/backend.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/reload.hpp"
#include "fptc/flowpic/flowpic.hpp"
#include "fptc/gbt/gbt.hpp"
#include "fptc/nn/conv.hpp"
#include "fptc/nn/layers.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/isa.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/telemetry.hpp"

#include "gemm.hpp" // src/nn: BM_Gemm calls the kernel directly

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace fptc;

/// Attributes MemBudget-accounted allocations to a benchmark as a
/// bytes_per_op counter: delta of the accountant's monotonic reserved
/// total across the timing loop, divided by iterations.  Layers that do
/// not charge the budget report 0.
class AllocPerOp {
public:
    explicit AllocPerOp(benchmark::State& state)
        : state_(state), start_(util::mem_budget().reserved_total())
    {
    }

    ~AllocPerOp()
    {
        const std::uint64_t delta = util::mem_budget().reserved_total() - start_;
        const auto iterations = state_.iterations() > 0 ? state_.iterations() : 1;
        state_.counters["bytes_per_op"] =
            benchmark::Counter(static_cast<double>(delta) / static_cast<double>(iterations));
    }

    AllocPerOp(const AllocPerOp&) = delete;
    AllocPerOp& operator=(const AllocPerOp&) = delete;

private:
    benchmark::State& state_;
    std::uint64_t start_;
};

flow::Flow make_test_flow()
{
    util::Rng rng(7);
    return trafficgen::generate_flow(trafficgen::ucdavis19_profile(4, false), 4, rng);
}

void BM_FlowpicRasterize(benchmark::State& state)
{
    const auto flow = make_test_flow();
    flowpic::FlowpicConfig config;
    config.resolution = static_cast<std::size_t>(state.range(0));
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(flowpic::Flowpic::from_flow(flow, config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(flow.packets.size()));
}
BENCHMARK(BM_FlowpicRasterize)->Arg(32)->Arg(64)->Arg(1500);

void BM_Augmentation(benchmark::State& state)
{
    const auto flow = make_test_flow();
    const auto kind = static_cast<augment::AugmentationKind>(state.range(0));
    const auto augmentation = augment::make_augmentation(kind);
    flowpic::FlowpicConfig config;
    util::Rng rng(11);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(augmentation->augmented_flowpic(flow, config, rng));
    }
}
BENCHMARK(BM_Augmentation)
    ->Arg(static_cast<int>(augment::AugmentationKind::rotate))
    ->Arg(static_cast<int>(augment::AugmentationKind::color_jitter))
    ->Arg(static_cast<int>(augment::AugmentationKind::packet_loss))
    ->Arg(static_cast<int>(augment::AugmentationKind::change_rtt));

/// The nn and GBT kernels' instruction set for one benchmark, from its
/// argument `index`: 0 forces the x86-64 baseline (16-byte vectors), 1 runs
/// AVX2 (32-byte vectors), an error on a CPU without it.
class KernelIsa {
public:
    KernelIsa(benchmark::State& state, int index)
    {
        if (state.range(index) == 0) {
            util::force_baseline(true);
        } else if (util::selected_isa() != util::Isa::avx2) {
            state.SkipWithError("no AVX2 on this CPU");
        }
    }
    ~KernelIsa() { util::force_baseline(false); }

    KernelIsa(const KernelIsa&) = delete;
    KernelIsa& operator=(const KernelIsa&) = delete;
};

/// C[m×n] += A[m×k]·B[k×n] at a layer's shape: args (m, n, k, isa).
void BM_Gemm(benchmark::State& state)
{
    const KernelIsa isa(state, 3);
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto k = static_cast<std::size_t>(state.range(2));
    util::Rng rng(3);
    const auto a = nn::Tensor::randn({m, k}, rng);
    const auto b = nn::Tensor::randn({k, n}, rng);
    auto c = nn::Tensor::randn({m, n}, rng);
    for (auto _ : state) {
        nn::detail::gemm_acc(m, n, k, a.data().data(), k, b.data().data(), n, c.data().data(), n);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m * n * k));
}
// conv2 per sample (16 channels × 100 positions × 150 taps) and fc1
// forward at batch 16 and 32 (120 outputs × batch × 400 inputs).
BENCHMARK(BM_Gemm)
    ->Args({16, 100, 150, 0})->Args({16, 100, 150, 1})
    ->Args({120, 16, 400, 0})->Args({120, 16, 400, 1})
    ->Args({120, 32, 400, 0})->Args({120, 32, 400, 1});

/// One Conv2d layer at a LeNet shape: args (C_in, C_out, H = W, batch).
nn::Conv2d conv_for(const benchmark::State& state)
{
    return nn::Conv2d(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::size_t>(state.range(1)), 5, /*seed=*/1);
}

nn::Tensor conv_input(const benchmark::State& state, util::Rng& rng)
{
    const auto hw = static_cast<std::size_t>(state.range(2));
    return nn::Tensor::randn({static_cast<std::size_t>(state.range(3)),
                              static_cast<std::size_t>(state.range(0)), hw, hw},
                             rng, 0.5f);
}

void BM_Conv2dForward(benchmark::State& state)
{
    const KernelIsa isa(state, 4);
    auto layer = conv_for(state);
    util::Rng rng(3);
    const auto input = conv_input(state, rng);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.forward(input, false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(3));
}
// conv1 (1 -> 6 at 32x32) and conv2 (6 -> 16 at 14x14) at batch 16 and
// 32, each on both kernel ISAs (last arg).
BENCHMARK(BM_Conv2dForward)
    ->ArgsProduct({{1}, {6}, {32}, {16, 32}, {0, 1}})
    ->ArgsProduct({{6}, {16}, {14}, {16, 32}, {0, 1}});

/// Args (C_in, C_out, H = W, batch, isa).
void BM_Conv2dBackward(benchmark::State& state)
{
    const KernelIsa isa(state, 4);
    auto layer = conv_for(state);
    util::Rng rng(3);
    const auto input = conv_input(state, rng);
    const auto output = layer.forward(input, true);
    const auto grad_output = nn::Tensor::randn(output.shape(), rng);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.backward(grad_output));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(3));
}
// Dense randn gradients: every term is nonzero, which training never sees.
BENCHMARK(BM_Conv2dBackward)
    ->ArgsProduct({{1}, {6}, {32}, {16, 32}, {0, 1}})
    ->ArgsProduct({{6}, {16}, {14}, {16, 32}, {0, 1}});

/// Conv2d backward as training runs it: the output gradient comes back
/// through ReLU and MaxPool2d(2) from a dense gradient on the pooled map,
/// so at least 3 in 4 of its elements are exact zeros.  Args (C_in, C_out,
/// H = W, batch, input gradient, isa): conv1 computes no input gradient in
/// a LeNet-5, conv2 does.
void BM_Conv2dBackwardReluPool(benchmark::State& state)
{
    const KernelIsa isa(state, 5);
    auto layer = conv_for(state);
    layer.set_input_gradient(state.range(4) != 0);
    util::Rng rng(3);
    const auto input = conv_input(state, rng);
    nn::ReLU relu;
    nn::MaxPool2d pool(2);
    const auto pooled = pool.forward(relu.forward(layer.forward(input, true), true), true);
    const auto grad_output = relu.backward(pool.backward(nn::Tensor::randn(pooled.shape(), rng)));
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.backward(grad_output));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(3));
}
BENCHMARK(BM_Conv2dBackwardReluPool)
    ->ArgsProduct({{1}, {6}, {32}, {16, 32}, {0}, {0, 1}})
    ->ArgsProduct({{6}, {16}, {14}, {16, 32}, {1}, {0, 1}});

/// fc1 (400 -> 120); args (batch, isa).
void BM_LinearForward(benchmark::State& state)
{
    const KernelIsa isa(state, 1);
    nn::Linear layer(400, 120, /*seed=*/1);
    util::Rng rng(3);
    const auto input =
        nn::Tensor::randn({static_cast<std::size_t>(state.range(0)), 400}, rng, 0.5f);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.forward(input, false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LinearForward)->ArgsProduct({{16, 32}, {0, 1}});

/// MaxPool2d(2) forward on a ReLU'd conv output: args (C, H = W, batch,
/// isa); pool1 is 6 × 28 × 28, pool2 16 × 10 × 10.
void BM_MaxPool2dForward(benchmark::State& state)
{
    const KernelIsa isa(state, 3);
    const auto channels = static_cast<std::size_t>(state.range(0));
    const auto hw = static_cast<std::size_t>(state.range(1));
    const auto batch = static_cast<std::size_t>(state.range(2));
    util::Rng rng(3);
    nn::ReLU relu;
    const auto input = relu.forward(nn::Tensor::randn({batch, channels, hw, hw}, rng), false);
    nn::MaxPool2d pool(2);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pool.forward(input, false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(2));
}
BENCHMARK(BM_MaxPool2dForward)
    ->ArgsProduct({{6}, {28}, {16, 32}, {0, 1}})
    ->ArgsProduct({{16}, {10}, {16, 32}, {0, 1}});

void BM_LeNetForward(benchmark::State& state)
{
    nn::ModelConfig config;
    config.flowpic_dim = static_cast<std::size_t>(state.range(0));
    auto network = nn::make_supervised_network(config);
    const std::size_t dim = nn::effective_input_dim(config.flowpic_dim);
    util::Rng rng(3);
    const auto input = nn::Tensor::randn({32, 1, dim, dim}, rng, 0.5f);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(network.forward(input, false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_LeNetForward)->Arg(32)->Arg(64);

void BM_LeNetTrainStep(benchmark::State& state)
{
    nn::ModelConfig config;
    config.flowpic_dim = 32;
    auto network = nn::make_supervised_network(config);
    util::Rng rng(3);
    const auto input = nn::Tensor::randn({32, 1, 32, 32}, rng, 0.5f);
    std::vector<std::size_t> labels(32);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = i % 5;
    }
    AllocPerOp alloc(state);
    for (auto _ : state) {
        const auto logits = network.forward(input, true);
        const auto loss = nn::cross_entropy(logits, labels);
        network.zero_grad();
        benchmark::DoNotOptimize(network.backward(loss.grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_LeNetTrainStep);

/// One Adam step over a 32x32 LeNet-5's parameters (61,281 weights) with
/// gradients from one training batch; arg isa.
void BM_AdamStep(benchmark::State& state)
{
    const KernelIsa isa(state, 0);
    nn::ModelConfig config;
    config.flowpic_dim = 32;
    auto network = nn::make_supervised_network(config);
    util::Rng rng(3);
    const auto input = nn::Tensor::randn({32, 1, 32, 32}, rng, 0.5f);
    std::vector<std::size_t> labels(32);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = i % 5;
    }
    const auto logits = network.forward(input, true);
    (void)network.backward(nn::cross_entropy(logits, labels).grad);
    nn::Adam optimizer(network.parameters(), 1e-3);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        optimizer.step();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_AdamStep)->Arg(0)->Arg(1);

void BM_NtXent(benchmark::State& state)
{
    util::Rng rng(5);
    const auto projections =
        nn::Tensor::randn({static_cast<std::size_t>(state.range(0)), 30}, rng);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::nt_xent(projections, 0.07));
    }
}
BENCHMARK(BM_NtXent)->Arg(16)->Arg(64);

/// Args (width, isa).  Width 30 / 256: 200 dense Gaussian rows of that
/// width.  Width 1024: the campaign's Table-3 shape, 80 synthetic UCDAVIS19
/// flows per class as flattened 32x32 flowpics (400 x 1024, ~89% zeros).
void BM_GbtFit(benchmark::State& state)
{
    const KernelIsa isa(state, 1);
    util::Rng rng(9);
    const std::size_t d = static_cast<std::size_t>(state.range(0));
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    if (d == 1024) {
        flowpic::FlowpicConfig config;
        config.resolution = 32;
        for (std::size_t c = 0; c < 5; ++c) {
            const auto profile = trafficgen::ucdavis19_profile(c, false);
            for (const auto& f : trafficgen::generate_flows(profile, c, 80, rng)) {
                features.push_back(flowpic::Flowpic::from_flow(f, config).flattened());
                labels.push_back(c);
            }
        }
    } else {
        for (std::size_t i = 0; i < 200; ++i) {
            labels.push_back(i % 5);
            auto& row = features.emplace_back(d);
            for (auto& v : row) {
                v = static_cast<float>(rng.normal(static_cast<double>(labels[i]), 1.5));
            }
        }
    }
    gbt::GbtConfig config;
    config.num_rounds = 20;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        gbt::GbtClassifier model(config, 5);
        model.fit(features, labels);
        benchmark::DoNotOptimize(model.tree_count());
    }
}
BENCHMARK(BM_GbtFit)
    ->Args({30, 0})->Args({30, 1})
    ->Args({256, 0})->Args({256, 1})
    ->Args({1024, 0})->Args({1024, 1});

void BM_TrafficGeneration(benchmark::State& state)
{
    const auto profile =
        trafficgen::ucdavis19_profile(static_cast<std::size_t>(state.range(0)), false);
    util::Rng rng(13);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trafficgen::generate_flow(profile, 0, rng));
    }
}
BENCHMARK(BM_TrafficGeneration)->Arg(0)->Arg(4);

/// One serve-stage classify batch (rasterize + CNN forward for 16 flows)
/// through the full-tier backend at the given flowpic resolution — the
/// latency unit the streaming service's deadline and breaker act on.
void BM_ServeClassifyLatency(benchmark::State& state)
{
    const auto resolution = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kBatch = 16;
    auto backend = serve::CnnBackend::untrained(resolution, 5, 17);
    util::Rng rng(19);
    std::vector<serve::ReadyFlow> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        serve::ReadyFlow ready;
        ready.flow_id = i + 1;
        ready.label = static_cast<std::uint32_t>(i % 5);
        ready.flow = trafficgen::generate_flow(trafficgen::ucdavis19_profile(i % 5, false),
                                               i % 5, rng);
        batch.push_back(std::move(ready));
    }
    const util::CancelToken token;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(backend->classify(batch, token));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ServeClassifyLatency)->Arg(16)->Arg(32);

/// One golden-replay canary pass (reload.hpp): classify the fixed labeled
/// buffer — `range(0)` flows per class across 5 classes — through the
/// full-tier CNN and score it.  This is the pause the classifier thread
/// takes between batches when vetting a reload candidate, so it bounds how
/// large FPTC_SERVE_RELOAD_CANARY can be before canarying itself violates
/// the latency SLO.
void BM_ServeCanaryReplay(benchmark::State& state)
{
    const auto canary_flows = static_cast<std::size_t>(state.range(0));
    auto backend = serve::CnnBackend::untrained(32, 5, 17);
    serve::ReloadConfig config;
    config.path = "unused-canary-bench.ckpt";  // never read: only golden_accuracy runs
    config.canary_flows = canary_flows;
    const serve::ModelReloader reloader(config, backend.get());
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reloader.golden_accuracy(*backend));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(canary_flows * 5));
}
BENCHMARK(BM_ServeCanaryReplay)->Arg(4)->Arg(16);

/// Shared workload for the span-overhead pair: a short FNV-1a mixing loop,
/// heavy enough that timer noise does not dominate but small enough that a
/// non-zero-cost disabled span would register.  tests/run_telemetry.sh
/// compares the two benchmarks to gate disabled-path telemetry overhead.
std::uint64_t fnv_mix(std::uint64_t h)
{
    for (std::uint64_t i = 0; i < 64; ++i) {
        h = (h ^ i) * 1099511628211ULL;
    }
    return h;
}

void BM_SpanOverheadBaseline(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_SpanOverheadBaseline);

void BM_TelemetryDisabledSpan(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        FPTC_TRACE_SPAN("bench_noop");
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_TelemetryDisabledSpan);

/// The flight-recorder overhead pair, same fnv workload and same contract
/// as the span pair: with no recorder installed a frec_note call site is
/// one relaxed load + predicted branch, gated <= 2% (+2 ns slack) against
/// BM_SpanOverheadBaseline by tests/run_serve_torture.sh.
void BM_FlightRecDisabled(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, h, h);
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_FlightRecDisabled);

/// Enabled cost for context (not gated): one steady-clock read plus five
/// relaxed/release stores into a private-memory ring.
void BM_FlightRecEnabled(benchmark::State& state)
{
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 4096});
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, h, h);
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_FlightRecEnabled);

/// The host the numbers come from: CPU count and the 1-minute load average
/// before the first benchmark ran (-1 where /proc/loadavg is unreadable).
std::string host_json()
{
    double load1 = -1.0;
    if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
        if (std::fscanf(f, "%lf", &load1) != 1) {
            load1 = -1.0;
        }
        std::fclose(f);
    }
    char host[128];
    std::snprintf(host, sizeof host, "{\"nproc\": %u, \"load1\": %.2f}",
                  std::thread::hardware_concurrency(), load1);
    return host;
}

/// Console output as usual, plus a machine-readable capture of every
/// per-iteration run for BENCH_micro.json: the raw runs in `benchmarks`
/// (aggregate rows of --benchmark_repetitions are skipped), one median
/// ns/op per benchmark in `medians`, and the `host`.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
public:
    JsonCaptureReporter() : host_(host_json()) {}

    void ReportRuns(const std::vector<Run>& runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const auto& run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred ||
                run.iterations <= 0) {
                continue;
            }
            const double ns_per_op =
                run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
            double bytes_per_op = 0.0;
            const auto counter = run.counters.find("bytes_per_op");
            if (counter != run.counters.end()) {
                bytes_per_op = counter->second.value;
            }
            char row[256];
            std::snprintf(row, sizeof(row),
                          "    {\"name\": \"%s\", \"iterations\": %lld, "
                          "\"ns_per_op\": %.3f, \"bytes_per_op\": %.1f}",
                          run.benchmark_name().c_str(),
                          static_cast<long long>(run.iterations), ns_per_op, bytes_per_op);
            rows_.emplace_back(row);
            auto group = std::find_if(times_.begin(), times_.end(), [&](const auto& named) {
                return named.first == run.benchmark_name();
            });
            if (group == times_.end()) {
                group = times_.insert(group, {run.benchmark_name(), {}});
            }
            group->second.push_back(ns_per_op);
        }
    }

    [[nodiscard]] std::string json() const
    {
        std::string out = "{\n  \"host\": " + host_ + ",\n  \"benchmarks\": [\n";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out += rows_[i];
            out += i + 1 < rows_.size() ? ",\n" : "\n";
        }
        out += "  ],\n  \"medians\": [\n";
        for (std::size_t i = 0; i < times_.size(); ++i) {
            auto times = times_[i].second;
            std::sort(times.begin(), times.end());
            const std::size_t mid = times.size() / 2;
            const double median =
                times.size() % 2 == 1 ? times[mid] : 0.5 * (times[mid - 1] + times[mid]);
            char row[256];
            std::snprintf(row, sizeof(row),
                          "    {\"name\": \"%s\", \"repetitions\": %zu, \"ns_per_op\": %.3f}%s\n",
                          times_[i].first.c_str(), times.size(), median,
                          i + 1 < times_.size() ? "," : "");
            out += row;
        }
        out += "  ]\n}\n";
        return out;
    }

private:
    std::string host_;
    std::vector<std::string> rows_;
    /// ns/op of every raw run, per benchmark in first-run order.
    std::vector<std::pair<std::string, std::vector<double>>> times_;
};

} // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const char* artifacts_dir = std::getenv("FPTC_ARTIFACTS_DIR");
    const std::string path = (artifacts_dir != nullptr && *artifacts_dir != '\0')
                                 ? std::string(artifacts_dir) + "/BENCH_micro.json"
                                 : std::string("BENCH_micro.json");
    try {
        fptc::util::DurableFile::write_file(path, reporter.json());
    } catch (const std::exception& error) {
        std::fprintf(stderr, "[fptc] failed to write %s: %s\n", path.c_str(), error.what());
        return 1;
    }
    return 0;
}
