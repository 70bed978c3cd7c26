#include "serving.hpp"

#include "stats.hpp"
#include "timed_layer.hpp"

#include "fptc/flowpic/flowpic.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/queue.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/telemetry.hpp"

#include <stdexcept>

namespace perfbench {

namespace serve = fptc::serve;
namespace util = fptc::util;

namespace {

constexpr std::size_t kCorpusFlows = 960;  ///< 60 distinct 16-flow batches
/// Seed of the serve tiers' training flows.  The served model is a fixed
/// artifact, like a deployed one; --seed moves the traffic it serves.
constexpr std::uint64_t kModelSeed = 1;
constexpr std::size_t kTrainFlowsPerClass = 40;
constexpr int kCnnEpochs = 6;

util::Histogram& stage_histogram(serve::FrecStage stage)
{
    return util::metrics().histogram(serve::frec_stage_metric_name(stage));
}

/// Drive a FlowTable the way the assembler does and keep the flows whose
/// window closed (plus the rest at the end): ReadyFlows with stream-absolute
/// timestamps, as the classifier stage receives them.
std::vector<serve::ReadyFlow> assemble_corpus(const ServeWorkload& workload, std::uint64_t seed)
{
    serve::StreamConfig config = stream_config(workload, seed);
    config.flows = kCorpusFlows;
    serve::InterleavedStream stream(config);
    const serve::ServeConfig serve = serve_config(workload);
    serve::FlowTable table(serve.mem_mb << 20, serve.window_seconds);
    std::vector<serve::ReadyFlow> corpus;
    const auto keep = [&](std::vector<serve::ReadyFlow> flows) {
        for (auto& ready : flows) {
            corpus.push_back(std::move(ready));
        }
    };
    while (auto event = stream.next()) {
        (void)table.add_packet(*event);
        keep(table.pop_ready(event->timestamp));
    }
    keep(table.flush_all());
    if (corpus.size() < serve.batch_size) {
        throw std::runtime_error("closed-loop corpus assembled too few flows");
    }
    return corpus;
}

} // namespace

ServeWorkload serve_workload(const std::string& name)
{
    if (name == "serve_cnn") {
        return {.gbt_only = false, .stream_flows = 3000, .arrival_window_s = 30.0};
    }
    if (name == "serve_gbt") {
        // Every flow starts within 5 s, so all 6000 are open at once.  That
        // keeps the assembler slower than the driver, and the ingest queue
        // holds a backlog for the whole replay.  Spread over 30 s, the
        // assembler kept pace now and then; the queue then ran near empty,
        // every push woke the assembler, and that replay took up to twice
        // as long (1.5-3.7 s for one stream, against 1.65-1.9 s here).
        return {.gbt_only = true, .stream_flows = 6000, .arrival_window_s = 5.0};
    }
    throw std::invalid_argument("unknown serve workload '" + name + "'");
}

serve::ServeConfig serve_config(const ServeWorkload& workload)
{
    serve::ServeConfig config;  // library defaults; no environment knobs
    config.gbt_only = workload.gbt_only;
    // The flow table may hold 128 MB (library default 64): with all 6000
    // serve_gbt flows open at once it peaks near 64.5 MB, and at a 64 MB
    // cap four of six seeds evicted 57-147 flows.
    config.mem_mb = 128;
    // The ready queue holds every flow of the stream (library default 64),
    // so the classifier's backpressure never reaches the assembler.
    config.ready_depth = workload.stream_flows;
    return config;
}

serve::StreamConfig stream_config(const ServeWorkload& workload, std::uint64_t seed)
{
    return {.flows = workload.stream_flows,
            .num_classes = serve_config(workload).num_classes,
            .arrival_window = workload.arrival_window_s,
            .seed = seed,
            .human_shift = false,
            .drift = {}};
}

serve::Backend& ServeSetup::serving_backend(const ServeWorkload& workload) const
{
    if (workload.gbt_only) {
        return *backends.fallback;
    }
    return *backends.full;
}

ServeSetup build_serve(const ServeWorkload& workload, std::uint64_t seed, SpanRecorder* recorder)
{
    const auto name = [&](const char* span) {
        return recorder == nullptr ? 0 : recorder->intern(span);
    };
    const serve::ServeConfig config = serve_config(workload);
    ServeSetup setup;
    {
        const ScopedSpan span(recorder, name("serve.make_backends"));
        setup.backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                              config.num_classes, kModelSeed,
                                              kTrainFlowsPerClass,
                                              workload.gbt_only ? 0 : kCnnEpochs);
    }
    {
        const ScopedSpan span(recorder, name("trafficgen.stream_build"));
        setup.stream = std::make_unique<serve::InterleavedStream>(stream_config(workload, seed));
    }
    {
        const ScopedSpan span(recorder, name("serve.corpus"));
        setup.corpus = assemble_corpus(workload, util::mix_seed(seed, 0xC0));
    }
    return setup;
}

ReplayResult replay(ServeSetup& setup, const ServeWorkload& workload, SpanRecorder* recorder)
{
    util::Histogram& ingest_wait = stage_histogram(serve::FrecStage::ingest_wait);
    util::Histogram& ready_wait = stage_histogram(serve::FrecStage::ready_wait);
    util::Histogram& backend = stage_histogram(serve::FrecStage::backend_compute);
    const HistogramMark ingest_before = mark(ingest_wait);
    const HistogramMark ready_before = mark(ready_wait);
    const HistogramMark backend_before = mark(backend);

    ReplayResult result;
    {
        serve::InterleavedStream stream = *setup.stream;
        // The ingest queue holds the whole stream (library default 4096
        // events).  The driver outruns the assembler, so a bounded queue
        // stays full, and the driver drops an event whenever the assembler
        // takes nothing for 20 ms.  On a virtual machine a vCPU stall of
        // that length comes now and then, so replays of one stream dropped
        // 0-3 events at random.  With room for every event nothing is
        // dropped, and the replay is still a saturating closed loop.
        serve::ServeConfig config = serve_config(workload);
        config.queue_depth = stream.base_events();
        serve::StreamingClassifier service(config, *setup.backends.full,
                                           *setup.backends.reduced, *setup.backends.fallback);
        const ScopedSpan span(recorder, recorder == nullptr ? 0 : recorder->intern("serve.replay"));
        const std::uint64_t start = now_ns();
        result.report = service.run(stream);
        result.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    }
    const serve::ServeReport& report = result.report;
    result.accounted = report.accounted();
    result.serve_acc = report.flows_classified == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(report.flows_correct) /
                                 static_cast<double>(report.flows_classified);

    const HistogramDelta ingest_delta = delta(ingest_before, mark(ingest_wait));
    const HistogramDelta ready_delta = delta(ready_before, mark(ready_wait));
    const HistogramDelta backend_delta = delta(backend_before, mark(backend));
    result.ingest_wait_us = ingest_delta.mean() / 1e3;
    result.ready_wait_us = ready_delta.mean() / 1e3;
    result.backend_calls = backend_delta.count;
    const std::uint64_t backend_flows =
        report.flows_classified + report.flows_unknown + report.shed_deadline;
    result.backend_us_per_flow =
        backend_flows == 0 ? 0.0
                           : static_cast<double>(backend_delta.sum) / 1e3 /
                                 static_cast<double>(backend_flows);
    return result;
}

ClosedLoop::ClosedLoop(serve::Backend& backend, const std::vector<serve::ReadyFlow>& corpus)
    : backend_(backend), corpus_(corpus), batch_(serve::ServeConfig{}.batch_size)
{
    if (corpus_.size() < batch_) {
        throw std::invalid_argument("closed loop needs at least one full batch of flows");
    }
}

void ClosedLoop::call(std::span<const serve::ReadyFlow> flows, std::vector<double>& samples)
{
    const util::CancelToken token;
    attempted_ += flows.size();
    const std::uint64_t start = now_ns();
    try {
        const auto scored = backend_.classify_scored(flows, token);
        samples.push_back(static_cast<double>(now_ns() - start) / 1e6);
        if (scored.size() != flows.size()) {
            failed_ += flows.size();
            return;
        }
        for (std::size_t i = 0; i < flows.size(); ++i) {
            correct_ += scored[i].label == flows[i].label ? 1 : 0;
        }
    } catch (const std::exception&) {
        failed_ += flows.size();
    }
}

void ClosedLoop::round()
{
    const std::size_t batches = corpus_.size() / batch_;
    const std::span<const serve::ReadyFlow> flows(corpus_.data() + (rounds_ % batches) * batch_,
                                                  batch_);
    call(flows, batch_ms_);
    call(flows.subspan(rounds_ % batch_, 1), single_ms_);
    ++rounds_;
}

void ClosedLoop::run_for(double seconds)
{
    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    do {
        round();
    } while (now_ns() - start < budget);
}

void ClosedLoop::finish()
{
    while (batch_ms_.size() < min_samples_for(0.99)) {
        round();
    }
}

double ClosedLoop::correct_pct() const noexcept
{
    const std::uint64_t scored = attempted_ - failed_;
    return scored == 0 ? 0.0
                       : 100.0 * static_cast<double>(correct_) / static_cast<double>(scored);
}

void trace_serve_layers(const ServeWorkload& workload, std::uint64_t seed, ServeSetup& setup,
                        SpanRecorder& recorder, Tally& tally)
{
    const serve::ServeConfig config = serve_config(workload);

    // trafficgen: the generator alone, drained into a reserved buffer.
    std::vector<serve::PacketEvent> events;
    {
        const ScopedSpan build(&recorder, recorder.intern("trafficgen.stream_build"));
        serve::InterleavedStream stream(stream_config(workload, seed));
        events.reserve(stream.base_events());
        const ScopedSpan drain(&recorder, recorder.intern("trafficgen.stream_next"));
        while (auto event = stream.next()) {
            events.push_back(*event);
        }
    }
    tally["stream_events"] = static_cast<double>(events.size());

    // FlowTable on one thread, per chunk of events: add, then close windows.
    constexpr std::size_t kChunk = 256;
    {
        const ScopedSpan span(&recorder, recorder.intern("serve.flow_table"));
        const std::uint32_t add_name = recorder.intern("serve.flow_table.add");
        const std::uint32_t pop_name = recorder.intern("serve.flow_table.pop_ready");
        serve::FlowTable table(config.mem_mb << 20, config.window_seconds);
        for (std::size_t begin = 0; begin < events.size(); begin += kChunk) {
            const std::size_t end = std::min(begin + kChunk, events.size());
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = begin; i < end; ++i) {
                (void)table.add_packet(events[i]);
            }
            const std::uint64_t t1 = now_ns();
            const auto closed = table.pop_ready(events[end - 1].timestamp);
            const std::uint64_t t2 = now_ns();
            recorder.add_closed(add_name, t0, t1);
            recorder.add_closed(pop_name, t1, t2);
        }
        (void)table.flush_all();
    }

    // The ingest queue's push/pop pair, uncontended.
    {
        const ScopedSpan span(&recorder, recorder.intern("serve.queue.push_pop"));
        serve::BoundedQueue<serve::PacketEvent> queue(config.queue_depth);
        std::vector<serve::PacketEvent> drained;
        drained.reserve(kChunk);
        for (std::size_t begin = 0; begin < events.size(); begin += kChunk) {
            const std::size_t end = std::min(begin + kChunk, events.size());
            for (std::size_t i = begin; i < end; ++i) {
                if (!queue.push_wait(events[i], std::chrono::milliseconds(20))) {
                    throw std::runtime_error("queue refused an event with room to spare");
                }
            }
            drained.clear();
            (void)queue.drain(drained, kChunk, std::chrono::milliseconds(0));
        }
    }
    events.clear();
    events.shrink_to_fit();

    // Closed loop, traced calls alternating with plain ones (the overhead).
    const std::size_t batch = config.batch_size;
    const std::size_t batches = setup.corpus.size() / batch;
    const util::CancelToken token;
    serve::Backend& plain = setup.serving_backend(workload);
    std::unique_ptr<serve::CnnBackend> timed;
    if (!workload.gbt_only) {
        LayerNamer namer;
        timed = std::make_unique<serve::CnnBackend>(
            setup.backends.full->resolution(),
            timed_view(setup.backends.full->network(), recorder, "nn.infer", namer));
        timed->set_calibration(setup.backends.full->calibration());
    }
    serve::Backend& traced = timed != nullptr ? *timed : plain;
    const fptc::flowpic::FlowpicConfig raster{
        .resolution = config.flowpic_dim, .duration = 15.0, .origin_at_first_packet = true};
    const ScopedSpan loop(&recorder, recorder.intern("phase.closed_loop"));
    const std::uint32_t call_name = recorder.intern("serve.classify16");
    const std::uint32_t reference_name = recorder.intern("reference.classify16");
    const std::uint32_t raster_name = recorder.intern("flowpic.rasterize_serve");
    constexpr std::size_t kRounds = 200;
    for (std::size_t round = 0; round < kRounds; ++round) {
        const std::span<const serve::ReadyFlow> flows(
            setup.corpus.data() + (round % batches) * batch, batch);
        std::uint64_t start = now_ns();
        {
            const ScopedSpan span(&recorder, call_name);
            (void)traced.classify_scored(flows, token);
        }
        tally["overhead.traced_ns"] += static_cast<double>(now_ns() - start);
        {
            const ScopedSpan span(&recorder, reference_name);
            start = now_ns();
            (void)plain.classify_scored(flows, token);
            tally["overhead.untraced_ns"] += static_cast<double>(now_ns() - start);
        }
        if (!workload.gbt_only) {
            const ScopedSpan span(&recorder, raster_name);
            for (const serve::ReadyFlow& ready : flows) {
                auto pic = fptc::flowpic::Flowpic::from_flow(ready.flow, raster);
                pic.normalize_max();
            }
            tally["flows_rasterized_serve"] += static_cast<double>(batch);
        }
    }
}

} // namespace perfbench
