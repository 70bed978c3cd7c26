// The serve section: a seeded InterleavedStream replayed through
// serve::StreamingClassifier, then a closed-loop, one-client phase that
// calls the serving tier's Backend::classify_scored on fixed batches.
//
//   serve_cnn  both LeNet tiers trained during set-up; the classifier stage
//              (flowpic rasterize + CNN forward) is the bottleneck.
//   serve_gbt  the same pipeline pinned to the GBT tier (ServeConfig::
//              gbt_only) over a larger stream with thousands of concurrent
//              flows; the driver, the ingest queue, FlowTable and trafficgen
//              set the pace.
#pragma once

#include "campaign.hpp"
#include "trace.hpp"

#include "fptc/serve/backend.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/stream.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct ServeWorkload {
    bool gbt_only = false;         ///< serve with the GBT tier; the CNN tiers stay untrained
    std::size_t stream_flows = 0;  ///< flows in the replay stream
    double arrival_window_s = 0;   ///< flow start times ~ U[0, arrival_window_s)
};

/// The two serve workloads by name; throws std::invalid_argument otherwise.
[[nodiscard]] ServeWorkload serve_workload(const std::string& name);

[[nodiscard]] fptc::serve::ServeConfig serve_config(const ServeWorkload& workload);
[[nodiscard]] fptc::serve::StreamConfig stream_config(const ServeWorkload& workload,
                                                      std::uint64_t seed);

/// Everything built during set-up.
struct ServeSetup {
    fptc::serve::BackendBundle backends;
    /// The replay stream as built; every replay consumes a fresh copy of it.
    std::unique_ptr<fptc::serve::InterleavedStream> stream;
    std::vector<fptc::serve::ReadyFlow> corpus;  ///< closed-loop flows, stream-absolute times

    /// The tier the workload serves (full CNN, or the GBT fallback).
    [[nodiscard]] fptc::serve::Backend& serving_backend(const ServeWorkload& workload) const;
};

[[nodiscard]] ServeSetup build_serve(const ServeWorkload& workload, std::uint64_t seed,
                                     SpanRecorder* recorder);

struct ReplayResult {
    fptc::serve::ServeReport report;
    double wall_s = 0.0;          ///< wall time of run(), our clock
    double serve_acc = 0.0;       ///< % of classified flows labelled correctly
    bool accounted = false;       ///< ingested == classified + unknown + sheds
    double ingest_wait_us = 0.0;  ///< registry deltas over this replay only
    double ready_wait_us = 0.0;
    double backend_us_per_flow = 0.0;
    std::uint64_t backend_calls = 0;
};

[[nodiscard]] ReplayResult replay(ServeSetup& setup, const ServeWorkload& workload,
                                  SpanRecorder* recorder);

/// Closed loop, one client: each round calls classify_scored once on a
/// 16-flow batch and once on a single flow, cycling through the corpus, so
/// both sample sets cover the same stretches of time.  The benchmark runs it
/// in chunks between the other jobs, spreading the samples over the whole
/// measured phase; finish() tops up until the batch-16 p99 leaves
/// kMinBeyond samples above it.
class ClosedLoop {
public:
    ClosedLoop(fptc::serve::Backend& backend, const std::vector<fptc::serve::ReadyFlow>& corpus);

    void run_for(double seconds);
    void finish();

    [[nodiscard]] const std::vector<double>& batch_ms() const noexcept { return batch_ms_; }
    [[nodiscard]] const std::vector<double>& single_ms() const noexcept { return single_ms_; }
    [[nodiscard]] std::uint64_t flows_attempted() const noexcept { return attempted_; }
    /// Flows whose call threw or returned the wrong number of scores.
    [[nodiscard]] std::uint64_t flows_failed() const noexcept { return failed_; }
    [[nodiscard]] double correct_pct() const noexcept;

private:
    void round();
    void call(std::span<const fptc::serve::ReadyFlow> flows, std::vector<double>& samples);

    fptc::serve::Backend& backend_;
    const std::vector<fptc::serve::ReadyFlow>& corpus_;
    std::size_t batch_;
    std::size_t rounds_ = 0;
    std::vector<double> batch_ms_;
    std::vector<double> single_ms_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t correct_ = 0;
};

/// Per-layer serve measurements of the traced run.
void trace_serve_layers(const ServeWorkload& workload, std::uint64_t seed, ServeSetup& setup,
                        SpanRecorder& recorder, Tally& tally);

} // namespace perfbench
