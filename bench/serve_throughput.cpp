// Open-loop streaming-serve load generator — the repo's traffic-facing
// perf/robustness number.
//
// Drives an InterleavedStream (trafficgen-backed, deterministic per seed)
// through the StreamingClassifier at full speed, prints the service report,
// checks the robustness invariants the torture harness greps for, and emits
// BENCH_serve.json (flows/sec, events/sec, p50/p99 classify latency, every
// counter of fptc/serve/counters.hpp, SLO compliance, crash-recovery,
// drift and reload state, per-stage latency, host parallelism).
//
// With FPTC_SERVE_SUPERVISE=1 this binary becomes its own supervisor: the
// parent process runs the restart loop (supervisor.hpp) and re-execs itself
// as the worker (FPTC_SERVE_ROLE=worker), which then takes the normal path
// below.  A crashed or hung worker is restarted from its last durable
// snapshot; the final generation's report (and BENCH_serve.json) covers the
// whole logical run because the restored counters are re-based on the
// snapshot cut.
//
// Knobs (all strictly validated):
//   FPTC_SERVE_FLOWS=n        stream flows (default 300)
//   FPTC_SERVE_ARRIVAL_S=x    flow-start window in stream seconds (default 30)
//   FPTC_SERVE_SEED=n         stream + backend seed (default 1)
//   FPTC_SERVE_TRAIN_FLOWS=n  per-class training flows for the backends
//                             (default 0 = untrained CNNs, tiny-fit GBT)
//   FPTC_SERVE_TRAIN_EPOCHS=n CNN training epochs when TRAIN_FLOWS > 0
//   FPTC_SERVE_SUPERVISE=1    run under the crash-recovery supervisor
//   FPTC_SERVE_SELFTEST_CANDIDATE=good|corrupt
//                             write a reload candidate to FPTC_SERVE_RELOAD at
//                             startup: `good` = a valid copy of the incumbent
//                             (canary must accept), `corrupt` = a CRC-correct
//                             checkpoint with a NaN weight (canary must reject
//                             and roll back) — keeps the drift torture
//                             scenarios self-contained
//   FPTC_SERVE_*              service knobs, see fptc/serve/service.hpp
//   FPTC_DRIFT_*              stream drift schedule, see fptc/trafficgen/drift.hpp
//   FPTC_FAULT_SERVE_*        fault classes, see fptc/util/fault.hpp
//
// Exit status: 0 iff the run completed with the flow accounting balanced
// and every MemBudget byte credited back.

#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/supervisor.hpp"

#include "fptc/nn/serialize.hpp"
#include "fptc/trafficgen/drift.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/shutdown.hpp"
#include "fptc/util/telemetry.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <cstdio>
#endif

namespace {

double load_average()
{
#if defined(__unix__) || defined(__APPLE__)
    double loads[1] = {0.0};
    if (getloadavg(loads, 1) == 1) {
        return loads[0];
    }
#endif
    return 0.0;
}

/// Drop a reload candidate at the FPTC_SERVE_RELOAD path so the canary
/// torture scenarios are self-contained.  `good` publishes a valid copy of
/// the incumbent; `corrupt` writes a structurally valid, CRC-correct
/// checkpoint whose payload carries a NaN weight — the class of corruption
/// only semantic validation catches (save_parameters is used directly
/// because save_network would refuse to publish it).
void write_selftest_candidate(const std::string& mode, const std::string& path,
                              fptc::serve::CnnBackend& incumbent)
{
    using namespace fptc;
    if (mode == "good") {
        nn::save_network(incumbent.network(), path, incumbent.calibration());
        return;
    }
    if (mode != "corrupt") {
        throw util::EnvError("FPTC_SERVE_SELFTEST_CANDIDATE must be good|corrupt, got '" +
                             mode + "'");
    }
    const auto params = incumbent.network().parameters();
    float& poisoned = params.front()->value.data()[0];
    const float saved = poisoned;
    poisoned = std::numeric_limits<float>::quiet_NaN();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        nn::save_parameters(params, out, nn::kSerializeVersion, incumbent.calibration());
    }
    poisoned = saved;
}

std::string bench_json(const fptc::serve::ServeReport& report,
                       const fptc::serve::ServeConfig& config, std::size_t stream_flows,
                       std::uint64_t quarantine_oracle, std::uint64_t unknown_oracle)
{
    const double wall = report.wall_seconds > 0.0 ? report.wall_seconds : 1e-9;
    std::ostringstream out;
    out << "{\n"
        << "  \"flows\": " << stream_flows << ",\n"
        << "  \"wall_seconds\": " << report.wall_seconds << ",\n"
        << "  \"flows_per_sec\": " << static_cast<double>(report.flows_ingested) / wall << ",\n"
        << "  \"events_per_sec\": " << static_cast<double>(report.events_total) / wall << ",\n"
        << "  \"p50_latency_ms\": " << report.p50_latency_ms << ",\n"
        << "  \"p99_latency_ms\": " << report.p99_latency_ms << ",\n"
        << "  \"counters\": {\n";
    for (std::size_t i = 0; i < fptc::serve::kServeCounterCount; ++i) {
        const fptc::serve::ServeCounterSpec& spec = fptc::serve::kServeCounters[i];
        out << "    \"" << spec.name << "\": " << report.*spec.field
            << (i + 1 < fptc::serve::kServeCounterCount ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"events_mangled\": " << quarantine_oracle << ",\n"
        << "  \"final_tier\": " << report.final_tier << ",\n"
        << "  \"slo\": {\n"
        << "    \"target_ms\": " << config.slo_ms << ",\n"
        << "    \"compliance\": " << report.slo_compliance() << "\n"
        << "  },\n"
        << "  \"recovery\": {\n"
        << "    \"generation\": " << report.generation << ",\n"
        << "    \"restored\": " << (report.restored ? "true" : "false") << ",\n"
        << "    \"watermark\": " << report.watermark << ",\n"
        << "    \"restored_flows\": " << report.restored_flows << ",\n"
        << "    \"restore_refused\": " << report.restore_refused << "\n"
        << "  },\n"
        << "  \"openset\": {\n"
        << "    \"threshold\": " << config.unknown_thresh << ",\n"
        << "    \"stream_unknown_flows\": " << unknown_oracle << ",\n"
        << "    \"confidence_mean\": " << report.drift.confidence_mean << "\n"
        << "  },\n"
        << "  \"drift\": {\n"
        << "    \"lambda\": " << config.drift_lambda << ",\n"
        << "    \"rate_threshold\": " << config.drift_rate_thresh << ",\n"
        << "    \"samples\": " << report.drift.samples << ",\n"
        << "    \"alarms_confidence\": " << report.drift.alarms_confidence << ",\n"
        << "    \"alarms_input\": " << report.drift.alarms_input << ",\n"
        << "    \"alarms_rate\": " << report.drift.alarms_rate << ",\n"
        << "    \"first_alarm_sample\": " << report.drift.first_alarm_sample << "\n"
        << "  },\n"
        << "  \"reload\": {\n"
        << "    \"enabled\": " << (config.reload_path.empty() ? "false" : "true") << ",\n"
        << "    \"attempts\": " << report.reload_attempts << ",\n"
        << "    \"model_generation\": " << report.model_generation << "\n"
        << "  },\n"
        << "  \"flightrec\": {\n"
        << "    \"enabled\": " << (config.flightrec ? "true" : "false") << ",\n"
        << "    \"events\": " << report.frec_events << ",\n"
        << "    \"dropped\": " << report.frec_dropped << ",\n"
        << "    \"status_writes\": " << report.status_writes << "\n"
        << "  },\n"
        << "  \"latency_breakdown\": {\n";
    // Per-stage sub-histograms live in the registry (observed by the worker
    // threads that just joined); backend_compute reconciles exactly with
    // the classify-latency histogram by construction.
    for (std::size_t s = 0; s < fptc::serve::kFrecStageCount; ++s) {
        const auto stage = static_cast<fptc::serve::FrecStage>(s);
        const fptc::util::Histogram& h =
            fptc::util::metrics().histogram(fptc::serve::frec_stage_metric_name(stage));
        out << "    \"" << fptc::serve::frec_stage_name(static_cast<std::uint32_t>(s))
            << "\": {\"count\": " << h.count() << ", \"p50_ns\": "
            << static_cast<std::uint64_t>(h.quantile(0.50)) << ", \"p95_ns\": "
            << static_cast<std::uint64_t>(h.quantile(0.95)) << ", \"p99_ns\": "
            << static_cast<std::uint64_t>(h.quantile(0.99)) << "}"
            << (s + 1 < fptc::serve::kFrecStageCount ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"host\": {\n"
        << "    \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
        << "    \"load1\": " << load_average() << "\n"
        << "  }\n"
        << "}\n";
    return out.str();
}

} // namespace

int main()
{
    using namespace fptc;

    // Supervisor mode: the parent never serves — it spawns this same binary
    // as the worker (FPTC_SERVE_ROLE=worker) and runs the restart loop.
    if (util::env_int("FPTC_SERVE_SUPERVISE").value_or(0) != 0 && !serve::is_serve_worker()) {
        try {
            return serve::run_supervisor(serve::SupervisorConfig::from_env());
        } catch (const util::EnvError& error) {
            std::cerr << "serve_throughput: " << error.what() << "\n";
            return 2;
        }
    }

    util::install_shutdown_handlers();

    const std::size_t baseline_in_use = util::mem_budget().in_use();
    serve::ServeReport report;
    serve::ServeConfig config;
    std::size_t stream_flows = 0;
    std::uint64_t mangled = 0;
    std::uint64_t unknown_oracle = 0;
    try {
        const auto flows =
            static_cast<std::size_t>(util::env_int("FPTC_SERVE_FLOWS").value_or(300));
        const double arrival = util::env_double("FPTC_SERVE_ARRIVAL_S").value_or(30.0);
        const auto seed =
            static_cast<std::uint64_t>(util::env_int("FPTC_SERVE_SEED").value_or(1));
        const auto train_flows =
            static_cast<std::size_t>(util::env_int("FPTC_SERVE_TRAIN_FLOWS").value_or(0));
        const auto train_epochs =
            static_cast<int>(util::env_int("FPTC_SERVE_TRAIN_EPOCHS").value_or(0));
        config = serve::ServeConfig::from_env();
        // A snapshot is only replayable against the identical deterministic
        // stream: fold the stream identity into the config fingerprint so a
        // changed seed/flows/arrival forces a cold start.
        config.fingerprint_extra = seed ^ (static_cast<std::uint64_t>(flows) << 32) ^
                                   std::bit_cast<std::uint64_t>(arrival);

        serve::BackendBundle backends =
            serve::make_backends(config.flowpic_dim, config.reduced_dim, config.num_classes,
                                 seed, train_flows, train_epochs);
        if (const std::string candidate = util::env_string("FPTC_SERVE_SELFTEST_CANDIDATE");
            !candidate.empty()) {
            if (config.reload_path.empty()) {
                throw util::EnvError(
                    "FPTC_SERVE_SELFTEST_CANDIDATE requires FPTC_SERVE_RELOAD to name "
                    "the candidate path");
            }
            write_selftest_candidate(candidate, config.reload_path, *backends.full);
        }
        serve::InterleavedStream stream({.flows = flows,
                                         .num_classes = config.num_classes,
                                         .arrival_window = arrival,
                                         .seed = seed,
                                         .drift = trafficgen::DriftSchedule::from_env()});
        stream_flows = stream.flow_count();
        unknown_oracle = stream.unknown_flows();
        serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                           *backends.fallback);
        report = service.run(stream);
        mangled = stream.mangled();
    } catch (const util::EnvError& error) {
        std::cerr << "serve_throughput: " << error.what() << "\n";
        return 2;
    }
    // Backends, stream and service are destroyed: every serve-side charge
    // must be credited back before the balance check below.

    std::cout << report.summary() << "\n";
    std::cout << "serve_faults: " << util::fault_injector().summary() << "\n";

    const std::size_t in_use = util::mem_budget().in_use();
    std::cout << "serve_in_use_bytes=" << (in_use - baseline_in_use) << "\n";

    const std::string json = bench_json(report, config, stream_flows, mangled, unknown_oracle);
    try {
        util::DurableFile::write_file("BENCH_serve.json", json);
    } catch (const std::exception& error) {
        std::cerr << "serve_throughput: BENCH_serve.json write failed: " << error.what()
                  << "\n";
    }
    std::cout << json;
    util::telemetry_flush();

    bool ok = true;
    if (!report.accounted()) {
        std::cerr << "serve_throughput: FLOW ACCOUNTING BROKEN: " << report.summary() << "\n";
        ok = false;
    }
    if (in_use != baseline_in_use) {
        std::cerr << "serve_throughput: MemBudget leak: in_use=" << in_use
                  << " baseline=" << baseline_in_use << "\n";
        ok = false;
    }
    // The quarantine oracle only holds for a single-generation run: after a
    // restore, the fresh stream object re-draws (and re-counts) the mangles
    // of the skipped prefix while the quarantine counter carries the crashed
    // generation's view of them.
    if (!report.restored && report.events_quarantined != mangled) {
        std::cerr << "serve_throughput: quarantine oracle mismatch: quarantined="
                  << report.events_quarantined << " mangled=" << mangled << "\n";
        ok = false;
    }
    if (!std::isfinite(report.p99_latency_ms)) {
        std::cerr << "serve_throughput: non-finite p99 latency\n";
        ok = false;
    }
    const double compliance = report.slo_compliance();
    if (!(compliance >= 0.0 && compliance <= 1.0)) {
        std::cerr << "serve_throughput: SLO compliance out of range: " << compliance << "\n";
        ok = false;
    }
    if (config.slo_ms <= 0.0 && (report.shed_slo != 0 || report.events_dropped_slo != 0)) {
        std::cerr << "serve_throughput: SLO sheds recorded with the SLO off\n";
        ok = false;
    }
    if (config.unknown_thresh <= 0.0 && report.flows_unknown != 0) {
        std::cerr << "serve_throughput: unknown outcomes recorded with open-set off\n";
        ok = false;
    }
    if (config.drift_lambda <= 0.0 && config.drift_rate_thresh <= 0.0 &&
        report.drift_alarms != 0) {
        std::cerr << "serve_throughput: drift alarms recorded with the monitor off\n";
        ok = false;
    }
    if (config.reload_path.empty() && (report.reloads != 0 || report.reload_rollbacks != 0)) {
        std::cerr << "serve_throughput: reload activity recorded with reload off\n";
        ok = false;
    }
    if (!config.flightrec && (report.frec_events != 0 || report.postmortems_written != 0)) {
        std::cerr << "serve_throughput: flight-recorder activity with the recorder off\n";
        ok = false;
    }
    std::cout << (ok ? "SERVE_OK" : "SERVE_FAIL") << "\n";
    return ok ? 0 : 1;
}
