#include "fptc/serve/service.hpp"

#include "pipeline.hpp"

#include "fptc/serve/supervisor.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/shutdown.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace fptc::serve {

std::uint64_t ServeConfig::fingerprint() const
{
    // FNV-1a over the fields a watermark-skip resume depends on: the window
    // decides which flows close when, the dims/classes decide what the
    // backends see, and fingerprint_extra carries the stream identity.
    const auto mix = [](std::uint64_t hash, std::uint64_t value) {
        hash ^= value;
        return hash * 1099511628211ULL;
    };
    std::uint64_t hash = 14695981039346656037ULL;
    hash = mix(hash, std::bit_cast<std::uint64_t>(window_seconds));
    hash = mix(hash, num_classes);
    hash = mix(hash, flowpic_dim);
    hash = mix(hash, reduced_dim);
    hash = mix(hash, fingerprint_extra);
    return hash | 1;  // 0 means "don't check" to load_snapshot
}

ServeConfig ServeConfig::from_env()
{
    using util::env_positive;
    using util::env_size;
    ServeConfig config;
    config.queue_depth = env_size("FPTC_SERVE_QUEUE_DEPTH", config.queue_depth, 1);
    config.ready_depth = env_size("FPTC_SERVE_READY_DEPTH", config.ready_depth, 1);
    config.batch_size = env_size("FPTC_SERVE_BATCH", config.batch_size, 1);
    config.window_seconds = env_positive("FPTC_SERVE_WINDOW_S", config.window_seconds, false);
    config.deadline_ms = env_positive("FPTC_SERVE_DEADLINE_MS", config.deadline_ms, true);
    config.mem_mb = env_size("FPTC_SERVE_MEM_MB", config.mem_mb, 1);
    config.breaker_cooldown = static_cast<int>(
        env_size("FPTC_SERVE_BREAKER_COOLDOWN", static_cast<std::size_t>(config.breaker_cooldown), 1));
    config.slo_ms = env_positive("FPTC_SERVE_SLO_MS", config.slo_ms, true);
    config.snapshot_path = util::env_string("FPTC_SERVE_SNAPSHOT");
    config.snapshot_period_s =
        env_positive("FPTC_SERVE_SNAPSHOT_S", config.snapshot_period_s, true);
    config.snapshot_every = static_cast<std::uint64_t>(
        util::env_int("FPTC_SERVE_SNAPSHOT_EVERY").value_or(0));
    config.unknown_thresh = env_positive("FPTC_SERVE_UNKNOWN_THRESH", config.unknown_thresh, true);
    if (config.unknown_thresh > 1.0) {
        throw util::EnvError("FPTC_SERVE_UNKNOWN_THRESH must be in [0, 1], got " +
                             std::to_string(config.unknown_thresh));
    }
    config.drift_lambda = env_positive("FPTC_SERVE_DRIFT_LAMBDA", config.drift_lambda, true);
    config.drift_delta = env_positive("FPTC_SERVE_DRIFT_DELTA", config.drift_delta, false);
    config.drift_min_samples = env_size("FPTC_SERVE_DRIFT_MIN", config.drift_min_samples, 1);
    config.drift_rate_window = env_size("FPTC_SERVE_DRIFT_RATE_WINDOW", config.drift_rate_window, 8);
    config.drift_rate_thresh =
        env_positive("FPTC_SERVE_DRIFT_RATE_THRESH", config.drift_rate_thresh, true);
    config.reload_path = util::env_string("FPTC_SERVE_RELOAD");
    config.reload_every = env_size("FPTC_SERVE_RELOAD_EVERY", config.reload_every, 1);
    config.hang_stall_s = env_positive("FPTC_SERVE_HANG_S", config.hang_stall_s, true);
    config.gbt_only = util::env_int("FPTC_SERVE_GBT_ONLY").value_or(0) != 0;
    config.generation = serve_generation();
    config.postmortem_path = util::env_string("FPTC_SERVE_POSTMORTEM");
    // A crash dump needs rings to dump: the postmortem knob implies the
    // recorder (its rings then live in frec_ring_path's file).
    config.flightrec = util::env_int("FPTC_SERVE_FLIGHTREC").value_or(0) != 0 ||
                       !config.postmortem_path.empty();
    config.status_path = util::env_string("FPTC_SERVE_STATUS");
    config.status_period_s = env_positive("FPTC_SERVE_STATUS_S", config.status_period_s, false);
    return config;
}

std::string ServeReport::summary() const
{
    std::ostringstream out;
    out << "serve:";
    for (const ServeCounterSpec& spec : kServeCounters) {
        out << ' ' << spec.summary_key << '=' << this->*spec.field;
    }
    out << " tier=" << final_tier << " restored=" << (restored ? 1 : 0)
        << " generation=" << generation << " model_generation=" << model_generation
        << " frec_events=" << frec_events << " frec_dropped=" << frec_dropped
        << " status_writes=" << status_writes << " accounted=" << (accounted() ? 1 : 0);
    return out.str();
}

void PostmortemHook::take(PostmortemReason reason, const std::string& detail)
{
    if (!armed() || taken.exchange(true)) {
        return;
    }
    counters.add<ServeCounter::postmortems_written>();
    instruments.frec_events.set(static_cast<std::int64_t>(recorder->recorded_total()));
    instruments.frec_dropped.set(static_cast<std::int64_t>(recorder->dropped_total()));
    recorder->dump(path, reason, detail);
}

namespace {

/// Stall detection (sealing a postmortem first if armed) and the heartbeat.
WatchdogConfig watchdog_config(const ServeConfig& config, PostmortemHook& postmortem)
{
    // Poll every 0.25 s, or a whole fraction of the status period.
    const double status_s = std::max(config.status_period_s, 0.05);
    WatchdogConfig watchdog{
        .stall_seconds = config.hang_stall_s,
        .poll_seconds = config.status_path.empty() ? 0.25 : status_s / std::ceil(status_s / 0.25),
        .heartbeat_path = is_serve_worker() ? serve_heartbeat_path(config.snapshot_path) : "",
        .on_stall = {},
    };
    if (postmortem.armed()) {
        watchdog.on_stall = [&postmortem](const std::string& name) {
            postmortem.take(PostmortemReason::watchdog_stall, "stalled thread: " + name);
            util::log_info("serve watchdog: thread '" + name +
                           "' stalled; postmortem sealed; hang-exiting");
            std::_Exit(kHangExitCode);
        };
    }
    return watchdog;
}

} // namespace

ServeReport StreamingClassifier::run(InterleavedStream& stream)
{
    const auto wall_start = std::chrono::steady_clock::now();
    std::optional<ServeSnapshot> snap;
    if (!config_.snapshot_path.empty()) {
        // Sweep half-written snapshot temps whose writer died mid-commit
        // (same dead-pid-guarded scavenger the journal layer uses).
        (void)util::scavenge_orphan_temps(util::parent_dir_of(config_.snapshot_path));
        snap = load_snapshot(config_.snapshot_path, config_.fingerprint());
    }
    LiveCounters counters(snap.has_value() ? snap->counters : ServeCounters{});
    ServeMetrics instruments;
    instruments.generation.set(static_cast<std::int64_t>(config_.generation));
    // Accepted reloads; persisted in the snapshot header, not a counter row.
    std::atomic<std::uint32_t> model_generation{snap.has_value() ? snap->model_generation : 0};
    ServeReport report;
    report.generation = config_.generation;
    if (snap.has_value()) {
        const std::uint64_t loss = restart_loss(*snap);
        counters.add<ServeCounter::shed_restart_loss>(loss);
        report.restored = true;
        report.watermark = snap->watermark;
        util::log_info("serve: restored snapshot (watermark=" + std::to_string(snap->watermark) +
                       " flows=" + std::to_string(snap->flows.size()) +
                       " restart_loss=" + std::to_string(loss) + " from generation " +
                       std::to_string(snap->generation) + ")");
    }

    // Flight recorder: constructed before any pipeline thread so every
    // frec_note() in the stages sees an armed gate; when disabled, each call
    // site costs one relaxed load + predicted branch (the <=2% contract).
    std::optional<FlightRecorder> recorder;
    if (config_.flightrec) {
        recorder.emplace(FrecConfig{.ring_path = frec_ring_path(config_.postmortem_path),
                                    .generation = config_.generation});
    }
    FlightRecorder* const rec = recorder.has_value() ? &*recorder : nullptr;
    PostmortemHook postmortem{rec, config_.postmortem_path, counters, instruments};

    // Live status: the watchdog's poll exports it once per period, and
    // run() once more after the joins.
    auto last_status = std::chrono::steady_clock::time_point{};
    std::uint64_t status_failures = 0;
    const auto export_status = [&](bool periodic) {
        if (periodic && last_status.time_since_epoch().count() != 0 &&
            elapsed_ms(last_status) < std::max(config_.status_period_s, 0.05) * 1000.0) {
            return;
        }
        last_status = std::chrono::steady_clock::now();
        if (write_status_file(config_.status_path,
                              render_status(counters, instruments, rec, config_.generation,
                                            model_generation.load(std::memory_order_relaxed),
                                            wall_start))) {
            ++report.status_writes;
        } else if (status_failures++ == 0) {
            util::log_info("serve: status export to " + config_.status_path + " failed");
        }
    };
    Watchdog watchdog(watchdog_config(config_, postmortem),
                      config_.status_path.empty() ? std::function<void()>{}
                                                  : [&export_status] { export_status(true); });

    // The stages register with the watchdog before it starts.  Each fills
    // its own fields of the report, read after join().
    const std::size_t ingest_batch = ingest_batch_events(config_);
    BoundedQueue<IngestBatch> ingest((config_.queue_depth + ingest_batch - 1) / ingest_batch);
    BoundedQueue<StampedFlow> ready(config_.ready_depth);
    Driver driver(stream, ingest, counters, watchdog, config_,
                  snap.has_value() ? snap->watermark : 0, rec != nullptr);
    Assembler assembler(ingest, ready, counters, instruments, watchdog, config_,
                        snap.has_value() ? &*snap : nullptr, model_generation, rec != nullptr,
                        report);
    Classifier classifier(ready, full_, reduced_, fallback_, counters, instruments, watchdog,
                          config_, model_generation, postmortem, report);
    watchdog.start();
    std::thread assembler_thread([&assembler] { assembler.run(); });
    std::thread classifier_thread([&classifier] { classifier.run(); });
    driver.run();
    assembler_thread.join();
    classifier_thread.join();
    watchdog.stop();
    if (rec != nullptr) {
        instruments.frec_events.set(static_cast<std::int64_t>(rec->recorded_total()));
        instruments.frec_dropped.set(static_cast<std::int64_t>(rec->dropped_total()));
        report.frec_events = rec->recorded_total();
        report.frec_dropped = rec->dropped_total();
    }
    if (!config_.status_path.empty()) {
        export_status(false);  // the final export reflects the fully drained pipeline
    }

    // Only a crash leaves a snapshot or a ring file behind: after a clean
    // finish either would make the next run, or a later seal, believe this
    // one crashed.
    if (!util::shutdown_requested()) {
        if (!config_.snapshot_path.empty()) {
            ::unlink(config_.snapshot_path.c_str());
        }
        if (rec != nullptr) {
            rec->remove_backing();
        }
    }
    static_cast<ServeCounters&>(report) = counters.load();
    report.model_generation = model_generation.load();
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    return report;
}

} // namespace fptc::serve
