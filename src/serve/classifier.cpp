#include "pipeline.hpp"

#include "fptc/util/cancel.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"

#include <algorithm>
#include <thread>

namespace fptc::serve {

Classifier::Classifier(BoundedQueue<StampedFlow>& ready, Backend& full, Backend& reduced,
                       Backend& fallback, LiveCounters& counters, ServeMetrics& instruments,
                       Watchdog& watchdog, const ServeConfig& config,
                       std::atomic<std::uint32_t>& model_generation, PostmortemHook& postmortem,
                       ServeReport& report)
    : ready_(ready),
      tiers_{&full, &reduced, &fallback},
      counters_(counters),
      instruments_(instruments),
      watchdog_(watchdog),
      slot_(watchdog.add_thread("classifier")),
      config_(config),
      model_generation_(model_generation),
      postmortem_(postmortem),
      report_(report),
      breaker_({.cooldown_batches = config.breaker_cooldown}),
      admission_({.target_ms = config.slo_ms}),
      drift_(DriftMonitorConfig{
          .lambda = config.drift_lambda,
          .delta = config.drift_delta,
          .min_samples = config.drift_min_samples,
          .num_classes = config.num_classes,
          .rate_window = config.drift_rate_window,
          .rate_threshold = config.drift_rate_thresh,
      }),
      // The reload target is the full-tier CNN; a non-CNN full tier (or the
      // gbt_only degraded worker) leaves the reloader disabled.
      reloader_(
          ReloadConfig{
              .path = config.reload_path,
              .check_every = config.reload_every,
              .num_classes = config.num_classes,
              .seed = config.fingerprint_extra != 0 ? config.fingerprint_extra : 1,
          },
          config.gbt_only ? nullptr : dynamic_cast<CnnBackend*>(&full))
{
    // Generations survive SIGKILL: the counter continues from the restored
    // snapshot cut, so an accepted reload before the crash is still visible
    // in the restarted worker's report.
    reloader_.set_model_generation(model_generation_.load(std::memory_order_relaxed));
    instruments_.model_generation.set(static_cast<std::int64_t>(reloader_.model_generation()));
}

void Classifier::run()
{
    using C = ServeCounter;
    FPTC_TRACE_SPAN("serve_classifier");
    std::vector<StampedFlow> staged;
    std::vector<ReadyFlow> batch;
    for (;;) {
        watchdog_.beat(slot_);
        staged.clear();
        batch.clear();
        const std::size_t taken =
            ready_.drain(staged, config_.batch_size, std::chrono::milliseconds(20));
        if (taken == 0) {
            if (ready_.closed() && ready_.size() == 0) {
                break;
            }
            continue;
        }
        for (StampedFlow& stamped : staged) {
            // The ready-wait stage ends at dequeue (the existing sojourn,
            // now also attributed in ns).
            const std::uint64_t sojourn_ns = elapsed_ns(stamped.enqueued);
            const double sojourn = static_cast<double>(sojourn_ns) / 1e6;
            instruments_.stage_ready_wait.observe(sojourn_ns);
            frec_exemplar(FrecStage::ready_wait, sojourn_ns, stamped.flow.flow_id);
            if (config_.slo_ms > 0.0) {
                counters_.add<C::slo_considered>();
                if (sojourn > config_.slo_ms) {
                    counters_.add<C::slo_violations>();
                }
                if (admission_.should_drop(sojourn, steady_now_ms())) {
                    // Hard SLO: a flow that queued past the target for a
                    // sustained interval is dropped *ahead of* the breaker
                    // — the ladder never sees doomed work.  The StampedFlow
                    // dies here; its Charge credits back.
                    counters_.add<C::shed_slo>();
                    frec_note(FrecRing::classifier, FrecKind::shed, stamped.flow.flow_id, 1,
                              static_cast<std::uint32_t>(FrecShed::slo));
                    continue;
                }
            }
            batch.push_back(std::move(stamped.flow));
        }
        if (!batch.empty()) {
            classify(batch);
        }
    }
    report_.final_tier = static_cast<int>(breaker_.tier());
    report_.drift = drift_.stats();
    report_.reload_attempts = reloader_.stats().attempts;
    if (!latencies_.empty()) {
        std::sort(latencies_.begin(), latencies_.end());
        const auto rank = [&](double q) {
            return latencies_[std::min(latencies_.size() - 1,
                                       static_cast<std::size_t>(
                                           q * static_cast<double>(latencies_.size())))];
        };
        report_.p50_latency_ms = rank(0.50);
        report_.p99_latency_ms = rank(0.99);
    }
    watchdog_.mark_done(slot_);
}

void Classifier::classify(std::vector<ReadyFlow>& batch)
{
    using C = ServeCounter;
    if (util::fault_injector().inject_serve_hang()) {
        // Wedge without heartbeating: the watchdog must detect the stall and
        // hang-exit.  The failsafe cap below keeps an un-watched
        // configuration from hanging forever.
        util::log_info("serve: fault injector wedging classifier thread (serve_hang)");
        const double cap_s = config_.hang_stall_s > 0.0 ? config_.hang_stall_s * 10.0 : 5.0;
        const auto wedged_at = std::chrono::steady_clock::now();
        while (elapsed_ms(wedged_at) < cap_s * 1000.0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        util::log_info("serve: wedge failsafe cap elapsed; resuming");
    }
    counters_.add<C::batches>();
    Tier tier = breaker_.plan_batch();
    if (config_.gbt_only && tier != Tier::shed) {
        // Degraded mode (supervisor's last restart): the CNN tiers are
        // suspected of the crash loop, so serve from the cheap GBT fallback
        // only.
        tier = Tier::fallback;
    }
    instruments_.breaker_state.set(static_cast<std::int64_t>(breaker_.tier()));
    if (tier == Tier::shed) {
        counters_.add<C::shed_breaker>(batch.size());
        for (const ReadyFlow& flow : batch) {
            frec_note(FrecRing::classifier, FrecKind::shed, flow.flow_id, 1,
                      static_cast<std::uint32_t>(FrecShed::breaker));
        }
        // Hard trip: the ladder has run out of cheaper tiers and is refusing
        // whole batches — exactly the state a postmortem should capture
        // while the evidence is still in the rings.
        postmortem_.take(PostmortemReason::breaker_hard_trip, "breaker ladder at shed tier");
        return;
    }
    Backend& backend = *tiers_[static_cast<std::size_t>(tier)];
    util::CancelToken token;
    if (config_.deadline_ms > 0.0) {
        token.set_timeout(config_.deadline_ms / 1000.0);
    }
    if (util::fault_injector().inject_serve_backend_stall()) {
        // Stall until the deadline trips the token, or a hard cap elapses so
        // a deadline-less configuration cannot hang.
        const auto cap = std::chrono::milliseconds(
            config_.deadline_ms > 0.0 ? static_cast<std::int64_t>(config_.deadline_ms * 2.0) + 100
                                      : 250);
        token.arm_stall(cap);
    }
    frec_note(FrecRing::classifier, FrecKind::classify_start, batch.front().flow_id,
              batch.size(), static_cast<std::uint32_t>(tier));
    const auto batch_start = std::chrono::steady_clock::now();
    bool deadline_hit = false;
    bool failed = false;
    std::vector<ScoredPrediction> predictions;
    try {
        FPTC_TRACE_SPAN("serve_classify", {{"backend", backend.name()}});
        predictions = backend.classify_scored({batch.data(), batch.size()}, token);
    } catch (const util::CancelledError&) {
        deadline_hit = true;
    } catch (const std::exception&) {
        failed = true;
    }
    const double latency = elapsed_ms(batch_start);
    const auto latency_ns = static_cast<std::uint64_t>(latency * 1e6);
    instruments_.latency.observe(latency_ns);
    // The backend-compute stage observes the identical value as the
    // end-to-end histogram: the two reconcile exactly.
    instruments_.stage_backend.observe(latency_ns);
    frec_exemplar(FrecStage::backend_compute, latency_ns, batch.front().flow_id);
    frec_note(FrecRing::classifier, FrecKind::classify_end, batch.front().flow_id, latency_ns,
              static_cast<std::uint32_t>(tier));
    latencies_.push_back(latency);
    if (deadline_hit || failed) {
        // deadline → typed deadline shed; any other backend failure rides the
        // breaker reason (it is the breaker's trigger).
        const auto reason_count = static_cast<std::uint64_t>(batch.size());
        if (deadline_hit) {
            counters_.add<C::shed_deadline>(reason_count);
        } else {
            counters_.add<C::shed_breaker>(reason_count);
        }
        for (const ReadyFlow& flow : batch) {
            frec_note(FrecRing::classifier, FrecKind::shed, flow.flow_id, 1,
                      static_cast<std::uint32_t>(deadline_hit ? FrecShed::deadline
                                                              : FrecShed::breaker));
        }
        breaker_.record_failure(deadline_hit);
    } else {
        breaker_.record_success(latency);
        std::uint64_t correct = 0;
        std::uint64_t unknown = 0;
        std::uint64_t unknown_truth = 0;
        std::uint64_t unknown_rejected = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const ReadyFlow& flow = batch[i];
            const ScoredPrediction prediction =
                i < predictions.size() ? predictions[i] : ScoredPrediction{};
            // Open-set rejection: a score below the threshold means "none of the
            // trained classes" — the typed `unknown` outcome, never a forced
            // label.
            const bool rejected =
                config_.unknown_thresh > 0.0 && prediction.confidence < config_.unknown_thresh;
            const bool truth_unknown = flow.label >= config_.num_classes;
            if (truth_unknown) {
                ++unknown_truth;
                if (rejected) {
                    ++unknown_rejected;
                }
            }
            if (rejected) {
                ++unknown;
                frec_note(FrecRing::classifier, FrecKind::unknown_route, flow.flow_id);
            } else if (prediction.label == flow.label) {
                ++correct;
            }
            double mean_size = 0.0;
            for (const flow::Packet& packet : flow.flow.packets) {
                mean_size += static_cast<double>(packet.size);
            }
            if (!flow.flow.packets.empty()) {
                mean_size /= static_cast<double>(flow.flow.packets.size());
            }
            (void)drift_.observe(DriftObservation{
                .confidence = prediction.confidence,
                .predicted = rejected ? config_.num_classes : prediction.label,
                .mean_packet_size = mean_size,
                .packet_count = flow.flow.packets.size(),
            });
        }
        counters_.add<C::flows_classified>(batch.size() - unknown);
        counters_.add<C::flows_correct>(correct);
        if (unknown > 0) {
            counters_.add<C::flows_unknown>(unknown);
        }
        if (unknown_truth > 0) {
            counters_.add<C::unknown_truth_total>(unknown_truth);
            counters_.add<C::unknown_truth_rejected>(unknown_rejected);
        }
    }
    instruments_.breaker_state.set(static_cast<std::int64_t>(breaker_.tier()));
    // Drift response ladder: count the alarm, step the breaker one tier down
    // (cheap tiers are cheaper to be wrong with), and canary any pending
    // reload candidate immediately.  Without an alarm the candidate path is
    // still polled on its cadence.
    const std::uint64_t drift_total = drift_.stats().total();
    if (drift_total > last_drift_alarms_) {
        const std::uint64_t fired = drift_total - last_drift_alarms_;
        last_drift_alarms_ = drift_total;
        counters_.add<C::drift_alarms>(fired);
        util::log_info("serve: drift alarm at sample " + std::to_string(drift_.stats().samples) +
                       " (confidence mean " + std::to_string(drift_.stats().confidence_mean) +
                       ")");
        breaker_.drift_trip();
        apply_reload(reloader_.check_now());
    } else {
        apply_reload(reloader_.poll());
    }
    counters_.raise_to<C::breaker_trips>(breaker_.trips());
    counters_.raise_to<C::breaker_recoveries>(breaker_.recoveries());
}

void Classifier::apply_reload(ModelReloader::Outcome outcome)
{
    if (outcome == ModelReloader::Outcome::reloaded) {
        counters_.add<ServeCounter::reloads>();
        model_generation_.store(reloader_.model_generation(), std::memory_order_relaxed);
        instruments_.model_generation.set(
            static_cast<std::int64_t>(reloader_.model_generation()));
        util::log_info("serve: hot-reloaded model (generation " +
                       std::to_string(reloader_.model_generation()) +
                       ", candidate golden accuracy " +
                       std::to_string(reloader_.stats().candidate_accuracy) + ")");
    } else if (outcome == ModelReloader::Outcome::rolled_back) {
        counters_.add<ServeCounter::reload_rollbacks>();
        util::log_info("serve: reload candidate rejected, incumbent kept (" +
                       reloader_.stats().last_error + ")");
    }
}

} // namespace fptc::serve
