#include "fptc/serve/reload.hpp"

#include "fptc/nn/models.hpp"
#include "fptc/nn/serialize.hpp"
#include "fptc/trafficgen/traffic_model.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/codec.hpp"
#include "fptc/util/crc32.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/telemetry.hpp"

#include <optional>
#include <sstream>
#include <utility>

namespace fptc::serve {

namespace {

/// Deterministic labeled replay buffer: the same (seed, num_classes,
/// canary_flows) always regenerates the identical flows, so incumbent and
/// candidate — and pre- and post-restart workers — are judged on the same
/// exam.
std::vector<ReadyFlow> make_golden_buffer(const ReloadConfig& config)
{
    std::vector<ReadyFlow> golden;
    if (config.canary_flows == 0 || config.num_classes == 0) {
        return golden;
    }
    util::Rng rng(util::mix_seed(config.seed, 0x901d));
    for (std::size_t c = 0; c < config.num_classes; ++c) {
        const auto profile = trafficgen::ucdavis19_profile(c % 5, false);
        auto flows = trafficgen::generate_flows(profile, c, config.canary_flows, rng);
        for (auto& f : flows) {
            ReadyFlow ready;
            ready.flow_id = golden.size() + 1;
            ready.label = static_cast<std::uint32_t>(c);
            ready.first_ts = f.packets.empty() ? 0.0 : f.packets.front().timestamp;
            ready.flow = std::move(f);
            golden.push_back(std::move(ready));
        }
    }
    return golden;
}

} // namespace

ModelReloader::ModelReloader(const ReloadConfig& config, CnnBackend* target)
    : config_(config), target_(config.path.empty() ? nullptr : target)
{
    if (enabled()) {
        golden_ = make_golden_buffer(config_);
    }
}

double ModelReloader::golden_accuracy(Backend& backend) const
{
    if (golden_.empty()) {
        return 0.0;
    }
    FPTC_TRACE_SPAN("serve_canary_replay", {{"backend", backend.name()}});
    const util::CancelToken token;
    const auto scored = backend.classify_scored({golden_.data(), golden_.size()}, token);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
        if (scored[i].label == golden_[i].label) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(golden_.size());
}

ModelReloader::Outcome ModelReloader::poll()
{
    if (!enabled()) {
        return Outcome::disabled;
    }
    ++polls_;
    if (config_.check_every > 1 && polls_ % config_.check_every != 0) {
        return Outcome::not_checked;
    }
    return check_now();
}

ModelReloader::Outcome ModelReloader::check_now()
{
    if (!enabled()) {
        return Outcome::disabled;
    }
    std::optional<std::string> bytes = util::read_file(config_.path);
    if (!bytes.has_value() || bytes->empty()) {
        return Outcome::no_candidate;
    }
    const std::uint32_t crc = util::crc32(*bytes);
    if (has_last_crc_ && crc == last_crc_) {
        return Outcome::unchanged;
    }
    // A new candidate: remember it before judging so a rejected file is not
    // re-canaried (and re-counted) every interval.
    last_crc_ = crc;
    has_last_crc_ = true;
    ++stats_.attempts;

    // Stages 1 + 2: load into a scratch network.  The load runs every
    // structural and semantic check before it writes a weight, and the
    // incumbent stays untouched.
    nn::ModelConfig model;
    model.flowpic_dim = target_->resolution();
    model.num_classes = config_.num_classes;
    model.seed = config_.seed;
    nn::Sequential candidate_network = nn::make_supervised_network(model);
    nn::Calibration candidate_calibration;
    try {
        std::istringstream in(std::move(*bytes));
        nn::load_parameters(candidate_network.parameters(), in, &candidate_calibration);
    } catch (const std::exception& e) {
        ++stats_.rollbacks;
        ++stats_.rejected_invalid;
        stats_.last_error = std::string("checkpoint invalid: ") + e.what();
        return Outcome::rolled_back;
    }

    // Stage 3: golden replay — candidate vs incumbent on the same flows.
    stats_.incumbent_accuracy = golden_accuracy(*target_);
    CnnBackend candidate(target_->resolution(), std::move(candidate_network));
    candidate.set_calibration(candidate_calibration);
    stats_.candidate_accuracy = golden_accuracy(candidate);
    if (stats_.candidate_accuracy + config_.tolerance < stats_.incumbent_accuracy) {
        ++stats_.rollbacks;
        ++stats_.rejected_accuracy;
        stats_.last_error = "candidate golden accuracy " +
                            std::to_string(stats_.candidate_accuracy) + " below incumbent " +
                            std::to_string(stats_.incumbent_accuracy) + " - tolerance";
        return Outcome::rolled_back;
    }

    target_->swap_model(std::move(candidate.network()), candidate_calibration);
    ++model_generation_;
    ++stats_.reloads;
    stats_.last_error.clear();
    return Outcome::reloaded;
}

} // namespace fptc::serve
