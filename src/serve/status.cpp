#include "pipeline.hpp"

#include <cstdio>
#include <sstream>

#include <unistd.h>

namespace fptc::serve {

std::string render_status(const LiveCounters& counters, const ServeMetrics& instruments,
                          const FlightRecorder* recorder, std::uint32_t generation,
                          std::uint32_t model_generation,
                          std::chrono::steady_clock::time_point started)
{
    const util::Histogram* stages[kFrecStageCount] = {
        &instruments.stage_ingest_wait, &instruments.stage_assembly,
        &instruments.stage_ready_wait, &instruments.stage_backend};
    const ServeCounters now = counters.load();
    const auto tier = static_cast<Tier>(instruments.breaker_state.value());
    std::ostringstream out;
    out << "{\n";
    out << "  \"pid\": " << ::getpid() << ",\n";
    out << "  \"generation\": " << generation << ",\n";
    out << "  \"model_generation\": " << model_generation << ",\n";
    out << "  \"uptime_s\": "
        << std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count()
        << ",\n";
    out << "  \"breaker_tier\": " << static_cast<int>(tier) << ",\n";
    out << "  \"breaker_tier_name\": \"" << tier_name(tier) << "\",\n";
    out << "  \"flows_active\": " << instruments.flows_active.value() << ",\n";
    for (const ServeCounterSpec& spec : kServeCounters) {
        out << "  \"" << spec.name << "\": " << now.*spec.field << ",\n";
    }
    out << "  \"shed_total\": " << now.shed_total() << ",\n";
    out << "  \"slo_compliance\": " << now.slo_compliance() << ",\n";
    out << "  \"flightrec\": {\"enabled\": " << (recorder != nullptr ? "true" : "false")
        << ", \"events\": " << (recorder != nullptr ? recorder->recorded_total() : 0)
        << ", \"dropped\": " << (recorder != nullptr ? recorder->dropped_total() : 0) << "},\n";
    out << "  \"stages\": [";
    for (std::size_t s = 0; s < kFrecStageCount; ++s) {
        const util::Histogram& h = *stages[s];
        const auto p99 = static_cast<std::uint64_t>(h.quantile(0.99));
        out << (s == 0 ? "\n" : ",\n");
        out << "    {\"stage\": \"" << frec_stage_name(static_cast<std::uint32_t>(s))
            << "\", \"count\": " << h.count()
            << ", \"p50_ns\": " << static_cast<std::uint64_t>(h.quantile(0.50))
            << ", \"p95_ns\": " << static_cast<std::uint64_t>(h.quantile(0.95))
            << ", \"p99_ns\": " << p99 << ", \"p99_exemplar_flow\": "
            << (recorder != nullptr
                    ? recorder->exemplar(static_cast<FrecStage>(s), frec_bucket(p99))
                    : 0)
            << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

bool write_status_file(const std::string& path, const std::string& body)
{
    // The temp name carries the pid so the orphan scavenger can identify
    // dead writers.
    const std::string temp = path + ".tmp." + std::to_string(::getpid());
    std::FILE* out = std::fopen(temp.c_str(), "wb");
    if (out == nullptr) {
        return false;
    }
    const std::size_t written = std::fwrite(body.data(), 1, body.size(), out);
    const bool closed = std::fclose(out) == 0;
    if (written != body.size() || !closed || std::rename(temp.c_str(), path.c_str()) != 0) {
        ::unlink(temp.c_str());
        return false;
    }
    return true;
}

} // namespace fptc::serve
