#include "fptc/serve/snapshot.hpp"

#include "fptc/util/codec.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/telemetry.hpp"

#include <string_view>

namespace fptc::serve {

namespace {

constexpr std::string_view kMagic = "FPTCSNAP";

} // namespace

std::string encode_snapshot(const ServeSnapshot& snapshot)
{
    FPTC_TRACE_SPAN("serve_snapshot_encode");
    util::ByteWriter payload;
    payload.u64(snapshot.watermark);
    payload.f64(snapshot.stream_now);
    payload.u32(snapshot.generation);
    payload.u32(snapshot.model_generation);
    payload.u64(snapshot.config_fingerprint);
    for (const ServeCounterSpec& spec : kServeCounters) {
        if (spec.persisted) {
            payload.u64(snapshot.counters.*spec.field);
        }
    }
    payload.u64(snapshot.flows.size());
    for (const SnapshotFlow& flow : snapshot.flows) {
        payload.u64(flow.flow_id);
        payload.u32(flow.label);
        payload.f64(flow.first_ts);
        payload.u64(flow.packets.size());
        for (const flow::Packet& packet : flow.packets) {
            payload.f64(packet.timestamp);
            payload.u32(static_cast<std::uint32_t>(packet.size));
            payload.u32(packet.direction == flow::Direction::upstream ? 1u : 0u);
        }
    }
    return util::frame(kMagic, kSnapshotVersion, payload.str());
}

std::optional<ServeSnapshot> decode_snapshot(std::string_view data)
{
    FPTC_TRACE_SPAN("serve_snapshot_decode");
    const std::optional<std::string_view> payload = util::unframe(data, kMagic, kSnapshotVersion);
    if (!payload.has_value()) {
        return std::nullopt;
    }
    util::ByteReader in(*payload);
    ServeSnapshot snapshot;
    snapshot.watermark = in.u64();
    snapshot.stream_now = in.f64();
    snapshot.generation = in.u32();
    snapshot.model_generation = in.u32();
    snapshot.config_fingerprint = in.u64();
    for (const ServeCounterSpec& spec : kServeCounters) {
        if (spec.persisted) {
            snapshot.counters.*spec.field = in.u64();
        }
    }
    // Each flow needs at least its fixed-size header, each packet 16 bytes.
    constexpr std::size_t kFlowHeaderBytes = 8 + 4 + 8 + 8;
    constexpr std::size_t kPacketBytes = 8 + 4 + 4;
    const std::uint64_t flow_count = in.u64();
    if (!in.fits(flow_count, kFlowHeaderBytes)) {
        return std::nullopt;
    }
    snapshot.flows.reserve(static_cast<std::size_t>(flow_count));
    for (std::uint64_t f = 0; f < flow_count; ++f) {
        SnapshotFlow flow;
        flow.flow_id = in.u64();
        flow.label = in.u32();
        flow.first_ts = in.f64();
        const std::uint64_t packet_count = in.u64();
        if (!in.fits(packet_count, kPacketBytes)) {
            return std::nullopt;
        }
        flow.packets.reserve(static_cast<std::size_t>(packet_count));
        for (std::uint64_t p = 0; p < packet_count; ++p) {
            const double ts = in.f64();
            const std::uint32_t size = in.u32();
            const std::uint32_t direction = in.u32();
            flow.packets.push_back(flow::Packet{
                .timestamp = ts,
                .size = static_cast<int>(size),
                .direction = direction != 0 ? flow::Direction::upstream
                                            : flow::Direction::downstream,
                .is_ack = false,
            });
        }
        snapshot.flows.push_back(std::move(flow));
    }
    if (!in.at_end()) {
        return std::nullopt;  // truncated, or trailing garbage inside the payload
    }
    return snapshot;
}

std::uint64_t restart_loss(const ServeSnapshot& snapshot)
{
    const ServeCounters& base = snapshot.counters;
    const std::uint64_t accounted_at_cut =
        base.flows_classified + base.flows_unknown + base.shed_total() + snapshot.flows.size();
    return base.flows_ingested > accounted_at_cut ? base.flows_ingested - accounted_at_cut : 0;
}

void save_snapshot(const std::string& path, const ServeSnapshot& snapshot)
{
    util::DurableFile::write_file(path, encode_snapshot(snapshot));
}

std::optional<ServeSnapshot> load_snapshot(const std::string& path,
                                           std::uint64_t expect_fingerprint)
{
    const std::optional<std::string> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        return std::nullopt;
    }
    auto snapshot = decode_snapshot(*bytes);
    if (snapshot.has_value() && expect_fingerprint != 0 &&
        snapshot->config_fingerprint != expect_fingerprint) {
        return std::nullopt;
    }
    return snapshot;
}

} // namespace fptc::serve
