#include "fptc/serve/snapshot.hpp"

#include "fptc/util/crc32.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/telemetry.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace fptc::serve {

namespace {

constexpr char kMagic[8] = {'F', 'P', 'T', 'C', 'S', 'N', 'A', 'P'};

// Fixed-width little-endian-on-every-supported-target primitives.  The
// snapshot is a same-host crash-recovery artifact, not an interchange
// format, so native byte order via memcpy is sufficient and keeps the
// codec trivially ubsan-clean.
void put_bytes(std::string& out, const void* data, std::size_t size)
{
    out.append(static_cast<const char*>(data), size);
}

void put_u32(std::string& out, std::uint32_t value) { put_bytes(out, &value, sizeof value); }
void put_u64(std::string& out, std::uint64_t value) { put_bytes(out, &value, sizeof value); }
void put_f64(std::string& out, double value) { put_bytes(out, &value, sizeof value); }

/// Bounds-checked reads; false = truncated.
struct Reader {
    std::string_view data;
    std::size_t off = 0;

    bool bytes(void* dest, std::size_t size)
    {
        if (off + size > data.size()) {
            return false;
        }
        std::memcpy(dest, data.data() + off, size);
        off += size;
        return true;
    }

    bool u32(std::uint32_t& value) { return bytes(&value, sizeof value); }
    bool u64(std::uint64_t& value) { return bytes(&value, sizeof value); }
    bool f64(double& value) { return bytes(&value, sizeof value); }
};

} // namespace

std::string encode_snapshot(const ServeSnapshot& snapshot)
{
    FPTC_TRACE_SPAN("serve_snapshot_encode");
    std::string payload;
    put_u64(payload, snapshot.watermark);
    put_f64(payload, snapshot.stream_now);
    put_u32(payload, snapshot.generation);
    put_u32(payload, snapshot.model_generation);
    put_u64(payload, snapshot.config_fingerprint);
    for (const ServeCounterSpec& spec : kServeCounters) {
        if (spec.persisted) {
            put_u64(payload, snapshot.counters.*spec.field);
        }
    }
    put_u64(payload, snapshot.flows.size());
    for (const SnapshotFlow& flow : snapshot.flows) {
        put_u64(payload, flow.flow_id);
        put_u32(payload, flow.label);
        put_f64(payload, flow.first_ts);
        put_u64(payload, flow.packets.size());
        for (const flow::Packet& packet : flow.packets) {
            put_f64(payload, packet.timestamp);
            put_u32(payload, static_cast<std::uint32_t>(packet.size));
            put_u32(payload, packet.direction == flow::Direction::upstream ? 1u : 0u);
        }
    }

    std::string out;
    out.reserve(sizeof(kMagic) + sizeof(std::uint32_t) * 2 + payload.size());
    put_bytes(out, kMagic, sizeof kMagic);
    put_u32(out, kSnapshotVersion);
    out += payload;
    put_u32(out, util::crc32(payload));
    return out;
}

std::optional<ServeSnapshot> decode_snapshot(std::string_view data)
{
    FPTC_TRACE_SPAN("serve_snapshot_decode");
    constexpr std::size_t header = sizeof(kMagic) + sizeof(std::uint32_t);
    constexpr std::size_t trailer = sizeof(std::uint32_t);
    if (data.size() < header + trailer) {
        return std::nullopt;
    }
    if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
        return std::nullopt;
    }
    Reader in{data, sizeof(kMagic)};
    std::uint32_t version = 0;
    if (!in.u32(version) || version != kSnapshotVersion) {
        return std::nullopt;
    }
    const std::string_view payload = data.substr(header, data.size() - header - trailer);
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, data.data() + data.size() - trailer, trailer);
    if (util::crc32(payload) != stored_crc) {
        return std::nullopt;
    }

    ServeSnapshot snapshot;
    if (!in.u64(snapshot.watermark) || !in.f64(snapshot.stream_now) ||
        !in.u32(snapshot.generation) || !in.u32(snapshot.model_generation) ||
        !in.u64(snapshot.config_fingerprint)) {
        return std::nullopt;
    }
    for (const ServeCounterSpec& spec : kServeCounters) {
        if (spec.persisted && !in.u64(snapshot.counters.*spec.field)) {
            return std::nullopt;
        }
    }
    std::uint64_t flow_count = 0;
    if (!in.u64(flow_count)) {
        return std::nullopt;
    }
    // Cheap sanity bound before reserving: each flow needs at least its
    // fixed-size header in the payload.
    constexpr std::uint64_t kFlowHeaderBytes = 8 + 4 + 8 + 8;
    if (flow_count > data.size() / kFlowHeaderBytes + 1) {
        return std::nullopt;
    }
    snapshot.flows.reserve(static_cast<std::size_t>(flow_count));
    for (std::uint64_t f = 0; f < flow_count; ++f) {
        SnapshotFlow flow;
        std::uint64_t packet_count = 0;
        if (!in.u64(flow.flow_id) || !in.u32(flow.label) || !in.f64(flow.first_ts) ||
            !in.u64(packet_count)) {
            return std::nullopt;
        }
        constexpr std::uint64_t kPacketBytes = 8 + 4 + 4;
        if (packet_count > data.size() / kPacketBytes + 1) {
            return std::nullopt;
        }
        flow.packets.reserve(static_cast<std::size_t>(packet_count));
        for (std::uint64_t p = 0; p < packet_count; ++p) {
            double ts = 0.0;
            std::uint32_t size = 0;
            std::uint32_t direction = 0;
            if (!in.f64(ts) || !in.u32(size) || !in.u32(direction)) {
                return std::nullopt;
            }
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
    if (in.off != header + (data.size() - header - trailer)) {
        return std::nullopt;  // trailing garbage inside the checksummed payload
    }
    return snapshot;
}

void save_snapshot(const std::string& path, const ServeSnapshot& snapshot)
{
    util::DurableFile::write_file(path, encode_snapshot(snapshot));
}

std::optional<ServeSnapshot> load_snapshot(const std::string& path,
                                           std::uint64_t expect_fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
        return std::nullopt;
    }
    auto snapshot = decode_snapshot(buffer.str());
    if (snapshot.has_value() && expect_fingerprint != 0 &&
        snapshot->config_fingerprint != expect_fingerprint) {
        return std::nullopt;
    }
    return snapshot;
}

} // namespace fptc::serve
