#include "fptc/serve/flightrec.hpp"

#include "fptc/util/codec.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/event_ring.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fptc::serve {

namespace {

// ---------------------------------------------------------------------------
// Ring-file layout (version 2).  Everything is u64 words so every slot is
// naturally aligned for std::atomic_ref:
//
//   [0..7]   file header: magic, version, generation, ring_count,
//            ring_capacity, stage_count, bucket_count, reserved
//   [8..]    exemplar region: stage_count × bucket_count flow ids
//   then per ring: one util::EventRing<FlightEvent> (head word, then
//            ring_capacity × 4-word slots holding a FlightEvent's bytes)
// ---------------------------------------------------------------------------

using Ring = util::EventRing<FlightEvent>;

constexpr char kRingMagic[8] = {'F', 'P', 'T', 'C', 'F', 'R', 'E', 'C'};
constexpr std::uint64_t kRingVersion = 2;
constexpr std::size_t kFileHeaderWords = 8;
constexpr std::size_t kExemplarWords = kFrecStageCount * kFrecBuckets;
constexpr std::size_t kMinCapacity = 64;
constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

std::size_t region_words(std::size_t capacity)
{
    return kFileHeaderWords + kExemplarWords + kFrecRingCount * Ring::words(capacity);
}

Ring ring_in(std::uint64_t* region, std::size_t capacity, std::size_t ring)
{
    return Ring(region + kFileHeaderWords + kExemplarWords + ring * Ring::words(capacity),
                capacity);
}

std::atomic_ref<std::uint64_t> exemplar_in(std::uint64_t* region, std::size_t stage,
                                           std::size_t bucket)
{
    return std::atomic_ref<std::uint64_t>(
        region[kFileHeaderWords + stage * kFrecBuckets + bucket]);
}

/// The rings and exemplars of a region, live or copied from a dead
/// worker's file: the one decode both postmortem paths share.
Postmortem read_region(std::uint64_t* region, std::size_t capacity)
{
    Postmortem out;
    out.generation = static_cast<std::uint32_t>(region[2]);
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        const Ring ring = ring_in(region, capacity, r);
        out.rings.push_back({static_cast<std::uint32_t>(r), ring.recorded(), ring.dropped(),
                             ring.snapshot()});
    }
    for (std::size_t stage = 0; stage < kFrecStageCount; ++stage) {
        for (std::size_t bucket = 0; bucket < kFrecBuckets; ++bucket) {
            const std::uint64_t flow =
                exemplar_in(region, stage, bucket).load(std::memory_order_relaxed);
            if (flow != 0) {
                out.exemplars.push_back({static_cast<std::uint32_t>(stage),
                                         static_cast<std::uint32_t>(bucket), flow});
            }
        }
    }
    return out;
}

std::uint64_t steady_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<FlightRecorder*> g_recorder{nullptr};

// -------------------------- postmortem codec -------------------------------

constexpr std::string_view kPmMagic = "FPTCPMRT";

} // namespace

// ---------------------------------------------------------------------------
// Vocabulary names
// ---------------------------------------------------------------------------

const char* frec_ring_name(std::uint32_t ring) noexcept
{
    switch (static_cast<FrecRing>(ring)) {
    case FrecRing::driver: return "driver";
    case FrecRing::assembler: return "assembler";
    case FrecRing::classifier: return "classifier";
    }
    return "unknown";
}

const char* frec_kind_name(std::uint32_t kind) noexcept
{
    switch (static_cast<FrecKind>(kind)) {
    case FrecKind::ingest: return "ingest";
    case FrecKind::quarantine: return "quarantine";
    case FrecKind::admit: return "admit";
    case FrecKind::codel_drop: return "codel_drop";
    case FrecKind::window_close: return "window_close";
    case FrecKind::batch_enqueue: return "batch_enqueue";
    case FrecKind::classify_start: return "classify_start";
    case FrecKind::classify_end: return "classify_end";
    case FrecKind::shed: return "shed";
    case FrecKind::unknown_route: return "unknown_route";
    case FrecKind::snapshot_marker: return "snapshot_marker";
    }
    return "unknown";
}

const char* frec_shed_name(std::uint32_t reason) noexcept
{
    switch (static_cast<FrecShed>(reason)) {
    case FrecShed::mem_budget: return "mem_budget";
    case FrecShed::queue_full: return "queue_full";
    case FrecShed::deadline: return "deadline";
    case FrecShed::breaker: return "breaker";
    case FrecShed::slo: return "slo";
    }
    return "unknown";
}

const char* frec_stage_name(std::uint32_t stage) noexcept
{
    switch (static_cast<FrecStage>(stage)) {
    case FrecStage::ingest_wait: return "ingest_wait";
    case FrecStage::assembly: return "assembly";
    case FrecStage::ready_wait: return "ready_wait";
    case FrecStage::backend_compute: return "backend_compute";
    }
    return "unknown";
}

const char* frec_stage_metric_name(FrecStage stage) noexcept
{
    switch (stage) {
    case FrecStage::ingest_wait: return "fptc_serve_stage_ingest_wait_ns";
    case FrecStage::assembly: return "fptc_serve_stage_assembly_ns";
    case FrecStage::ready_wait: return "fptc_serve_stage_ready_wait_ns";
    case FrecStage::backend_compute: return "fptc_serve_stage_backend_compute_ns";
    }
    return "fptc_serve_stage_unknown_ns";
}

std::size_t frec_bucket(std::uint64_t value) noexcept
{
    return static_cast<std::size_t>(std::bit_width(value));
}

const char* postmortem_reason_name(std::uint32_t reason) noexcept
{
    switch (static_cast<PostmortemReason>(reason)) {
    case PostmortemReason::watchdog_stall: return "watchdog_stall";
    case PostmortemReason::breaker_hard_trip: return "breaker_hard_trip";
    case PostmortemReason::sigkill_reap: return "sigkill_reap";
    case PostmortemReason::manual: return "manual";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Postmortem helpers + codec
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> Postmortem::last_watermark() const
{
    std::optional<std::uint64_t> watermark;
    std::uint64_t best_ts = 0;
    for (const RingDump& dump : rings) {
        for (const FlightEvent& event : dump.events) {
            if (event.kind == static_cast<std::uint32_t>(FrecKind::snapshot_marker) &&
                (!watermark.has_value() || event.ts_ns >= best_ts)) {
                best_ts = event.ts_ns;
                watermark = event.arg;
            }
        }
    }
    return watermark;
}

std::uint64_t Postmortem::event_count() const noexcept
{
    std::uint64_t total = 0;
    for (const RingDump& dump : rings) {
        total += dump.events.size();
    }
    return total;
}

std::string encode_postmortem(const Postmortem& postmortem)
{
    util::ByteWriter payload;
    payload.u32(postmortem.reason);
    payload.u32(postmortem.generation);
    payload.string(postmortem.detail);
    payload.u32(static_cast<std::uint32_t>(postmortem.rings.size()));
    for (const Postmortem::RingDump& dump : postmortem.rings) {
        payload.u32(dump.ring);
        payload.u64(dump.recorded);
        payload.u64(dump.dropped);
        payload.u64(dump.events.size());
        for (const FlightEvent& event : dump.events) {
            payload.u64(event.ts_ns);
            payload.u64(event.flow_id);
            payload.u64(event.arg);
            payload.u32(event.kind);
            payload.u32(event.detail);
        }
    }
    payload.u32(static_cast<std::uint32_t>(postmortem.exemplars.size()));
    for (const Postmortem::Exemplar& exemplar : postmortem.exemplars) {
        payload.u32(exemplar.stage);
        payload.u32(exemplar.bucket);
        payload.u64(exemplar.flow_id);
    }
    payload.string(postmortem.metrics_text);
    return util::frame(kPmMagic, kPostmortemVersion, payload.str());
}

std::optional<Postmortem> decode_postmortem(std::string_view bytes)
{
    const std::optional<std::string_view> payload =
        util::unframe(bytes, kPmMagic, kPostmortemVersion);
    if (!payload.has_value()) {
        return std::nullopt;
    }
    constexpr std::size_t kEventBytes = 8 + 8 + 8 + 4 + 4;
    constexpr std::size_t kExemplarBytes = 4 + 4 + 8;
    util::ByteReader in(*payload);
    Postmortem out;
    out.reason = in.u32();
    out.generation = in.u32();
    in.string(out.detail, 1 << 16);
    const std::uint32_t ring_count = in.u32();
    if (!in.ok() || ring_count > 16) {
        return std::nullopt;
    }
    out.rings.reserve(ring_count);
    for (std::uint32_t r = 0; r < ring_count; ++r) {
        Postmortem::RingDump dump;
        dump.ring = in.u32();
        dump.recorded = in.u64();
        dump.dropped = in.u64();
        const std::uint64_t count = in.u64();
        if (!in.fits(count, kEventBytes)) {
            return std::nullopt;
        }
        dump.events.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            FlightEvent event;
            event.ts_ns = in.u64();
            event.flow_id = in.u64();
            event.arg = in.u64();
            event.kind = in.u32();
            event.detail = in.u32();
            dump.events.push_back(event);
        }
        out.rings.push_back(std::move(dump));
    }
    const std::uint32_t exemplar_count = in.u32();
    if (!in.fits(exemplar_count, kExemplarBytes)) {
        return std::nullopt;
    }
    out.exemplars.reserve(exemplar_count);
    for (std::uint32_t i = 0; i < exemplar_count; ++i) {
        Postmortem::Exemplar exemplar;
        exemplar.stage = in.u32();
        exemplar.bucket = in.u32();
        exemplar.flow_id = in.u64();
        out.exemplars.push_back(exemplar);
    }
    in.string(out.metrics_text, std::uint64_t{1} << 26);
    if (!in.at_end()) {
        return std::nullopt;  // truncated, or trailing garbage: refuse
    }
    return out;
}

bool save_postmortem(const std::string& path, const Postmortem& postmortem)
{
    try {
        util::DurableFile::write_file(path, encode_postmortem(postmortem));
        return true;
    } catch (const std::exception& e) {
        util::log_info(std::string("serve: postmortem write failed (") + e.what() + ")");
        return false;
    }
}

std::optional<Postmortem> load_postmortem(const std::string& path)
{
    const std::optional<std::string> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        return std::nullopt;
    }
    return decode_postmortem(*bytes);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

std::string frec_ring_path(const std::string& postmortem_path)
{
    return postmortem_path.empty() ? std::string{} : postmortem_path + ".ring";
}

namespace frec_detail {

std::atomic<int> gate{0};

void note_slow(FrecRing ring, FrecKind kind, std::uint64_t flow_id, std::uint64_t arg,
               std::uint32_t detail) noexcept
{
    FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr) {
        recorder->note(ring, kind, flow_id, arg, detail);
    }
}

void exemplar_slow(FrecStage stage, std::uint64_t value, std::uint64_t flow_id) noexcept
{
    FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr) {
        recorder->observe_exemplar(stage, value, flow_id);
    }
}

} // namespace frec_detail

FlightRecorder::FlightRecorder(const FrecConfig& config) : config_(config)
{
    config_.ring_capacity = std::clamp(config_.ring_capacity, kMinCapacity, kMaxCapacity);
    const std::size_t size = region_words(config_.ring_capacity) * sizeof(std::uint64_t);

    if (!config_.ring_path.empty()) {
        const int fd = ::open(config_.ring_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd >= 0 && ::ftruncate(fd, static_cast<off_t>(size)) == 0) {
            void* mapping =
                ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
            if (mapping != MAP_FAILED) {
                base_ = static_cast<std::uint64_t*>(mapping);
                mapped_ = true;
            }
        }
        if (fd >= 0) {
            ::close(fd);
        }
        if (!mapped_) {
            util::log_info("serve: flight-recorder ring mmap failed for " +
                           config_.ring_path + "; falling back to private memory");
        }
    }
    if (base_ == nullptr) {
        heap_.resize(region_words(config_.ring_capacity));
        base_ = heap_.data();
    }

    // Reinitialize the region unconditionally: a leftover ring file from a
    // previous generation describes a run that already got its postmortem.
    std::memset(base_, 0, size);
    std::memcpy(&base_[0], kRingMagic, sizeof(kRingMagic));
    base_[1] = kRingVersion;
    base_[2] = config_.generation;
    base_[3] = kFrecRingCount;
    base_[4] = config_.ring_capacity;
    base_[5] = kFrecStageCount;
    base_[6] = kFrecBuckets;
    if (mapped_) {
        // Push the header through to the page cache so even an immediate
        // SIGKILL leaves a parseable (if empty) ring file.
        ::msync(base_, size, MS_ASYNC);
    }

    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        rings_[r] = ring_in(base_, config_.ring_capacity, r);
    }
    epoch_ns_ = steady_ns();
    g_recorder.store(this, std::memory_order_release);
    frec_detail::gate.store(1, std::memory_order_release);
}

FlightRecorder::~FlightRecorder()
{
    frec_detail::gate.store(0, std::memory_order_seq_cst);
    g_recorder.store(nullptr, std::memory_order_seq_cst);
    if (mapped_) {
        ::munmap(base_, region_words(config_.ring_capacity) * sizeof(std::uint64_t));
    }
}

void FlightRecorder::note(FrecRing ring, FrecKind kind, std::uint64_t flow_id,
                          std::uint64_t arg, std::uint32_t detail) noexcept
{
    rings_[static_cast<std::size_t>(ring)].push(
        {steady_ns() - epoch_ns_, flow_id, arg, static_cast<std::uint32_t>(kind), detail});
}

void FlightRecorder::observe_exemplar(FrecStage stage, std::uint64_t value,
                                      std::uint64_t flow_id) noexcept
{
    exemplar_in(base_, static_cast<std::size_t>(stage), frec_bucket(value))
        .store(flow_id, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::ring_snapshot(FrecRing ring) const
{
    return rings_[static_cast<std::size_t>(ring)].snapshot();
}

std::uint64_t FlightRecorder::recorded(FrecRing ring) const noexcept
{
    return rings_[static_cast<std::size_t>(ring)].recorded();
}

std::uint64_t FlightRecorder::dropped(FrecRing ring) const noexcept
{
    return rings_[static_cast<std::size_t>(ring)].dropped();
}

std::uint64_t FlightRecorder::recorded_total() const noexcept
{
    std::uint64_t total = 0;
    for (const Ring& ring : rings_) {
        total += ring.recorded();
    }
    return total;
}

std::uint64_t FlightRecorder::dropped_total() const noexcept
{
    std::uint64_t total = 0;
    for (const Ring& ring : rings_) {
        total += ring.dropped();
    }
    return total;
}

std::uint64_t FlightRecorder::exemplar(FrecStage stage, std::size_t bucket) const noexcept
{
    if (bucket >= kFrecBuckets) {
        return 0;
    }
    return exemplar_in(base_, static_cast<std::size_t>(stage), bucket)
        .load(std::memory_order_relaxed);
}

Postmortem FlightRecorder::build_postmortem(PostmortemReason reason, std::string detail,
                                            std::string metrics_text) const
{
    Postmortem out = read_region(base_, config_.ring_capacity);
    out.reason = static_cast<std::uint32_t>(reason);
    out.detail = std::move(detail);
    out.metrics_text = std::move(metrics_text);
    return out;
}

bool FlightRecorder::dump(const std::string& path, PostmortemReason reason,
                          std::string detail) const
{
    if (path.empty()) {
        return false;
    }
    Postmortem postmortem = build_postmortem(reason, std::move(detail),
                                             util::metrics().prometheus_text());
    const bool saved = save_postmortem(path, postmortem);
    if (saved) {
        util::log_info("serve: postmortem written to " + path + " (reason=" +
                       postmortem_reason_name(postmortem.reason) + " events=" +
                       std::to_string(postmortem.event_count()) + ")");
    }
    return saved;
}

void FlightRecorder::remove_backing() noexcept
{
    if (mapped_ && !config_.ring_path.empty()) {
        ::unlink(config_.ring_path.c_str());
    }
}

std::optional<Postmortem> FlightRecorder::read_ring_file(const std::string& ring_path)
{
    const std::optional<std::string> file = util::read_file(ring_path);
    if (!file.has_value() || file->size() < kFileHeaderWords * sizeof(std::uint64_t)) {
        return std::nullopt;
    }
    std::vector<std::uint64_t> words(file->size() / sizeof(std::uint64_t));
    std::memcpy(words.data(), file->data(), words.size() * sizeof(std::uint64_t));
    const std::uint64_t capacity = words[4];
    if (std::memcmp(words.data(), kRingMagic, sizeof(kRingMagic)) != 0 ||
        words[1] != kRingVersion || words[3] != kFrecRingCount ||
        words[5] != kFrecStageCount || words[6] != kFrecBuckets || capacity < kMinCapacity ||
        capacity > kMaxCapacity ||
        file->size() != region_words(capacity) * sizeof(std::uint64_t)) {
        return std::nullopt;
    }
    return read_region(words.data(), static_cast<std::size_t>(capacity));
}

bool FlightRecorder::seal_from_ring_file(const std::string& ring_path,
                                         const std::string& out_path,
                                         PostmortemReason reason, std::uint32_t generation,
                                         std::string detail)
{
    if (ring_path.empty() || out_path.empty()) {
        return false;
    }
    std::optional<Postmortem> postmortem = read_ring_file(ring_path);
    if (!postmortem.has_value()) {
        util::log_info("serve: no decodable flight-recorder ring at " + ring_path +
                       "; postmortem not sealed");
        return false;
    }
    postmortem->reason = static_cast<std::uint32_t>(reason);
    postmortem->generation = generation;
    postmortem->detail = std::move(detail);
    const bool saved = save_postmortem(out_path, *postmortem);
    if (saved) {
        util::log_info("serve: sealed postmortem to " + out_path + " (reason=" +
                       postmortem_reason_name(postmortem->reason) + " generation=" +
                       std::to_string(generation) + " events=" +
                       std::to_string(postmortem->event_count()) + ")");
    }
    return saved;
}

} // namespace fptc::serve
