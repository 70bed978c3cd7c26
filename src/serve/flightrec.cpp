#include "fptc/serve/flightrec.hpp"

#include "fptc/util/codec.hpp"
#include "fptc/util/durable.hpp"
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
// Ring-file layout (version 1).  Everything is u64 words so every slot is
// naturally aligned for std::atomic_ref:
//
//   [0..7]   file header: magic, version, generation, ring_count,
//            ring_capacity, stage_count, bucket_count, reserved
//   [8..]    exemplar region: stage_count × bucket_count flow ids
//   then per ring: 8-word ring header (word 0 = head), then
//            ring_capacity × 4-word event slots (ts, flow, arg, kind|detail)
// ---------------------------------------------------------------------------

constexpr char kRingMagic[8] = {'F', 'P', 'T', 'C', 'F', 'R', 'E', 'C'};
constexpr std::uint64_t kRingVersion = 1;
constexpr std::size_t kFileHeaderWords = 8;
constexpr std::size_t kRingHeaderWords = 8;
constexpr std::size_t kWordsPerEvent = 4;
constexpr std::size_t kMinCapacity = 64;
constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

std::size_t exemplar_words()
{
    return kFrecStageCount * kFrecBuckets;
}

std::size_t region_words(std::size_t capacity)
{
    return kFileHeaderWords + exemplar_words() +
           kFrecRingCount * (kRingHeaderWords + capacity * kWordsPerEvent);
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
    words_ = region_words(config_.ring_capacity);
    const std::size_t size = words_ * sizeof(std::uint64_t);

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
        base_ = new std::uint64_t[words_]();
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

    epoch_ns_ = steady_ns();
    g_recorder.store(this, std::memory_order_release);
    frec_detail::gate.store(1, std::memory_order_release);
}

FlightRecorder::~FlightRecorder()
{
    frec_detail::gate.store(0, std::memory_order_seq_cst);
    g_recorder.store(nullptr, std::memory_order_seq_cst);
    if (mapped_) {
        ::munmap(base_, words_ * sizeof(std::uint64_t));
    } else {
        delete[] base_;
    }
    base_ = nullptr;
}

std::uint64_t* FlightRecorder::ring_head(std::size_t ring) const noexcept
{
    const std::size_t ring_words = kRingHeaderWords + config_.ring_capacity * kWordsPerEvent;
    return base_ + kFileHeaderWords + exemplar_words() + ring * ring_words;
}

std::uint64_t* FlightRecorder::ring_slots(std::size_t ring) const noexcept
{
    return ring_head(ring) + kRingHeaderWords;
}

std::uint64_t* FlightRecorder::exemplar_slot(std::size_t stage,
                                             std::size_t bucket) const noexcept
{
    return base_ + kFileHeaderWords + stage * kFrecBuckets + bucket;
}

void FlightRecorder::note(FrecRing ring, FrecKind kind, std::uint64_t flow_id,
                          std::uint64_t arg, std::uint32_t detail) noexcept
{
    const std::size_t r = static_cast<std::size_t>(ring);
    std::uint64_t* head_word = ring_head(r);
    // Single producer per ring: the relaxed head load sees this thread's own
    // last store; the release store publishes the fully-written slot.
    const std::uint64_t head =
        std::atomic_ref<std::uint64_t>(*head_word).load(std::memory_order_relaxed);
    std::uint64_t* slot = ring_slots(r) + (head % config_.ring_capacity) * kWordsPerEvent;
    const std::uint64_t ts = steady_ns() - epoch_ns_;
    const std::uint64_t kd =
        (static_cast<std::uint64_t>(kind) << 32) | static_cast<std::uint64_t>(detail);
    std::atomic_ref<std::uint64_t>(slot[0]).store(ts, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[1]).store(flow_id, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[2]).store(arg, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[3]).store(kd, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(*head_word).store(head + 1, std::memory_order_release);
}

void FlightRecorder::observe_exemplar(FrecStage stage, std::uint64_t value,
                                      std::uint64_t flow_id) noexcept
{
    const std::size_t bucket = frec_bucket(value);
    std::atomic_ref<std::uint64_t>(
        *exemplar_slot(static_cast<std::size_t>(stage), bucket))
        .store(flow_id, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::ring_snapshot(FrecRing ring) const
{
    const std::size_t r = static_cast<std::size_t>(ring);
    const std::uint64_t head =
        std::atomic_ref<std::uint64_t>(*ring_head(r)).load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, config_.ring_capacity);
    std::vector<FlightEvent> out;
    out.reserve(static_cast<std::size_t>(count));
    const std::uint64_t* slots = ring_slots(r);
    for (std::uint64_t i = head - count; i < head; ++i) {
        const std::uint64_t* slot = slots + (i % config_.ring_capacity) * kWordsPerEvent;
        FlightEvent event;
        event.ts_ns = std::atomic_ref<const std::uint64_t>(slot[0])
                          .load(std::memory_order_relaxed);
        event.flow_id = std::atomic_ref<const std::uint64_t>(slot[1])
                            .load(std::memory_order_relaxed);
        event.arg = std::atomic_ref<const std::uint64_t>(slot[2])
                        .load(std::memory_order_relaxed);
        const std::uint64_t kd = std::atomic_ref<const std::uint64_t>(slot[3])
                                     .load(std::memory_order_relaxed);
        event.kind = static_cast<std::uint32_t>(kd >> 32);
        event.detail = static_cast<std::uint32_t>(kd & 0xFFFFFFFFu);
        out.push_back(event);
    }
    return out;
}

std::uint64_t FlightRecorder::recorded(FrecRing ring) const noexcept
{
    return std::atomic_ref<std::uint64_t>(*ring_head(static_cast<std::size_t>(ring)))
        .load(std::memory_order_acquire);
}

std::uint64_t FlightRecorder::dropped(FrecRing ring) const noexcept
{
    const std::uint64_t head = recorded(ring);
    return head > config_.ring_capacity ? head - config_.ring_capacity : 0;
}

std::uint64_t FlightRecorder::recorded_total() const noexcept
{
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        total += recorded(static_cast<FrecRing>(r));
    }
    return total;
}

std::uint64_t FlightRecorder::dropped_total() const noexcept
{
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        total += dropped(static_cast<FrecRing>(r));
    }
    return total;
}

std::uint64_t FlightRecorder::exemplar(FrecStage stage, std::size_t bucket) const noexcept
{
    if (bucket >= kFrecBuckets) {
        return 0;
    }
    return std::atomic_ref<const std::uint64_t>(
               *exemplar_slot(static_cast<std::size_t>(stage), bucket))
        .load(std::memory_order_relaxed);
}

Postmortem FlightRecorder::build_postmortem(PostmortemReason reason, std::string detail,
                                            std::string metrics_text) const
{
    Postmortem out;
    out.reason = static_cast<std::uint32_t>(reason);
    out.generation = config_.generation;
    out.detail = std::move(detail);
    out.metrics_text = std::move(metrics_text);
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        Postmortem::RingDump dump;
        dump.ring = static_cast<std::uint32_t>(r);
        dump.recorded = recorded(static_cast<FrecRing>(r));
        dump.dropped = dropped(static_cast<FrecRing>(r));
        dump.events = ring_snapshot(static_cast<FrecRing>(r));
        out.rings.push_back(std::move(dump));
    }
    for (std::size_t stage = 0; stage < kFrecStageCount; ++stage) {
        for (std::size_t bucket = 0; bucket < kFrecBuckets; ++bucket) {
            const std::uint64_t flow = exemplar(static_cast<FrecStage>(stage), bucket);
            if (flow != 0) {
                out.exemplars.push_back({static_cast<std::uint32_t>(stage),
                                         static_cast<std::uint32_t>(bucket), flow});
            }
        }
    }
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
    const std::string& bytes = *file;
    if (std::memcmp(bytes.data(), kRingMagic, sizeof(kRingMagic)) != 0) {
        return std::nullopt;
    }
    const auto word = [&](std::size_t index) {
        std::uint64_t value = 0;
        std::memcpy(&value, bytes.data() + index * sizeof(std::uint64_t), sizeof(value));
        return value;
    };
    if (word(1) != kRingVersion) {
        return std::nullopt;
    }
    const std::uint64_t generation = word(2);
    const std::uint64_t ring_count = word(3);
    const std::uint64_t capacity = word(4);
    const std::uint64_t stage_count = word(5);
    const std::uint64_t bucket_count = word(6);
    if (ring_count != kFrecRingCount || stage_count != kFrecStageCount ||
        bucket_count != kFrecBuckets || capacity < kMinCapacity ||
        capacity > kMaxCapacity) {
        return std::nullopt;
    }
    const std::size_t expected =
        region_words(static_cast<std::size_t>(capacity)) * sizeof(std::uint64_t);
    if (bytes.size() != expected) {
        return std::nullopt;
    }

    Postmortem out;
    out.generation = static_cast<std::uint32_t>(generation);
    const std::size_t ring_words =
        kRingHeaderWords + static_cast<std::size_t>(capacity) * kWordsPerEvent;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        const std::size_t ring_base = kFileHeaderWords + exemplar_words() + r * ring_words;
        const std::uint64_t head = word(ring_base);
        const std::uint64_t count = std::min(head, capacity);
        Postmortem::RingDump dump;
        dump.ring = static_cast<std::uint32_t>(r);
        dump.recorded = head;
        dump.dropped = head > capacity ? head - capacity : 0;
        dump.events.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = head - count; i < head; ++i) {
            const std::size_t slot = ring_base + kRingHeaderWords +
                                     static_cast<std::size_t>(i % capacity) * kWordsPerEvent;
            FlightEvent event;
            event.ts_ns = word(slot);
            event.flow_id = word(slot + 1);
            event.arg = word(slot + 2);
            const std::uint64_t kd = word(slot + 3);
            event.kind = static_cast<std::uint32_t>(kd >> 32);
            event.detail = static_cast<std::uint32_t>(kd & 0xFFFFFFFFu);
            dump.events.push_back(event);
        }
        out.rings.push_back(std::move(dump));
    }
    for (std::size_t stage = 0; stage < kFrecStageCount; ++stage) {
        for (std::size_t bucket = 0; bucket < kFrecBuckets; ++bucket) {
            const std::uint64_t flow =
                word(kFileHeaderWords + stage * kFrecBuckets + bucket);
            if (flow != 0) {
                out.exemplars.push_back({static_cast<std::uint32_t>(stage),
                                         static_cast<std::uint32_t>(bucket), flow});
            }
        }
    }
    return out;
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
