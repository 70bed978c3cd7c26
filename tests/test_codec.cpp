// One rejection suite for every binary format the repo persists, run
// through each format's public decoder: the serve snapshot, the flight-
// recorder postmortem, and the model checkpoint (through both
// verify_checkpoint and load_parameters).  Each must accept its pristine
// bytes and refuse every truncation, every single-byte flip, one appended
// byte and a version off by one.  Below the suite, unit tests for the
// shared util/codec.hpp pieces: ByteReader's sticky failure and bounded
// strings, and the frame's magic check.
#include "fptc/nn/models.hpp"
#include "fptc/nn/serialize.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/snapshot.hpp"
#include "fptc/util/codec.hpp"
#include "fptc/util/durable.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace fptc;

namespace {

// ---- the formats under test -------------------------------------------------

std::string snapshot_bytes()
{
    serve::ServeSnapshot snapshot;
    snapshot.watermark = 321;
    snapshot.stream_now = 4.5;
    snapshot.generation = 1;
    snapshot.config_fingerprint = 0xabcd;
    snapshot.counters.flows_ingested = 9;
    snapshot.counters.flows_classified = 7;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        serve::SnapshotFlow flow{.flow_id = id, .label = 3, .first_ts = 1.0, .packets = {}};
        for (int i = 0; i < 3; ++i) {
            flow.packets.push_back(flow::Packet{
                .timestamp = 1.0 + 0.1 * i,
                .size = 60 + i,
                .direction = flow::Direction::upstream,
                .is_ack = false,
            });
        }
        snapshot.flows.push_back(std::move(flow));
    }
    return serve::encode_snapshot(snapshot);
}

bool snapshot_accepts(std::string_view bytes)
{
    return serve::decode_snapshot(bytes).has_value();
}

std::string postmortem_bytes()
{
    serve::Postmortem postmortem;
    postmortem.reason = static_cast<std::uint32_t>(serve::PostmortemReason::manual);
    postmortem.generation = 2;
    postmortem.detail = "codec suite";
    serve::Postmortem::RingDump ring;
    ring.ring = static_cast<std::uint32_t>(serve::FrecRing::classifier);
    ring.recorded = 3;
    for (std::uint64_t i = 0; i < 3; ++i) {
        ring.events.push_back(serve::FlightEvent{
            .ts_ns = 10 * i,
            .flow_id = i,
            .arg = i,
            .kind = static_cast<std::uint32_t>(serve::FrecKind::classify_end),
            .detail = 0,
        });
    }
    postmortem.rings.push_back(std::move(ring));
    postmortem.exemplars.push_back(
        {static_cast<std::uint32_t>(serve::FrecStage::assembly), 5, 2});
    postmortem.metrics_text = "fptc_serve_events_total 3\n";
    return serve::encode_postmortem(postmortem);
}

bool postmortem_accepts(std::string_view bytes)
{
    return serve::decode_postmortem(bytes).has_value();
}

std::vector<nn::Parameter> checkpoint_params()
{
    std::vector<nn::Parameter> params;
    params.emplace_back(nn::Tensor({2, 3}), "weight");
    params.emplace_back(nn::Tensor({3}), "bias");
    float v = -0.75f;
    for (auto& p : params) {
        for (auto& x : p.value.data()) {
            x = v;
            v += 0.25f;
        }
    }
    return params;
}

std::vector<nn::Parameter*> pointers(std::vector<nn::Parameter>& params)
{
    std::vector<nn::Parameter*> out;
    for (auto& p : params) {
        out.push_back(&p);
    }
    return out;
}

std::string checkpoint_bytes()
{
    auto params = checkpoint_params();
    std::ostringstream out(std::ios::binary);
    nn::save_parameters(pointers(params), out, nn::kSerializeVersion, {.temperature = 1.5});
    return out.str();
}

bool checkpoint_verify_accepts(std::string_view bytes)
{
    std::istringstream in(std::string(bytes), std::ios::binary);
    return nn::verify_checkpoint(in);
}

bool checkpoint_load_accepts(std::string_view bytes)
{
    auto target = checkpoint_params();
    std::istringstream in(std::string(bytes), std::ios::binary);
    try {
        nn::load_parameters(pointers(target), in);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

struct Format {
    const char* name;
    std::string (*pristine)();
    bool (*accepts)(std::string_view bytes);
    std::size_t version_offset;  ///< where the u32 version sits
    std::uint32_t version;
};

// Printed in test names: the default would print the struct's pointer
// bytes, which change from run to run.
void PrintTo(const Format& format, std::ostream* out)
{
    *out << format.name << " v" << format.version;
}

// The framed formats keep the version after the 8-byte magic; the
// checkpoint keeps it in the low half of its u64 header.
const Format kFormats[] = {
    {"snapshot", snapshot_bytes, snapshot_accepts, util::kMagicSize, serve::kSnapshotVersion},
    {"postmortem", postmortem_bytes, postmortem_accepts, util::kMagicSize,
     serve::kPostmortemVersion},
    {"checkpoint_verify", checkpoint_bytes, checkpoint_verify_accepts, 0,
     nn::kSerializeVersion},
    {"checkpoint_load", checkpoint_bytes, checkpoint_load_accepts, 0, nn::kSerializeVersion},
};

class CodecRejection : public ::testing::TestWithParam<Format> {};

TEST_P(CodecRejection, AcceptsPristineBytes)
{
    EXPECT_TRUE(GetParam().accepts(GetParam().pristine()));
}

TEST_P(CodecRejection, RejectsEveryTruncation)
{
    const std::string bytes = GetParam().pristine();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(GetParam().accepts(std::string_view(bytes).substr(0, len)))
            << "accepted a truncation to " << len << " of " << bytes.size() << " bytes";
    }
}

TEST_P(CodecRejection, RejectsEveryByteFlip)
{
    const std::string pristine = GetParam().pristine();
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
        std::string corrupt = pristine;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
        EXPECT_FALSE(GetParam().accepts(corrupt)) << "accepted a flip at byte " << byte;
    }
}

TEST_P(CodecRejection, RejectsOneAppendedByte)
{
    EXPECT_FALSE(GetParam().accepts(GetParam().pristine() + '\0'));
}

TEST_P(CodecRejection, RejectsVersionSkew)
{
    for (const std::uint32_t version : {GetParam().version - 1, GetParam().version + 1}) {
        std::string bytes = GetParam().pristine();
        std::memcpy(bytes.data() + GetParam().version_offset, &version, sizeof version);
        EXPECT_FALSE(GetParam().accepts(bytes)) << "accepted version " << version;
    }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecRejection, ::testing::ValuesIn(kFormats),
                         [](const ::testing::TestParamInfo<Format>& info) {
                             return std::string(info.param.name) + "_v" +
                                    std::to_string(info.param.version);
                         });

// ---- the shared pieces -------------------------------------------------------

TEST(ByteReader, ReadsBackWhatByteWriterWrote)
{
    util::ByteWriter out;
    out.u32(7);
    out.u64(1ULL << 40);
    out.f64(-2.5);
    out.string("flowpic");
    const std::string bytes = out.take();
    util::ByteReader in(bytes);
    EXPECT_EQ(in.u32(), 7u);
    EXPECT_EQ(in.u64(), 1ULL << 40);
    EXPECT_EQ(in.f64(), -2.5);
    std::string text;
    EXPECT_TRUE(in.string(text, 64));
    EXPECT_EQ(text, "flowpic");
    EXPECT_TRUE(in.at_end());
}

TEST(ByteReader, FailureStaysSetAfterOverrun)
{
    const std::string bytes(6, '\x01');
    util::ByteReader in(bytes);
    EXPECT_EQ(in.u32(), 0x01010101u);
    EXPECT_EQ(in.u32(), 0u);  // 2 bytes left: overrun yields zero
    EXPECT_FALSE(in.ok());
    // A read that would fit the remaining 2 bytes still fails: sticky.
    char byte = 0;
    EXPECT_FALSE(in.bytes(&byte, 1));
    EXPECT_FALSE(in.ok());
    EXPECT_FALSE(in.at_end());
}

TEST(ByteReader, RefusesOverLongString)
{
    util::ByteWriter out;
    out.string("abcdef");
    const std::string bytes = out.take();
    {
        util::ByteReader in(bytes);
        std::string text;
        EXPECT_FALSE(in.string(text, 5));  // longer than the caller's bound
        EXPECT_FALSE(in.ok());
    }
    {
        // A length prefix past the end of the input.
        util::ByteWriter lying;
        lying.u64(100);
        lying.bytes("abc", 3);
        const std::string short_bytes = lying.take();
        util::ByteReader in(short_bytes);
        std::string text;
        EXPECT_FALSE(in.string(text, 1000));
        EXPECT_FALSE(in.ok());
    }
}

TEST(ByteReader, FitsRefusesCountsTheInputCannotHold)
{
    const std::string bytes(16, '\0');
    util::ByteReader in(bytes);
    EXPECT_TRUE(in.fits(2, 8));
    EXPECT_FALSE(in.fits(3, 8));
    EXPECT_FALSE(in.ok());
}

TEST(Frame, UnframeReturnsThePayloadAndRefusesWrongMagicOrVersion)
{
    const std::string framed = util::frame("FPTCTEST", 5, "payload");
    EXPECT_EQ(framed.size(), util::kMagicSize + 4 + 7 + 4);
    const auto payload = util::unframe(framed, "FPTCTEST", 5);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, "payload");
    EXPECT_FALSE(util::unframe(framed, "FPTCXXXX", 5).has_value());
    EXPECT_FALSE(util::unframe(framed, "FPTCTEST", 6).has_value());
}

TEST(ReadFile, ReturnsTheWholeFileOrNullopt)
{
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("fptc_codec_read_file." + std::to_string(::getpid())))
                                 .string();
    EXPECT_FALSE(util::read_file(path).has_value());
    const std::string bytes = util::frame("FPTCTEST", 1, std::string(5000, 'x'));
    util::DurableFile::write_file(path, bytes);
    const auto read = util::read_file(path);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, bytes);
    std::filesystem::remove(path);
}

} // namespace
