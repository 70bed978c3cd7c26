// Tests for the checksummed checkpoint format (fptc/nn/serialize.hpp):
// v2 roundtrip, v1 compatibility, corruption detection (bad magic, bad
// version, truncation, bit flips), descriptive mismatch errors, and the
// save_network truncated-write recovery path.
#include "fptc/nn/models.hpp"
#include "fptc/nn/serialize.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/fault.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace fptc;
using nn::Parameter;
using nn::Tensor;

/// Two small parameters with recognizable contents.
std::vector<Parameter> make_params()
{
    std::vector<Parameter> params;
    params.emplace_back(Tensor({2, 3}), "weight");
    params.emplace_back(Tensor({3}), "bias");
    float v = 0.5f;
    for (auto& p : params) {
        for (auto& x : p.value.data()) {
            x = v;
            v += 0.25f;
        }
    }
    return params;
}

std::vector<Parameter*> pointers(std::vector<Parameter>& params)
{
    std::vector<Parameter*> out;
    for (auto& p : params) {
        out.push_back(&p);
    }
    return out;
}

std::string serialized(std::vector<Parameter>& params, std::uint32_t version)
{
    std::ostringstream out(std::ios::binary);
    nn::save_parameters(pointers(params), out, version);
    return out.str();
}

/// Expects load_parameters to throw with `needle` in the message.
void expect_load_error(std::vector<Parameter>& target, const std::string& blob,
                       const std::string& needle)
{
    std::istringstream in(blob, std::ios::binary);
    try {
        nn::load_parameters(pointers(target), in);
        FAIL() << "expected failure containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

TEST(Serialize, RoundTripV2)
{
    auto params = make_params();
    const auto blob = serialized(params, 2);

    auto restored = make_params();
    for (auto& p : restored) {
        p.value.fill(0.0f);
    }
    std::istringstream in(blob, std::ios::binary);
    nn::load_parameters(pointers(restored), in);
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto expected = params[i].value.data();
        const auto got = restored[i].value.data();
        for (std::size_t k = 0; k < expected.size(); ++k) {
            EXPECT_EQ(got[k], expected[k]);
        }
    }
}

TEST(Serialize, V1StreamsRemainReadable)
{
    auto params = make_params();
    const auto v1 = serialized(params, 1);
    const auto v2 = serialized(params, 2);
    // v1 has no trailing 8-byte checksum.
    EXPECT_EQ(v1.size() + 8, v2.size());

    auto restored = make_params();
    for (auto& p : restored) {
        p.value.fill(0.0f);
    }
    std::istringstream in(v1, std::ios::binary);
    nn::load_parameters(pointers(restored), in);
    EXPECT_EQ(restored[0].value.data()[0], params[0].value.data()[0]);
}

TEST(Serialize, RejectsUnknownSaveVersion)
{
    auto params = make_params();
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(nn::save_parameters(pointers(params), out, 4), std::runtime_error);
    EXPECT_THROW(nn::save_parameters(pointers(params), out, 0), std::runtime_error);
}

TEST(Serialize, RejectsBadMagic)
{
    auto params = make_params();
    auto blob = serialized(params, 2);
    blob[7] ^= 0x01; // header is little-endian u64: magic lives in the top bytes
    auto target = make_params();
    expect_load_error(target, blob, "bad magic");
}

TEST(Serialize, RejectsUnsupportedVersion)
{
    auto params = make_params();
    auto blob = serialized(params, 2);
    blob[0] = 9; // version byte
    auto target = make_params();
    expect_load_error(target, blob, "unsupported format version 9");
}

TEST(Serialize, RejectsTruncatedStream)
{
    auto params = make_params();
    auto blob = serialized(params, 2);
    blob.resize(blob.size() / 2);
    auto target = make_params();
    expect_load_error(target, blob, "truncated");
}

TEST(Serialize, RejectsBitFlipViaChecksum)
{
    auto params = make_params();
    auto blob = serialized(params, 2);
    // Flip one payload bit (past header + count, inside tensor data).
    blob[blob.size() - 12] ^= 0x10;
    auto target = make_params();
    expect_load_error(target, blob, "checksum mismatch");
}

TEST(Serialize, CorruptLoadLeavesTargetUntouched)
{
    auto params = make_params();
    auto blob = serialized(params, 2);
    blob[blob.size() - 12] ^= 0x10;

    auto target = make_params();
    for (auto& p : target) {
        p.value.fill(7.0f);
    }
    std::istringstream in(blob, std::ios::binary);
    EXPECT_THROW(nn::load_parameters(pointers(target), in), std::runtime_error);
    for (const auto& p : target) {
        for (const auto x : p.value.data()) {
            EXPECT_EQ(x, 7.0f); // staged load must not half-overwrite
        }
    }
}

TEST(Serialize, CountMismatchNamesBothSides)
{
    auto params = make_params();
    const auto blob = serialized(params, 2);
    std::vector<Parameter> fewer;
    fewer.emplace_back(Tensor({2, 3}), "weight");
    expect_load_error(fewer, blob, "parameter count mismatch (stream has 2, network has 1)");
}

TEST(Serialize, ShapeMismatchNamesParameter)
{
    auto params = make_params();
    const auto blob = serialized(params, 2);
    std::vector<Parameter> wrong;
    wrong.emplace_back(Tensor({2, 3}), "weight");
    wrong.emplace_back(Tensor({4}), "bias");
    expect_load_error(wrong, blob, "parameter 1 ('bias'): shape mismatch");
}

TEST(Serialize, VerifyCheckpointAcceptsGoodRejectsBad)
{
    auto params = make_params();
    const auto good = serialized(params, 2);
    {
        std::istringstream in(good, std::ios::binary);
        std::string error;
        EXPECT_TRUE(nn::verify_checkpoint(in, &error)) << error;
    }
    {
        auto bad = good;
        bad[bad.size() - 12] ^= 0x01;
        std::istringstream in(bad, std::ios::binary);
        std::string error;
        EXPECT_FALSE(nn::verify_checkpoint(in, &error));
        EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    }
    {
        auto torn = good;
        torn.resize(torn.size() - 20);
        std::istringstream in(torn, std::ios::binary);
        EXPECT_FALSE(nn::verify_checkpoint(in));
    }
}

TEST(Serialize, NetworkFileRoundTrip)
{
    nn::ModelConfig config;
    config.num_classes = 3;
    auto network = nn::make_finetune_head(config);
    const auto path =
        (std::filesystem::temp_directory_path() / "fptc_test_checkpoint.bin").string();
    nn::save_network(network, path);

    auto other = nn::make_finetune_head(config);
    nn::load_network(other, path);
    const auto a = network.parameters();
    const auto b = other.parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto da = a[i]->value.data();
        const auto db = b[i]->value.data();
        for (std::size_t k = 0; k < da.size(); ++k) {
            EXPECT_EQ(da[k], db[k]);
        }
    }
    std::remove(path.c_str());
}

TEST(Serialize, V1FileOnDiskRemainsLoadable)
{
    // Compat: a checkpoint written by the v1 (pre-checksum) format and
    // sitting on disk must still load into a current network byte-for-byte.
    nn::ModelConfig config;
    config.num_classes = 3;
    auto network = nn::make_finetune_head(config);
    std::ostringstream blob(std::ios::binary);
    nn::save_parameters(network.parameters(), blob, /*version=*/1);
    const auto path = (std::filesystem::temp_directory_path() / "fptc_test_v1.bin").string();
    {
        std::ofstream out(path, std::ios::binary);
        out << blob.str();
    }

    auto restored = nn::make_finetune_head(config);
    for (auto* p : restored.parameters()) {
        p->value.fill(0.0f);
    }
    nn::load_network(restored, path);
    const auto a = network.parameters();
    const auto b = restored.parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto da = a[i]->value.data();
        const auto db = b[i]->value.data();
        for (std::size_t k = 0; k < da.size(); ++k) {
            EXPECT_EQ(da[k], db[k]);
        }
    }
    std::remove(path.c_str());
}

TEST(Serialize, EnospcMidCheckpointLeavesPreviousCheckpointIntact)
{
    // A full disk during save_network must surface as a transient IoError
    // (executor retries, then degrades) and must NOT touch the previous
    // checkpoint at the same path: the durable layer writes a temp file and
    // only renames after a successful fsync.
    nn::ModelConfig config;
    config.num_classes = 3;
    auto network = nn::make_finetune_head(config);
    const auto path =
        (std::filesystem::temp_directory_path() / "fptc_test_enospc.bin").string();
    nn::save_network(network, path);

    auto changed = nn::make_finetune_head(config);
    for (auto* p : changed.parameters()) {
        p->value.fill(42.0f);
    }
    util::FaultPlan plan;
    plan.enospc_after_bytes = 16; // budget exhausts inside the payload write
    util::fault_injector().configure(plan);
    try {
        nn::save_network(changed, path);
        FAIL() << "expected IoError from injected ENOSPC";
    } catch (const util::IoError& e) {
        EXPECT_TRUE(e.transient()) << e.what();
        EXPECT_NE(std::string(e.what()).find("errno"), std::string::npos) << e.what();
    }
    util::fault_injector().configure(util::FaultPlan{});

    // The original checkpoint still verifies and still holds the ORIGINAL
    // parameters (not the 42-filled ones).
    std::ifstream readback(path, std::ios::binary);
    std::string error;
    ASSERT_TRUE(nn::verify_checkpoint(readback, &error)) << error;
    auto restored = nn::make_finetune_head(config);
    nn::load_network(restored, path);
    EXPECT_EQ(restored.parameters()[0]->value.data()[0],
              network.parameters()[0]->value.data()[0]);
    std::remove(path.c_str());
}

TEST(Serialize, SaveNetworkRecoversFromTruncatedWrite)
{
    // Arm exactly one truncated-write fault: the first write attempt is cut
    // in half, verification fails, and the retry must produce a valid file.
    util::FaultPlan plan;
    plan.truncate_writes = 1;
    util::fault_injector().configure(plan);

    nn::ModelConfig config;
    config.num_classes = 3;
    auto network = nn::make_finetune_head(config);
    const auto path =
        (std::filesystem::temp_directory_path() / "fptc_test_truncated.bin").string();
    nn::save_network(network, path);
    EXPECT_EQ(util::fault_injector().counters().truncated_writes, 1u);
    util::fault_injector().configure(util::FaultPlan{});

    std::ifstream readback(path, std::ios::binary);
    std::string error;
    EXPECT_TRUE(nn::verify_checkpoint(readback, &error)) << error;
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTrailingBytes)
{
    // One byte appended after the CRC is not a checkpoint: both entry points
    // refuse it, as the snapshot and postmortem decoders refuse theirs.
    auto params = make_params();
    const auto blob = serialized(params, 3) + '\0';
    {
        std::istringstream in(blob, std::ios::binary);
        std::string error;
        EXPECT_FALSE(nn::verify_checkpoint(in, &error));
        EXPECT_NE(error.find("trailing"), std::string::npos) << error;
    }
    auto target = make_params();
    expect_load_error(target, blob, "trailing");
}

} // namespace
