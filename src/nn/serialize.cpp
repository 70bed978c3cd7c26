#include "fptc/nn/serialize.hpp"

#include "fptc/util/codec.hpp"
#include "fptc/util/crc32.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/log.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace fptc::nn {

namespace {

constexpr std::uint32_t kMagic = 0x46505443; // "FPTC"

[[nodiscard]] std::string shape_to_string(const Shape& shape)
{
    std::string out = "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += std::to_string(shape[i]);
    }
    return out + "]";
}

/// Sanity caps on a tensor's rank and element count (keep dimension
/// products read from corrupt files from overflowing; the file size bounds
/// the allocation).
constexpr std::uint64_t kMaxElements = 1ULL << 33;
constexpr std::uint64_t kMaxRank = 16;

/// A fully validated checkpoint: the tensors in file order, plus the
/// calibration (T = 1 for v1/v2).
struct Checkpoint {
    std::vector<Shape> shapes;
    std::vector<std::vector<float>> tensors;
    Calibration calibration;
};

/// The one checkpoint parse, shared by load_parameters and
/// verify_checkpoint.  Structural checks (magic, version, counts, shapes,
/// length, no trailing bytes) come first, then the CRC, then the semantic
/// checks: a corrupt byte stream fails as "checksum mismatch", not as
/// whatever garbage float it happened to decode to, and only bytes the
/// writer really wrote can fail as CheckpointError.  Errors start `who: `.
[[nodiscard]] Checkpoint decode_checkpoint(std::string_view bytes, const std::string& who)
{
    util::ByteReader in(bytes);
    const auto need = [&](const std::string& what) {
        if (!in.ok()) {
            throw std::runtime_error(who + ": truncated stream while reading " + what);
        }
    };
    const std::uint64_t header = in.u64();
    need("header");
    if ((header >> 32) != kMagic) {
        throw std::runtime_error(who + ": bad magic (not an FPTC checkpoint)");
    }
    const auto version = static_cast<std::uint32_t>(header & 0xffffffffULL);
    if (version < 1 || version > kSerializeVersion) {
        throw std::runtime_error(who + ": unsupported format version " +
                                 std::to_string(version) + " (supported: 1.." +
                                 std::to_string(kSerializeVersion) + ")");
    }

    Checkpoint out;
    const std::uint64_t count = in.u64();
    in.fits(count, sizeof(std::uint64_t));  // every parameter starts with its rank
    need("parameter count");
    out.shapes.resize(static_cast<std::size_t>(count));
    out.tensors.resize(static_cast<std::size_t>(count));
    for (std::size_t index = 0; index < count; ++index) {
        const std::string context = "parameter " + std::to_string(index);
        const std::uint64_t rank = in.u64();
        need(context + " rank");
        if (rank > kMaxRank) {
            throw std::runtime_error(who + ": " + context + ": implausible rank " +
                                     std::to_string(rank) + " (corrupt stream?)");
        }
        std::uint64_t elements = 1;
        for (std::uint64_t d = 0; d < rank; ++d) {
            const std::uint64_t dim = in.u64();
            need(context + " shape");
            if (dim == 0 || elements > kMaxElements / dim) {
                throw std::runtime_error(who + ": " + context + ": implausible shape");
            }
            elements *= dim;
            out.shapes[index].push_back(static_cast<std::size_t>(dim));
        }
        std::vector<float>& tensor = out.tensors[index];
        if (in.fits(elements, sizeof(float))) {
            tensor.resize(static_cast<std::size_t>(elements));
            in.bytes(tensor.data(), tensor.size() * sizeof(float));
        }
        need(context + " data");
    }
    if (version >= 3) {
        out.calibration.temperature = in.f64();
        need("calibration temperature");
    }
    const std::uint32_t computed = util::crc32(bytes.substr(sizeof header, in.offset() - sizeof header));
    std::uint64_t stored = computed;
    if (version >= 2) {
        stored = in.u64();
        need("checksum");
    }
    if (!in.at_end()) {
        throw std::runtime_error(who + ": " + std::to_string(in.remaining()) +
                                 " trailing bytes after the checkpoint");
    }
    if (stored != computed) {
        throw std::runtime_error(who + ": checksum mismatch (stored " + std::to_string(stored) +
                                 ", computed " + std::to_string(computed) +
                                 ") — checkpoint corrupt or truncated");
    }

    // Semantic validation: the CRC proves the bytes are the writer's bytes,
    // this proves the writer's bytes are a model.  Fails *typed*
    // (CheckpointError) so callers know a retry cannot help.  The negated
    // range checks also catch NaN.
    for (std::size_t index = 0; index < out.tensors.size(); ++index) {
        for (const float w : out.tensors[index]) {
            if (!(std::abs(w) <= kMaxAbsWeight)) {
                const char* defect = std::isnan(w)   ? "NaN"
                                     : std::isinf(w) ? "infinite"
                                                     : "out-of-range";
                throw CheckpointError(who + ": parameter " + std::to_string(index) +
                                      " contains a " + defect + " weight (" +
                                      std::to_string(w) + ") — checkpoint semantically invalid");
            }
        }
    }
    const double temperature = out.calibration.temperature;
    if (!(temperature > 0.0 && temperature <= kMaxTemperature)) {
        throw CheckpointError(who + ": " +
                              (std::isfinite(temperature) ? "out-of-range" : "non-finite") +
                              " calibration temperature (" + std::to_string(temperature) +
                              ") — checkpoint semantically invalid");
    }
    return out;
}

} // namespace

void save_parameters(const std::vector<Parameter*>& parameters, std::ostream& out,
                     std::uint32_t version, const Calibration& calibration)
{
    if (version < 1 || version > kSerializeVersion) {
        throw std::runtime_error("save_parameters: unsupported format version " +
                                 std::to_string(version));
    }
    util::ByteWriter blob;
    blob.u64((static_cast<std::uint64_t>(kMagic) << 32) | version);
    blob.u64(parameters.size());
    for (const auto* p : parameters) {
        blob.u64(p->value.shape().size());
        for (const auto d : p->value.shape()) {
            blob.u64(d);
        }
        const auto data = p->value.data();
        blob.bytes(data.data(), data.size() * sizeof(float));
    }
    if (version >= 3) {
        blob.f64(calibration.temperature);
    }
    if (version >= 2) {
        blob.u64(util::crc32(std::string_view(blob.str()).substr(sizeof(std::uint64_t))));
    }
    out.write(blob.str().data(), static_cast<std::streamsize>(blob.str().size()));
    if (!out) {
        throw std::runtime_error("save_parameters: stream failure");
    }
}

void load_parameters(const std::vector<Parameter*>& parameters, std::istream& in,
                     Calibration* calibration)
{
    const std::string who = "load_parameters";
    Checkpoint checkpoint = decode_checkpoint(util::read_stream(in).value_or(""), who);
    if (checkpoint.tensors.size() != parameters.size()) {
        throw std::runtime_error(who + ": parameter count mismatch (stream has " +
                                 std::to_string(checkpoint.tensors.size()) + ", network has " +
                                 std::to_string(parameters.size()) + ")");
    }
    // Every check passes before the first copy, so a rejected checkpoint
    // never leaves the target network half-overwritten.
    for (std::size_t index = 0; index < parameters.size(); ++index) {
        const auto* p = parameters[index];
        if (checkpoint.shapes[index] != p->value.shape()) {
            throw std::runtime_error(who + ": parameter " + std::to_string(index) +
                                     (p->name.empty() ? "" : " ('" + p->name + "')") +
                                     ": shape mismatch (stream " +
                                     shape_to_string(checkpoint.shapes[index]) + ", network " +
                                     shape_to_string(p->value.shape()) + ")");
        }
    }
    for (std::size_t index = 0; index < parameters.size(); ++index) {
        auto data = parameters[index]->value.data();
        std::copy(checkpoint.tensors[index].begin(), checkpoint.tensors[index].end(),
                  data.begin());
    }
    if (calibration != nullptr) {
        *calibration = checkpoint.calibration;
    }
}

bool verify_checkpoint(std::istream& in, std::string* error)
{
    try {
        const std::string who = "verify_checkpoint";
        (void)decode_checkpoint(util::read_stream(in).value_or(""), who);
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    return true;
}

void save_network(Sequential& network, const std::string& path, const Calibration& calibration)
{
    // Serialize to memory first so a truncated write never leaves a partial
    // file at `path` (durable temp + fsync + rename + dir fsync via
    // util::atomic_write_file), then re-verify the bytes on disk; a
    // corrupted write (e.g. the fault injector's truncated-write fault, or
    // a full disk) is detected and rewritten once.  An ENOSPC or fsync
    // failure surfaces as util::IoError (transient), which the campaign
    // executor retries and then degrades — the previous checkpoint at
    // `path`, if any, is left untouched.
    std::ostringstream buffer(std::ios::binary);
    save_parameters(network.parameters(), buffer, kSerializeVersion, calibration);
    const std::string blob = buffer.str();

    constexpr int kAttempts = 2;
    std::string last_error;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        std::string written = blob;
        if (util::fault_injector().inject_truncated_write()) {
            written.resize(written.size() / 2);
            util::log_info("save_network: fault injector truncated checkpoint write to " + path);
        }
        util::atomic_write_file(path, written);

        std::ifstream readback(path, std::ios::binary);
        std::string error;
        if (readback && verify_checkpoint(readback, &error)) {
            return;
        }
        last_error = error.empty() ? "cannot re-open " + path : error;
        util::log_info("save_network: checkpoint verification failed (" + last_error +
                       "); rewriting");
    }
    throw std::runtime_error("save_network: checkpoint at " + path +
                             " failed verification after rewrite: " + last_error);
}

void load_network(Sequential& network, const std::string& path, Calibration* calibration)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw std::runtime_error("load_network: cannot open " + path);
    }
    load_parameters(network.parameters(), file, calibration);
}

} // namespace fptc::nn
