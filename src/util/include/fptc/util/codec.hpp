// One byte codec for every binary format the repo persists.
//
// Checkpoints (nn/serialize), serve snapshots (serve/snapshot) and flight-
// recorder postmortems (serve/flightrec) all encode fixed-width fields in
// native byte order via memcpy: they are same-host recovery artifacts, not
// interchange formats, and memcpy keeps the codecs trivially ubsan-clean.
//
//   * ByteWriter — appends u32 / u64 / f64 / raw bytes / u64-length-prefixed
//     strings to a growing byte string.
//   * ByteReader — the bounds-checked counterpart.  A read past the end sets
//     a *sticky* failure flag and yields zeros, so a decoder can read a run
//     of fields and test ok() once; at_end() is the trailing-garbage check.
//   * frame / unframe — the shared envelope
//
//         magic[8] | u32 version | payload | u32 crc32(payload)
//
//     unframe returns the payload only when the magic, the exact version and
//     the CRC all match.  Snapshots and postmortems use it; checkpoints keep
//     their legacy u64 (magic << 32 | version) header and u64 CRC so v1–v3
//     files stay loadable, and decode their body with ByteReader.
//   * read_file / read_stream — the one whole-file read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace fptc::util {

class ByteWriter {
public:
    void bytes(const void* data, std::size_t size)
    {
        out_.append(static_cast<const char*>(data), size);
    }
    void u32(std::uint32_t value) { bytes(&value, sizeof value); }
    void u64(std::uint64_t value) { bytes(&value, sizeof value); }
    void f64(double value) { bytes(&value, sizeof value); }
    /// u64 length, then the bytes.
    void string(std::string_view value)
    {
        u64(value.size());
        bytes(value.data(), value.size());
    }

    [[nodiscard]] const std::string& str() const noexcept { return out_; }
    [[nodiscard]] std::string take() noexcept { return std::move(out_); }

private:
    std::string out_;
};

class ByteReader {
public:
    explicit ByteReader(std::string_view data) noexcept : data_(data) {}

    /// Copy `size` bytes out; false (and sticky failure) when fewer remain.
    bool bytes(void* out, std::size_t size) noexcept;
    [[nodiscard]] std::uint32_t u32() noexcept { return scalar<std::uint32_t>(); }
    [[nodiscard]] std::uint64_t u64() noexcept { return scalar<std::uint64_t>(); }
    [[nodiscard]] double f64() noexcept { return scalar<double>(); }
    /// Read a ByteWriter::string; a length above `max_len` or past the end
    /// fails.
    bool string(std::string& out, std::uint64_t max_len);
    /// True when `count` items of at least `item_bytes` each can still fit
    /// in the input; otherwise fails.  Guards a count read from a corrupt
    /// file before it becomes a huge reserve().
    bool fits(std::uint64_t count, std::size_t item_bytes) noexcept;

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] bool at_end() const noexcept { return ok_ && offset_ == data_.size(); }
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }

private:
    template <typename T>
    T scalar() noexcept
    {
        T value{};
        bytes(&value, sizeof value);
        return value;
    }

    std::string_view data_;
    std::size_t offset_ = 0;
    bool ok_ = true;
};

/// Length of a frame's magic.
inline constexpr std::size_t kMagicSize = 8;

/// magic[8] | u32 version | payload | u32 crc32(payload).  `magic` must be
/// kMagicSize bytes.
[[nodiscard]] std::string frame(std::string_view magic, std::uint32_t version,
                                std::string_view payload);

/// The payload of a frame with exactly this magic and version and a
/// matching CRC; nullopt otherwise.  The view points into `bytes`.
[[nodiscard]] std::optional<std::string_view> unframe(std::string_view bytes,
                                                      std::string_view magic,
                                                      std::uint32_t version) noexcept;

/// Everything left in `in`; nullopt on a stream error.
[[nodiscard]] std::optional<std::string> read_stream(std::istream& in);

/// The whole file; nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

} // namespace fptc::util
