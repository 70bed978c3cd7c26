#include "fptc/util/codec.hpp"

#include "fptc/util/crc32.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace fptc::util {

bool ByteReader::bytes(void* out, std::size_t size) noexcept
{
    if (!ok_ || size > remaining()) {
        ok_ = false;
        return false;
    }
    std::memcpy(out, data_.data() + offset_, size);
    offset_ += size;
    return true;
}

bool ByteReader::string(std::string& out, std::uint64_t max_len)
{
    const std::uint64_t len = u64();
    if (!ok_ || len > max_len || len > remaining()) {
        ok_ = false;
        return false;
    }
    out.assign(data_.data() + offset_, static_cast<std::size_t>(len));
    offset_ += static_cast<std::size_t>(len);
    return true;
}

bool ByteReader::fits(std::uint64_t count, std::size_t item_bytes) noexcept
{
    if (!ok_ || count > remaining() / item_bytes) {
        ok_ = false;
    }
    return ok_;
}

std::string frame(std::string_view magic, std::uint32_t version, std::string_view payload)
{
    ByteWriter out;
    out.bytes(magic.data(), kMagicSize);
    out.u32(version);
    out.bytes(payload.data(), payload.size());
    out.u32(crc32(payload));
    return out.take();
}

std::optional<std::string_view> unframe(std::string_view bytes, std::string_view magic,
                                        std::uint32_t version) noexcept
{
    constexpr std::size_t kHeader = kMagicSize + sizeof(std::uint32_t);
    constexpr std::size_t kTrailer = sizeof(std::uint32_t);
    if (bytes.size() < kHeader + kTrailer || bytes.substr(0, kMagicSize) != magic) {
        return std::nullopt;
    }
    ByteReader header(bytes.substr(kMagicSize));
    ByteReader trailer(bytes.substr(bytes.size() - kTrailer));
    const std::string_view payload = bytes.substr(kHeader, bytes.size() - kHeader - kTrailer);
    if (header.u32() != version || trailer.u32() != crc32(payload)) {
        return std::nullopt;
    }
    return payload;
}

std::optional<std::string> read_stream(std::istream& in)
{
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return std::nullopt;
    }
    return std::move(buffer).str();
}

std::optional<std::string> read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    return read_stream(in);
}

} // namespace fptc::util
