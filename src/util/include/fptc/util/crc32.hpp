// CRC32 (IEEE 802.3, reflected 0xEDB88320) shared by every checksummed
// on-disk format in the repo: the util/codec.hpp frame (serve snapshots,
// postmortems) and the checkpoint trailer (nn/serialize) both append a
// CRC32 of their payload, so a truncated or bit-flipped file is *detected*
// at load instead of being parsed into garbage state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fptc::util {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    return table;
}

inline constexpr auto kCrc32Table = make_crc32_table();

} // namespace detail

/// CRC32 of one contiguous buffer (an empty buffer has CRC 0).
[[nodiscard]] inline std::uint32_t crc32(std::string_view data)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char byte : data) {
        crc = detail::kCrc32Table[(crc ^ static_cast<unsigned char>(byte)) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace fptc::util
