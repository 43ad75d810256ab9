#pragma once
/**
 * @file
 * Strict decimal parsing of the command-line tools' numeric arguments
 * (lba_run, lba_trace): a malformed value is a usage error, never a
 * silent default or a wrapped negative.
 */

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace lba::cli {

/**
 * Parse all of @p text as an unsigned decimal in [@p min, @p max]:
 * digits only (no sign, blank or suffix) and no overflow.
 */
template <typename T>
bool
parseCount(const char* text, std::uint64_t min, std::uint64_t max, T* out)
{
    if (*text < '0' || *text > '9') return false;
    errno = 0;
    char* end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || value < min || value > max) {
        return false;
    }
    *out = static_cast<T>(value);
    return true;
}

} // namespace lba::cli
