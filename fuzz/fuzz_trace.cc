/**
 * @file
 * Trace-file fuzz harness: arbitrary bytes as an on-disk `.lbat` file,
 * read back through compress::readTraceInfo and compress::readTrace.
 *
 * A trace file wraps the codec stream in a header (magic, version,
 * record count, payload length, codec name), as a gzip member wraps
 * its deflate stream, so the harness fuzzes the header's checks and
 * the payload's decoding together. The contract under test
 * (compress/trace_file.h): neither reader aborts on any file; a
 * successful readTrace returns exactly the header's record count; a
 * failed read carries a typed DecodeError.
 *
 * The readers take a path, so each input is written to one temporary
 * file per process first.
 */

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.h"
#include "compress/trace_file.h"

namespace {

/** This process's temporary trace file, removed at exit. */
class ScratchFile
{
  public:
    ScratchFile()
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "fuzz_trace_XXXXXX")
                    .string();
        int fd = mkstemp(path_.data());
        LBA_ASSERT(fd >= 0, "cannot create a temporary trace file");
        close(fd);
    }

    ~ScratchFile() { std::remove(path_.c_str()); }

    ScratchFile(const ScratchFile&) = delete;
    ScratchFile& operator=(const ScratchFile&) = delete;

    /** Replace the file's contents with @p data. */
    void
    write(const std::uint8_t* data, std::size_t size)
    {
        std::FILE* file = std::fopen(path_.c_str(), "wb");
        LBA_ASSERT(file != nullptr, "cannot open the temporary trace file");
        bool ok = size == 0 || std::fwrite(data, 1, size, file) == size;
        ok = std::fclose(file) == 0 && ok;
        LBA_ASSERT(ok, "cannot write the temporary trace file");
    }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    using namespace lba::compress;
    static ScratchFile file;
    file.write(data, size);

    DecodeError info_error;
    std::optional<TraceInfo> info =
        readTraceInfo(file.path(), &info_error);
    LBA_ASSERT(info.has_value() == info_error.ok(),
               "readTraceInfo fails exactly when it reports a typed error");

    DecodeError error;
    std::optional<std::vector<lba::log::EventRecord>> records =
        readTrace(file.path(), &error);
    if (records) {
        LBA_ASSERT(error.ok(), "a successful readTrace reports no error");
        LBA_ASSERT(info.has_value(),
                   "readTrace read a file whose header readTraceInfo "
                   "rejects");
        LBA_ASSERT(records->size() == info->records,
                   "readTrace must return exactly the declared records");
    } else {
        LBA_ASSERT(!error.ok(), "a failed readTrace carries a typed error");
    }
    return 0;
}
