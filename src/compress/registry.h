#pragma once
/**
 * @file
 * Empty of codecs; only hostbench/e2e_host.cc includes it, for
 * `CodecRegistry::instance().find(kDefaultCodec)->makeEncoder()`,
 * which returns a fresh compress::Encoder (compress/codec.h).
 */

#include <memory>

#include "compress/codec.h"

namespace lba::compress {

/** Empty; only hostbench/e2e_host.cc calls it. */
class CodecRegistry
{
  public:
    struct Entry
    {
        std::unique_ptr<Encoder>
        makeEncoder() const
        {
            return std::make_unique<Encoder>();
        }
    };

    static const CodecRegistry&
    instance()
    {
        static const CodecRegistry registry;
        return registry;
    }

    const Entry* find(const char*) const { return &entry_; }

  private:
    Entry entry_;
};

/** Only hostbench/e2e_host.cc names it. */
inline constexpr const char* kDefaultCodec = kCodecName;

} // namespace lba::compress
