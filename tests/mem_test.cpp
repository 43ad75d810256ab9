/**
 * @file
 * Tests for sparse memory and the cache/hierarchy timing models,
 * including an LRU-correctness property check against a reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <ostream>
#include <utility>
#include <vector>

#include "log/capture.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/memory.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::mem {

/** Names a cache geometry in test output (found by argument lookup). */
void
PrintTo(const CacheConfig& config, std::ostream* os)
{
    *os << config.name;
}

namespace {

TEST(Memory, UntouchedReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read8(0x1234), 0u);
    EXPECT_EQ(m.read64(0xdeadbeef), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory m;
    m.write8(0x42, 0xab);
    EXPECT_EQ(m.read8(0x42), 0xab);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(Memory, Word64RoundTripLittleEndian)
{
    Memory m;
    m.write64(0x1000, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(0x1000), 0x1122334455667788ull);
    EXPECT_EQ(m.read8(0x1000), 0x88);
    EXPECT_EQ(m.read8(0x1007), 0x11);
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    Addr addr = Memory::kPageBytes - 4;
    m.write64(addr, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.read64(addr), 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(Memory, Word32RoundTrip)
{
    Memory m;
    m.write32(0x2000, 0xcafebabe);
    EXPECT_EQ(m.read32(0x2000), 0xcafebabeu);
    EXPECT_EQ(m.readValue(0x2000, 4), 0xcafebabeull);
}

TEST(Memory, WriteBytesBulk)
{
    Memory m;
    std::uint8_t data[] = {1, 2, 3, 4, 5};
    m.writeBytes(0x3000, data, sizeof(data));
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(m.read8(0x3000 + i), i + 1);
    }
}

TEST(Memory, WordsAtEveryOffsetNearAPageEnd)
{
    // Offsets 4088..4095 cover in-page 4- and 8-byte accesses, the last
    // in-page ones and every page-straddling one.
    constexpr Addr kPage = 5 * Memory::kPageBytes;
    for (unsigned width : {4u, 8u}) {
        for (Addr offset = 4088; offset < Memory::kPageBytes; ++offset) {
            Memory m;
            Addr addr = kPage + offset;
            std::uint64_t value = 0x8877665544332211ull;
            if (width == 4) value &= 0xffffffffull;
            m.writeValue(addr, value, width);
            EXPECT_EQ(m.readValue(addr, width), value)
                << "width " << width << " offset " << offset;
            for (unsigned b = 0; b < width; ++b) {
                EXPECT_EQ(m.read8(addr + b), 0x11 * (b + 1))
                    << "width " << width << " offset " << offset
                    << " byte " << b;
            }
            EXPECT_EQ(m.read8(addr - 1), 0u);
            EXPECT_EQ(m.read8(addr + width), 0u);
            bool straddles = offset + width > Memory::kPageBytes;
            EXPECT_EQ(m.numPages(), straddles ? 2u : 1u);
            if (width == 4) {
                EXPECT_EQ(m.read32(addr), value);
            } else {
                EXPECT_EQ(m.read64(addr), value);
            }
        }
    }
}

TEST(Memory, UntouchedPageBetweenTouchedOnesReadsZero)
{
    Memory m;
    constexpr Addr kPage = Memory::kPageBytes;
    m.write64(1 * kPage + 8, 0x0102030405060708ull);
    m.write64(3 * kPage + 8, 0x1112131415161718ull);
    EXPECT_EQ(m.read64(1 * kPage + 8), 0x0102030405060708ull);
    EXPECT_EQ(m.read64(2 * kPage + 8), 0u);
    EXPECT_EQ(m.read32(2 * kPage + 8), 0u);
    EXPECT_EQ(m.read8(2 * kPage + 8), 0u);
    EXPECT_EQ(m.read64(3 * kPage + 8), 0x1112131415161718ull);
    EXPECT_EQ(m.read64(1 * kPage + 8), 0x0102030405060708ull);
    EXPECT_EQ(m.numPages(), 2u);
    // Writing the page right after reading it untouched materializes
    // it.
    EXPECT_EQ(m.read64(2 * kPage + 8), 0u);
    m.write32(2 * kPage + 8, 0xa1a2a3a4u);
    EXPECT_EQ(m.read32(2 * kPage + 8), 0xa1a2a3a4u);
    EXPECT_EQ(m.read8(2 * kPage + 8), 0xa4u);
    EXPECT_EQ(m.read64(3 * kPage + 8), 0x1112131415161718ull);
    EXPECT_EQ(m.read64(1 * kPage + 8), 0x0102030405060708ull);
    EXPECT_EQ(m.numPages(), 3u);
}

TEST(Memory, MoveKeepsContents)
{
    Memory a;
    a.write64(0x5000, 42);
    Memory b(std::move(a));
    EXPECT_EQ(b.read64(0x5000), 42u);
    b.write64(0x5008, 7);
    EXPECT_EQ(b.read64(0x5008), 7u);
}

TEST(Cache, FirstAccessMissesThenHits)
{
    Cache c({"t", 1024, 64, 2});
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x13f, false)); // same 64B line
    EXPECT_FALSE(c.access(0x140, false)); // next line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets -> 256B total.
    Cache c({"t", 256, 64, 2});
    // Three lines mapping to set 0: addresses 0, 128, 256.
    c.access(0, false);
    c.access(128, false);
    c.access(0, false);   // refresh 0
    c.access(256, false); // evicts 128 (LRU)
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(128));
    EXPECT_TRUE(c.probe(256));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c({"t", 256, 64, 2});
    c.access(0, true); // dirty
    c.access(128, false);
    c.access(256, false); // evicts dirty line 0
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({"t", 1024, 64, 2});
    c.access(0x100, false);
    c.flush();
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.access(0x100, false)); // miss again
}

TEST(Cache, MissRatio)
{
    Cache c({"t", 1024, 64, 2});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.25);
}

/**
 * A naive write-back true-LRU cache: per set, a list of lines most
 * recent first. The reference for Cache, repeat-line accesses included.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheConfig& config)
        : line_shift_(std::countr_zero(config.line_bytes)),
          sets_(config.size_bytes /
                (config.line_bytes * config.associativity)),
          ways_(config.associativity)
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        std::uint64_t line = addr >> line_shift_;
        auto& set = sets_[line % sets_.size()];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Entry& e) { return e.line == line; });
        if (it != set.end()) {
            Entry entry{line, it->dirty || is_write};
            set.erase(it);
            set.push_front(entry);
            ++stats.hits;
            return true;
        }
        ++stats.misses;
        if (set.size() == ways_) {
            ++stats.evictions;
            if (set.back().dirty) ++stats.writebacks;
            set.pop_back();
        }
        set.push_front({line, is_write});
        return false;
    }

    bool
    contains(Addr addr) const
    {
        std::uint64_t line = addr >> line_shift_;
        const auto& set = sets_[line % sets_.size()];
        return std::any_of(set.begin(), set.end(),
                           [&](const Entry& e) { return e.line == line; });
    }

    void
    flush()
    {
        for (auto& set : sets_) set.clear();
    }

    CacheStats stats;

  private:
    struct Entry
    {
        std::uint64_t line;
        bool dirty;
    };
    unsigned line_shift_;
    std::vector<std::list<Entry>> sets_;
    std::size_t ways_;
};

/**
 * Property: the cache agrees with the naive write-back true-LRU
 * reference on a read/write stream with a mid-stream flush, for several
 * geometries (an odd 3-way and a wide 16-way one among them, for the
 * victim scan): hit or miss on every access, probe() membership after
 * every access, and all four stats. The stream mixes repeat-line
 * accesses, random lines of a 4 MB space, and a pool of lines that
 * conflict in the first and last sets, so it has repeat hits, scanned
 * hits, evictions and dirty writebacks. The pool holds the lines at
 * address 0 and at ~0ull, and tags that differ only in their top bits.
 */
class LruProperty : public ::testing::TestWithParam<CacheConfig>
{
};

TEST_P(LruProperty, MatchesNaiveLruOnConflictingReadWriteStream)
{
    const CacheConfig& cfg = GetParam();
    Cache cache(cfg);
    ReferenceLru ref(cfg);
    std::size_t sets = cache.numSets();
    unsigned line_shift = std::countr_zero(cfg.line_bytes);
    unsigned set_shift = std::countr_zero(sets);

    std::uint64_t top_tag = ~0ull >> (line_shift + set_shift);
    std::vector<std::uint64_t> tags = {top_tag, top_tag - 1, top_tag >> 1,
                                       top_tag >> 2};
    for (std::uint64_t t = 0; t < cfg.associativity + 2; ++t) {
        tags.push_back(t);
    }
    std::vector<Addr> pool;
    for (std::uint64_t set : {std::uint64_t{0}, sets - 1}) {
        for (std::uint64_t tag : tags) {
            pool.push_back(((tag << set_shift) | set) << line_shift);
        }
    }

    std::uint64_t state = 0x5eed ^ cfg.size_bytes ^ cfg.associativity;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    auto lineAddr = [&](Addr line_base) {
        return line_base | (next() & (cfg.line_bytes - 1));
    };
    Addr addr = 0;
    for (int i = 0; i < 40000; ++i) {
        if (i == 20000) {
            cache.flush();
            ref.flush();
        }
        std::uint64_t pick = next() % 6;
        if (pick == 0 || pick == 1) {
            addr = next() % (1 << 22);
        } else if (pick < 5) {
            addr = lineAddr(pool[next() % pool.size()]);
        } // else: repeat the previous address
        bool is_write = next() % 4 == 0;
        bool expected = ref.access(addr, is_write);
        ASSERT_EQ(cache.access(addr, is_write), expected)
            << cfg.name << " access " << i << " addr " << addr;
        ASSERT_TRUE(cache.probe(addr)) << cfg.name << " access " << i;
        Addr other = lineAddr(pool[next() % pool.size()]);
        ASSERT_EQ(cache.probe(other), ref.contains(other))
            << cfg.name << " access " << i << " probe " << other;
    }
    EXPECT_EQ(cache.stats().hits, ref.stats.hits);
    EXPECT_EQ(cache.stats().misses, ref.stats.misses);
    EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
    EXPECT_EQ(cache.stats().writebacks, ref.stats.writebacks);
    EXPECT_GT(ref.stats.evictions, 0u);
    EXPECT_GT(ref.stats.writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruProperty,
    ::testing::Values(CacheConfig{"c1k_4way", 1024, 64, 4},
                      CacheConfig{"l1_16k_4way", 16 * 1024, 64, 4},
                      CacheConfig{"l1_16k_1way", 16 * 1024, 64, 1},
                      CacheConfig{"c64k_8way", 64 * 1024, 64, 8},
                      CacheConfig{"c4k_2way", 4 * 1024, 64, 2},
                      CacheConfig{"c12k_3way", 12 * 1024, 64, 3},
                      CacheConfig{"c64k_16way", 64 * 1024, 64, 16},
                      CacheConfig{"l2_512k_8way", 512 * 1024, 64, 8},
                      CacheConfig{"byte_lines_1set", 4, 1, 4},
                      CacheConfig{"byte_lines_2sets", 8, 1, 4},
                      CacheConfig{"halfword_lines_1set", 8, 2, 4}),
    [](const ::testing::TestParamInfo<CacheConfig>& info) {
        return info.param.name;
    });

TEST(Cache, WholeAddressTagsNeverAliasAnInvalidWay)
{
    // 1-byte lines and one set: the tag is the whole 64-bit address, so
    // no tag value is free to mean "invalid". A fresh or flushed way
    // must not match tag 0, and ~0ull must stay distinct from tags that
    // differ from it only in the top bits.
    Cache c({"t", 4, 1, 4});
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.access(~0ull, false));
    EXPECT_TRUE(c.access(~0ull, false));
    EXPECT_FALSE(c.access(0, true));
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(~0ull >> 1, false));
    EXPECT_FALSE(c.access(~0ull >> 2, false));
    EXPECT_TRUE(c.access(~0ull, false));
    EXPECT_EQ(c.stats().hits, 3u);
    EXPECT_EQ(c.stats().misses, 4u);
    EXPECT_EQ(c.stats().evictions, 0u);

    // A fifth line evicts the LRU one, the dirty line at 0.
    EXPECT_FALSE(c.access(1, false));
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.stats().writebacks, 1u);

    c.flush();
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.probe(~0ull));
    EXPECT_FALSE(c.access(0, false));
    EXPECT_TRUE(c.access(0, false));
}

TEST(Hierarchy, PaperConfiguration)
{
    CacheHierarchy h(HierarchyConfig{});
    EXPECT_EQ(h.l1i(0).config().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l1d(0).config().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l2().config().size_bytes, 512u * 1024);
}

TEST(Hierarchy, LatenciesByLevel)
{
    HierarchyConfig cfg;
    cfg.l2_hit_cycles = 6;
    cfg.mem_cycles = 100;
    CacheHierarchy h(cfg);
    // Cold: L1 miss + L2 miss.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 106u);
    // Warm L1.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 0u);
    h.flushAll();
    // After flush: cold again.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 106u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    h.dataAccess(0, 0x1000, false); // install in L1 + L2
    // Blow L1 (16KB, 4-way): touch 16KB/64 * 4 distinct lines mapping
    // everywhere.
    for (Addr a = 0x100000; a < 0x100000 + 64 * 1024; a += 64) {
        h.dataAccess(0, a, false);
    }
    // 0x1000 should be out of L1 but still in 512KB L2.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, CoresHavePrivateL1s)
{
    HierarchyConfig cfg;
    cfg.num_cores = 2;
    CacheHierarchy h(cfg);
    h.dataAccess(0, 0x1000, false);
    // Core 1 misses its own L1 but hits the shared L2.
    EXPECT_EQ(h.dataAccess(1, 0x1000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, SplitL1InstructionAndData)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    h.instrFetch(0, 0x1000);
    // A data access to the same address does not hit L1D (split caches),
    // but hits L2.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), cfg.l2_hit_cycles);
}

/** Every hit, miss, eviction and writeback count of @p cache. */
std::vector<std::uint64_t>
counts(const Cache& cache)
{
    const CacheStats& stats = cache.stats();
    return {stats.hits, stats.misses, stats.evictions, stats.writebacks};
}

TEST(Hierarchy, RetireIsItsL1HalfThenItsL2Half)
{
    // mcf's retirements on core 0, each load or store followed by a
    // handler-like access of core 1 to a shadow address, over an L2 of
    // 32 KB, so the L2 evicts lines the L1s still hold. Hierarchy
    // `whole` charges each retirement with retire(); `split` runs every
    // retirement's L1 half first, ahead of the whole stream as the
    // pipeline's producer step may, then replays the L2 halves in order
    // among core 1's accesses. The private, non-inclusive L1s make the
    // two the same, retirement by retirement.
    auto generated = workload::generate(*workload::findProfile("mcf"), {},
                                        100000);
    std::vector<log::EventRecord> stream;
    log::CaptureUnit capture([&](const log::EventRecord& r) {
        if (!log::isAnnotation(r.type)) stream.push_back(r);
    });
    sim::Process process;
    process.load(generated.program);
    process.run(&capture);
    ASSERT_GT(stream.size(), 90000u);

    HierarchyConfig cfg;
    cfg.num_cores = 2;
    cfg.l2_bytes = 32 * 1024;
    CacheHierarchy whole(cfg);
    CacheHierarchy split(cfg);
    auto is_mem = [](const log::EventRecord& r) {
        return r.type == log::EventType::kLoad ||
               r.type == log::EventType::kStore;
    };
    auto is_write = [](const log::EventRecord& r) {
        return r.type == log::EventType::kStore;
    };
    auto shadow = [](const log::EventRecord& r) {
        return 0x700000000000ull + (r.addr >> 3);
    };

    std::vector<std::uint8_t> misses;
    for (const log::EventRecord& r : stream) {
        misses.push_back(
            split.retireL1(0, r.pc, is_mem(r), r.addr, is_write(r)));
    }
    std::uint64_t l1_misses = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const log::EventRecord& r = stream[i];
        Cycles cost =
            whole.retire(0, r.pc, is_mem(r), r.addr, is_write(r));
        ASSERT_EQ(split.retireL2(misses[i], r.pc, r.addr, is_write(r)),
                  cost)
            << "retirement " << i;
        l1_misses += std::popcount(misses[i]);
        if (is_mem(r)) {
            ASSERT_EQ(split.dataAccess(1, shadow(r), is_write(r)),
                      whole.dataAccess(1, shadow(r), is_write(r)))
                << "retirement " << i;
        }
    }
    EXPECT_EQ(counts(split.l1i(0)), counts(whole.l1i(0)));
    EXPECT_EQ(counts(split.l1d(0)), counts(whole.l1d(0)));
    EXPECT_EQ(counts(split.l1d(1)), counts(whole.l1d(1)));
    EXPECT_EQ(counts(split.l2()), counts(whole.l2()));
    // The stream exercises both halves: L1 misses, and L2 evictions.
    EXPECT_GT(l1_misses, 1000u);
    EXPECT_GT(whole.l2().stats().evictions, 1000u);
}

TEST(Hierarchy, RetireChargesTheFetchBeforeTheDataAccess)
{
    // A one-set, two-way L2. Retirement 1 misses both L1s, so the L2
    // takes the fetch's line, then the data's. Retirement 2 fetches the
    // same line (an L1I hit) and misses the L1D, evicting the L2's
    // least recently used line: the fetch's. So core 1 still finds the
    // first data line in the L2.
    HierarchyConfig cfg;
    cfg.num_cores = 2;
    cfg.l2_bytes = 128;
    cfg.l2_assoc = 2;
    CacheHierarchy h(cfg);
    h.retire(0, 0x1000, true, 0x8000, false);
    h.retire(0, 0x1008, true, 0x9000, false);
    EXPECT_EQ(h.dataAccess(1, 0x8000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    CacheHierarchy h(HierarchyConfig{});
    h.dataAccess(0, 0x1000, false);
    h.resetStats();
    EXPECT_EQ(h.l1d(0).stats().accesses(), 0u);
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 0u); // still cached
}

} // namespace
} // namespace lba::mem
