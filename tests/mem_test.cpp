/**
 * @file
 * Tests for sparse memory and the cache/hierarchy timing models,
 * including an LRU-correctness property check against a reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/memory.h"

namespace lba::mem {
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
 * Property: the cache agrees with a reference true-LRU model across a
 * pseudo-random access stream, for several geometries.
 */
class LruProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LruProperty, MatchesReferenceModel)
{
    auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{"t", static_cast<std::size_t>(size_kb) * 1024, 64,
                    static_cast<std::size_t>(assoc)};
    Cache cache(cfg);
    std::size_t sets = cache.numSets();

    // Reference: per-set list of line addresses, most recent first.
    std::vector<std::list<std::uint64_t>> ref(sets);

    std::uint64_t state = 99;
    for (int i = 0; i < 20000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Addr addr = (state % (1 << 22)); // 4MB address space
        std::uint64_t line = addr >> 6;
        std::size_t set = line & (sets - 1);

        auto& lru = ref[set];
        auto it = std::find(lru.begin(), lru.end(), line);
        bool ref_hit = it != lru.end();
        if (ref_hit) lru.erase(it);
        lru.push_front(line);
        if (lru.size() > cfg.associativity) lru.pop_back();

        bool hit = cache.access(addr, false);
        ASSERT_EQ(hit, ref_hit) << "access " << i << " addr " << addr;
    }
}

/**
 * A naive write-back true-LRU cache: per set, a list of lines most
 * recent first. The reference for Cache, repeat-line accesses included.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        std::uint64_t line = addr >> 6;
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
    std::vector<std::list<Entry>> sets_;
    std::size_t ways_;
};

TEST(Cache, MatchesNaiveLruOnConflictingReadWriteStream)
{
    // 4 sets x 4 ways. Ten lines compete for sets 0 and 1, and one
    // access in three repeats the previous line, so the stream mixes
    // repeat hits, scanned hits, evictions and dirty writebacks.
    Cache cache({"t", 1024, 64, 4});
    ReferenceLru ref(cache.numSets(), 4);
    std::uint64_t state = 0x5eed;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    Addr addr = 0;
    for (int i = 0; i < 20000; ++i) {
        if (i == 10000) {
            cache.flush();
            ref.flush();
        }
        if (next() % 3 != 0) {
            std::uint64_t line = (next() % 5) * 4 + next() % 2;
            addr = line * 64 + next() % 64;
        }
        bool is_write = next() % 4 == 0;
        bool expected = ref.access(addr, is_write);
        ASSERT_EQ(cache.access(addr, is_write), expected)
            << "access " << i << " addr " << addr;
    }
    EXPECT_EQ(cache.stats().hits, ref.stats.hits);
    EXPECT_EQ(cache.stats().misses, ref.stats.misses);
    EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
    EXPECT_EQ(cache.stats().writebacks, ref.stats.writebacks);
    EXPECT_GT(ref.stats.writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruProperty,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(16, 1),
                      std::make_tuple(64, 8), std::make_tuple(4, 2)));

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
