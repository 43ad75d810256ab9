/**
 * @file
 * LockSet (Eraser) lifeguard tests: the state machine, lockset
 * refinement, race detection and the no-false-positive cases Eraser is
 * designed around.
 */

#include <gtest/gtest.h>

#include "lifeguards/lockset.h"

namespace lba::lifeguards {
namespace {

using lifeguard::FindingKind;
using lifeguard::CostSink;
using log::EventRecord;
using log::EventType;

EventRecord
accessEvent(ThreadId tid, Addr addr, bool write, Addr pc = 0x1000)
{
    EventRecord r;
    r.type = write ? EventType::kStore : EventType::kLoad;
    r.opcode = static_cast<std::uint8_t>(write ? isa::Opcode::kSd
                                               : isa::Opcode::kLd);
    r.tid = tid;
    r.pc = pc;
    r.addr = addr;
    r.aux = 8;
    return r;
}

EventRecord
lockEvent(ThreadId tid, Addr lock, bool acquire)
{
    EventRecord r;
    r.type = acquire ? EventType::kLock : EventType::kUnlock;
    r.tid = tid;
    r.addr = lock;
    r.aux = 1;
    return r;
}

constexpr Addr kData = 0x10000100;
constexpr Addr kLockA = 0x1000900;
constexpr Addr kLockB = 0x1000908;

class LockSetTest : public ::testing::Test
{
  protected:
    LockSet guard;
    CostSink sink;

    void feed(const EventRecord& r) { guard.handleEvent(r, sink); }
};

TEST(LocksetTable, CanonicalIdsAndIntersection)
{
    LocksetTable t(0x5000000000ull);
    std::uint32_t ab = t.idOf({kLockA, kLockB});
    std::uint32_t a = t.idOf({kLockA});
    std::uint32_t b = t.idOf({kLockB});
    EXPECT_EQ(t.idOf({kLockA, kLockB}), ab); // interned
    EXPECT_EQ(t.intersect(ab, a), a);
    EXPECT_EQ(t.intersect(a, b), LocksetTable::kEmpty);
    EXPECT_EQ(t.intersect(ab, ab), ab);
    EXPECT_EQ(t.intersect(a, LocksetTable::kEmpty),
              LocksetTable::kEmpty);
    EXPECT_EQ(t.locks(ab).size(), 2u);
}

TEST_F(LockSetTest, SingleThreadNeverReports)
{
    for (int i = 0; i < 10; ++i) {
        feed(accessEvent(0, kData, i % 2 == 0));
    }
    EXPECT_TRUE(guard.findings().empty());
    EXPECT_EQ(guard.granuleState(kData), LockSet::kExclusive);
}

TEST_F(LockSetTest, ConsistentLockingIsClean)
{
    // Both threads always hold LockA around accesses.
    for (ThreadId tid : {0, 1, 0, 1}) {
        feed(lockEvent(tid, kLockA, true));
        feed(accessEvent(tid, kData, true));
        feed(accessEvent(tid, kData, false));
        feed(lockEvent(tid, kLockA, false));
    }
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(LockSetTest, UnprotectedSharedWriteIsARace)
{
    feed(accessEvent(0, kData, true)); // Exclusive(0)
    feed(accessEvent(1, kData, true)); // SharedModified, lockset = {}
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kDataRace);
    EXPECT_EQ(guard.findings()[0].addr, kData);
}

TEST_F(LockSetTest, ReadSharingIsNotARace)
{
    feed(accessEvent(0, kData, true));  // Exclusive(0), initialized
    feed(accessEvent(1, kData, false)); // Shared (read-only sharing)
    feed(accessEvent(0, kData, false));
    feed(accessEvent(1, kData, false));
    EXPECT_TRUE(guard.findings().empty());
    EXPECT_EQ(guard.granuleState(kData), LockSet::kShared);
}

TEST_F(LockSetTest, InconsistentLocksAreARace)
{
    // Thread 0 uses LockA, thread 1 uses LockB. Eraser semantics: the
    // first sharing transition initializes C(v) = {B}; no report yet
    // (two accesses cannot prove inconsistency). The third access
    // refines C(v) = {B} n {A} = {} -> race.
    feed(lockEvent(0, kLockA, true));
    feed(accessEvent(0, kData, true));
    feed(lockEvent(0, kLockA, false));

    feed(lockEvent(1, kLockB, true));
    feed(accessEvent(1, kData, true)); // SharedModified, C = {B}
    feed(lockEvent(1, kLockB, false));
    EXPECT_EQ(guard.countFindings(FindingKind::kDataRace), 0u);

    feed(lockEvent(0, kLockA, true));
    feed(accessEvent(0, kData, true)); // C = {} -> race
    feed(lockEvent(0, kLockA, false));
    EXPECT_EQ(guard.countFindings(FindingKind::kDataRace), 1u);
}

TEST_F(LockSetTest, LocksetRefinesToCommonSubset)
{
    // Thread 0 holds {A,B}; thread 1 holds {A}: candidate refines to
    // {A}, which is non-empty -> no race.
    feed(lockEvent(0, kLockA, true));
    feed(lockEvent(0, kLockB, true));
    feed(accessEvent(0, kData, true));
    feed(lockEvent(0, kLockB, false));
    feed(lockEvent(0, kLockA, false));

    feed(lockEvent(1, kLockA, true));
    feed(accessEvent(1, kData, true));
    feed(lockEvent(1, kLockA, false));
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(LockSetTest, ExclusiveTransferDoesNotReportFirstOwner)
{
    // Classic Eraser subtlety: first thread unlocked, but state was
    // Exclusive; the report happens only once sharing with empty
    // lockset is observed on a write.
    feed(accessEvent(0, kData, true));
    feed(lockEvent(1, kLockA, true));
    feed(accessEvent(1, kData, false)); // Shared, C = {A}
    feed(lockEvent(1, kLockA, false));
    EXPECT_TRUE(guard.findings().empty());
    feed(accessEvent(0, kData, true)); // write with no locks: C = {}
    EXPECT_EQ(guard.countFindings(FindingKind::kDataRace), 1u);
}

TEST_F(LockSetTest, ThreadLocksetTracksAcquisitions)
{
    EXPECT_EQ(guard.threadLockset(0), LocksetTable::kEmpty);
    feed(lockEvent(0, kLockA, true));
    std::uint32_t a = guard.threadLockset(0);
    EXPECT_NE(a, LocksetTable::kEmpty);
    feed(lockEvent(0, kLockB, true));
    EXPECT_NE(guard.threadLockset(0), a);
    feed(lockEvent(0, kLockB, false));
    EXPECT_EQ(guard.threadLockset(0), a);
    feed(lockEvent(0, kLockA, false));
    EXPECT_EQ(guard.threadLockset(0), LocksetTable::kEmpty);
}

TEST_F(LockSetTest, FailedUnlockIsIgnored)
{
    EventRecord bad = lockEvent(0, kLockA, false);
    bad.aux = 0; // OS rejected the unlock (not the owner)
    feed(bad);
    EXPECT_EQ(guard.threadLockset(0), LocksetTable::kEmpty);
}

TEST_F(LockSetTest, DedupeOnePerGranule)
{
    feed(accessEvent(0, kData, true));
    feed(accessEvent(1, kData, true));
    feed(accessEvent(0, kData, true));
    feed(accessEvent(1, kData, true));
    EXPECT_EQ(guard.findings().size(), 1u);
    // A different granule reports separately.
    feed(accessEvent(0, kData + 64, true));
    feed(accessEvent(1, kData + 64, true));
    EXPECT_EQ(guard.findings().size(), 2u);
}

TEST_F(LockSetTest, ReallocationResetsGranuleState)
{
    // Block used (and raced on) in its first life...
    feed(accessEvent(0, kData, true));
    feed(accessEvent(1, kData, true));
    EXPECT_EQ(guard.findings().size(), 1u);
    // ...is freed and reallocated: new life starts Virgin.
    EventRecord alloc;
    alloc.type = EventType::kAlloc;
    alloc.addr = kData;
    alloc.aux = 64;
    feed(alloc);
    EXPECT_EQ(guard.granuleState(kData), LockSet::kVirgin);
    feed(accessEvent(1, kData, true));
    EXPECT_EQ(guard.granuleState(kData), LockSet::kExclusive);
    EXPECT_EQ(guard.findings().size(), 1u); // no new report
}

TEST_F(LockSetTest, RangeFilterSkipsOutsideAddresses)
{
    LockSetConfig cfg;
    cfg.check_base = 0x10000000;
    cfg.check_bytes = 0x1000;
    LockSet filtered(cfg);
    // Racy accesses outside the checked range: ignored.
    filtered.handleEvent(accessEvent(0, 0x7fff0000, true), sink);
    filtered.handleEvent(accessEvent(1, 0x7fff0000, true), sink);
    EXPECT_TRUE(filtered.findings().empty());
    // Inside the range: detected.
    filtered.handleEvent(accessEvent(0, 0x10000010, true), sink);
    filtered.handleEvent(accessEvent(1, 0x10000010, true), sink);
    EXPECT_EQ(filtered.findings().size(), 1u);
}

TEST_F(LockSetTest, SharedStateCostsMoreThanExclusive)
{
    // Each instruction costs 1 and each metadata access 2.
    CostSink counting;
    auto cost = [&] {
        return counting.instructions() + 2 * counting.accesses().size();
    };
    guard.handleEvent(accessEvent(0, kData, false), counting);
    guard.handleEvent(accessEvent(0, kData, false), counting);
    std::uint64_t exclusive_cost = cost();

    guard.handleEvent(accessEvent(1, kData, false), counting); // Shared
    counting = {};
    guard.handleEvent(accessEvent(1, kData, false), counting);
    std::uint64_t shared_cost = cost();
    EXPECT_GT(shared_cost, exclusive_cost / 2);
    EXPECT_GT(shared_cost, 10u);
}

} // namespace
} // namespace lba::lifeguards
