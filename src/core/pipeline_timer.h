#pragma once
/**
 * @file
 * The LBA timing engine: one implementation of the
 * produce/start/finish recurrence under every LBA platform — the
 * sharded LbaSystem (core/lba_system.h) and the multi-tenant
 * sched::LifeguardPool.
 *
 * A PipelineTimer owns one or more *lanes*. Each lane models one
 * lifeguard core with its own bounded log buffer and its own
 * bandwidth-limited transport link. For every record delivered to
 * lane L we compute
 *
 *   produce(i)   = app core time after the instruction retires, delayed
 *                  while any target lane's buffer is full (back-pressure);
 *   deliver(i,L) = first cycle at or after the record's last (compressed)
 *                  byte has crossed lane L's transport (ceiling — a record
 *                  is never consumed before its bytes have arrived),
 *                  capped at max(produce(i), kDeliveryCeiling);
 *   start(i,L)   = max(deliver(i,L), finish(i-1,L));
 *   finish(i,L)  = start(i,L) + dispatch + handler cycles.
 *
 * The lane-L buffer slot for record i frees when the lane's record
 * i-capacity finishes, so a lifeguard that cannot keep up eventually
 * stalls the application. Syscall containment stalls the application at
 * the first retirement after a syscall until every record the application
 * logged so far has been consumed — including the annotation records the
 * syscall itself emitted.
 *
 * With a single lane this is exactly the paper's dual-core recurrence;
 * with N lanes it is the paper's lifeguard work split across cores.
 *
 * Every log() call names its targets: for each, the lane that
 * serializes the record and the dispatch engine (a lifeguard shard)
 * that consumes it. The timer owns no lifeguard; each core::LbaSystem
 * on top routes its records and owns its shards' engines (makeEngine()).
 *
 * Dispatch at log time. The recurrence above is *what* is computed;
 * the host computes it for each record inside log(): each target's
 * handler runs (DispatchEngine::consumeBatch over that one record) and
 * its cost folds into the recurrence at once. Records are logged right
 * after their retirement, so a record's handler cache accesses land
 * after that retirement's application accesses and before the next
 * one's, in arrival order — the shared-L2 interleaving of a
 * record-at-a-time consumer. Handler costs never read the recurrence,
 * so computing it eagerly on the host changes no simulated cycle. The
 * golden cycle corpus (tests/golden/) pins the resulting cycles.
 *
 * Two steps. A record's producer step, encode(), does all of its work
 * that depends only on its own application's record stream: for a
 * retirement, the application core's L1 lookups of its fetch and data
 * access (mem::CacheHierarchy::retireL1); the address filter; and the
 * size of the record in the producer's log stream, which a LogSizer
 * counts without writing it. The consumer step is everything else:
 * retire() charges the shared L2 for the L1 misses encode() found,
 * then log() delivers the record. No consumer-step state feeds
 * encode(): the application cores' L1s are private and non-inclusive,
 * so no L2 eviction and no other core touches them, and only the L2,
 * which the consumer step keeps, needs the serialized order. Every
 * simulated number depends only on record order, each record's bytes
 * and the L1 misses, so the steps of different records may run on
 * different host threads, with the results of running them back to
 * back. The pool's drive runs them on two threads of their own, the
 * encoder and the worker, behind the thread that runs the simulator
 * and capture (core/three_stage_run.h).
 *
 * The consumer step is one call per record from the pool's apply()
 * into LbaSystem::consume(), and everything under it is inline:
 * retire(), log() with its slot reservation and consumeOn(), the
 * engine's one-record dispatch, the handler's charges to its
 * lifeguard::CostSink and the hierarchy's L2 path. The calls left are
 * the handler's table jump, the step's only indirect call, and the
 * cache model's set scans (mem::Cache::accessSet). It runs once per
 * record on the worker, the longest of the three stages on every
 * workload measured (docs/ARCHITECTURE.md, "Three host threads").
 *
 * The lane buffer is its slot accounting: the finish times of the
 * records occupying slots, in a circular array per lane
 * (Lane::slot_finish). A slot is reclaimed only when a record needs
 * room, oldest first, so a lane holds up to buffer_capacity finish
 * times. The array doubles as it fills, never past buffer_capacity,
 * so its memory tracks the slots held rather than the capacity.
 * Occupancy statistics (LaneStats::buffer) come from the same count.
 *
 * Statistics. A count is written once, into its producer's slice
 * (producerStats()) or its lane (laneStats()); stats() folds the
 * slices. Each consumption records its lag twice, once for its lane
 * (LaneStats::mean_consume_lag) and once in its producer's histogram
 * (lagHistogram()), whose exact count and 128-bit total give the
 * producer's mean, the run's mean and the slice windows the pool
 * schedules by (takeLagWindow()).
 *
 * Multiple producers (src/sched/). The timer also supports several
 * independent monitored applications, each an LbaSystem attached as
 * its own producer, with its own application core, clock, log stream
 * (sizer), back-pressure and containment state. Lanes are shared
 * — records from different producers serialize on each lane's clock,
 * which is how lifeguard capacity becomes a scheduled resource. A lone
 * producer on the identity shard->lane map is the recurrence of an
 * LbaSystem with a timer of its own, bit for bit. Experiment::runLba
 * runs exactly that lone producer, and the TwoThreadSchedule cases of
 * tests/core_test.cpp compare it, on three threads, with an LbaSystem
 * on its own timer driven inline.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "compress/compressor.h"
#include "lifeguard/dispatch.h"
#include "log/event.h"
#include "mem/hierarchy.h"
#include "stats/counter.h"
#include "stats/histogram.h"

namespace lba::threading {

/** Empty; only hostbench/e2e_host.cc calls it. */
inline void
assumeCoordinatorRole()
{
}

} // namespace lba::threading

namespace lba::core {

/** LBA platform configuration (every shard count, and the pool's lanes). */
struct LbaConfig
{
    /** Log buffer capacity, in records (per lane). */
    std::size_t buffer_capacity = 64 * 1024;
    /** Fixed cycles per nlba dispatch on every lane
     *  (lifeguard::DispatchConfig::dispatch_cycles). */
    Cycles dispatch_cycles = 1;
    /** Stall syscalls until the log drains (error containment). */
    bool syscall_stall = true;
    /**
     * Run the value-prediction compressor for bandwidth accounting;
     * without it every record costs raw_record_bytes on the transport.
     */
    bool compress = true;
    /** Address-range record filter (paper Section 3 future work). */
    bool filter_enabled = false;
    Addr filter_base = 0;
    std::uint64_t filter_bytes = 0;
    /**
     * Log-transport bandwidth in bytes/cycle through the cache
     * hierarchy (0 = unlimited), per lane. With a finite bandwidth, a
     * record can only be consumed once its (compressed) bytes have
     * crossed the transport — this is where the < 1 byte/instruction
     * compression pays off (paper Section 2: compression "reduce[s] the
     * bandwidth pressure and buffer requirements on the log transport
     * medium"). Must not be negative or NaN. A link so slow that
     * delivery would pass kDeliveryCeiling delivers there instead.
     */
    double transport_bytes_per_cycle = 0.0;
    /** Record size on the transport when compression is disabled. */
    unsigned raw_record_bytes = 24;
};

/**
 * Latest cycle at which a bandwidth-limited transport delivers a record.
 * A link too slow to deliver by then delivers here instead, because its
 * delivery time would not fit in Cycles. 2^62 leaves room for every
 * later start + cost and application clock sum of a run.
 */
inline constexpr Cycles kDeliveryCeiling = Cycles{1} << 62;

/**
 * Occupancy of one lane's log buffer. pushes - pops is the number of
 * records holding slots (consumed records whose slots have not been
 * reclaimed yet).
 */
struct BufferStats
{
    /** Records delivered to the lane. */
    std::uint64_t pushes = 0;
    /** Slots reclaimed by back-pressure accounting, oldest first. */
    std::uint64_t pops = 0;
    /** Peak slots held at once. */
    std::uint64_t max_occupancy = 0;
};

/** One lane's share of a run (PipelineTimer::laneStats). */
struct LaneStats
{
    /** Lane clock: finish time of the lane's last consumed record. */
    Cycles last_finish = 0;
    /** Cycles the lane's core spent consuming (and finishing). */
    Cycles busy_cycles = 0;
    /** Records this lane consumed (broadcasts count in every lane). */
    std::uint64_t records = 0;
    /** Mean produce-to-consume lag of this lane's records. */
    double mean_consume_lag = 0.0;
    /** Bytes that crossed this lane's transport link. */
    double transport_bytes = 0.0;
    /** Cycles this lane's consumption waited on its transport. */
    Cycles transport_wait_cycles = 0;
    /** The lane's log-buffer occupancy. */
    BufferStats buffer;
};

/** A producer's consume lags between two PipelineTimer::takeLagWindow()
 *  calls. */
struct LagWindow
{
    std::uint64_t count = 0;
    /** Their exact sum. */
    unsigned __int128 total = 0;

    /** Their mean (0 when empty), as stats::Histogram::mean(). */
    double
    mean() const
    {
        return count ? static_cast<double>(total) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/** Timing/traffic statistics of one LBA run (aggregated over lanes). */
struct LbaRunStats
{
    std::uint64_t app_instructions = 0;
    std::uint64_t records_logged = 0;
    std::uint64_t records_filtered = 0;
    Cycles total_cycles = 0;
    /** The application's own execution cycles (CPI + cache penalties). */
    Cycles app_cycles = 0;
    /** Cycles the application stalled on a full log buffer. */
    Cycles backpressure_stall_cycles = 0;
    /** Cycles the application stalled draining the log at syscalls. */
    Cycles syscall_stall_cycles = 0;
    /** Cycles lifeguard cores spent consuming records (summed). */
    Cycles lifeguard_busy_cycles = 0;
    /** Compressed log size, bytes per logged record. */
    double bytes_per_record = 0.0;
    /** Mean cycles between record production and consumption start. */
    double mean_consume_lag = 0.0;
    /** Number of syscalls that triggered a containment drain. */
    std::uint64_t syscall_drains = 0;
    /** Total bytes pushed onto the log transport (per-lane sum). */
    double transport_bytes = 0.0;
    /** Cycles consumption waited on transport bandwidth (per-lane sum). */
    Cycles transport_wait_cycles = 0;
    /**
     * Cycles the application spent on containment work: draining the
     * lanes for interval checkpoints and rewinds, and replaying undo
     * logs after a rewind (src/replay/containment.h). Zero when
     * containment is off or never triggered.
     */
    Cycles containment_cycles = 0;

    friend bool operator==(const LbaRunStats&,
                           const LbaRunStats&) = default;
};

/**
 * The shared timing engine. Owns the per-producer log sizers, the
 * per-lane buffers and the application-core clocks; the LbaSystems on
 * top decide routing (which targets a record goes to) and own the
 * dispatch engines.
 */
class PipelineTimer
{
  public:
    /** One delivery target of a record: the physical lane that
     *  serializes it and the dispatch engine (lifeguard shard) that
     *  consumes it. */
    struct Target
    {
        unsigned lane = 0;
        lifeguard::DispatchEngine* engine = nullptr;
    };

    /** Encoded::bytes of a record the address filter drops. */
    static constexpr double kFiltered = -1.0;

    /** encode()'s answer: what the consumer step needs of a record's
     *  producer step. */
    struct Encoded
    {
        /** The bytes the record costs on a transport link, or
         *  kFiltered when the filter drops it. */
        double bytes = 0.0;
        /** For a retirement's record, which of its application-core L1
         *  lookups missed (mem::kFetchMiss, mem::kDataMiss). */
        std::uint8_t l1_misses = 0;
    };

    /**
     * @param hierarchy       Shared cache hierarchy; needs the
     *                        application cores plus one core per lane.
     * @param config          Platform configuration (see LbaConfig).
     * @param nlanes          Number of lanes (lifeguard cores), >= 1.
     * @param first_lane_core The number of application cores, which
     *                        come first (>= 1: producer 0 runs on core
     *                        0). Lane L consumes on core
     *                        `first_lane_core + L`: 1 for one
     *                        application, the tenant count in a pool.
     */
    PipelineTimer(mem::CacheHierarchy& hierarchy, const LbaConfig& config,
                  unsigned nlanes, unsigned first_lane_core);

    /**
     * A dispatch engine running @p guard on lane @p lane's core,
     * `first_lane_core + lane`. The caller owns it; it must outlive
     * every log() and finishShard() call that names it. The engine's
     * core is fixed here: a target that later names it with another
     * lane takes that lane's clock, not its core's caches, so a folded
     * or stolen shard (LbaSystem::setLane) serializes on its new lane
     * but still charges its first core's L1D.
     */
    std::unique_ptr<lifeguard::DispatchEngine>
    makeEngine(lifeguard::Lifeguard& guard, unsigned lane);

    /**
     * Register one more producer (monitored application) with its own
     * clock, log sizer, back-pressure and containment state, on core
     * @p app_core, which must not be a lane's. Producer 0 always
     * exists, on core 0.
     * @return The new producer's index.
     */
    unsigned addProducer(unsigned app_core);

    /**
     * Account one retirement on @p producer's application core from
     * its record (log::CaptureUnit::makeRecord), whose encode() answer
     * has @p l1_misses: apply any pending syscall-containment drain,
     * then charge the base CPI and the shared L2 for those L1 misses
     * (mem::CacheHierarchy::retireL2).
     */
    void retire(unsigned producer, const log::EventRecord& record,
                std::uint8_t l1_misses);

    /**
     * The producer step of a record: for a retirement's record, the
     * lookups of its fetch and data access in @p producer's
     * application-core L1s; then the address filter and the record's
     * size in @p producer's log stream. It touches only the
     * configuration, that producer's sizer and its core's L1s, which
     * the consumer step never touches, so one host thread may run it
     * while another runs the consumer step on earlier records (the
     * pool's encoder thread, core/three_stage_run.h). seal() reads the
     * sizers once both threads are joined.
     */
    Encoded encode(unsigned producer, const log::EventRecord& record);

    /**
     * The consumer step of log(): deliver one record of @p producer,
     * whose encode() answer has @p bytes, to each target in order:
     * back-pressure, transport and dispatch timing. All target slots
     * are reserved before any consumption, so produce(i) reflects the
     * slowest target lane. A lane may appear more than once when
     * several lifeguard shards fold onto it; it then reserves one slot
     * per target at once, in first-seen lane order. A record with one
     * target, as every record of a one-shard system is, reserves its
     * one slot directly.
     * @return False when @p bytes is kFiltered (the record is only
     *         counted).
     */
    bool log(unsigned producer, const log::EventRecord& record,
             double bytes, std::span<const Target> targets);

    /** encode() and log() of one record, back to back; a retirement's
     *  retire() is the caller's. */
    bool
    log(unsigned producer, const log::EventRecord& record,
        std::span<const Target> targets)
    {
        return log(producer, record, encode(producer, record).bytes,
                   targets);
    }

    /**
     * Arm the containment drain: @p producer stalls at its next
     * retirement until every record it has logged so far has been
     * consumed. No-op unless config.syscall_stall.
     */
    void
    noteSyscall(unsigned producer = 0)
    {
        LBA_ASSERT(producer < producers_.size(), "bad producer index");
        if (config_.syscall_stall) producers_[producer].pending_drain = true;
    }

    /**
     * Immediately stall @p producer until every record it has logged so
     * far has been consumed on every lane it targeted — the multi-lane
     * coordination a consistent rewind point needs (all lanes drained
     * means the lifeguards have checked everything up to here). The
     * stall lands on the producer's clock as containment cycles.
     * @return The stall applied (0 when the lanes were already ahead).
     */
    Cycles drainProducer(unsigned producer);

    /**
     * Charge @p cycles of containment work (undo-log replay, pipeline
     * flush on rewind) to @p producer's application clock.
     */
    void chargeContainment(unsigned producer, Cycles cycles);

    /** The shared cache hierarchy (rewind cost modelling). */
    mem::CacheHierarchy& hierarchy() { return hierarchy_; }

    /** The application core @p producer retires on. */
    unsigned producerCore(unsigned producer) const;

    /**
     * End-of-program hook: run @p engine's finish pass once
     * @p producer's application has exited and @p lane has drained;
     * the cost lands on that lane's clock.
     * @return The lane's new last-finish time.
     */
    Cycles finishShard(unsigned producer, unsigned lane,
                       lifeguard::DispatchEngine& engine);

    /**
     * Seal the per-producer statistics after every finishShard() call.
     * Call exactly once.
     */
    void seal();

    /** The producers' slices folded: sums, the latest total_cycles, and
     *  bytes_per_record and mean lag over every record (after seal()). */
    LbaRunStats stats() const;

    /**
     * One producer's slice of the run: its own app/stall cycles, its
     * records, its log stream's bytes-per-record, its consume lag, and
     * (after seal()) its completion time in total_cycles.
     */
    const LbaRunStats& producerStats(unsigned producer) const;

    /** The consume lag of every record @p producer logged, one sample
     *  per consumption. */
    const stats::Histogram& lagHistogram(unsigned producer) const;

    /** The consume lags of @p producer's consumptions since the last
     *  call: the histogram's count and total since then. The next
     *  window starts empty. */
    LagWindow takeLagWindow(unsigned producer);

    /** Current app-core clock of @p producer. */
    Cycles producerTime(unsigned producer) const;

    unsigned producers() const
    {
        return static_cast<unsigned>(producers_.size());
    }

    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }

    /** One lane's statistics (snapshot). */
    LaneStats laneStats(unsigned lane) const;

  private:
    /** Lanes and producers take whole host cache lines: the consumer
     *  step writes them on every record, and no encode() state may
     *  share their lines (see config_). */
    struct alignas(64) Lane
    {
        /**
         * Finish times of consumed records still occupying slots,
         * oldest first: slot_count entries of this circular array of
         * slot_size, from index slot_head on. Entries are written only
         * when a slot is taken, so pages not reached yet stay
         * unwritten.
         */
        std::unique_ptr<Cycles[]> slot_finish;
        std::size_t slot_size = 0;
        std::size_t slot_head = 0;
        std::size_t slot_count = 0;
        /** finish(i-1) of this lane's most recent record. */
        Cycles last_finish = 0;
        /** Cycle at which the lane transport delivers its last byte. */
        double transport_free = 0.0;
        /** Cycles this lane's core spent consuming and finishing. */
        Cycles busy_cycles = 0;
        /** The lag of each consumption here (its producer's histogram
         *  holds the other record of it). */
        stats::Summary consume_lag;
        double transport_bytes = 0.0;
        Cycles transport_wait_cycles = 0;
        std::uint64_t records = 0;
        /** Peak of slot_count (BufferStats). */
        std::uint64_t max_occupancy = 0;
        /** Scratch inside log(): slots the record being logged still
         *  has to reserve here (0 outside log()). */
        std::size_t demand = 0;
    };

    /** One monitored application feeding the shared lanes: the
     *  consumer step's state (encode() keeps encoders_[index]). */
    struct alignas(64) Producer
    {
        /** Application core clock. */
        Cycles app_time = 0;
        /** Containment drain is applied before the next retirement. */
        bool pending_drain = false;
        /** Latest finish time over this producer's consumed records. */
        Cycles drain_clock = 0;
        /** Every consumption's lag, the one record of it the producer
         *  keeps. 512 x 256 cycles: the percentiles saturate past
         *  128k. */
        stats::Histogram lag_histogram{512, 256};
        /** lag_histogram's count and total at the last
         *  takeLagWindow(). */
        LagWindow window_start;
        LbaRunStats stats;
    };

    /** encode()'s state of one producer, alone on its cache lines:
     *  the core whose L1s it looks up (set once, before any record) and
     *  its log stream's sizer (per-tenant predictor state). */
    struct alignas(64) EncoderSlot
    {
        unsigned app_core = 0;
        compress::LogSizer stream;
    };

    /** True when the filter drops this record. */
    bool filtered(const log::EventRecord& record) const;

    /** Free @p needed slots in @p lane, stalling @p producer if
     *  needed. */
    void reserveSlots(Producer& producer, Lane& lane, std::size_t needed);

    /** Make room in @p lane's full slot array for one more finish
     *  time: double it, up to buffer_capacity entries. */
    void growSlots(Lane& lane);

    /**
     * Deliver one record to one lane whose slot is reserved: run its
     * handler on @p engine, then fold the cost into the timing
     * recurrence (transport delivery, start/finish, lag and busy
     * accounting, and slot bookkeeping).
     */
    void consumeOn(Producer& producer, Lane& lane,
                   lifeguard::DispatchEngine& engine,
                   const log::EventRecord& record, Cycles produced_at,
                   double record_bytes);

    mem::CacheHierarchy& hierarchy_;
    /** Lane L's core is first_lane_core_ + L. */
    unsigned first_lane_core_;
    /**
     * encode() reads only config_ and encoders_, on host cache lines of
     * their own, and writes its producer's application-core L1s, which
     * are mem::Cache objects of their own: a line that the encoder and
     * the worker of the three-stage schedule both touched, one of them
     * writing it on every record, would move between their cores every
     * time.
     */
    alignas(64) LbaConfig config_;
    /** encoders_[p] is producer p's encode() state. */
    std::vector<EncoderSlot> encoders_;
    alignas(64) std::vector<Lane> lanes_;
    std::vector<Producer> producers_;

    bool finished_ = false;
};

// The consumer step, inline (see "Two steps" in the file comment).

inline void
PipelineTimer::retire(unsigned producer_idx, const log::EventRecord& record,
                      std::uint8_t l1_misses)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    if (producer.pending_drain) {
        // Applied before this retirement's own cost, so the drain covers
        // every record this producer logged so far — including the
        // annotation records the syscall's own onOsEvent handlers
        // emitted. The producer's drain clock tracks the latest finish
        // over its own records, so one tenant's drain does not wait on
        // another tenant's backlog.
        producer.pending_drain = false;
        ++producer.stats.syscall_drains;
        if (producer.app_time < producer.drain_clock) {
            Cycles stall = producer.drain_clock - producer.app_time;
            producer.stats.syscall_stall_cycles += stall;
            producer.app_time = producer.drain_clock;
        }
    }

    ++producer.stats.app_instructions;
    Cycles cost = hierarchy_.retireL2(l1_misses, record.pc, record.addr,
                                      record.type == log::EventType::kStore);
    producer.app_time += cost;
    producer.stats.app_cycles += cost;
}

inline void
PipelineTimer::reserveSlots(Producer& producer, Lane& lane,
                            std::size_t needed)
{
    // Back-pressure: the lane slot for this record frees when the lane's
    // record capacity-entries ago has been consumed. The stall is paid
    // by the producing application, even when the occupying record
    // belongs to another tenant. A lane hosting several folded shard
    // contexts may need multiple slots for one logical record.
    LBA_ASSERT(needed <= config_.buffer_capacity,
               "lane buffer smaller than one record's consumptions");
    while (lane.slot_count + needed > config_.buffer_capacity) {
        Cycles freed_at = lane.slot_finish[lane.slot_head];
        if (++lane.slot_head == lane.slot_size) lane.slot_head = 0;
        --lane.slot_count;
        if (producer.app_time < freed_at) {
            Cycles stall = freed_at - producer.app_time;
            producer.stats.backpressure_stall_cycles += stall;
            producer.app_time = freed_at;
        }
    }
}

inline void
PipelineTimer::consumeOn(Producer& producer, Lane& lane,
                         lifeguard::DispatchEngine& engine,
                         const log::EventRecord& record, Cycles produced_at,
                         double record_bytes)
{
    Cycles cost = engine.consumeBatch(&record, 1);

    lane.transport_bytes += record_bytes;
    producer.stats.transport_bytes += record_bytes;

    // The record is visible to the dispatch engine only after its bytes
    // have crossed the (possibly bandwidth-limited) transport. Ceiling:
    // the last byte must have fully arrived, so delivery lands on the
    // first cycle boundary at or after the transport completes. A
    // starved link saturates at kDeliveryCeiling rather than converting
    // an out-of-range double, and never delivers before production.
    Cycles delivered_at = produced_at;
    double bytes_per_cycle = config_.transport_bytes_per_cycle;
    if (bytes_per_cycle > 0.0) {
        lane.transport_free =
            std::max(lane.transport_free,
                     static_cast<double>(produced_at)) +
            record_bytes / bytes_per_cycle;
        Cycles arrives =
            lane.transport_free < static_cast<double>(kDeliveryCeiling)
                ? static_cast<Cycles>(std::ceil(lane.transport_free))
                : kDeliveryCeiling;
        delivered_at = std::max(produced_at, arrives);
        if (delivered_at > produced_at) {
            Cycles wait = delivered_at - produced_at;
            lane.transport_wait_cycles += wait;
            producer.stats.transport_wait_cycles += wait;
        }
    }

    Cycles start = std::max(delivered_at, lane.last_finish);
    Cycles lag = start - produced_at;
    lane.consume_lag.record(static_cast<double>(lag));
    producer.lag_histogram.record(lag);
    lane.last_finish = start + cost;
    lane.busy_cycles += cost;
    producer.stats.lifeguard_busy_cycles += cost;
    producer.drain_clock = std::max(producer.drain_clock, lane.last_finish);
    if (lane.slot_count == lane.slot_size) growSlots(lane);
    std::size_t tail = lane.slot_head + lane.slot_count;
    if (tail >= lane.slot_size) tail -= lane.slot_size;
    lane.slot_finish[tail] = lane.last_finish;
    ++lane.slot_count;
    lane.max_occupancy =
        std::max<std::uint64_t>(lane.max_occupancy, lane.slot_count);
    ++lane.records;
}

inline bool
PipelineTimer::log(unsigned producer_idx, const log::EventRecord& record,
                   double record_bytes, std::span<const Target> targets)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    LBA_ASSERT(!targets.empty(), "record needs at least one target");
    Producer& producer = producers_[producer_idx];
    if (record_bytes == kFiltered) {
        ++producer.stats.records_filtered;
        return false;
    }

    // Reserve every target's slot first: the application can only
    // append the record once all of its consumers have room, so
    // produce(i) reflects the back-pressure of the slowest target
    // lane. A lone target reserves its slot directly; otherwise a lane
    // takes one slot per target folded onto it, all reserved when the
    // lane is first seen.
    if (targets.size() == 1) {
        const Target& target = targets.front();
        LBA_ASSERT(target.lane < lanes_.size(), "record routed to bad lane");
        LBA_ASSERT(target.engine != nullptr, "target has no engine");
        Lane& lane = lanes_[target.lane];
        reserveSlots(producer, lane, 1);
        consumeOn(producer, lane, *target.engine, record, producer.app_time,
                  record_bytes);
    } else {
        for (const Target& target : targets) {
            LBA_ASSERT(target.lane < lanes_.size(),
                       "record routed to bad lane");
            ++lanes_[target.lane].demand;
        }
        for (const Target& target : targets) {
            Lane& lane = lanes_[target.lane];
            if (lane.demand == 0) continue;
            reserveSlots(producer, lane, lane.demand);
            lane.demand = 0;
        }
        Cycles produced_at = producer.app_time;
        for (const Target& target : targets) {
            LBA_ASSERT(target.engine != nullptr, "target has no engine");
            consumeOn(producer, lanes_[target.lane], *target.engine, record,
                      produced_at, record_bytes);
        }
    }
    ++producer.stats.records_logged;
    return true;
}

} // namespace lba::core
