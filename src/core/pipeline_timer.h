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
 *                  is never consumed before its bytes have arrived);
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
 * that consumes it. The timer owns no lifeguard; the platform on top
 * routes records and owns its shards' engines (makeEngine()).
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
 * The lane buffer is its slot accounting: the finish times of the
 * records occupying slots. Occupancy statistics (LaneStats::buffer)
 * come from the same count.
 *
 * Multiple producers (src/sched/). The timer also supports several
 * independent monitored applications, each with its own
 * application-core clock, log stream (compressor), back-pressure and
 * containment state. Lanes are shared — records from different
 * producers serialize on each lane's clock, which is how lifeguard
 * capacity becomes a scheduled resource. With one producer whose
 * targets are the identity shard->lane map, the recurrence is
 * bit-for-bit the LbaSystem's, which the one-tenant differential tests
 * in tests/sched_test.cpp assert.
 */

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/assert.h"
#include "compress/registry.h"
#include "lifeguard/dispatch.h"
#include "mem/hierarchy.h"
#include "sim/process.h"
#include "stats/counter.h"

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
    /** Application core index. */
    unsigned app_core = 0;
    /**
     * Dispatch configuration. `dispatch.core` is the first lifeguard
     * core; lane L consumes on core `dispatch.core + L`
     * (PipelineTimer::makeEngine).
     */
    lifeguard::DispatchConfig dispatch{1, 1};
    /** Stall syscalls until the log drains (error containment). */
    bool syscall_stall = true;
    /** Run the compressor for bandwidth accounting. */
    bool compress = true;
    /**
     * Registered codec encoding each producer's log stream for the
     * bandwidth accounting (compress::CodecRegistry). The default,
     * "predictor", is the paper's value-prediction compressor;
     * alternatives trade ratio for host encode cost. Must name a
     * registered codec.
     */
    std::string codec = compress::kDefaultCodec;
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
     * medium").
     */
    double transport_bytes_per_cycle = 0.0;
    /** Record size on the transport when compression is disabled. */
    unsigned raw_record_bytes = 24;
};

/**
 * Per-lane overrides for heterogeneous pools: a lane may have its own
 * buffer size and transport bandwidth (e.g. one fat lane plus several
 * thin ones). Values <= 0 inherit the LbaConfig-wide setting.
 */
struct LaneLimits
{
    /** Log buffer capacity in records (0 = LbaConfig::buffer_capacity). */
    std::size_t buffer_capacity = 0;
    /** Transport bytes/cycle (< 0 = LbaConfig value; 0 = unlimited). */
    double transport_bytes_per_cycle = -1.0;
};

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
    /** Codec that produced bytes_per_record/transport_bytes (the
     *  LbaConfig::codec of the run; set by seal()). */
    std::string codec;
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
 * The shared timing engine. Owns the per-producer compressors, the
 * per-lane buffers and the application-core clocks; the platforms on
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

    /** Observes every consumed record (multi-tenant stats hook). */
    using ConsumeObserver = std::function<void(
        unsigned producer, unsigned lane, const log::EventRecord& record,
        Cycles lag, Cycles cost, double bytes)>;

    /**
     * @param hierarchy   Shared cache hierarchy; needs a core for the
     *                    application plus one per lane.
     * @param config      Platform configuration (see LbaConfig).
     * @param nlanes      Number of lanes (lifeguard cores), >= 1.
     * @param lane_limits Optional per-lane overrides (empty = uniform).
     */
    PipelineTimer(mem::CacheHierarchy& hierarchy, const LbaConfig& config,
                  unsigned nlanes,
                  const std::vector<LaneLimits>& lane_limits = {});

    /**
     * A dispatch engine running @p guard on lane @p lane's core,
     * `config.dispatch.core + lane`. The caller owns it; it must
     * outlive every log() and finishShard() call that names it.
     */
    std::unique_ptr<lifeguard::DispatchEngine>
    makeEngine(lifeguard::Lifeguard& guard, unsigned lane);

    /**
     * Register one more producer (monitored application) with its own
     * clock, compressor, back-pressure and containment state. Producer 0
     * always exists, on config.app_core.
     * @return The new producer's index.
     */
    unsigned addProducer(unsigned app_core);

    /**
     * Account one retirement on @p producer's application core: apply
     * any pending syscall-containment drain, then charge fetch/memory
     * cost.
     */
    void retire(unsigned producer, const sim::Retired& retired);
    void
    retire(const sim::Retired& retired)
    {
        retire(0, retired);
    }

    /**
     * Deliver one record of @p producer to each target in order:
     * filtering, compression accounting, back-pressure, transport and
     * dispatch timing. All target slots are reserved before any
     * consumption, so produce(i) reflects the slowest target lane. A
     * lane may appear more than once when several lifeguard shards
     * fold onto it; it then reserves one slot per target at once,
     * in first-seen lane order.
     * @return False when the filter dropped the record.
     */
    bool log(unsigned producer, const log::EventRecord& record,
             std::span<const Target> targets);

    /**
     * Arm the containment drain: @p producer stalls at its next
     * retirement until every record it has logged so far has been
     * consumed. No-op unless config.syscall_stall.
     */
    void noteSyscall(unsigned producer = 0);

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
     * Seal the aggregate and per-producer statistics after every
     * finishShard() call. Call exactly once.
     */
    void seal();

    /** Aggregate statistics (totals valid after seal()). */
    const LbaRunStats& stats() const { return stats_; }

    /**
     * One producer's slice of the run: its own app/stall cycles, its
     * records, its log stream's bytes-per-record, its consume lag, and
     * (after seal()) its completion time in total_cycles.
     */
    const LbaRunStats& producerStats(unsigned producer) const;

    /** Current app-core clock of @p producer. */
    Cycles producerTime(unsigned producer) const;

    unsigned producers() const
    {
        return static_cast<unsigned>(producers_.size());
    }

    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }

    /** Install a per-consumed-record observer (nullptr to remove). */
    void setConsumeObserver(ConsumeObserver observer)
    {
        consume_observer_ = std::move(observer);
    }

    /** One lane's statistics (snapshot). */
    LaneStats laneStats(unsigned lane) const;

  private:
    struct Lane
    {
        /** Buffer capacity, in records (slots). */
        std::size_t capacity = 0;
        /** finish times of consumed records still occupying slots. */
        std::deque<Cycles> slot_finish;
        /** finish(i-1) of this lane's most recent record. */
        Cycles last_finish = 0;
        /** Cycle at which the lane transport delivers its last byte. */
        double transport_free = 0.0;
        /** This lane's transport bandwidth (0 = unlimited). */
        double bytes_per_cycle = 0.0;
        /** Cycles this lane's core spent consuming and finishing. */
        Cycles busy_cycles = 0;
        stats::Summary consume_lag;
        double transport_bytes = 0.0;
        Cycles transport_wait_cycles = 0;
        std::uint64_t records = 0;
        /** Peak of slot_finish.size() (BufferStats). */
        std::uint64_t max_occupancy = 0;
        /** Scratch inside log(): slots the record being logged still
         *  has to reserve here (0 outside log()). */
        std::size_t demand = 0;

        explicit Lane(std::size_t slots) : capacity(slots)
        {
            LBA_ASSERT(slots > 0, "log buffer capacity must be positive");
        }
    };

    /** One monitored application feeding the shared lanes. */
    struct Producer
    {
        unsigned app_core = 0;
        /** Application core clock. */
        Cycles app_time = 0;
        /** Containment drain is applied before the next retirement. */
        bool pending_drain = false;
        /** Latest finish time over this producer's consumed records. */
        Cycles drain_clock = 0;
        /** This producer's log stream (per-tenant codec state, built
         *  from LbaConfig::codec by the registry). */
        std::unique_ptr<compress::Encoder> encoder;
        stats::Summary consume_lag;
        LbaRunStats stats;
    };

    /** Build a fresh per-producer encoder from LbaConfig::codec. */
    std::unique_ptr<compress::Encoder> makeEncoder() const;

    /** True when the filter drops this record. */
    bool filtered(const log::EventRecord& record) const;

    /** Bytes this record costs on a transport link. */
    double transportCost(Producer& producer,
                         const log::EventRecord& record);

    /** Free @p needed slots in @p lane, stalling @p producer if
     *  needed. */
    void reserveSlots(Producer& producer, Lane& lane, std::size_t needed);

    /**
     * Deliver one record to one lane whose slot is reserved: run its
     * handler on @p engine, then fold the cost into the timing
     * recurrence (transport delivery, start/finish, lag and busy
     * accounting, slot bookkeeping, and the consume observer).
     */
    void consumeOn(Producer& producer, Lane& lane,
                   lifeguard::DispatchEngine& engine,
                   const log::EventRecord& record, Cycles produced_at,
                   double record_bytes);

    mem::CacheHierarchy& hierarchy_;
    LbaConfig config_;
    std::vector<Lane> lanes_;
    std::vector<Producer> producers_;

    ConsumeObserver consume_observer_;
    stats::Summary consume_lag_;
    LbaRunStats stats_;
    bool finished_ = false;
};

} // namespace lba::core
