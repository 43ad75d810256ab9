/**
 * @file
 * Shared LBA timing engine implementation.
 */

#include "core/pipeline_timer.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lba::core {

using log::EventRecord;
using log::EventType;

PipelineTimer::PipelineTimer(mem::CacheHierarchy& hierarchy,
                             const LbaConfig& config, unsigned nlanes,
                             const std::vector<LaneLimits>& lane_limits)
    : hierarchy_(hierarchy), config_(config)
{
    LBA_ASSERT(nlanes >= 1, "timer needs at least one lane");
    LBA_ASSERT(hierarchy_.config().num_cores >=
                   config_.dispatch.core + nlanes,
               "hierarchy must provide one core per lane plus the app");
    LBA_ASSERT(config_.app_core < config_.dispatch.core ||
                   config_.app_core >= config_.dispatch.core + nlanes,
               "application and lifeguard must use different cores");
    LBA_ASSERT(lane_limits.empty() || lane_limits.size() == nlanes,
               "lane limits must cover every lane or none");

    lanes_.reserve(nlanes);
    for (unsigned i = 0; i < nlanes; ++i) {
        std::size_t capacity = config_.buffer_capacity;
        double bandwidth = config_.transport_bytes_per_cycle;
        if (!lane_limits.empty()) {
            const LaneLimits& limits = lane_limits[i];
            if (limits.buffer_capacity > 0) {
                capacity = limits.buffer_capacity;
            }
            if (limits.transport_bytes_per_cycle >= 0.0) {
                bandwidth = limits.transport_bytes_per_cycle;
            }
        }
        Lane lane(capacity);
        lane.bytes_per_cycle = bandwidth;
        lanes_.push_back(std::move(lane));
    }

    Producer primary;
    primary.app_core = config_.app_core;
    primary.encoder = makeEncoder();
    producers_.push_back(std::move(primary));
}

std::unique_ptr<lifeguard::DispatchEngine>
PipelineTimer::makeEngine(lifeguard::Lifeguard& guard, unsigned lane)
{
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    lifeguard::DispatchConfig dc = config_.dispatch;
    dc.core = config_.dispatch.core + lane;
    return std::make_unique<lifeguard::DispatchEngine>(guard, hierarchy_,
                                                       dc);
}

unsigned
PipelineTimer::addProducer(unsigned app_core)
{
    LBA_ASSERT(!finished_, "cannot add a producer after seal()");
    LBA_ASSERT(app_core < hierarchy_.config().num_cores,
               "producer core outside the hierarchy");
    LBA_ASSERT(app_core < config_.dispatch.core ||
                   app_core >= config_.dispatch.core + lanes(),
               "producer and lifeguard must use different cores");
    Producer producer;
    producer.app_core = app_core;
    producer.encoder = makeEncoder();
    producers_.push_back(std::move(producer));
    return static_cast<unsigned>(producers_.size() - 1);
}

std::unique_ptr<compress::Encoder>
PipelineTimer::makeEncoder() const
{
    const compress::CodecInfo* info =
        compress::CodecRegistry::instance().find(config_.codec);
    LBA_ASSERT(info != nullptr,
               "LbaConfig::codec names no registered codec");
    return info->makeEncoder();
}

bool
PipelineTimer::filtered(const EventRecord& record) const
{
    if (!config_.filter_enabled) return false;
    if (record.type != EventType::kLoad &&
        record.type != EventType::kStore) {
        return false;
    }
    return record.addr < config_.filter_base ||
           record.addr >= config_.filter_base + config_.filter_bytes;
}

double
PipelineTimer::transportCost(Producer& producer, const EventRecord& record)
{
    // Bandwidth accounting: compressed records cost their true encoded
    // size; uncompressed transport pays the full record width. Each
    // producer is its own log stream, so its encoder sees only its
    // own record sequence.
    if (!config_.compress) return config_.raw_record_bytes;
    std::uint64_t before = producer.encoder->bitsWritten();
    producer.encoder->append(record);
    return static_cast<double>(producer.encoder->bitsWritten() - before) /
           8.0;
}

void
PipelineTimer::reserveSlots(Producer& producer, Lane& lane,
                            std::size_t needed)
{
    // Back-pressure: the lane slot for this record frees when the lane's
    // record capacity-entries ago has been consumed. The stall is paid
    // by the producing application, even when the occupying record
    // belongs to another tenant. A lane hosting several folded shard
    // contexts may need multiple slots for one logical record.
    LBA_ASSERT(needed <= lane.capacity,
               "lane buffer smaller than one record's consumptions");
    while (lane.slot_finish.size() + needed > lane.capacity) {
        Cycles freed_at = lane.slot_finish.front();
        lane.slot_finish.pop_front();
        if (producer.app_time < freed_at) {
            Cycles stall = freed_at - producer.app_time;
            stats_.backpressure_stall_cycles += stall;
            producer.stats.backpressure_stall_cycles += stall;
            producer.app_time = freed_at;
        }
    }
}

void
PipelineTimer::consumeOn(Producer& producer, Lane& lane,
                         lifeguard::DispatchEngine& engine,
                         const EventRecord& record, Cycles produced_at,
                         double record_bytes)
{
    Cycles cost = engine.consumeBatch(&record, 1);

    lane.transport_bytes += record_bytes;
    stats_.transport_bytes += record_bytes;
    producer.stats.transport_bytes += record_bytes;

    // The record is visible to the dispatch engine only after its bytes
    // have crossed the (possibly bandwidth-limited) transport. Ceiling:
    // the last byte must have fully arrived, so delivery lands on the
    // first cycle boundary at or after the transport completes.
    Cycles delivered_at = produced_at;
    if (lane.bytes_per_cycle > 0.0) {
        lane.transport_free =
            std::max(lane.transport_free,
                     static_cast<double>(produced_at)) +
            record_bytes / lane.bytes_per_cycle;
        delivered_at = static_cast<Cycles>(std::ceil(lane.transport_free));
        if (delivered_at > produced_at) {
            Cycles wait = delivered_at - produced_at;
            lane.transport_wait_cycles += wait;
            stats_.transport_wait_cycles += wait;
            producer.stats.transport_wait_cycles += wait;
        }
    }

    Cycles start = std::max(delivered_at, lane.last_finish);
    double lag = static_cast<double>(start - produced_at);
    lane.consume_lag.record(lag);
    producer.consume_lag.record(lag);
    consume_lag_.record(lag);
    lane.last_finish = start + cost;
    lane.busy_cycles += cost;
    producer.stats.lifeguard_busy_cycles += cost;
    producer.drain_clock = std::max(producer.drain_clock, lane.last_finish);
    lane.slot_finish.push_back(lane.last_finish);
    lane.max_occupancy =
        std::max<std::uint64_t>(lane.max_occupancy, lane.slot_finish.size());
    ++lane.records;

    if (consume_observer_) {
        unsigned producer_idx = static_cast<unsigned>(
            &producer - producers_.data());
        unsigned lane_idx = static_cast<unsigned>(&lane - lanes_.data());
        consume_observer_(producer_idx, lane_idx, record,
                          static_cast<Cycles>(lag), cost, record_bytes);
    }
}

bool
PipelineTimer::log(unsigned producer_idx, const EventRecord& record,
                   std::span<const Target> targets)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    LBA_ASSERT(!targets.empty(), "record needs at least one target");
    Producer& producer = producers_[producer_idx];
    if (filtered(record)) {
        ++stats_.records_filtered;
        ++producer.stats.records_filtered;
        return false;
    }
    double record_bytes = transportCost(producer, record);

    // Reserve every target's slot first: the application can only
    // append the record once all of its consumers have room, so
    // produce(i) reflects the back-pressure of the slowest target
    // lane. A lane takes one slot per target folded onto it, all
    // reserved when the lane is first seen.
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
    ++stats_.records_logged;
    ++producer.stats.records_logged;
    return true;
}

void
PipelineTimer::retire(unsigned producer_idx, const sim::Retired& retired)
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
        ++stats_.syscall_drains;
        ++producer.stats.syscall_drains;
        if (producer.app_time < producer.drain_clock) {
            Cycles stall = producer.drain_clock - producer.app_time;
            stats_.syscall_stall_cycles += stall;
            producer.stats.syscall_stall_cycles += stall;
            producer.app_time = producer.drain_clock;
        }
    }

    ++stats_.app_instructions;
    ++producer.stats.app_instructions;
    Cycles cost =
        1 + hierarchy_.instrFetch(producer.app_core, retired.pc);
    if (retired.mem_bytes > 0) {
        cost += hierarchy_.dataAccess(producer.app_core, retired.mem_addr,
                                      retired.mem_is_write);
    }
    producer.app_time += cost;
    stats_.app_cycles += cost;
    producer.stats.app_cycles += cost;
}

void
PipelineTimer::noteSyscall(unsigned producer)
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    if (config_.syscall_stall) producers_[producer].pending_drain = true;
}

Cycles
PipelineTimer::drainProducer(unsigned producer_idx)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    if (producer.app_time >= producer.drain_clock) return 0;
    Cycles stall = producer.drain_clock - producer.app_time;
    producer.app_time = producer.drain_clock;
    stats_.containment_cycles += stall;
    producer.stats.containment_cycles += stall;
    return stall;
}

void
PipelineTimer::chargeContainment(unsigned producer_idx, Cycles cycles)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    producer.app_time += cycles;
    stats_.containment_cycles += cycles;
    producer.stats.containment_cycles += cycles;
}

unsigned
PipelineTimer::producerCore(unsigned producer_idx) const
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    return producers_[producer_idx].app_core;
}

Cycles
PipelineTimer::finishShard(unsigned producer_idx, unsigned lane_idx,
                           lifeguard::DispatchEngine& engine)
{
    LBA_ASSERT(!finished_, "finishShard() after seal()");
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    LBA_ASSERT(lane_idx < lanes_.size(), "bad lane index");
    Producer& producer = producers_[producer_idx];
    Lane& lane = lanes_[lane_idx];
    // The final pass runs once the producer's application has exited and
    // the lane has consumed its last record; the cost lands on that
    // lane's own clock, so an expensive final pass on one shard does not
    // charge the rest.
    Cycles fc = engine.finish();
    lane.last_finish = std::max(producer.app_time, lane.last_finish) + fc;
    lane.busy_cycles += fc;
    producer.stats.lifeguard_busy_cycles += fc;
    producer.drain_clock = std::max(producer.drain_clock, lane.last_finish);
    return lane.last_finish;
}

void
PipelineTimer::seal()
{
    LBA_ASSERT(!finished_, "seal() called twice");
    finished_ = true;

    Cycles end = 0;
    std::uint64_t compressed_records = 0;
    double compressed_bytes = 0.0;
    for (Producer& producer : producers_) {
        producer.stats.total_cycles =
            std::max(producer.app_time, producer.drain_clock);
        end = std::max(end, producer.stats.total_cycles);
        producer.encoder->finishStream();
        producer.stats.bytes_per_record =
            producer.encoder->bytesPerRecord();
        producer.stats.codec = config_.codec;
        producer.stats.mean_consume_lag = producer.consume_lag.mean();
        compressed_records += producer.encoder->records();
        compressed_bytes +=
            static_cast<double>(producer.encoder->bitsWritten()) / 8.0;
    }
    stats_.lifeguard_busy_cycles = 0;
    for (Lane& lane : lanes_) {
        end = std::max(end, lane.last_finish);
        stats_.lifeguard_busy_cycles += lane.busy_cycles;
    }
    stats_.total_cycles = end;
    stats_.codec = config_.codec;
    stats_.bytes_per_record =
        compressed_records
            ? compressed_bytes / static_cast<double>(compressed_records)
            : 0.0;
    stats_.mean_consume_lag = consume_lag_.mean();
}

const LbaRunStats&
PipelineTimer::producerStats(unsigned producer) const
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].stats;
}

Cycles
PipelineTimer::producerTime(unsigned producer) const
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].app_time;
}

LaneStats
PipelineTimer::laneStats(unsigned lane_idx) const
{
    LBA_ASSERT(lane_idx < lanes_.size(), "bad lane index");
    const Lane& lane = lanes_[lane_idx];
    LaneStats stats;
    stats.last_finish = lane.last_finish;
    stats.busy_cycles = lane.busy_cycles;
    stats.records = lane.records;
    stats.mean_consume_lag = lane.consume_lag.mean();
    stats.transport_bytes = lane.transport_bytes;
    stats.transport_wait_cycles = lane.transport_wait_cycles;
    // Every delivered record is consumed at once; the ones whose slots
    // are not reclaimed yet still hold them.
    stats.buffer.pushes = lane.records;
    stats.buffer.pops = lane.records - lane.slot_finish.size();
    stats.buffer.max_occupancy = lane.max_occupancy;
    return stats;
}

} // namespace lba::core
