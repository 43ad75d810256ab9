/**
 * @file
 * Shared LBA timing engine implementation.
 */

#include "core/pipeline_timer.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace lba::core {

using log::EventRecord;
using log::EventType;

PipelineTimer::PipelineTimer(mem::CacheHierarchy& hierarchy,
                             const LbaConfig& config, unsigned nlanes)
    : hierarchy_(hierarchy), config_(config)
{
    LBA_ASSERT(nlanes >= 1, "timer needs at least one lane");
    LBA_ASSERT(hierarchy_.config().num_cores >=
                   config_.dispatch.core + nlanes,
               "hierarchy must provide one core per lane plus the app");
    LBA_ASSERT(config_.dispatch.core > 0,
               "application and lifeguard must use different cores");
    LBA_ASSERT(config_.buffer_capacity > 0,
               "log buffer capacity must be positive");
    // Also false for NaN, which would otherwise mean unlimited.
    LBA_ASSERT(config_.transport_bytes_per_cycle >= 0.0,
               "transport bandwidth must be >= 0 (0 = unlimited)");

    lanes_.resize(nlanes);

    // Producer 0, on core 0.
    encoders_.emplace_back();
    producers_.emplace_back();
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
    encoders_.emplace_back().app_core = app_core;
    producers_.emplace_back();
    return static_cast<unsigned>(producers_.size() - 1);
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

PipelineTimer::Encoded
PipelineTimer::encode(unsigned producer, const EventRecord& record)
{
    LBA_ASSERT(producer < encoders_.size(), "bad producer index");
    EncoderSlot& slot = encoders_[producer];
    Encoded encoded;
    if (!log::isAnnotation(record.type)) {
        // A retirement's record is a load or store exactly when the
        // instruction accessed memory, at record.addr.
        encoded.l1_misses = hierarchy_.retireL1(
            slot.app_core, record.pc,
            record.type == EventType::kLoad ||
                record.type == EventType::kStore,
            record.addr, record.type == EventType::kStore);
    }
    // Bandwidth accounting: compressed records cost their true encoded
    // size; uncompressed transport pays the full record width. Each
    // producer is its own log stream, so its sizer sees only its own
    // record sequence.
    if (filtered(record)) {
        encoded.bytes = kFiltered;
    } else if (!config_.compress) {
        encoded.bytes = config_.raw_record_bytes;
    } else {
        encoded.bytes =
            static_cast<double>(slot.stream.append(record)) / 8.0;
    }
    return encoded;
}

Cycles
PipelineTimer::drainProducer(unsigned producer_idx)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    if (producer.app_time >= producer.drain_clock) return 0;
    Cycles stall = producer.drain_clock - producer.app_time;
    producer.app_time = producer.drain_clock;
    producer.stats.containment_cycles += stall;
    return stall;
}

void
PipelineTimer::chargeContainment(unsigned producer_idx, Cycles cycles)
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    producer.app_time += cycles;
    producer.stats.containment_cycles += cycles;
}

unsigned
PipelineTimer::producerCore(unsigned producer_idx) const
{
    LBA_ASSERT(producer_idx < encoders_.size(), "bad producer index");
    return encoders_[producer_idx].app_core;
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
    for (std::size_t p = 0; p < producers_.size(); ++p) {
        Producer& producer = producers_[p];
        producer.stats.total_cycles =
            std::max(producer.app_time, producer.drain_clock);
        producer.stats.bytes_per_record =
            encoders_[p].stream.bytesPerRecord();
        producer.stats.mean_consume_lag = producer.consume_lag.mean();
    }
}

LbaRunStats
PipelineTimer::stats() const
{
    // Every count is an integer or a whole number of eighths of a byte,
    // so the sums in producer order are the sums in record order.
    LbaRunStats total;
    double lag_sum = 0.0;
    std::uint64_t lag_count = 0;
    std::uint64_t compressed_records = 0;
    double compressed_bytes = 0.0;
    for (std::size_t p = 0; p < producers_.size(); ++p) {
        const LbaRunStats& slice = producers_[p].stats;
        total.app_instructions += slice.app_instructions;
        total.records_logged += slice.records_logged;
        total.records_filtered += slice.records_filtered;
        total.total_cycles = std::max(total.total_cycles, slice.total_cycles);
        total.app_cycles += slice.app_cycles;
        total.backpressure_stall_cycles += slice.backpressure_stall_cycles;
        total.syscall_stall_cycles += slice.syscall_stall_cycles;
        total.lifeguard_busy_cycles += slice.lifeguard_busy_cycles;
        total.syscall_drains += slice.syscall_drains;
        total.transport_bytes += slice.transport_bytes;
        total.transport_wait_cycles += slice.transport_wait_cycles;
        total.containment_cycles += slice.containment_cycles;
        lag_sum += producers_[p].consume_lag.sum();
        lag_count += producers_[p].consume_lag.count();
        const compress::LogSizer& stream = encoders_[p].stream;
        compressed_records += stream.records();
        compressed_bytes += static_cast<double>(stream.bits()) / 8.0;
    }
    total.bytes_per_record =
        compressed_records
            ? compressed_bytes / static_cast<double>(compressed_records)
            : 0.0;
    total.mean_consume_lag =
        lag_count ? lag_sum / static_cast<double>(lag_count) : 0.0;
    return total;
}

const LbaRunStats&
PipelineTimer::producerStats(unsigned producer) const
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].stats;
}

const stats::Histogram&
PipelineTimer::lagHistogram(unsigned producer) const
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].lag_histogram;
}

stats::Summary
PipelineTimer::takeLagWindow(unsigned producer)
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return std::exchange(producers_[producer].lag_window, {});
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
