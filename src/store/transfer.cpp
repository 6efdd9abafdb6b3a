#include "pa/store/transfer.h"

#include <algorithm>
#include <utility>

namespace pa::store {

TransferScheduler::TransferScheduler(TransferSchedulerConfig config)
    : config_(config) {
  net::BatchFlusherConfig pump_config;
  pump_config.max_batch =
      config_.chunks_per_pass == 0 ? 1 : config_.chunks_per_pass;
  pump_config.retry_delay_seconds = config_.retry_delay_seconds;
  // Data-plane volume is exported as store.* counters by StoreManager.
  pump_ = std::make_unique<net::BatchFlusher>(
      [this](std::vector<net::Message> batch, bool closing) {
        return pump_sink(std::move(batch), closing);
      },
      pump_config);
}

TransferScheduler::~TransferScheduler() { close(); }

void TransferScheduler::attach_sender(ObjSender sender) {
  sender_ = std::move(sender);
}

void TransferScheduler::attach_chunk_source(ChunkSource source) {
  chunk_source_ = std::move(source);
}

void TransferScheduler::push_object(const std::string& pilot_id,
                                    const std::string& object_id,
                                    std::uint64_t transfer_id,
                                    std::uint32_t chunk_count,
                                    std::uint64_t total_bytes) {
  if (chunk_count == 0) {
    // Zero-byte object: a single empty chunk frame carries the metadata.
    net::Message m;
    m.type = net::MessageType::kObjPut;
    m.pilot_id = pilot_id;
    m.object_id = object_id;
    m.transfer_id = transfer_id;
    m.chunk_index = 0;
    m.chunk_count = 1;
    m.object_bytes = 0;
    m.chunk_crc = chunk_crc(std::string());
    pump_->push(std::move(m));
    return;
  }
  {
    check::MutexLock lock(mutex_);
    Stream s;
    s.pilot_id = pilot_id;
    s.object_id = object_id;
    s.transfer_id = transfer_id;
    s.count = chunk_count;
    s.total = total_bytes;
    streams_.push_back(std::move(s));
  }
  // Prime the pump: an idle pump only wakes for pushed messages, so
  // the first frame travels through the queue and the sink's prefetch
  // keeps the cursor alive from there.
  if (std::optional<net::Message> first = next_stream_frame({})) {
    pump_->push(std::move(*first));
  }
}

void TransferScheduler::request_object(const std::string& pilot_id,
                                       const std::string& object_id,
                                       std::uint64_t transfer_id) {
  net::Message m;
  m.type = net::MessageType::kObjGet;
  m.object_id = object_id;
  m.transfer_id = transfer_id;
  m.pilot_id = pilot_id;
  pump_->push(std::move(m));
}

void TransferScheduler::send_control(net::Message message) {
  pump_->push(std::move(message));
}

void TransferScheduler::drop_pilot(const std::string& pilot_id) {
  check::MutexLock lock(mutex_);
  streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                [&](const Stream& s) {
                                  return s.pilot_id == pilot_id;
                                }),
                 streams_.end());
}

void TransferScheduler::close() {
  if (pump_) {
    pump_->close();
  }
}

std::size_t TransferScheduler::streams_active() const {
  check::MutexLock lock(mutex_);
  return streams_.size();
}

std::optional<net::Message> TransferScheduler::next_stream_frame(
    const std::vector<std::string>& busy) {
  check::MutexLock lock(mutex_);
  const std::size_t n = streams_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t at = (round_robin_ + probe) % n;
    Stream& s = streams_[at];
    if (std::find(busy.begin(), busy.end(), s.pilot_id) != busy.end()) {
      continue;
    }
    net::Message m;
    m.type = net::MessageType::kObjPut;
    m.pilot_id = s.pilot_id;
    m.object_id = s.object_id;
    m.transfer_id = s.transfer_id;
    m.chunk_index = s.next;
    m.chunk_count = s.count;
    m.object_bytes = s.total;
    std::optional<Chunk> chunk =
        chunk_source_ ? chunk_source_(s.object_id, s.next) : std::nullopt;
    if (!chunk) {
      // The source lost (or corrupted) the object mid-stream: abort with
      // a NACK frame — chunk_count 0 makes the agent answer kObjLocate
      // success=false, which routes the manager to another replica.
      m.chunk_index = 0;
      m.chunk_count = 0;
      m.chunk_crc = 0;
      streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(at));
      round_robin_ = at;
      return m;
    }
    m.chunk_crc = chunk->crc;
    m.chunk_data = std::move(chunk->data);
    ++s.next;
    if (s.next >= s.count) {
      streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(at));
      round_robin_ = at;
    } else {
      round_robin_ = at + 1;
    }
    return m;
  }
  return std::nullopt;
}

std::vector<net::Message> TransferScheduler::pump_sink(
    std::vector<net::Message> batch, bool closing) {
  std::vector<net::Message> retained;
  if (!sender_) {
    return batch;  // not attached yet; retry after backoff
  }
  // Pilots whose stream hit backpressure this pass: all their later
  // frames are retained unsent so per-pilot chunk order is preserved.
  std::vector<std::string> busy;
  const auto is_busy = [&busy](const std::string& pilot) {
    return std::find(busy.begin(), busy.end(), pilot) != busy.end();
  };
  std::size_t sent_this_pass = 0;
  for (net::Message& m : batch) {
    const std::string pilot = m.pilot_id;
    if (is_busy(pilot)) {
      retained.push_back(std::move(m));
      continue;
    }
    const std::uint64_t frame_bytes = m.chunk_data.size();
    switch (sender_(pilot, m)) {
      case SendResult::kSent:
        ++sent_this_pass;
        chunks_sent_.fetch_add(1, std::memory_order_relaxed);
        bytes_sent_.fetch_add(frame_bytes, std::memory_order_relaxed);
        break;
      case SendResult::kBusy:
        busy.push_back(pilot);
        retained.push_back(std::move(m));
        break;
      case SendResult::kGone:
        chunks_dropped_.fetch_add(1, std::memory_order_relaxed);
        drop_pilot(pilot);
        break;
    }
  }
  // Top up the pass from stream cursors — but only when the queue was
  // fully drained (batch smaller than a full take): a full batch may
  // leave earlier frames for these streams in the pending tail, and
  // generating more now would reorder them.
  const std::size_t cap =
      config_.chunks_per_pass == 0 ? 1 : config_.chunks_per_pass;
  if (!closing && batch.size() < cap) {
    while (sent_this_pass < cap) {
      std::optional<net::Message> next = next_stream_frame(busy);
      if (!next) {
        break;
      }
      net::Message m = std::move(*next);
      const std::string pilot = m.pilot_id;
      const std::uint64_t frame_bytes = m.chunk_data.size();
      switch (sender_(pilot, m)) {
        case SendResult::kSent:
          ++sent_this_pass;
          chunks_sent_.fetch_add(1, std::memory_order_relaxed);
          bytes_sent_.fetch_add(frame_bytes, std::memory_order_relaxed);
          break;
        case SendResult::kBusy:
          busy.push_back(pilot);
          retained.push_back(std::move(m));
          break;
        case SendResult::kGone:
          chunks_dropped_.fetch_add(1, std::memory_order_relaxed);
          drop_pilot(pilot);
          break;
      }
    }
    // The pump sleeps once its queue drains, so while cursors still
    // have work we retain one prefetched frame unsent: it re-enters the
    // sink after the retry backoff and keeps the stream moving. Appended
    // last so it lands behind any busy-retained frames for its pilot.
    if (std::optional<net::Message> ahead = next_stream_frame({})) {
      retained.push_back(std::move(*ahead));
    }
  }
  return retained;
}

}  // namespace pa::store
