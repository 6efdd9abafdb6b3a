#include "pa/net/flusher.h"

#include <algorithm>
#include <utility>

#include "pa/common/error.h"

namespace pa::net {

namespace {
BatchFlusher::Sink require_sink(BatchFlusher::Sink sink) {
  PA_REQUIRE_ARG(sink != nullptr, "BatchFlusher needs a sink");
  return sink;
}
}  // namespace

BatchFlusher::BatchFlusher(Sink sink, BatchFlusherConfig config)
    : sink_(require_sink(std::move(sink))), config_(config) {
  PA_REQUIRE_ARG(config_.max_batch >= 1, "BatchFlusher max_batch must be >= 1");
  pump_ = std::thread([this]() { pump_loop(); });
}

BatchFlusher::~BatchFlusher() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() errors at teardown are moot.
  }
}

void BatchFlusher::push(Message message) {
  check::MutexLock lock(mutex_);
  if (closing_) {
    // The endpoint is shutting down; a late message has nowhere to go but
    // is accounted for (the caller's recovery story is orphan requeue).
    ++dropped_on_close_;
    return;
  }
  const bool was_empty = pending_.empty();
  pending_.push_back(std::move(message));
  // The pump only sleeps when there is nothing actionable; while it
  // drains, a wakeup is redundant (it re-checks the queue after every sink
  // call), and eliding it keeps the futex syscall off the push path.
  if (was_empty && !draining_) {
    work_cv_.notify_one();
  }
}

void BatchFlusher::close() {
  {
    check::MutexLock lock(mutex_);
    if (closing_) {
      // Already closed, or a concurrent close() owns the join — returning
      // here keeps pump_.join() single-callered.
      return;
    }
    closing_ = true;
    work_cv_.notify_one();
  }
  if (pump_.joinable()) {
    pump_.join();
  }
}

std::uint64_t BatchFlusher::dropped_on_close() const {
  check::MutexLock lock(mutex_);
  return dropped_on_close_;
}

std::uint64_t BatchFlusher::retried() const {
  check::MutexLock lock(mutex_);
  return retried_;
}

void BatchFlusher::pump_loop() {
  check::MutexLock lock(mutex_);
  while (true) {
    while (!closing_ && pending_.empty()) {
      work_cv_.wait(lock);
    }
    if (pending_.empty()) {
      return;  // closing with nothing left
    }
    const bool closing = closing_;
    std::vector<Message> batch;
    const std::size_t take = std::min(pending_.size(), config_.max_batch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    draining_ = true;
    lock.unlock();

    std::vector<Message> retained = sink_(std::move(batch), closing);

    lock.lock();
    draining_ = false;
    if (retained.empty()) {
      continue;
    }
    if (closing) {
      // The final attempt was made; anything still rejected is dropped,
      // counted.
      dropped_on_close_ += retained.size();
      continue;
    }
    retried_ += retained.size();
    for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
      pending_.push_front(std::move(*it));
    }
    // Back off before re-offering the same messages so a rejecting
    // transport is polled, not hammered. close() cuts the wait short.
    if (!closing_) {
      work_cv_.wait_for(lock, config_.retry_delay_seconds);
    }
  }
}

}  // namespace pa::net
