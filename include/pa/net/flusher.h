#pragma once
/// \file flusher.h
/// \brief Chunk pump for the pilot wire protocol: a background thread that
/// drains queued messages into a sink and re-offers what the sink could
/// not deliver.
///
/// `push()` enqueues a protocol message and returns; the pusher never
/// encodes or touches a transport. The pump thread wakes whenever messages
/// are pending, hands up to `max_batch` of them to the caller-supplied
/// sink, and goes back for more. Batches form only from the backlog that
/// builds while the sink runs. Unit and control frames do not use this
/// class: they go straight to `Connection::send`. It carries chunk streams
/// and bulk store replies, where a retry timer is worth a thread: the
/// store's TransferScheduler, agent-to-agent peer channels and an agent's
/// replies to kObjPut/kObjGet.
///
/// The sink returns the messages it could NOT deliver (e.g. the transport
/// send queue rejected them). Retained messages are put back at the front
/// of the pending buffer, order preserved, and retried after
/// `retry_delay_seconds`. A sink that retains a message on purpose gets a
/// timer out of it: TransferScheduler keeps one prefetched chunk unsent to
/// come back after the backoff. Only `close()` may drop messages (one final
/// delivery attempt is made first); drops are counted in
/// `dropped_on_close()`.
///
/// Threading: one internal mutex (LockRank::kNetFlusher) guards the
/// pending buffer only. The sink always runs with that lock dropped, so it
/// may freely acquire runtime/transport/connection locks (ranks 14+).

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/message.h"

namespace pa::net {

struct BatchFlusherConfig {
  /// Max messages per sink invocation.
  std::size_t max_batch = 32;
  /// Backoff before retrying messages the sink retained.
  double retry_delay_seconds = 0.001;
};

/// Thread-safe pump. All methods may be called from any thread; `close()`
/// (or destruction) makes a final delivery attempt and joins the thread.
class BatchFlusher {
 public:
  /// Delivers one batch. Runs on the pump thread with no BatchFlusher lock
  /// held; `closing` is true only for the final attempt made by close(),
  /// whose retained messages are dropped instead of retried. Returns the
  /// messages that could not be delivered, in their original order; they
  /// are re-queued ahead of newer messages and retried after
  /// `retry_delay_seconds`.
  using Sink =
      std::function<std::vector<Message>(std::vector<Message>, bool closing)>;

  explicit BatchFlusher(Sink sink, BatchFlusherConfig config = {});
  ~BatchFlusher();

  BatchFlusher(const BatchFlusher&) = delete;
  BatchFlusher& operator=(const BatchFlusher&) = delete;

  /// Enqueues a message. After close() began, the message is dropped and
  /// counted in dropped_on_close(), matching the connection contract that
  /// a closing endpoint stops transmitting.
  void push(Message message) PA_EXCLUDES(mutex_);

  /// Final delivery attempt (`closing` set), then drops whatever the sink
  /// still rejects and joins the pump thread. Idempotent; a concurrent
  /// second caller may return before the first finishes joining (same
  /// contract as journal::Writer::close).
  void close() PA_EXCLUDES(mutex_);

  /// Messages dropped because they were pushed after close() began or
  /// remained undeliverable through the final attempt.
  std::uint64_t dropped_on_close() const PA_EXCLUDES(mutex_);
  /// Messages the sink retained and the pump re-queued for retry.
  std::uint64_t retried() const PA_EXCLUDES(mutex_);

 private:
  void pump_loop() PA_EXCLUDES(mutex_);

  const Sink sink_;
  const BatchFlusherConfig config_;

  mutable check::Mutex mutex_{check::LockRank::kNetFlusher,
                              "net::BatchFlusher"};
  check::CondVar work_cv_;  ///< pump wakeups
  std::deque<Message> pending_ PA_GUARDED_BY(mutex_);
  bool draining_ PA_GUARDED_BY(mutex_) = false;  ///< sink call in progress
  bool closing_ PA_GUARDED_BY(mutex_) = false;
  std::uint64_t dropped_on_close_ PA_GUARDED_BY(mutex_) = 0;
  std::uint64_t retried_ PA_GUARDED_BY(mutex_) = 0;

  std::thread pump_;
};

}  // namespace pa::net
