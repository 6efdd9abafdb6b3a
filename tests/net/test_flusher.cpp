#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/flusher.h"

namespace pa::net {
namespace {

using namespace std::chrono_literals;

Message unit_done(int i) {
  Message m;
  m.type = MessageType::kUnitDoneBatch;
  m.pilot_id = "p";
  m.completions.push_back(
      WireUnitDone{"unit-" + std::to_string(i), true, 0.0});
  return m;
}

bool wait_until(const std::function<bool()>& predicate,
                std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(200us);
  }
  return true;
}

/// Sink that records every delivered batch (size + closing flag) and can
/// be told to reject deliveries. Uses a kLeaf mutex so it composes with
/// the flusher's own lock from the sink thread.
class RecordingSink {
 public:
  BatchFlusher::Sink fn() {
    return [this](std::vector<Message> batch, bool closing) {
      check::MutexLock lock(mu_);
      if (reject_next_ > 0 || (hold_until_close_ && !closing)) {
        if (reject_next_ > 0) {
          --reject_next_;
        }
        return batch;  // retain everything
      }
      batch_sizes_.push_back(batch.size());
      closing_.push_back(closing);
      for (auto& m : batch) {
        delivered_.push_back(std::move(m.completions.front().unit_id));
      }
      return std::vector<Message>{};
    };
  }

  void reject_next(int n) {
    check::MutexLock lock(mu_);
    reject_next_ = n;
  }
  /// Retains every batch until the final attempt of close().
  void hold_until_close() {
    check::MutexLock lock(mu_);
    hold_until_close_ = true;
  }

  std::size_t delivered_count() const {
    check::MutexLock lock(mu_);
    return delivered_.size();
  }
  std::vector<std::string> delivered() const {
    check::MutexLock lock(mu_);
    return delivered_;
  }
  std::vector<std::size_t> batch_sizes() const {
    check::MutexLock lock(mu_);
    return batch_sizes_;
  }
  std::vector<bool> closing() const {
    check::MutexLock lock(mu_);
    return closing_;
  }

 private:
  mutable check::Mutex mu_{check::LockRank::kLeaf, "test.recording_sink"};
  int reject_next_ PA_GUARDED_BY(mu_) = 0;
  bool hold_until_close_ PA_GUARDED_BY(mu_) = false;
  std::vector<std::string> delivered_ PA_GUARDED_BY(mu_);
  std::vector<std::size_t> batch_sizes_ PA_GUARDED_BY(mu_);
  std::vector<bool> closing_ PA_GUARDED_BY(mu_);
};

BatchFlusherConfig test_config() {
  BatchFlusherConfig c;
  c.max_batch = 8;
  c.retry_delay_seconds = 0.0005;
  return c;
}

TEST(BatchFlusher, EagerModeDeliversWithoutTriggers) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), test_config());
  flusher.push(unit_done(0));
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 1; }));
  EXPECT_FALSE(sink.closing()[0]);
}

TEST(BatchFlusher, CloseFlushesRemainder) {
  RecordingSink sink;
  sink.hold_until_close();
  BatchFlusher flusher(sink.fn(), test_config());
  for (int i = 0; i < 5; ++i) {
    flusher.push(unit_done(i));  // retained and retried until close()
  }
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 5u);
  ASSERT_EQ(sink.closing().size(), 1u);
  EXPECT_TRUE(sink.closing()[0]);
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
}

TEST(BatchFlusher, EmptyFlushIsNoOp) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), test_config());
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_TRUE(sink.closing().empty());  // sink never invoked
}

TEST(BatchFlusher, RejectedBatchIsRetriedInOrder) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), test_config());
  sink.reject_next(3);
  for (int i = 0; i < 4; ++i) {
    flusher.push(unit_done(i));
  }
  ASSERT_TRUE(wait_until([&] { return sink.delivered_count() == 4; }));
  EXPECT_GE(flusher.retried(), 1u);
  const std::vector<std::string> expected = {"unit-0", "unit-1", "unit-2",
                                             "unit-3"};
  EXPECT_EQ(sink.delivered(), expected);
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
}

TEST(BatchFlusher, PushAfterCloseIsDroppedAndCounted) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), test_config());
  flusher.close();
  flusher.push(unit_done(0));
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_EQ(flusher.dropped_on_close(), 1u);
}

TEST(BatchFlusher, UndeliverableMessagesDropOnClose) {
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), test_config());
  sink.reject_next(1000);  // covers retries and the final closing attempt
  flusher.push(unit_done(0));
  flusher.push(unit_done(1));
  flusher.close();
  EXPECT_EQ(sink.delivered_count(), 0u);
  EXPECT_EQ(flusher.dropped_on_close(), 2u);
}

TEST(BatchFlusher, ConcurrentPushersAllDeliver) {
  BatchFlusherConfig config = test_config();
  config.max_batch = 32;
  RecordingSink sink;
  BatchFlusher flusher(sink.fn(), config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> pushers;
  pushers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&flusher, t] {
      for (int i = 0; i < kPerThread; ++i) {
        flusher.push(unit_done(t * kPerThread + i));
      }
    });
  }
  for (auto& p : pushers) {
    p.join();
  }
  ASSERT_TRUE(wait_until(
      [&] { return sink.delivered_count() == kThreads * kPerThread; }));
  flusher.close();
  EXPECT_EQ(flusher.dropped_on_close(), 0u);
  for (const std::size_t size : sink.batch_sizes()) {
    EXPECT_LE(size, config.max_batch);
  }
}

}  // namespace
}  // namespace pa::net
