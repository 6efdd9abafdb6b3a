#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/rt/local_runtime.h"

namespace pa::core {
namespace {

class LocalServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<rt::LocalRuntime>();
    service_ = std::make_unique<PilotComputeService>(*runtime_, "backfill");
  }

  PilotDescription pilot_desc(int cores = 4) {
    PilotDescription d;
    d.resource_url = "local://host";
    d.nodes = cores;  // 1 core per node by default
    d.walltime = 1e9;
    return d;
  }

  std::unique_ptr<rt::LocalRuntime> runtime_;
  std::unique_ptr<PilotComputeService> service_;
};

TEST_F(LocalServiceTest, PilotActivatesImmediately) {
  Pilot pilot = service_->submit_pilot(pilot_desc());
  pilot.wait_active(5.0);
  EXPECT_EQ(pilot.state(), PilotState::kActive);
}

TEST_F(LocalServiceTest, RealPayloadExecutes) {
  service_->submit_pilot(pilot_desc());
  std::atomic<int> executed{0};
  ComputeUnitDescription d;
  d.work = [&executed]() { executed.fetch_add(1); };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
  EXPECT_EQ(executed.load(), 1);
}

TEST_F(LocalServiceTest, ManyUnitsAllExecute) {
  service_->submit_pilot(pilot_desc(8));
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 200; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() { executed.fetch_add(1); };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(service_->metrics().units_done, 200u);
}

TEST_F(LocalServiceTest, ConcurrencyBoundedByPilotCores) {
  service_->submit_pilot(pilot_desc(4));
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 32; ++i) {
    ComputeUnitDescription d;
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_LE(max_concurrent.load(), 4);
  EXPECT_GE(max_concurrent.load(), 2);  // parallelism actually happened
}

TEST_F(LocalServiceTest, ThrowingPayloadFailsUnit) {
  service_->submit_pilot(pilot_desc());
  ComputeUnitDescription d;
  d.work = []() { throw std::runtime_error("payload exploded"); };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kFailed);
  EXPECT_EQ(service_->metrics().units_failed, 1u);
}

TEST_F(LocalServiceTest, MultiCoreUnitsReserveCores) {
  service_->submit_pilot(pilot_desc(4));
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 8; ++i) {
    ComputeUnitDescription d;
    d.cores = 2;  // only two of these fit concurrently on 4 cores
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  service_->wait_all_units(60.0);
  EXPECT_LE(max_concurrent.load(), 2);
}

TEST_F(LocalServiceTest, CoresPerNodeAttribute) {
  PilotDescription d;
  d.resource_url = "local://host?cores_per_node=4";
  d.nodes = 2;
  d.walltime = 1e9;
  Pilot pilot = service_->submit_pilot(d);
  pilot.wait_active(5.0);
  // An 8-core unit must fit (2 nodes * 4 cores).
  ComputeUnitDescription u;
  u.cores = 8;
  u.work = []() {};
  ComputeUnit unit = service_->submit_unit(u);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
}

TEST_F(LocalServiceTest, CancelPilotStopsFutureWork) {
  Pilot pilot = service_->submit_pilot(pilot_desc(1));
  pilot.wait_active(5.0);
  std::atomic<bool> second_ran{false};
  ComputeUnitDescription slow;
  slow.work = []() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); };
  ComputeUnitDescription second;
  second.work = [&second_ran]() { second_ran.store(true); };
  service_->submit_unit(slow);
  ComputeUnit u2 = service_->submit_unit(second);
  pilot.cancel();
  EXPECT_EQ(pilot.state(), PilotState::kCanceled);
  // u2 was requeued (pilot gone) and stays pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(u2.state(), UnitState::kPending);
  EXPECT_FALSE(second_ran.load());
}

TEST_F(LocalServiceTest, WorkloadMovesToSecondPilotAfterCancel) {
  Pilot p1 = service_->submit_pilot(pilot_desc(1));
  p1.wait_active(5.0);
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 4; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      executed.fetch_add(1);
    };
    units.push_back(service_->submit_unit(d));
  }
  p1.cancel();
  Pilot p2 = service_->submit_pilot(pilot_desc(2));
  service_->wait_all_units(60.0);
  // Every unit eventually completed, possibly re-executed after recovery.
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  EXPECT_GE(executed.load(), 4);
}

TEST_F(LocalServiceTest, WaitTimesOut) {
  // A pilot exists but the unit blocks forever -> timeout.
  service_->submit_pilot(pilot_desc(1));
  std::atomic<bool> release{false};
  ComputeUnitDescription d;
  d.work = [&release]() {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_THROW(unit.wait(0.2), pa::TimeoutError);
  release.store(true);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
}

TEST_F(LocalServiceTest, NonLocalUrlRejected) {
  PilotDescription d;
  d.resource_url = "slurm://hpc";
  d.nodes = 1;
  d.walltime = 10.0;
  EXPECT_THROW(service_->submit_pilot(d), pa::InvalidArgument);
}

TEST_F(LocalServiceTest, BurnCpuPayloadDefaultsFromDuration) {
  service_->submit_pilot(pilot_desc(2));
  ComputeUnitDescription d;
  d.duration = 0.05;  // no work payload: burns CPU for the duration
  ComputeUnit unit = service_->submit_unit(d);
  EXPECT_EQ(unit.wait(30.0), UnitState::kDone);
  EXPECT_GE(unit.times().exec_time(), 0.04);
}

/// A runtime that holds on to every callback it is given and fires them
/// only when told to, from any thread: the shape of a remote agent whose
/// completions arrive while (or after) the service is torn down.
class DeferredRuntime : public Runtime {
 public:
  void start_pilot(const std::string& pilot_id,
                   const PilotDescription& description,
                   PilotRuntimeCallbacks callbacks) override {
    callbacks.on_active(pilot_id, description.nodes, "deferred");
    check::MutexLock lock(mu_);
    pilots_.emplace_back(pilot_id, std::move(callbacks));
  }
  void cancel_pilot(const std::string& pilot_id) override {
    PilotRuntimeCallbacks callbacks;
    {
      check::MutexLock lock(mu_);
      for (const auto& [id, cb] : pilots_) {
        if (id == pilot_id) {
          callbacks = cb;
        }
      }
    }
    if (callbacks.on_terminated) {
      callbacks.on_terminated(pilot_id, PilotState::kCanceled);
    }
  }
  void execute_unit(const std::string& /*pilot_id*/,
                    const ComputeUnitDescription& /*description*/,
                    const std::string& /*unit_id*/,
                    std::function<void(bool)> on_done) override {
    check::MutexLock lock(mu_);
    done_.push_back(std::move(on_done));
  }
  double now() const override { return wall_seconds(); }
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override {
    const double deadline = wall_seconds() + timeout_seconds;
    while (!predicate()) {
      if (wall_seconds() > deadline) {
        throw TimeoutError("deferred runtime wait timed out");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::size_t held() {
    check::MutexLock lock(mu_);
    return done_.size();
  }
  /// Fires every held completion, then re-announces and re-terminates
  /// every pilot, with no lock held.
  void fire_all() {
    std::vector<std::function<void(bool)>> done;
    std::vector<std::pair<std::string, PilotRuntimeCallbacks>> pilots;
    {
      check::MutexLock lock(mu_);
      done.swap(done_);
      pilots = pilots_;
    }
    for (auto& d : done) {
      d(true);
    }
    for (const auto& [id, cb] : pilots) {
      cb.on_active(id, 1, "deferred");
      cb.on_terminated(id, PilotState::kFailed);
    }
  }

 private:
  check::Mutex mu_{check::LockRank::kLeaf, "test.deferred_runtime"};
  std::vector<std::function<void(bool)>> done_ PA_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, PilotRuntimeCallbacks>> pilots_
      PA_GUARDED_BY(mu_);
};

// Runtime callbacks that fire while the service is being torn down, and
// after it is gone, must be dropped: they may not reach a freed shard or
// control plane (run under ASan to see the difference).
TEST(ServiceTeardown, LateRuntimeCallbacksAreDropped) {
  DeferredRuntime runtime;
  constexpr int kUnits = 64;
  auto service = std::make_unique<PilotComputeService>(runtime, "backfill");
  PilotDescription d;
  d.resource_url = "local://host";
  d.nodes = kUnits;
  d.walltime = 1e9;
  service->submit_pilot(d).wait_active(10.0);
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription u;
    u.duration = 0.0;
    service->submit_unit(u);
  }
  const double start = wall_seconds();
  while (runtime.held() < static_cast<std::size_t>(kUnits) &&
         wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(runtime.held(), static_cast<std::size_t>(kUnits));

  // Completions race the teardown, then arrive after it.
  std::atomic<bool> go{false};
  std::thread completer([&] {
    while (!go.load()) {
      std::this_thread::yield();
    }
    runtime.fire_all();
  });
  go.store(true);
  service.reset();
  completer.join();
  runtime.fire_all();  // re-fires pilot callbacks into the dead service
}

}  // namespace
}  // namespace pa::core
