#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net_test_util.h"
#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/net/inproc_transport.h"
#include "pa/net/message.h"
#include "pa/net/tcp_transport.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/remote_runtime.h"

namespace pa::rt {
namespace {

using core::ComputeUnit;
using core::ComputeUnitDescription;
using core::Pilot;
using core::PilotComputeService;
using core::PilotDescription;
using core::PilotState;
using core::UnitState;

// Owns the in-process agents the launcher creates, so tests can poke
// individual agents (set_unresponsive) and control their lifetime.
class AgentFarm {
 public:
  explicit AgentFarm(net::Transport& transport) : transport_(transport) {}

  void create(const std::string& pilot_id, const std::string& endpoint,
              const std::shared_ptr<PayloadTable>& payloads,
              const AgentEndpointConfig& config = {}) {
    // Construct (which connects, taking transport locks) before taking
    // the kLeaf registry lock — ranks must strictly increase.
    auto agent = std::make_unique<AgentEndpoint>(transport_, endpoint,
                                                 pilot_id, payloads, config);
    check::MutexLock lock(mu_);
    agents_[pilot_id] = std::move(agent);
  }

  AgentEndpoint* agent(const std::string& pilot_id) {
    check::MutexLock lock(mu_);
    const auto it = agents_.find(pilot_id);
    return it == agents_.end() ? nullptr : it->second.get();
  }

  // Simulates a killed agent process: the endpoint (and its connection)
  // is destroyed outright.
  void kill(const std::string& pilot_id) {
    std::unique_ptr<AgentEndpoint> victim;
    {
      check::MutexLock lock(mu_);
      const auto it = agents_.find(pilot_id);
      if (it != agents_.end()) {
        victim = std::move(it->second);
        agents_.erase(it);
      }
    }
    // Destructor (close + local drain) runs outside the lock.
  }

  std::size_t size() {
    check::MutexLock lock(mu_);
    return agents_.size();
  }

 private:
  net::Transport& transport_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.agent_farm"};
  std::map<std::string, std::unique_ptr<AgentEndpoint>> agents_
      PA_GUARDED_BY(mu_);
};

PilotDescription remote_pilot(int nodes, const std::string& site = "site-a") {
  PilotDescription d;
  d.resource_url = "remote://" + site;
  d.nodes = nodes;
  d.walltime = 1e9;
  return d;
}

// Runs `unit_count` units that each record their slot in `results`, on an
// already-constructed service; returns when everything completed.
void run_workload(PilotComputeService& service, int unit_count,
                  std::vector<int>& results) {
  results.assign(unit_count, -1);
  for (int i = 0; i < unit_count; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&results, i]() { results[i] = i * i; };
    service.submit_unit(d);
  }
  service.wait_all_units(120.0);
}

// Builds the service + runtime + farm stack over `transport`. The
// launcher dereferences `runtime` lazily — it is only invoked from
// start_pilot, long after construction finishes.
struct RemoteStack {
  RemoteStack(net::Transport& transport, const std::string& listen_endpoint,
              double heartbeat_interval = 0.1, int miss_limit = 30,
              obs::MetricsRegistry* metrics = nullptr)
      : farm(transport) {
    RemoteRuntimeConfig config;
    config.listen_endpoint = listen_endpoint;
    config.heartbeat_interval_seconds = heartbeat_interval;
    config.heartbeat_miss_limit = miss_limit;
    config.metrics = metrics;
    config.launcher = [this](const std::string& pilot_id,
                             const std::string& endpoint) {
      farm.create(pilot_id, endpoint, runtime->payloads(), agent_config);
    };
    runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
    service = std::make_unique<PilotComputeService>(*runtime, "backfill");
  }

  /// Applied to agents the launcher creates from this point on; set it
  /// before submitting pilots (test hook for queue and store
  /// configurations).
  AgentEndpointConfig agent_config;
  AgentFarm farm;
  std::unique_ptr<RemoteRuntime> runtime;
  std::unique_ptr<PilotComputeService> service;
};

/// Stalls the InProc transport's single delivery thread, which serves
/// every connection, until release(): frames pile up against each
/// receiver's byte bound, so senders meet backpressure deterministically.
class DeliveryStall {
 public:
  DeliveryStall(net::InProcTransport& transport, const std::string& name) {
    transport.listen(name, [this](const net::ConnectionPtr&) {
      net::ConnectionHandlers h;
      h.on_message = [this](const std::string&) {
        entered_.store(true);
        while (!released_.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      };
      return h;
    });
    client_ = transport.connect(name, {});
  }
  ~DeliveryStall() { release(); }

  /// Returns once the delivery thread is parked in the stall.
  void engage() {
    net::Message m;
    m.type = net::MessageType::kHeartbeat;
    std::string frame;
    net::append_message_frame(frame, m);
    ASSERT_TRUE(client_->send(std::move(frame)));
    const double start = pa::wall_seconds();
    while (!entered_.load() && pa::wall_seconds() - start < 10.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(entered_.load());
  }
  void release() { released_.store(true); }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
  net::ConnectionPtr client_;
};

/// Polls `done` every 200 us for up to `timeout` seconds.
bool wait_for(const std::function<bool()>& done, double timeout = 20.0) {
  const double start = pa::wall_seconds();
  while (!done()) {
    if (pa::wall_seconds() - start > timeout) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Size of one completion frame as the agent encodes it.
std::size_t completion_frame_bytes(const std::string& pilot_id,
                                   const std::string& unit_id) {
  net::Message m;
  m.type = net::MessageType::kUnitDoneBatch;
  m.pilot_id = pilot_id;
  m.completions.push_back(net::WireUnitDone{unit_id, true, 0.0});
  std::string frame;
  net::append_message_frame(frame, m);
  return frame.size();
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& [n, value] : registry.counters()) {
    if (n == name) {
      return value;
    }
  }
  return 0;
}

TEST(RemoteRuntime, TwoPilotsHundredUnitsMatchLocalOverInProc) {
  // Remote run.
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot p1 = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(4, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);
  EXPECT_EQ(stack.farm.size(), 2u);

  constexpr int kUnits = 120;
  std::vector<int> remote_results;
  run_workload(*stack.service, kUnits, remote_results);
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::uint64_t>(kUnits));

  // Identical workload on a LocalRuntime-backed service.
  LocalRuntime local;
  PilotComputeService local_service(local, "backfill");
  PilotDescription d1;
  d1.resource_url = "local://site-a";
  d1.nodes = 4;
  d1.walltime = 1e9;
  local_service.submit_pilot(d1);
  PilotDescription d2 = d1;
  d2.resource_url = "local://site-b";
  local_service.submit_pilot(d2);
  std::vector<int> local_results;
  run_workload(local_service, kUnits, local_results);

  EXPECT_EQ(remote_results, local_results);
  transport.stop();
}

TEST(RemoteRuntime, TwoPilotsHundredUnitsMatchLocalOverTcp) {
  PA_NET_REQUIRE_TCP();
  net::TcpTransport transport;
  RemoteStack stack(transport, "127.0.0.1:0");
  Pilot p1 = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(4, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);

  constexpr int kUnits = 120;
  std::vector<int> remote_results;
  run_workload(*stack.service, kUnits, remote_results);
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::uint64_t>(kUnits));

  LocalRuntime local;
  PilotComputeService local_service(local, "backfill");
  PilotDescription d;
  d.resource_url = "local://site-a";
  d.nodes = 4;
  d.walltime = 1e9;
  local_service.submit_pilot(d);
  PilotDescription d2 = d;
  d2.resource_url = "local://site-b";
  local_service.submit_pilot(d2);
  std::vector<int> local_results;
  run_workload(local_service, kUnits, local_results);

  EXPECT_EQ(remote_results, local_results);

  // The agent side saw real wire traffic.
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);
  net::ConnectionStats stats = agent->stats();
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  transport.stop();
}

TEST(RemoteRuntime, NonRemoteUrlRejected) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  PilotDescription d;
  d.resource_url = "local://host";
  d.nodes = 1;
  d.walltime = 10.0;
  EXPECT_THROW(stack.service->submit_pilot(d), pa::InvalidArgument);
  transport.stop();
}

TEST(RemoteRuntime, CancelPilotTerminatesSynchronously) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  pilot.cancel();
  EXPECT_EQ(pilot.state(), PilotState::kCanceled);
  transport.stop();
}

// A dispatch that races the service applying a pilot's termination is
// dropped quietly (the orphan requeue owns the unit); it used to surface
// as a "fire-and-forget command failed: unknown pilot" warning. A pilot id
// the runtime never saw is still refused.
TEST(RemoteRuntime, DispatchRacingPilotEndIsDropped) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  pilot.cancel();
  ComputeUnitDescription d;
  d.work = [] {};
  bool called = false;
  EXPECT_NO_THROW(stack.runtime->execute_unit(
      pilot.id(), d, "late-unit", [&called](bool) { called = true; }));
  EXPECT_THROW(
      stack.runtime->execute_unit("pilot-never", d, "stray-unit", [](bool) {}),
      pa::NotFound);
  EXPECT_FALSE(called);
  transport.stop();
}

// Acceptance: a hung agent (heartbeats swallowed, no unit completions)
// is declared dead within the heartbeat deadline; its pilot fails and
// in-flight units are requeued onto a healthy pilot.
TEST(RemoteRuntime, HungAgentFailsPilotAndRequeuesUnits) {
  net::InProcTransport transport;
  // 20 ms heartbeats, dead after 3 misses = 60 ms deadline.
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(1, "site-a"));
  p1.wait_active(10.0);

  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 5; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&release, &executed]() {
      executed.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    units.push_back(stack.service->submit_unit(d));
  }
  // Wait until the 1-core pilot is actually executing something.
  const double hang_start = pa::wall_seconds();
  while (executed.load() == 0 && pa::wall_seconds() - hang_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(executed.load(), 1);

  // Hang the agent: no more heartbeat acks, no completions.
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);
  const double dead_start = pa::wall_seconds();
  agent->set_unresponsive(true);

  // The manager must declare the pilot dead within the deadline (plus
  // scheduling slack).
  while (p1.state() != PilotState::kFailed &&
         pa::wall_seconds() - dead_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(p1.state(), PilotState::kFailed);
  EXPECT_LT(pa::wall_seconds() - dead_start, 2.0)
      << "death detection took far longer than the 60 ms deadline";

  // Recovery: a healthy pilot picks up the requeued units.
  release.store(true);
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  // The stuck unit ran on the dead pilot and again on the new one.
  EXPECT_GE(executed.load(), 5);
  transport.stop();
}

// Acceptance (TCP flavor): killing the agent process outright — socket
// torn down, no clean goodbye — is detected by missed heartbeats.
TEST(RemoteRuntime, KilledAgentConnectionDetectedOverTcp) {
  PA_NET_REQUIRE_TCP();
  net::TcpTransport transport;
  RemoteStack stack(transport, "127.0.0.1:0",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 8; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      executed.fetch_add(1);
    };
    units.push_back(stack.service->submit_unit(d));
  }

  // Kill the agent outright (connection closes, process "gone").
  stack.farm.kill(p1.id());
  const double dead_start = pa::wall_seconds();
  while (p1.state() != PilotState::kFailed &&
         pa::wall_seconds() - dead_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(p1.state(), PilotState::kFailed);

  // A replacement pilot finishes whatever had not completed.
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  transport.stop();
}

TEST(RemoteRuntime, HeartbeatMetricsRecorded) {
  obs::MetricsRegistry registry;
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/30,
                    &registry);

  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  ComputeUnitDescription d;
  d.work = []() {};
  stack.service->submit_unit(d);
  stack.service->wait_all_units(60.0);

  // Let a few heartbeat round-trips land.
  const double start = pa::wall_seconds();
  bool have_rtt = false;
  while (!have_rtt && pa::wall_seconds() - start < 10.0) {
    for (const auto& [name, hist] : registry.histograms()) {
      if (name == "net.heartbeat_rtt_seconds" && hist.count() > 0) {
        have_rtt = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(have_rtt) << "no heartbeat RTT samples recorded";

  std::uint64_t units_done = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "net.units_done") units_done = value;
  }
  EXPECT_EQ(units_done, 1u);
  transport.stop();
}

/// A manager stand-in that speaks just enough protocol to drive one agent:
/// answers every kHello with kStartPilot (1 core) on the connection that
/// sent it and records completions.
struct MiniManager {
  check::Mutex mu{check::LockRank::kLeaf, "test.mini_manager"};
  net::ConnectionPtr conn PA_GUARDED_BY(mu);
  std::vector<std::string> completions PA_GUARDED_BY(mu);
  bool active PA_GUARDED_BY(mu) = false;

  net::AcceptHandler acceptor() {
    return [this](const net::ConnectionPtr& accepted) {
      net::ConnectionHandlers h;
      h.on_message = [this, weak = std::weak_ptr<net::Connection>(accepted)](
                         const std::string& payload) {
        const net::ConnectionPtr from = weak.lock();
        const net::Message m =
            net::decode_message(payload.data(), payload.size());
        switch (m.type) {
          case net::MessageType::kHello: {
            {
              check::MutexLock lock(mu);
              conn = from;
            }
            core::PilotDescription d;
            d.resource_url = "remote://mini";
            d.nodes = 1;
            d.walltime = 1e9;
            std::string frame;
            net::append_message_frame(frame,
                                      net::make_start_pilot(m.pilot_id, d));
            EXPECT_TRUE(from != nullptr && from->send(std::move(frame)));
            break;
          }
          case net::MessageType::kPilotActive: {
            check::MutexLock lock(mu);
            active = true;
            break;
          }
          case net::MessageType::kUnitDoneBatch: {
            check::MutexLock lock(mu);
            for (const net::WireUnitDone& d : m.completions) {
              completions.push_back(d.unit_id);
            }
            break;
          }
          default:
            break;
        }
      };
      return h;
    };
  }

  bool is_active() {
    check::MutexLock lock(mu);
    return active;
  }
  net::ConnectionPtr connection() {
    check::MutexLock lock(mu);
    return conn;
  }
  std::vector<std::string> received() {
    check::MutexLock lock(mu);
    return completions;
  }

  /// Sends one kUnitBatch frame, retrying while the transport rejects it.
  void send_units(const std::vector<net::WireUnitDescription>& units) {
    net::Message batch;
    batch.type = net::MessageType::kUnitBatch;
    batch.pilot_id = pilot_id;
    batch.units = units;
    std::string frame;
    net::append_message_frame(frame, batch);
    const net::ConnectionPtr to_agent = connection();
    ASSERT_NE(to_agent, nullptr);
    ASSERT_TRUE(wait_for([&] { return to_agent->send(frame); }));
  }

  std::string pilot_id;
};

/// A unit that runs `work` from the shared payload table.
net::WireUnitDescription parked_work_unit(PayloadTable& payloads,
                                          const std::string& unit_id,
                                          std::function<void()> work) {
  net::WireUnitDescription u;
  u.unit_id = unit_id;
  u.duration = 0.0;  // the wire default is 1 s of burn
  u.has_work = true;
  payloads.put(unit_id, std::move(work));
  return u;
}

std::size_t held(AgentEndpoint& agent) {
  const AgentEndpoint::SchedulerStats s = agent.scheduler_stats();
  return s.queued + s.outstanding;
}

// Regression: the agent send path must park and retry under
// backpressure, never silently drop (the old `(void)conn_->send(...)`).
// Delivery is stalled while 50 completions are produced, so the 256-byte
// queue bound rejects most of them; every completion must still arrive,
// exactly once.
TEST(RemoteRuntime, BackpressuredAgentSendPathLosesNoCompletions) {
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = 256;
  net::InProcTransport transport(tc);
  DeliveryStall stall(transport, "inproc://stall");
  MiniManager manager;
  manager.pilot_id = "pilot-bp";
  transport.listen("inproc://mini-manager", manager.acceptor());

  auto payloads = std::make_shared<PayloadTable>();
  AgentEndpointConfig config;
  config.queue_factor = 64;
  AgentEndpoint agent(transport, "inproc://mini-manager", "pilot-bp",
                      payloads, config);
  ASSERT_TRUE(wait_for([&] { return manager.is_active(); }));

  // Every unit waits for `release`, so all 50 sit at the agent before the
  // first completion exists. Small frames: the bound throttles this
  // direction too.
  constexpr int kUnits = 50;
  std::atomic<bool> release{false};
  for (int i = 0; i < kUnits; i += 2) {
    std::vector<net::WireUnitDescription> units;
    for (int j = i; j < std::min(i + 2, kUnits); ++j) {
      units.push_back(parked_work_unit(
          *payloads, "unit-" + std::to_string(j), [&release] {
            while (!release.load()) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
          }));
    }
    manager.send_units(units);
  }
  ASSERT_TRUE(wait_for([&] { return held(agent) == kUnits; }));

  stall.engage();
  release.store(true);
  ASSERT_TRUE(wait_for([&] { return held(agent) == 0; }));
  EXPECT_GT(agent.scheduler_stats().parked, 0u);
  stall.release();

  // Parked frames are retried on every frame from the manager; heartbeat
  // the way a real manager does until everything arrived.
  const net::ConnectionPtr to_agent = manager.connection();
  ASSERT_TRUE(wait_for([&] {
    net::Message hb;
    hb.type = net::MessageType::kHeartbeat;
    hb.pilot_id = "pilot-bp";
    std::string frame;
    net::append_message_frame(frame, hb);
    (void)to_agent->send(std::move(frame));
    return manager.received().size() >= static_cast<std::size_t>(kUnits);
  }));
  const std::vector<std::string> got = manager.received();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kUnits));
  std::set<std::string> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kUnits))
      << "duplicate completions delivered";
  // The fix is only proven if backpressure actually hit the agent path.
  EXPECT_GT(agent.stats().send_rejected, 0u);
  transport.stop();
}

// Full-stack flavor: an undersized queue between manager and agents must
// cost only retries, never units. Delivery is stalled while the first
// dispatch wave goes out, so one-unit kUnitBatch frames overflow the
// 768-byte bound and come back to the manager's queue; completions run
// through the same bound on the way back.
TEST(RemoteRuntime, UndersizedSendQueueLosesNoUnits) {
  obs::MetricsRegistry registry;
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = 768;
  net::InProcTransport transport(tc);
  DeliveryStall stall(transport, "inproc://stall");
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.1, /*miss_limit=*/30, &registry);
  stack.agent_config.metrics = &registry;

  Pilot pilot = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  pilot.wait_active(10.0);

  stall.engage();
  std::thread releaser([&] {
    wait_for([&] { return counter_value(registry, "net.send_rejected") > 0; },
             10.0);
    stall.release();
  });
  constexpr int kUnits = 150;
  std::vector<int> results;
  run_workload(*stack.service, kUnits, results);
  releaser.join();
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(results[i], i * i) << "unit " << i;
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));

  const std::uint64_t rejected =
      counter_value(registry, "net.send_rejected") +
      counter_value(registry, "net.agent_send_rejected");
  EXPECT_GT(rejected, 0u) << "queue bound never hit: test exercised nothing";
  transport.stop();
}

// Regression: completions parked in the agent when it dies must ship in
// its final exchange (the destructor's last attempt), and units whose
// completions did ship must NOT re-execute on the replacement pilot.
TEST(RemoteRuntime, KilledAgentFlushesBufferedCompletionsExactlyOnce) {
  // Room for four and a half completion frames: with delivery stalled,
  // eight completions park about half of themselves.
  const std::size_t frame = completion_frame_bytes("pilot-0", "unit-00");
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = frame * 9 / 2;
  net::InProcTransport transport(tc);
  DeliveryStall stall(transport, "inproc://stall");
  // Slow heartbeats, so nothing but the kill retries the park (a
  // heartbeat that does only ships the parked frames early); the dead
  // agent is still detected within 1.5 s.
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.5, /*miss_limit=*/3);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);

  std::atomic<bool> release{false};
  std::atomic<int> executions{0};
  auto submit = [&](int i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&release, &executions]() {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      executions.fetch_add(1);
    };
    return stack.service->submit_unit(d);
  };
  // The whole credit window (2 cores × factor 4): nothing else is queued
  // at the manager, so no unit frame can retry the park either.
  constexpr int kFirst = 8;
  constexpr int kUnits = 24;
  std::vector<ComputeUnit> units;
  for (int i = 0; i < kFirst; ++i) {
    units.push_back(submit(i));
  }
  ASSERT_TRUE(wait_for([&] { return held(*agent) == kFirst; }));

  stall.engage();
  const std::uint64_t sent_before = agent->stats().messages_out;
  release.store(true);
  // Every completion was either accepted by the transport or parked.
  ASSERT_TRUE(wait_for([&] {
    return agent->stats().messages_out - sent_before +
               agent->scheduler_stats().parked ==
           static_cast<std::uint64_t>(kFirst);
  }));
  EXPECT_EQ(executions.load(), kFirst);
  EXPECT_GT(agent->scheduler_stats().parked, 0u);
  stall.release();
  // The manager drains what the transport accepted; the park stays put.
  ASSERT_TRUE(wait_for([&] { return agent->stats().send_queue_depth == 0; }));

  // Kill: ~AgentEndpoint makes its final attempt at the park, THEN drops
  // the connection. The parked completions must arrive.
  stack.farm.kill(p1.id());
  ASSERT_TRUE(wait_for([&] { return p1.state() == PilotState::kFailed; }));
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }

  // The rest runs on a replacement.
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  for (int i = kFirst; i < kUnits; ++i) {
    units.push_back(submit(i));
  }
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  // Exactly-once: 8 executions on the dead pilot + 16 on the replacement.
  // A dropped final attempt would re-execute the parked ones.
  EXPECT_EQ(executions.load(), kUnits);
  transport.stop();
}

// A unit frame the transport rejects goes back to the manager's queue and
// is re-sent by the heartbeat thread's 1 ms retry, with no completion or
// new dispatch to prompt it.
TEST(RemoteRuntime, RejectedUnitFrameIsResentByHeartbeatThread) {
  ComputeUnitDescription probe;
  probe.work = [] {};
  net::Message unit_frame;
  unit_frame.type = net::MessageType::kUnitBatch;
  unit_frame.pilot_id = "pilot-0";
  unit_frame.units.push_back(net::to_wire_unit("unit-0", probe, true));
  std::string encoded;
  net::append_message_frame(encoded, unit_frame);
  std::string start;
  net::append_message_frame(start,
                            net::make_start_pilot("pilot-0", remote_pilot(1)));
  // Room for the start frame and about one and a half unit frames.
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = std::max(start.size(), encoded.size() * 3 / 2);
  ASSERT_LT(tc.max_queue_bytes, encoded.size() * 4);
  net::InProcTransport transport(tc);
  DeliveryStall stall(transport, "inproc://stall");

  obs::MetricsRegistry registry;
  AgentFarm farm(transport);
  std::unique_ptr<RemoteRuntime> runtime;
  RemoteRuntimeConfig config;
  config.listen_endpoint = "inproc://manager";
  // The first regular beat comes 1 s after construction; the resend is
  // checked long before that.
  config.heartbeat_interval_seconds = 1.0;
  config.metrics = &registry;
  config.launcher = [&](const std::string& pilot_id,
                        const std::string& endpoint) {
    farm.create(pilot_id, endpoint, runtime->payloads());
  };
  runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
  std::atomic<bool> active{false};
  core::PilotRuntimeCallbacks callbacks;
  callbacks.on_active = [&active](const std::string&, int,
                                  const std::string&) { active.store(true); };
  runtime->start_pilot("pilot-0", remote_pilot(1), std::move(callbacks));
  ASSERT_TRUE(wait_for([&] { return active.load(); }));

  // Units block, so no completion can return credit or prompt a resend.
  stall.engage();
  constexpr int kUnits = 4;  // the 1-core pilot's whole credit window
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription d;
    d.work = [&release] {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    };
    runtime->execute_unit("pilot-0", d, "unit-" + std::to_string(i),
                          [&done](bool ok) {
                            if (ok) {
                              done.fetch_add(1);
                            }
                          });
  }
  EXPECT_GT(counter_value(registry, "net.send_rejected"), 0u);
  stall.release();

  AgentEndpoint* agent = farm.agent("pilot-0");
  ASSERT_NE(agent, nullptr);
  EXPECT_TRUE(wait_for([&] { return held(*agent) == kUnits; }, 0.5))
      << "rejected unit frames were never re-sent";
  // Completions the same bound parks ship on the next heartbeat.
  release.store(true);
  EXPECT_TRUE(wait_for([&] { return done.load() == kUnits; }));
  transport.stop();
}

// A completion parked while the agent's TCP stream is down ships after the
// reconnect: the kHello goes first, and the manager's kStartPilot reply
// retries the park.
TEST(RemoteRuntime, ParkedCompletionShipsAfterTcpReconnect) {
  PA_NET_REQUIRE_TCP();
  const std::string pilot_id = "pilot-tcp";
  const std::string id_tail(80, 'x');  // completions outweigh the hello
  const std::size_t completion =
      completion_frame_bytes(pilot_id, "unit-0-" + id_tail);
  net::Message hello;
  hello.type = net::MessageType::kHello;
  hello.pilot_id = pilot_id;
  hello.peer_endpoint = "127.0.0.1:65535";
  std::string hello_frame;
  net::append_message_frame(hello_frame, hello);
  // While the stream is down one completion fits the send queue and the
  // second parks; at reconnect the hello still fits behind the first.
  net::TcpTransportConfig agent_tc;
  agent_tc.max_send_queue_bytes = completion + hello_frame.size() + 8;
  ASSERT_LT(agent_tc.max_send_queue_bytes, 2 * completion);
  agent_tc.backoff_initial_seconds = 0.3;
  agent_tc.backoff_jitter = 0.0;
  net::TcpTransport manager_transport;
  net::TcpTransport agent_transport(agent_tc);

  MiniManager manager;
  manager.pilot_id = pilot_id;
  const std::string endpoint =
      manager_transport.listen("127.0.0.1:0", manager.acceptor());
  auto payloads = std::make_shared<PayloadTable>();
  AgentEndpoint agent(agent_transport, endpoint, pilot_id, payloads);
  ASSERT_TRUE(wait_for([&] { return manager.is_active(); }));

  std::atomic<bool> release{false};
  std::vector<net::WireUnitDescription> units;
  for (int i = 0; i < 2; ++i) {
    units.push_back(parked_work_unit(
        *payloads, "unit-" + std::to_string(i) + "-" + id_tail, [&release] {
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }));
  }
  manager.send_units(units);
  ASSERT_TRUE(wait_for([&] { return held(agent) == 2; }));

  // Drop the stream from the manager's side; the agent redials 300 ms
  // later. Both completions happen while it is down.
  manager.connection()->close();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  ASSERT_TRUE(wait_for([&] { return agent.scheduler_stats().parked == 1; },
                       5.0));
  EXPECT_EQ(agent.stats().reconnects, 0u);

  ASSERT_TRUE(wait_for([&] { return manager.received().size() == 2; }, 10.0));
  const std::vector<std::string> got = manager.received();
  EXPECT_EQ(std::set<std::string>(got.begin(), got.end()).size(), 2u);
  EXPECT_GE(agent.stats().reconnects, 1u);
  EXPECT_GT(agent.stats().send_rejected, 0u);
  EXPECT_EQ(agent.scheduler_stats().parked, 0u);
  agent_transport.stop();
  manager_transport.stop();
}

// The manager's credits are exact, so an agent whose queue capacity equals
// the credit window never holds more units than that capacity, even when
// the credits, not the service, are what limits dispatch.
TEST(RemoteRuntime, AgentNeverHoldsMoreUnitsThanItsWindow) {
  net::InProcTransport transport;
  AgentFarm farm(transport);
  std::unique_ptr<RemoteRuntime> runtime;
  AgentEndpointConfig agent_config;
  agent_config.queue_factor = 4;
  RemoteRuntimeConfig config;
  config.listen_endpoint = "inproc://manager";
  config.dispatch_window_factor = 4;
  config.launcher = [&](const std::string& pilot_id,
                        const std::string& endpoint) {
    farm.create(pilot_id, endpoint, runtime->payloads(), agent_config);
  };
  runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
  std::atomic<bool> active{false};
  core::PilotRuntimeCallbacks callbacks;
  callbacks.on_active = [&active](const std::string&, int,
                                  const std::string&) { active.store(true); };
  runtime->start_pilot("pilot-0", remote_pilot(1), std::move(callbacks));
  ASSERT_TRUE(wait_for([&] { return active.load(); }));

  // Far more units than the window: the manager's credits gate them all.
  constexpr int kUnits = 300;
  std::atomic<int> done{0};
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription d;
    d.work = [] {};
    runtime->execute_unit("pilot-0", d, "unit-" + std::to_string(i),
                          [&done](bool ok) {
                            if (ok) {
                              done.fetch_add(1);
                            }
                          });
  }
  ASSERT_TRUE(wait_for([&] { return done.load() == kUnits; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), kUnits);  // no duplicate completions

  AgentEndpoint* agent = farm.agent("pilot-0");
  ASSERT_NE(agent, nullptr);
  const AgentEndpoint::SchedulerStats s = agent->scheduler_stats();
  EXPECT_LE(s.held_hwm, 4u) << "agent held more than its 1 × 4 capacity";
  EXPECT_GE(s.held_hwm, 2u) << "dispatch never pipelined";
  EXPECT_EQ(s.window, 4);
  transport.stop();
}

}  // namespace
}  // namespace pa::rt
