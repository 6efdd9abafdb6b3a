#include "pa/rt/remote_runtime.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/common/time_utils.h"
#include "pa/net/message.h"
#include "pa/net/wire.h"
#include "pa/saga/url.h"
#include "pa/store/manager.h"

namespace pa::rt {

// --- PayloadTable ------------------------------------------------------------

void PayloadTable::put(const std::string& unit_id, std::function<void()> work) {
  check::MutexLock lock(mutex_);
  work_[unit_id] = std::move(work);
}

std::function<void()> PayloadTable::take(const std::string& unit_id) {
  check::MutexLock lock(mutex_);
  const auto it = work_.find(unit_id);
  if (it == work_.end()) {
    return {};
  }
  std::function<void()> work = std::move(it->second);
  work_.erase(it);
  return work;
}

std::size_t PayloadTable::size() const {
  check::MutexLock lock(mutex_);
  return work_.size();
}

// --- AgentEndpoint -----------------------------------------------------------

namespace {
/// Distinguishes successive peer listeners in one process: InProc has no
/// unlisten, so a reused name would resolve to a dead agent's handler.
std::atomic<std::uint64_t> g_peer_listener_seq{0};
}  // namespace

AgentEndpoint::AgentEndpoint(net::Transport& transport,
                             const std::string& endpoint, std::string pilot_id,
                             std::shared_ptr<PayloadTable> payloads,
                             AgentEndpointConfig config)
    : pilot_id_(std::move(pilot_id)),
      config_(std::move(config)),
      payloads_(std::move(payloads)),
      transport_(transport),
      send_rejected_counter_(
          config_.metrics != nullptr
              ? &config_.metrics->counter("net.agent_send_rejected")
              : nullptr),
      store_(config_.store),
      local_(config_.local) {
  store_.set_identity(pilot_id_);
  // The peer listener binds BEFORE the manager connection so the very
  // first kHello already carries the resolved dial address.
  setup_peer_listener(transport, endpoint);
  net::ConnectionHandlers handlers;
  handlers.on_message = [this](const std::string& payload) {
    handle_message(payload);
  };
  handlers.on_reconnect = [this] {
    // Fresh stream: re-introduce ourselves so the manager can re-map
    // connection -> pilot (it replies with an idempotent kStartPilot).
    // The hello jumps the park; parked frames follow it.
    if (conn_ != nullptr) {
      net::Message hello;
      hello.type = net::MessageType::kHello;
      hello.peer_endpoint = peer_endpoint_;
      send(std::move(hello), /*front=*/true);
    }
  };
  conn_ = transport.connect(endpoint, std::move(handlers));
  store_out_ = make_peer_flusher(conn_);
  net::Message hello;
  hello.type = net::MessageType::kHello;
  hello.peer_endpoint = peer_endpoint_;
  send(std::move(hello));
}

AgentEndpoint::~AgentEndpoint() {
  // Late-completion handling, in order:
  //  1. stop binding queued units to new slots;
  //  2. tear down the peer side: flip the hub dead under its lock (the
  //     still-listening accept handler sees the flag and attaches no
  //     handlers from now on), then close every channel — each close is
  //     a handler barrier, so no peer frame can reach store_ after this
  //     block;
  //  3. close the store pump (its final attempt) and make one final
  //     attempt at the park, so parked completions ship while the stream
  //     is still up; then close the park;
  //  4. close the connection (handler barrier), so the embedded runtime
  //     (destroyed next, joining its pools) cannot race handle_message.
  // Frames still parked after (3), or produced after it, are dropped and
  // counted; the manager's heartbeat-deadline orphan requeue plus the
  // service's attempt tagging make that loss exactly-once safe.
  draining_.store(true);
  std::vector<std::shared_ptr<PeerChannel>> channels;
  {
    check::MutexLock lock(peer_hub_->mu);
    peer_hub_->alive = false;
    channels.reserve(peer_hub_->accepted.size() + peer_hub_->dials.size());
    for (auto& ch : peer_hub_->accepted) {
      channels.push_back(std::move(ch));
    }
    for (auto& [ep, ch] : peer_hub_->dials) {
      channels.push_back(std::move(ch));
    }
    peer_hub_->accepted.clear();
    peer_hub_->dials.clear();
  }
  for (const auto& ch : channels) {
    if (ch->out != nullptr) {
      ch->out->close();
    }
    if (ch->conn != nullptr) {
      ch->conn->close();
    }
  }
  store_out_->close();
  {
    check::MutexLock lock(park_mu_);
    send_parked_locked();
    frames_dropped_ += parked_.size();
    parked_.clear();
    has_parked_.store(false);
    park_closed_ = true;
  }
  conn_->close();
}

void AgentEndpoint::setup_peer_listener(net::Transport& transport,
                                        const std::string& manager_endpoint) {
  peer_hub_ = std::make_shared<PeerHub>();
  // Match the manager's transport family: an inproc fleet gets a fresh
  // process-unique inproc name, a TCP fleet a kernel-chosen port.
  const std::string want =
      manager_endpoint.rfind("inproc://", 0) == 0
          ? "inproc://peer-" + pilot_id_ + "-" +
                std::to_string(g_peer_listener_seq.fetch_add(1))
          : "127.0.0.1:0";
  try {
    peer_endpoint_ = transport.listen(
        want, [this, hub = peer_hub_](const net::ConnectionPtr& conn) {
          net::ConnectionHandlers handlers;
          check::MutexLock lock(hub->mu);
          if (!hub->alive) {
            // Endpoint already destroyed (or dying): attach nothing.
            // The connection idles until the transport stops; `this` is
            // never dereferenced on this path.
            return handlers;
          }
          auto channel = std::make_shared<PeerChannel>();
          channel->conn = conn;
          channel->out = make_peer_flusher(conn);
          hub->accepted.push_back(channel);
          handlers.on_message =
              [this, hub, weak = std::weak_ptr<PeerChannel>(channel)](
                  const std::string& payload) {
                handle_peer_message(weak, payload);
              };
          return handlers;
        });
  } catch (const std::exception& e) {
    // No peer listener is a capability miss, not a failure: the hello
    // advertises "" and the manager keeps this pilot on the star path.
    PA_LOG(kWarn, "agent") << pilot_id_
                           << ": peer listener bind failed: " << e.what();
    peer_endpoint_.clear();
  }
}

std::unique_ptr<net::BatchFlusher> AgentEndpoint::make_peer_flusher(
    net::ConnectionPtr conn) {
  return std::make_unique<net::BatchFlusher>(
      [this, conn](std::vector<net::Message> batch,
                   bool /*closing*/) -> std::vector<net::Message> {
        // Small frames (store announces) share one enqueue per ~64 KiB:
        // one lock and at most one I/O-thread wakeup instead of one per
        // frame. A chunk frame is bigger than that and goes alone, so a
        // gather never outgrows the send queue.
        constexpr std::size_t kGatherBytes = 64 * 1024;
        std::string frames;
        std::size_t i = 0;
        while (i < batch.size()) {
          frames.clear();
          std::size_t end = i;
          while (end < batch.size() &&
                 (end == i || frames.size() < kGatherBytes)) {
            net::Message& m = batch[end++];
            m.pilot_id = pilot_id_;
            m.seq = seq_.fetch_add(1);
            net::append_message_frame(frames, m);
          }
          if (!conn->send_gather(frames, end - i)) {
            // Backpressure: retain the unsent tail in order; the pump
            // retries after its backoff.
            if (send_rejected_counter_ != nullptr) {
              send_rejected_counter_->inc();
            }
            return {std::make_move_iterator(batch.begin() +
                                            static_cast<std::ptrdiff_t>(i)),
                    std::make_move_iterator(batch.end())};
          }
          i = end;
        }
        return {};
      });
}

std::shared_ptr<AgentEndpoint::PeerChannel> AgentEndpoint::peer_channel_for(
    const std::string& endpoint) {
  std::shared_ptr<PeerChannel> channel;
  {
    check::MutexLock lock(peer_hub_->mu);
    if (!peer_hub_->alive) {
      return nullptr;
    }
    const auto it = peer_hub_->dials.find(endpoint);
    if (it != peer_hub_->dials.end()) {
      return it->second;
    }
    // Two-phase dial: park a shell in the table, then connect with the
    // hub lock RELEASED — connect() takes transport locks that rank
    // below kNetPeer. Only the manager-connection delivery thread dials
    // (kXferToken is its message), so the shell cannot be observed
    // half-filled by a second dialer.
    channel = std::make_shared<PeerChannel>();
    peer_hub_->dials.emplace(endpoint, channel);
  }
  net::ConnectionHandlers handlers;
  handlers.on_message = [this, hub = peer_hub_,
                         weak = std::weak_ptr<PeerChannel>(channel)](
                            const std::string& payload) {
    handle_peer_message(weak, payload);
  };
  net::ConnectionPtr conn;
  try {
    conn = transport_.connect(endpoint, std::move(handlers));
  } catch (...) {
    check::MutexLock lock(peer_hub_->mu);
    peer_hub_->dials.erase(endpoint);
    throw;
  }
  bool lost_teardown_race = false;
  {
    check::MutexLock lock(peer_hub_->mu);
    if (peer_hub_->alive) {
      channel->conn = conn;
      channel->out = make_peer_flusher(conn);
    } else {
      // The destructor swept the dial table between our two phases; it
      // will never see this connection, so close it ourselves (it is not
      // the connection we are a handler of — closing is legal here).
      lost_teardown_race = true;
    }
  }
  if (lost_teardown_race) {
    conn->close();
    return nullptr;
  }
  return channel;
}

void AgentEndpoint::handle_peer_message(
    const std::weak_ptr<PeerChannel>& channel, const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "agent") << pilot_id_
                           << ": dropping bad peer frame: " << e.what();
    return;
  }
  // The header's pilot_id is the presenter: the token names who may dial.
  store::PeerResult res = store_.handle_peer(m, m.pilot_id);
  if (!res.to_peer.empty()) {
    if (const std::shared_ptr<PeerChannel> ch = channel.lock();
        ch != nullptr && ch->out != nullptr) {
      for (net::Message& r : res.to_peer) {
        ch->out->push(std::move(r));
      }
    }
    // A dead channel drops the reply: the dest's token deadline (or the
    // manager's tick) turns that silence into a regrant.
  }
  for (net::Message& r : res.to_manager) {
    send(std::move(r));
  }
}

void AgentEndpoint::handle_xfer_token(const net::Message& m) {
  if (!m.success) {
    // Revocation notice: the nonce joins the replay ledger so a copy of
    // the dead token presented later is rejected.
    store_.revoke_token(m.nonce);
    return;
  }
  std::optional<net::Message> offer = store_.begin_peer_pull(m);
  if (!offer) {
    return;  // token names someone else; ignore
  }
  bool presented = false;
  if (!m.peer_endpoint.empty()) {
    try {
      if (const std::shared_ptr<PeerChannel> ch =
              peer_channel_for(m.peer_endpoint);
          ch != nullptr && ch->out != nullptr) {
        ch->out->push(std::move(*offer));
        presented = true;
      }
    } catch (const std::exception& e) {
      PA_LOG(kWarn, "agent") << pilot_id_ << ": peer dial to "
                             << m.peer_endpoint << " failed: " << e.what();
    }
  }
  if (!presented) {
    // Could not reach the source: give the grant back so the manager
    // retries another replica or falls back to the star.
    store_.abandon_peer_pull(m.transfer_id);
    net::Message done;
    done.type = net::MessageType::kPeerDone;
    done.object_id = m.object_id;
    done.transfer_id = m.transfer_id;
    done.nonce = m.nonce;
    done.object_bytes = 0;
    done.success = false;
    send(std::move(done));
  }
}

std::int32_t AgentEndpoint::window_locked() const {
  const std::int64_t capacity =
      static_cast<std::int64_t>(std::max(slots_, 1)) *
      static_cast<std::int64_t>(std::max(config_.queue_factor, 1));
  const std::int64_t free =
      capacity - static_cast<std::int64_t>(queue_.size()) - outstanding_;
  return free > 0 ? static_cast<std::int32_t>(free) : 0;
}

std::int32_t AgentEndpoint::window() {
  check::MutexLock lock(sched_mu_);
  return window_locked();
}

AgentEndpoint::SchedulerStats AgentEndpoint::scheduler_stats() const {
  SchedulerStats s;
  {
    check::MutexLock lock(sched_mu_);
    s.queued = queue_.size();
    s.outstanding = static_cast<std::size_t>(outstanding_);
    s.slots = slots_;
    s.window = window_locked();
    s.held_hwm = held_hwm_;
  }
  check::MutexLock lock(park_mu_);
  s.parked = parked_.size();
  return s;
}

void AgentEndpoint::send_unparked(net::Message message) {
  message.pilot_id = pilot_id_;
  message.seq = seq_.fetch_add(1);
  std::string frame;
  net::append_message_frame(frame, message);
  (void)conn_->send(std::move(frame));
}

void AgentEndpoint::send(net::Message message, bool front) {
  message.pilot_id = pilot_id_;
  message.seq = seq_.fetch_add(1);
  std::string frame;
  net::append_message_frame(frame, message);
  check::MutexLock lock(park_mu_);
  if (park_closed_) {
    ++frames_dropped_;
    return;
  }
  if (!front) {
    send_parked_locked();
  }
  // send_gather takes a view, so a rejected frame is still ours to park.
  if ((front || parked_.empty()) && conn_->send_gather(frame, 1)) {
    if (front) {
      send_parked_locked();
    }
    return;
  }
  if (send_rejected_counter_ != nullptr) {
    send_rejected_counter_->inc();
  }
  if (front) {
    parked_.push_front(std::move(frame));
  } else {
    parked_.push_back(std::move(frame));
  }
  has_parked_.store(true);
}

void AgentEndpoint::send_parked_locked() {
  while (!parked_.empty()) {
    if (!conn_->send_gather(parked_.front(), 1)) {
      return;
    }
    parked_.pop_front();
  }
  has_parked_.store(false);
}

void AgentEndpoint::retry_parked() {
  if (!has_parked_.load()) {
    return;
  }
  check::MutexLock lock(park_mu_);
  if (!park_closed_) {
    send_parked_locked();
  }
}

void AgentEndpoint::enqueue_units(
    std::vector<net::WireUnitDescription> units) {
  {
    check::MutexLock lock(sched_mu_);
    for (auto& unit : units) {
      queue_.push_back(std::move(unit));
    }
    held_hwm_ = std::max(held_hwm_, queue_.size() +
                                        static_cast<std::size_t>(outstanding_));
  }
  pump();
}

void AgentEndpoint::pump() {
  if (draining_.load()) {
    return;
  }
  check::MutexLock lock(sched_mu_);
  while (!queue_.empty() && outstanding_ < std::max(slots_, 1)) {
    net::WireUnitDescription unit = std::move(queue_.front());
    queue_.pop_front();
    ++outstanding_;
    // Late binding happens here: the unit meets its core only when one is
    // free. LocalRuntime calls run with the scheduler lock dropped.
    lock.unlock();
    dispatch(std::move(unit));
    lock.lock();
  }
}

void AgentEndpoint::dispatch(net::WireUnitDescription unit) {
  core::ComputeUnitDescription desc = net::to_unit_description(unit);
  if (unit.has_work) {
    desc.work = payloads_->take(unit.unit_id);
  }
  const std::string unit_id = unit.unit_id;
  try {
    local_.execute_unit(pilot_id_, desc, unit_id,
                        [this, unit_id](bool success) {
                          complete(unit_id, success);
                        });
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "agent") << pilot_id_ << ": unit " << unit_id
                           << " rejected: " << e.what();
    complete(unit_id, false);
  }
}

void AgentEndpoint::complete(const std::string& unit_id, bool success) {
  net::Message r;
  r.type = net::MessageType::kUnitDoneBatch;
  r.completions.push_back(
      net::WireUnitDone{unit_id, success, pa::wall_seconds()});
  {
    check::MutexLock lock(sched_mu_);
    --outstanding_;
    r.window = window_locked();
  }
  send(std::move(r));
  pump();
}

void AgentEndpoint::handle_message(const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    PA_LOG(kWarn, "agent") << pilot_id_ << ": dropping bad message: "
                           << e.what();
    return;
  }
  if (m.pilot_id != pilot_id_) {
    return;  // not ours; a confused manager is not our problem to crash on
  }
  if (m.type != net::MessageType::kHeartbeat) {
    retry_parked();
  }
  switch (m.type) {
    case net::MessageType::kStartPilot: {
      if (!m.token_key.empty()) {
        // The fleet token-MAC secret ("" when the manager has no store);
        // applied even on a duplicate start so a reconnect refreshes it.
        store_.set_token_key(m.token_key);
      }
      if (started_.exchange(true)) {
        // Duplicate after a reconnect: the pilot is already running.
        // Re-announce ACTIVE (the manager may have missed it).
        if (active_sent_.load(std::memory_order_acquire)) {
          net::Message r;
          r.type = net::MessageType::kPilotActive;
          r.total_cores = active_cores_;
          r.site = active_site_;
          send(std::move(r));
        }
        return;
      }
      core::PilotDescription desc = net::to_pilot_description(m);
      // The manager addresses resources as remote://site; our embedded
      // substrate is the local one.
      if (desc.resource_url.rfind("remote://", 0) == 0) {
        desc.resource_url = "local://" + desc.resource_url.substr(9);
      }
      core::PilotRuntimeCallbacks callbacks;
      callbacks.on_active = [this](const std::string&, int total_cores,
                                   const std::string& site) {
        {
          check::MutexLock lock(sched_mu_);
          slots_ = total_cores;
        }
        active_cores_ = total_cores;
        active_site_ = site;
        active_sent_.store(true, std::memory_order_release);
        net::Message r;
        r.type = net::MessageType::kPilotActive;
        r.total_cores = total_cores;
        r.site = site;
        send(std::move(r));
        pump();  // units may already be queued behind the allocation
      };
      callbacks.on_terminated = [this](const std::string&,
                                       core::PilotState state) {
        net::Message r;
        r.type = net::MessageType::kPilotTerminated;
        r.pilot_state = state;
        send(std::move(r));
      };
      try {
        local_.start_pilot(pilot_id_, desc, std::move(callbacks));
      } catch (const std::exception& e) {
        PA_LOG(kWarn, "agent")
            << pilot_id_ << ": start failed: " << e.what();
        net::Message r;
        r.type = net::MessageType::kPilotTerminated;
        r.pilot_state = core::PilotState::kFailed;
        send(std::move(r));
      }
      break;
    }
    case net::MessageType::kUnitBatch: {
      enqueue_units(std::move(m.units));
      break;
    }
    case net::MessageType::kHeartbeat: {
      if (!unresponsive_.load()) {
        net::Message r;
        r.type = net::MessageType::kHeartbeatAck;
        r.timestamp = m.timestamp;  // echo the probe for RTT
        send_unparked(std::move(r));
      }
      // After the ack: a retry that refills the send queue first would
      // starve the ack, and with it the pilot's liveness.
      retry_parked();
      break;
    }
    case net::MessageType::kObjPut:
    case net::MessageType::kObjGet: {
      // Data plane: replies ride the store pump (see store_out_).
      for (net::Message& r : store_.handle(m)) {
        store_out_->push(std::move(r));
      }
      break;
    }
    case net::MessageType::kXferToken: {
      // Peer-transfer grant (or revocation) from the manager's token
      // scheduler; the actual chunk traffic runs agent-to-agent.
      handle_xfer_token(m);
      break;
    }
    case net::MessageType::kShutdown: {
      {
        check::MutexLock lock(sched_mu_);
        queue_.clear();  // unbound units die with the pilot
      }
      try {
        local_.cancel_pilot(pilot_id_);
      } catch (const NotFound&) {
        // never started or already cancelled — shutdown is idempotent
      }
      break;
    }
    default:
      break;  // agent-bound protocol has no other types
  }
}

// --- RemoteRuntime -----------------------------------------------------------

RemoteRuntime::RemoteRuntime(net::Transport& transport,
                             RemoteRuntimeConfig config)
    : config_(std::move(config)),
      transport_(transport),
      epoch_(pa::wall_seconds()) {
  if (config_.metrics != nullptr) {
    batch_size_ = &config_.metrics->histogram("net.batch_size", 1.0, 1e6);
    send_rejected_ = &config_.metrics->counter("net.send_rejected");
  }
  PA_REQUIRE_ARG(config_.launcher != nullptr,
                 "RemoteRuntime needs an AgentLauncher");
  PA_REQUIRE_ARG(config_.heartbeat_interval_seconds > 0.0,
                 "heartbeat interval must be positive");
  PA_REQUIRE_ARG(config_.heartbeat_miss_limit > 0,
                 "heartbeat miss limit must be positive");
  PA_REQUIRE_ARG(config_.dispatch_window_factor >= 1,
                 "dispatch window factor must be >= 1");
  endpoint_ = transport_.listen(
      config_.listen_endpoint, [this](const net::ConnectionPtr& conn) {
        {
          // Track the connection until its kHello maps it to a pilot, so
          // shutdown can sever handlers that capture `this`.
          check::MutexLock lock(mutex_);
          pending_.push_back(conn);
        }
        net::ConnectionHandlers handlers;
        handlers.on_message = [this, weak = std::weak_ptr<net::Connection>(
                                         conn)](const std::string& payload) {
          handle_message(weak, payload);
        };
        // No on_close: a dropped stream is NOT a dead pilot (clients
        // reconnect); only the heartbeat deadline kills.
        return handlers;
      });
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

RemoteRuntime::~RemoteRuntime() {
  std::map<std::string, std::shared_ptr<PilotEntry>> pilots;
  std::vector<net::ConnectionPtr> zombies;
  std::vector<std::weak_ptr<net::Connection>> pending;
  {
    check::MutexLock lock(mutex_);
    stopping_ = true;
    pilots.swap(pilots_);
    zombies.swap(zombies_);
    pending.swap(pending_);
    cv_.notify_all();
  }
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  // An attached store's transfer pump sends through `this`; close it
  // (joining the pump thread) before the runtime's members die. The
  // store's local data API stays usable — only in-flight transfers fail.
  if (store::StoreManager* s = store_.load()) {
    s->close();
  }
  // close() barriers sever every handler that captures `this` before the
  // runtime's members die. Teardown fires no callbacks (like
  // ~LocalRuntime).
  for (auto& [id, entry] : pilots) {
    if (entry->conn) {
      net::Message bye;
      bye.type = net::MessageType::kShutdown;
      bye.pilot_id = id;
      bye.seq = entry->seq++;
      send_on(entry->conn, std::move(bye));
      entry->conn->close();
    }
  }
  for (const auto& zombie : zombies) {
    zombie->close();
  }
  for (const auto& weak : pending) {
    if (const net::ConnectionPtr conn = weak.lock()) {
      conn->close();
    }
  }
}

double RemoteRuntime::now() const { return pa::wall_seconds() - epoch_; }

void RemoteRuntime::attach_store(store::StoreManager* store) {
  store::StoreManager* old = store_.exchange(store);
  if (old != nullptr && old != store) {
    // The previous store's transfer pump holds a sender that captures
    // `this`; closing the store joins the pump thread, so the old lambda
    // can never fire again (std::function has no safe concurrent swap).
    old->close();
  }
  if (store == nullptr) {
    return;
  }
  // The store's egress path. Called from the transfer pump with no locks
  // held; we take mutex_ (rank 14) to resolve the pilot, stamp the
  // header, and reserve a seq, then send on a copied connection outside
  // the lock (same discipline as ship_units).
  store->attach_sender([this](const std::string& pilot_id,
                              net::Message& m) -> store::SendResult {
    net::ConnectionPtr conn;
    {
      check::MutexLock lock(mutex_);
      if (stopping_) {
        return store::SendResult::kGone;
      }
      const auto it = pilots_.find(pilot_id);
      if (it == pilots_.end()) {
        return store::SendResult::kGone;
      }
      auto& entry = *it->second;
      if (entry.conn == nullptr) {
        // Agent hasn't said hello yet; retry after the pump's backoff.
        return store::SendResult::kBusy;
      }
      m.seq = entry.seq++;  // seq gaps from rejected sends are harmless
      conn = entry.conn;
    }
    std::string frame;
    net::append_message_frame(frame, m);
    return conn->send(std::move(frame)) ? store::SendResult::kSent
                                        : store::SendResult::kBusy;
  });
}

bool RemoteRuntime::send_on(const net::ConnectionPtr& conn,
                            net::Message message) {
  std::string frame;
  net::append_message_frame(frame, message);
  const bool accepted = conn->send(std::move(frame));
  if (!accepted && send_rejected_ != nullptr) {
    send_rejected_->inc();
  }
  return accepted;
}

void RemoteRuntime::start_pilot(const std::string& pilot_id,
                                const core::PilotDescription& description,
                                core::PilotRuntimeCallbacks callbacks) {
  const saga::Url url = saga::Url::parse(description.resource_url);
  PA_REQUIRE_ARG(url.scheme == "remote",
                 "RemoteRuntime only accepts remote:// URLs, got "
                     << description.resource_url);
  auto entry = std::make_shared<PilotEntry>();
  entry->description = description;
  entry->callbacks = std::move(callbacks);
  {
    check::MutexLock lock(mutex_);
    if (stopping_) {
      throw Error("RemoteRuntime::start_pilot during shutdown");
    }
    PA_REQUIRE_ARG(pilots_.find(pilot_id) == pilots_.end(),
                   "pilot id reused: " << pilot_id);
    entry->last_alive = now();
    pilots_.emplace(pilot_id, entry);
  }
  PA_LOG(kInfo, "remote-rt") << "pilot " << pilot_id << " launching agent at "
                             << endpoint_;
  // The launcher turns the placeholder into an agent; the agent's kHello
  // finishes the handshake. From here on, silence kills: an agent that
  // never reports within the heartbeat deadline fails the pilot.
  config_.launcher(pilot_id, endpoint_);
}

void RemoteRuntime::cancel_pilot(const std::string& pilot_id) {
  std::shared_ptr<PilotEntry> entry;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      throw NotFound("unknown pilot: " + pilot_id);
    }
    entry = it->second;
    pilots_.erase(it);
    ended_.insert(pilot_id);
  }
  if (entry->conn) {
    net::Message bye;
    bye.type = net::MessageType::kShutdown;
    bye.pilot_id = pilot_id;
    bye.seq = entry->seq++;  // entry is detached; no lock needed
    send_on(entry->conn, std::move(bye));
    entry->conn->close();
  }
  if (store::StoreManager* s = store_.load()) {
    s->pilot_lost(pilot_id);  // replicas on a cancelled pilot are gone
  }
  // Synchronous kCanceled, mirroring LocalRuntime: the service records
  // the terminal state before this call returns, so teardown ordering
  // (service destroyed before runtime) stays safe.
  if (entry->callbacks.on_terminated) {
    entry->callbacks.on_terminated(pilot_id, core::PilotState::kCanceled);
  }
}

void RemoteRuntime::execute_unit(const std::string& pilot_id,
                                 const core::ComputeUnitDescription& description,
                                 const std::string& unit_id,
                                 std::function<void(bool)> on_done) {
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      if (ended_.count(pilot_id) != 0) {
        // The service dispatched before it applied the pilot's
        // termination, which we already reported: its orphan requeue
        // owns this attempt.
        return;
      }
      throw NotFound("unknown pilot: " + pilot_id);
    }
    it->second->inflight[unit_id] = std::move(on_done);
  }
  if (description.work) {
    // Park the closure BEFORE the frame can arrive; re-put on every
    // attempt so requeued units resolve again.
    payloads_->put(unit_id, description.work);
  }
  if (!description.input_data.empty()) {
    // Overlap stage-in with the dispatch round-trip: start moving the
    // unit's declared inputs toward the pilot's shard now (no locks held;
    // ids the store doesn't manage are skipped).
    if (store::StoreManager* s = store_.load()) {
      s->prefetch(pilot_id, description.input_data);
    }
  }
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      // Cancelled or failed meanwhile: the attempt already belongs to
      // the service's orphan requeue.
      return;
    }
    it->second->queued.push_back(
        net::to_wire_unit(unit_id, description, description.work != nullptr));
  }
  ship_units(pilot_id);
}

void RemoteRuntime::ship_units(const std::string& pilot_id) {
  net::ConnectionPtr conn;
  std::vector<net::WireUnitDescription> units;
  std::uint64_t first_seq = 0;
  {
    check::MutexLock lock(mutex_);
    const auto it = pilots_.find(pilot_id);
    if (it == pilots_.end()) {
      return;
    }
    PilotEntry& entry = *it->second;
    if (entry.conn == nullptr || entry.window <= 0 || entry.queued.empty()) {
      return;
    }
    // Debit the credits NOW, atomically with the pop: a completion for
    // these very units may be applied before our unlocked sends return.
    const std::size_t take = std::min(
        entry.queued.size(), static_cast<std::size_t>(entry.window));
    entry.window -= static_cast<std::int64_t>(take);
    units.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      units.push_back(std::move(entry.queued.front()));
      entry.queued.pop_front();
    }
    conn = entry.conn;
    first_seq = entry.seq;
    entry.seq += take;  // seq gaps from rejected frames are harmless
  }
  // One unit per frame: E14e measured max_batch=1 at parity with every
  // larger batch, and the transport I/O thread already coalesces the
  // backlog it finds into one write.
  std::size_t sent = 0;
  net::Message m;
  m.type = net::MessageType::kUnitBatch;
  m.pilot_id = pilot_id;
  m.units.resize(1);
  std::string frame;
  for (; sent < units.size(); ++sent) {
    m.seq = first_seq + sent;
    std::swap(m.units.front(), units[sent]);
    frame.clear();
    net::append_message_frame(frame, m);
    std::swap(m.units.front(), units[sent]);
    if (!conn->send_gather(frame, 1)) {
      break;
    }
  }
  if (batch_size_ != nullptr && sent > 0) {
    batch_size_->record(static_cast<double>(sent));
  }
  if (sent == units.size()) {
    return;
  }
  if (send_rejected_ != nullptr) {
    send_rejected_->inc();
  }
  check::MutexLock lock(mutex_);
  const auto it = pilots_.find(pilot_id);
  if (it == pilots_.end()) {
    return;  // died meanwhile; the orphan requeue owns these attempts
  }
  // Nothing after the rejected frame shipped: return those units, in
  // order, to the front of the queue with their credits. The heartbeat
  // thread retries them every millisecond until the transport takes them.
  PilotEntry& entry = *it->second;
  entry.window += static_cast<std::int64_t>(units.size() - sent);
  for (std::size_t i = units.size(); i > sent; --i) {
    entry.queued.push_front(std::move(units[i - 1]));
  }
  cv_.notify_all();
}

std::vector<std::string> RemoteRuntime::stalled_pilots_locked() const {
  std::vector<std::string> stalled;
  for (const auto& [id, entry] : pilots_) {
    if (entry->conn != nullptr && entry->window > 0 &&
        !entry->queued.empty()) {
      stalled.push_back(id);
    }
  }
  return stalled;
}

void RemoteRuntime::drive_until(const std::function<bool()>& predicate,
                                double timeout_seconds) {
  const double deadline = pa::wall_seconds() + timeout_seconds;
  while (!predicate()) {
    if (pa::wall_seconds() > deadline) {
      throw TimeoutError("remote wait timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void RemoteRuntime::handle_message(
    const std::weak_ptr<net::Connection>& from, const std::string& payload) {
  net::Message m;
  try {
    m = net::decode_message(payload.data(), payload.size());
  } catch (const std::exception& e) {
    // A rejected hello (typically an agent built from another tree, whose
    // version byte the decoder refuses) means the pilot never comes up
    // until the heartbeat deadline fails it: say so loudly.
    if (payload.size() > 1 &&
        static_cast<std::uint8_t>(payload[1]) ==
            static_cast<std::uint8_t>(net::MessageType::kHello)) {
      PA_LOG(kError, "remote-rt") << "rejected hello: " << e.what();
    } else {
      PA_LOG(kWarn, "remote-rt") << "dropping bad message: " << e.what();
    }
    return;
  }
  switch (m.type) {
    case net::MessageType::kHello: {
      const net::ConnectionPtr conn = from.lock();
      if (conn == nullptr) {
        return;
      }
      net::Message start;
      bool known = false;
      {
        check::MutexLock lock(mutex_);
        std::erase_if(pending_,
                      [&](const std::weak_ptr<net::Connection>& w) {
                        const net::ConnectionPtr p = w.lock();
                        return p == nullptr || p == conn;
                      });
        const auto it = pilots_.find(m.pilot_id);
        if (it != pilots_.end()) {
          known = true;
          auto& entry = it->second;
          if (entry->conn && entry->conn != conn) {
            // Superseded stream (agent reconnected through a new
            // socket); the heartbeat thread closes it.
            zombies_.push_back(entry->conn);
          }
          entry->conn = conn;
          ++entry->hello_count;
          entry->last_alive = now();
          // The hello publishes the agent's peer-listener address; it is
          // handed to the store at kPilotActive so grants can name this
          // pilot as a transfer source.
          entry->peer_endpoint = m.peer_endpoint;
          start = net::make_start_pilot(m.pilot_id, entry->description);
          start.seq = entry->seq++;
          // Ship the fleet token key so the agent can validate peer
          // grants offline (config_ is immutable after construction).
          if (store::StoreManager* s = store_.load()) {
            start.token_key = s->config().token_key;
          }
        }
      }
      if (!known) {
        // Unknown pilot (cancelled, or a stray client): tell it to go
        // away; we may not close from its own handler.
        net::Message bye;
        bye.type = net::MessageType::kShutdown;
        bye.pilot_id = m.pilot_id;
        send_on(conn, std::move(bye));
        return;
      }
      // kStartPilot is idempotent agent-side, so re-hellos are safe.
      send_on(conn, std::move(start));
      break;
    }
    case net::MessageType::kPilotActive: {
      std::function<void(const std::string&, int, const std::string&)> cb;
      std::string peer_endpoint;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;
        }
        it->second->active = true;
        it->second->last_alive = now();
        // Seed the dispatch credits: factor × cores keeps the agent's
        // late-binding queue fed while real cores drain it. A re-announce
        // after a reconnect re-seeds net of the units still in flight.
        it->second->window =
            static_cast<std::int64_t>(m.total_cores) *
                config_.dispatch_window_factor -
            (static_cast<std::int64_t>(it->second->inflight.size()) -
             static_cast<std::int64_t>(it->second->queued.size()));
        peer_endpoint = it->second->peer_endpoint;
        cb = it->second->callbacks.on_active;
      }
      // Register the pilot's shard with the data plane BEFORE the service
      // callback: the service may dispatch (and stage-in) immediately,
      // and ensure_on must already know the pilot's site. Store calls run
      // with mutex_ released — its lock ranks below ours (11 < 14).
      if (store::StoreManager* s = store_.load()) {
        s->pilot_active(m.pilot_id, m.site, peer_endpoint);
      }
      // Callbacks run with no net lock held: they re-enter the service
      // (rank 10 < ours) — see the lock-hierarchy note in the header.
      // The reported capacity is inflated by the window factor so the
      // service keeps a deep enough pipeline for bulk dispatch; the
      // agent still binds units to its real cores.
      if (cb) {
        cb(m.pilot_id, m.total_cores * config_.dispatch_window_factor,
           m.site);
      }
      ship_units(m.pilot_id);  // units may already be queued for this pilot
      break;
    }
    case net::MessageType::kPilotTerminated: {
      std::function<void(const std::string&, core::PilotState)> cb;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;  // already cancelled/failed; duplicate is harmless
        }
        if (it->second->conn) {
          zombies_.push_back(it->second->conn);
        }
        cb = it->second->callbacks.on_terminated;
        pilots_.erase(it);
        ended_.insert(m.pilot_id);
      }
      // Data-plane half of the death: drop the shard's replicas, fail
      // waiting ensures, re-replicate what fell below target.
      if (store::StoreManager* s = store_.load()) {
        s->pilot_lost(m.pilot_id);
      }
      if (cb) {
        cb(m.pilot_id, m.pilot_state);
      }
      break;
    }
    case net::MessageType::kObjLocate:
    case net::MessageType::kObjChunk:
    case net::MessageType::kPeerDone: {
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;  // stale data frame from a dead pilot
        }
        // A shard mid-transfer is alive even when a heavy pull crowds
        // out heartbeat acks.
        it->second->last_alive = now();
      }
      if (store::StoreManager* s = store_.load()) {
        s->on_agent_message(m.pilot_id, m);
      }
      break;
    }
    case net::MessageType::kUnitDoneBatch: {
      std::vector<std::pair<std::function<void(bool)>, bool>> dones;
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it == pilots_.end()) {
          return;
        }
        it->second->last_alive = now();
        dones.reserve(m.completions.size());
        for (const net::WireUnitDone& d : m.completions) {
          const auto unit_it = it->second->inflight.find(d.unit_id);
          if (unit_it != it->second->inflight.end()) {
            dones.emplace_back(std::move(unit_it->second), d.success);
            it->second->inflight.erase(unit_it);
          }
        }
        // One credit per unit we knew: a duplicate completion must not
        // mint credit. (m.window, the agent's own headroom, is not needed
        // for this count.)
        it->second->window += static_cast<std::int64_t>(dones.size());
      }
      if (config_.metrics != nullptr) {
        config_.metrics->counter("net.units_done")
            .inc(m.completions.size());
      }
      for (auto& [done, success] : dones) {
        if (done) {
          done(success);
        }
      }
      ship_units(m.pilot_id);  // fresh credit: ship whatever queued up
      break;
    }
    case net::MessageType::kHeartbeatAck: {
      {
        check::MutexLock lock(mutex_);
        const auto it = pilots_.find(m.pilot_id);
        if (it != pilots_.end()) {
          it->second->last_alive = now();
        }
      }
      if (config_.metrics != nullptr) {
        const double rtt = pa::wall_seconds() - m.timestamp;
        config_.metrics
            ->histogram("net.heartbeat_rtt_seconds", 1e-7, 60.0)
            .record(rtt < 0.0 ? 0.0 : rtt);
      }
      break;
    }
    default:
      break;  // manager-bound protocol has no other types
  }
}

void RemoteRuntime::heartbeat_loop() {
  struct DeadPilot {
    std::string pilot_id;
    net::ConnectionPtr conn;
    std::function<void(const std::string&, core::PilotState)> on_terminated;
  };
  const double deadline_seconds =
      config_.heartbeat_interval_seconds * config_.heartbeat_miss_limit;
  // While a transport reject leaves units behind, wake every millisecond
  // to re-offer them; heartbeats keep their own cadence.
  constexpr double kRetrySeconds = 0.001;
  double next_beat = now() + config_.heartbeat_interval_seconds;
  check::MutexLock lock(mutex_);
  while (!stopping_) {
    const double until_beat = next_beat - now();
    if (until_beat > 0.0) {
      cv_.wait_for(lock, stalled_pilots_locked().empty()
                             ? until_beat
                             : std::min(kRetrySeconds, until_beat));
    }
    if (stopping_) {
      return;
    }
    if (const std::vector<std::string> stalled = stalled_pilots_locked();
        !stalled.empty()) {
      lock.unlock();
      for (const std::string& id : stalled) {
        ship_units(id);
      }
      lock.lock();
      if (stopping_) {
        return;
      }
    }
    const double t = now();
    if (t < next_beat) {
      continue;
    }
    next_beat = t + config_.heartbeat_interval_seconds;
    std::vector<std::pair<net::ConnectionPtr, net::Message>> pings;
    std::vector<DeadPilot> dead;
    std::vector<net::ConnectionPtr> zombies;
    std::uint64_t reconnects = 0;
    std::int64_t window_sum = 0;
    std::uint64_t inflight_sum = 0;
    std::uint64_t queued_sum = 0;
    for (auto it = pilots_.begin(); it != pilots_.end();) {
      auto& entry = it->second;
      if (t - entry->last_alive > deadline_seconds) {
        // Missed too many heartbeats: the agent is dead as far as the
        // application is concerned. Surfacing kFailed triggers the
        // middleware's orphan requeue for every in-flight unit.
        dead.push_back(DeadPilot{it->first, entry->conn,
                                 entry->callbacks.on_terminated});
        ended_.insert(it->first);
        it = pilots_.erase(it);
        continue;
      }
      if (entry->conn) {
        net::Message hb;
        hb.type = net::MessageType::kHeartbeat;
        hb.pilot_id = it->first;
        hb.seq = entry->seq++;
        hb.timestamp = pa::wall_seconds();
        pings.emplace_back(entry->conn, std::move(hb));
        reconnects += entry->hello_count > 0 ? entry->hello_count - 1 : 0;
      }
      window_sum += entry->window;
      inflight_sum += entry->inflight.size();
      queued_sum += entry->queued.size();
      ++it;
    }
    zombies.swap(zombies_);
    std::erase_if(pending_, [](const std::weak_ptr<net::Connection>& w) {
      return w.expired();
    });
    lock.unlock();  // sends, closes, and callbacks happen lock-free

    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t queue_hwm = 0;
    for (auto& [conn, message] : pings) {
      send_on(conn, std::move(message));
      const net::ConnectionStats s = conn->stats();
      bytes_in += s.bytes_in;
      bytes_out += s.bytes_out;
      queue_hwm = std::max(queue_hwm, s.send_queue_hwm);
    }
    for (const auto& zombie : zombies) {
      zombie->close();
    }
    for (const auto& d : dead) {
      PA_LOG(kWarn, "remote-rt")
          << "pilot " << d.pilot_id << " missed " << config_.heartbeat_miss_limit
          << " heartbeats (" << deadline_seconds << " s); declaring it failed";
      if (config_.metrics != nullptr) {
        config_.metrics->counter("net.heartbeat_deaths").inc();
      }
      if (d.conn) {
        d.conn->close();
      }
      if (store::StoreManager* s = store_.load()) {
        s->pilot_lost(d.pilot_id);  // before requeue: the orphaned units'
                                    // stage-ins must not target the corpse
      }
      if (d.on_terminated) {
        d.on_terminated(d.pilot_id, core::PilotState::kFailed);
      }
    }
    if (store::StoreManager* s = store_.load()) {
      // Token-expiry sweep rides the heartbeat cadence: grants whose
      // deadline passed are revoked at their source and retried.
      s->tick(pa::wall_seconds());
    }
    if (config_.metrics != nullptr) {
      config_.metrics->gauge("net.manager_bytes_in")
          .set(static_cast<double>(bytes_in));
      config_.metrics->gauge("net.manager_bytes_out")
          .set(static_cast<double>(bytes_out));
      config_.metrics->gauge("net.send_queue_hwm")
          .set(static_cast<double>(queue_hwm));
      config_.metrics->gauge("net.reconnects")
          .set(static_cast<double>(reconnects));
      config_.metrics->gauge("net.dispatch_window")
          .set(static_cast<double>(window_sum));
      config_.metrics->gauge("net.dispatch_inflight")
          .set(static_cast<double>(inflight_sum));
      config_.metrics->gauge("net.dispatch_pending")
          .set(static_cast<double>(queued_sum));
    }
    lock.lock();
  }
}

}  // namespace pa::rt
