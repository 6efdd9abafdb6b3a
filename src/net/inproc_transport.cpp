#include "pa/net/inproc_transport.h"

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/net/mpsc_queue.h"
#include "pa/net/wire.h"

namespace pa::net {

namespace {
class InProcConnection;
}  // namespace

/// Transport state shared by connections and the delivery thread. The
/// mutex (rank kNetTransport) guards only the cold path — registry and
/// connection list mutation plus the idle wait; the frame hot path is
/// lock-free (MpscQueue push + atomic counters + CondVar notify).
struct InProcTransport::Impl {
  explicit Impl(InProcTransportConfig c) : config(c) {}

  InProcTransportConfig config;

  check::Mutex mu{check::LockRank::kNetTransport, "net.inproc_transport"};
  check::CondVar cv;
  std::map<std::string, AcceptHandler> registry PA_GUARDED_BY(mu);
  std::vector<std::shared_ptr<InProcConnection>> connections PA_GUARDED_BY(mu);
  bool stopping PA_GUARDED_BY(mu) = false;

  /// Set by the delivery thread on entry; lets Connection::close() detect
  /// "I am the delivery thread" and skip the handler barrier (which would
  /// otherwise self-deadlock on the decoder-corruption close path).
  std::atomic<std::thread::id> delivery_id{};
  std::thread delivery;

  /// Lock-free producer-side wakeup. Can race with the delivery thread's
  /// predicate check and get lost; the timed wait bounds that to
  /// `idle_wait_seconds` of added latency, never a hang.
  void wake() noexcept { cv.notify_one(); }

  void run();
  bool drain(const std::shared_ptr<InProcConnection>& conn);
};

namespace {

class InProcConnection final
    : public Connection,
      public std::enable_shared_from_this<InProcConnection> {
 public:
  InProcConnection(InProcTransport::Impl* owner, ConnectionHandlers handlers)
      : owner_(owner), handlers_(std::move(handlers)) {}

  bool send(std::string frame) override {
    return enqueue(std::move(frame), 1);
  }

  bool send_gather(std::string_view frames,
                   std::uint64_t message_count) override {
    // One queue node for the whole gather: the arena bytes are copied
    // exactly once (into the node) and the peer's decoder splits the
    // frames back out — the loopback analogue of writev().
    return enqueue(std::string(frames), message_count);
  }

  bool enqueue(std::string bytes, std::uint64_t message_count) {
    const std::shared_ptr<InProcConnection> peer = peer_.lock();
    if (closed_.load() || peer == nullptr || peer->closed_.load()) {
      send_rejected_.fetch_add(1);
      return false;
    }
    const std::size_t size = bytes.size();
    // Bounded backpressure: fail fast and surface it, never buffer
    // without limit. The check-then-add can overshoot by one frame per
    // concurrent sender, which is fine for a sanity bound.
    if (peer->inbound_bytes_.load() + size > owner_->config.max_queue_bytes) {
      send_rejected_.fetch_add(1);
      return false;
    }
    const std::size_t depth = peer->inbound_bytes_.fetch_add(size) + size;
    std::size_t hwm = send_queue_hwm_.load();
    while (depth > hwm && !send_queue_hwm_.compare_exchange_weak(hwm, depth)) {
    }
    bytes_out_.fetch_add(size);
    messages_out_.fetch_add(message_count);
    peer->inbound_.push(std::move(bytes));
    owner_->wake();
    return true;
  }

  void close() override {
    const bool first = !closed_.exchange(true);
    // Barrier: no handler for this connection runs once close() returns.
    // The delivery thread publishes dispatching_ before re-checking
    // closed_ (Dekker pairing, both seq_cst), so spinning until it drops
    // to zero is sufficient — unless *we* are the delivery thread (close
    // on decoder corruption, or a handler closing another connection),
    // where handlers are serialized anyway.
    if (std::this_thread::get_id() != owner_->delivery_id.load()) {
      while (dispatching_.load() != 0) {
        std::this_thread::yield();
      }
    }
    if (first) {
      if (const std::shared_ptr<InProcConnection> peer = peer_.lock()) {
        // The peer finishes draining already-queued frames, then gets
        // its on_close from the delivery thread.
        peer->peer_closed_.store(true);
      }
      fire_on_close();
      owner_->wake();
    }
  }

  bool is_open() const override { return !closed_.load(); }

  ConnectionStats stats() const override {
    ConnectionStats s;
    s.bytes_in = bytes_in_.load();
    s.bytes_out = bytes_out_.load();
    s.messages_in = messages_in_.load();
    s.messages_out = messages_out_.load();
    if (const std::shared_ptr<InProcConnection> peer = peer_.lock()) {
      s.send_queue_depth = peer->inbound_bytes_.load();
    }
    s.send_queue_hwm = send_queue_hwm_.load();
    s.send_rejected = send_rejected_.load();
    s.reconnects = 0;  // loopback never drops, never reconnects
    return s;
  }

  void fire_on_close() {
    if (!close_fired_.exchange(true)) {
      if (handlers_.on_close) {
        handlers_.on_close();
      }
      // No handler can run after this point (closed_ is set, on_close
      // delivered): the owner may now drop handlers_, breaking any
      // handler→connection shared_ptr cycle (echo servers capture their
      // own ConnectionPtr in on_message).
      handlers_done_.store(true);
    }
  }

  InProcTransport::Impl* const owner_;
  ConnectionHandlers handlers_;
  std::weak_ptr<InProcConnection> peer_;

  MpscQueue<std::string> inbound_;
  std::atomic<std::size_t> inbound_bytes_{0};
  FrameDecoder decoder_;  ///< delivery thread only

  std::atomic<bool> closed_{false};
  std::atomic<bool> peer_closed_{false};
  std::atomic<bool> close_fired_{false};
  std::atomic<bool> handlers_done_{false};  ///< on_close returned
  /// 1 while the delivery thread is (about to be) dispatching handlers
  /// for this connection; the close() barrier spins on it.
  std::atomic<int> dispatching_{0};

  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> messages_in_{0};
  std::atomic<std::uint64_t> messages_out_{0};
  std::atomic<std::size_t> send_queue_hwm_{0};
  std::atomic<std::uint64_t> send_rejected_{0};
};

}  // namespace

void InProcTransport::Impl::run() {
  delivery_id.store(std::this_thread::get_id());
  std::vector<std::shared_ptr<InProcConnection>> snapshot;
  for (;;) {
    {
      check::MutexLock lock(mu);
      if (stopping) {
        return;
      }
      snapshot = connections;
    }
    bool did_work = false;
    for (const auto& conn : snapshot) {
      did_work = drain(conn) || did_work;
    }
    snapshot.clear();
    {
      check::MutexLock lock(mu);
      if (stopping) {
        return;
      }
      // Prune connections that are closed with their on_close delivered
      // and returned; nothing can reference them through the transport
      // anymore. Dropping the handlers here breaks any
      // handler→connection shared_ptr cycle so the object can die even
      // if its on_message captured its own ConnectionPtr.
      std::erase_if(connections, [](const auto& c) {
        if (c->closed_.load() && c->handlers_done_.load()) {
          c->handlers_ = ConnectionHandlers();
          return true;
        }
        return false;
      });
      if (!did_work) {
        cv.wait_for(lock, config.idle_wait_seconds);
      }
    }
  }
}

bool InProcTransport::Impl::drain(
    const std::shared_ptr<InProcConnection>& conn) {
  // Publish "dispatching" BEFORE re-checking closed_: paired with
  // close()'s "publish closed_, then read dispatching_", one side always
  // sees the other, making close() a real barrier.
  conn->dispatching_.store(1);
  if (conn->closed_.load()) {
    conn->fire_on_close();
    conn->dispatching_.store(0);
    return false;
  }
  bool did_work = false;
  std::string frame;
  while (conn->inbound_.pop(frame)) {
    did_work = true;
    conn->inbound_bytes_.fetch_sub(frame.size());
    conn->bytes_in_.fetch_add(frame.size());
    conn->decoder_.feed(frame.data(), frame.size());
    std::string payload;
    FrameDecoder::Status status;
    while ((status = conn->decoder_.next(payload)) ==
           FrameDecoder::Status::kFrame) {
      conn->messages_in_.fetch_add(1);
      if (conn->handlers_.on_message) {
        conn->handlers_.on_message(payload);
      }
      if (conn->closed_.load()) {
        break;
      }
    }
    if (status == FrameDecoder::Status::kError) {
      // Corrupt stream: drop the connection (file comment in wire.h).
      conn->close();
    }
    if (conn->closed_.load()) {
      break;
    }
  }
  if (!conn->closed_.load() && conn->peer_closed_.load() &&
      conn->inbound_.empty()) {
    // Peer closed and everything it sent has been delivered: surface the
    // close in order, from the delivery thread.
    conn->closed_.store(true);
    conn->fire_on_close();
  }
  conn->dispatching_.store(0);
  return did_work;
}

InProcTransport::InProcTransport(InProcTransportConfig config)
    : impl_(std::make_unique<Impl>(config)) {
  impl_->delivery = std::thread([impl = impl_.get()] { impl->run(); });
}

InProcTransport::~InProcTransport() { stop(); }

std::string InProcTransport::listen(const std::string& endpoint,
                                    AcceptHandler on_accept) {
  PA_REQUIRE_ARG(on_accept != nullptr, "InProcTransport::listen: null acceptor");
  check::MutexLock lock(impl_->mu);
  if (impl_->stopping) {
    throw Error("InProcTransport::listen after stop()");
  }
  const auto [it, inserted] =
      impl_->registry.emplace(endpoint, std::move(on_accept));
  if (!inserted) {
    throw Error("InProcTransport: endpoint already registered: " + endpoint);
  }
  return endpoint;
}

ConnectionPtr InProcTransport::connect(const std::string& endpoint,
                                       ConnectionHandlers handlers) {
  AcceptHandler acceptor;
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      throw Error("InProcTransport::connect after stop()");
    }
    const auto it = impl_->registry.find(endpoint);
    if (it == impl_->registry.end()) {
      throw Error("InProcTransport: no listener at endpoint: " + endpoint);
    }
    acceptor = it->second;
  }
  auto client =
      std::make_shared<InProcConnection>(impl_.get(), std::move(handlers));
  auto server = std::make_shared<InProcConnection>(impl_.get(),
                                                   ConnectionHandlers{});
  client->peer_ = server;
  server->peer_ = client;
  // Acceptor runs outside the transport lock (it typically touches the
  // application's own state) and before either side is serviced, so no
  // message can arrive ahead of the handlers. The dispatching_ guard makes
  // a close() of `server` from another thread wait until the handlers are
  // installed (as in TcpTransport's accept).
  server->dispatching_.store(1);
  server->handlers_ = acceptor(server);
  server->dispatching_.store(0);
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      throw Error("InProcTransport::connect raced with stop()");
    }
    impl_->connections.push_back(client);
    impl_->connections.push_back(server);
  }
  impl_->wake();
  return client;
}

void InProcTransport::stop() {
  std::vector<std::shared_ptr<InProcConnection>> conns;
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      return;
    }
    impl_->stopping = true;
    conns.swap(impl_->connections);
    impl_->registry.clear();
    impl_->cv.notify_all();
  }
  if (impl_->delivery.joinable()) {
    impl_->delivery.join();
  }
  // Delivery thread is gone: close() needs no barrier and every unfired
  // on_close runs here, on the stopping thread.
  for (const auto& conn : conns) {
    conn->close();
    conn->handlers_ = ConnectionHandlers();  // break handler→conn cycles
  }
}

}  // namespace pa::net
