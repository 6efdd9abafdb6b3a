#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "pa/check/mutex.h"
#include "pa/common/rng.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/journal/journal.h"
#include "pa/journal/recovery.h"
#include "pa/journal/service_journal.h"
#include "pa/net/tcp_transport.h"
#include "pa/obs/metrics.h"
#include "pa/rt/remote_runtime.h"
#include "pa/store/data_service.h"
#include "pa/store/manager.h"

namespace perfbench {

namespace core = pa::core;
namespace fs = std::filesystem;

const Sizes& sizes() {
  static const Sizes s = [] {
    Sizes z;
    const unsigned hw = std::thread::hardware_concurrency();
    const int nproc = hw == 0 ? 1 : static_cast<int>(hw);
    z.cores_per_pilot = std::clamp(nproc / z.pilots, 1, 2);
    const int slots = z.pilots * z.cores_per_pilot;
    z.kernel_inputs = 32;
    z.ensemble_units_per_round = 4 * slots;
    z.ensemble_rounds_per_epoch = 24;
    z.ensemble_iterations = 1'500'000;
    z.object_bytes = 320 * 1024;
    z.fresh_per_round = 2;
    z.pool_per_round = 2;
    z.pool_objects = 16;
    z.shard_budget_bytes = 10 * z.object_bytes;
    z.stage_units_per_round = 2 * slots;
    z.stage_iterations = 500'000;
    z.stage_rounds_per_epoch = 16;
    return z;
  }();
  return s;
}

namespace {

// --- spans ------------------------------------------------------------------

enum SpanName : std::uint16_t {
  kRound,
  kSubmit,
  kWaitAll,
  kWaitPoll,
  kQueue,
  kDispatch,
  kExec,
  kComplete,
  kPut,
  kEnsure,
  kFlush,
  kRecover,
  kSpanNames
};

constexpr const char* kSpanText[kSpanNames] = {
    "bench.round",   "core.submit_units", "core.wait_all_units",
    "core.wait_poll", "core.queue",       "rt.dispatch",
    "rt.exec",       "rt.complete",       "store.put",
    "store.ensure_on", "journal.flush",   "journal.recover"};

/// In-memory span log, written out when the run ends. Disabled in the
/// untraced phase, where add() records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::int32_t add(SpanName name, std::int32_t parent, std::uint64_t key,
                   double start, double end) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{name, parent, key, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Closes a span recorded before its end was known.
  void set_end(std::int32_t index, double end) {
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].end = end;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// --- the stack under test ---------------------------------------------------

struct ClusterConfig {
  std::string policy = "backfill";
  std::string journal_dir;  ///< empty = no journal
  bool store = false;
  std::uint64_t shard_budget_bytes = 0;
  pa::obs::MetricsRegistry* metrics = nullptr;  ///< traced phase only
};

/// One epoch's stack: TCP transport shared by the manager and both agents,
/// RemoteRuntime, PilotComputeService, optional journal and store. The
/// constructor returns once every pilot is ACTIVE.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config) {
    if (config.store) {
      pa::store::StoreManagerConfig sc;
      sc.metrics = config.metrics;
      store_ = std::make_unique<pa::store::StoreManager>(sc);
    }
    if (!config.journal_dir.empty()) {
      pa::journal::JournalConfig jc;
      jc.writer.sync = pa::journal::WriterConfig::Sync::kGroup;
      journal_ = std::make_unique<pa::journal::Journal>(config.journal_dir, jc);
      if (config.metrics != nullptr) {
        journal_->set_metrics(config.metrics);
      }
      sink_ = std::make_unique<pa::journal::ServiceJournal>(*journal_);
    }
    pa::rt::AgentEndpointConfig agent_config;
    agent_config.store.shard.memory_capacity_bytes = config.shard_budget_bytes;
    pa::rt::RemoteRuntimeConfig rc;
    rc.listen_endpoint = "127.0.0.1:0";
    rc.metrics = config.metrics;
    rc.launcher = [this, agent_config](const std::string& pilot_id,
                                       const std::string& endpoint) {
      auto agent = std::make_unique<pa::rt::AgentEndpoint>(
          transport_, endpoint, pilot_id, runtime_->payloads(), agent_config);
      pa::check::MutexLock lock(mu_);
      agents_[pilot_id] = std::move(agent);
    };
    runtime_ = std::make_unique<pa::rt::RemoteRuntime>(transport_, rc);
    clock_offset_ = pa::wall_seconds() - runtime_->now();
    if (store_ != nullptr) {
      runtime_->attach_store(store_.get());
    }
    core::PilotComputeService::Options options;
    options.scheduler_policy = config.policy;
    service_ = std::make_unique<core::PilotComputeService>(*runtime_, options);
    if (config.metrics != nullptr) {
      service_->attach_observability(nullptr, config.metrics);
    }
    if (store_ != nullptr) {
      data_ = std::make_unique<pa::store::StoreDataService>(*store_);
      service_->attach_data_service(data_.get());
    }
    if (sink_ != nullptr) {
      service_->attach_journal(sink_.get());
    }
    std::vector<core::Pilot> pilots;
    for (int i = 0; i < sizes().pilots; ++i) {
      core::PilotDescription d;
      d.resource_url = "remote://site-" + std::to_string(i);
      d.nodes = sizes().cores_per_pilot;
      d.walltime = 1e9;
      pilots.push_back(service_->submit_pilot(d));
    }
    for (core::Pilot& p : pilots) {
      p.wait_active(60.0);
      pilot_ids_.push_back(p.id());
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  core::PilotComputeService& service() { return *service_; }
  pa::store::StoreManager& store() { return *store_; }
  pa::journal::Journal& journal() { return *journal_; }
  const std::vector<std::string>& pilots() const { return pilot_ids_; }

  /// Maps a runtime-clock stamp (unit_times) onto pa::wall_seconds().
  double to_wall(double runtime_time) const {
    return runtime_time + clock_offset_;
  }

  pa::rt::AgentEndpoint& agent(const std::string& pilot_id) {
    pa::check::MutexLock lock(mu_);
    return *agents_.at(pilot_id);
  }

  /// Bytes both agents' manager links carried so far, both directions.
  std::uint64_t link_bytes() {
    pa::check::MutexLock lock(mu_);
    std::uint64_t total = 0;
    for (const auto& [id, agent] : agents_) {
      const pa::net::ConnectionStats s = agent->stats();
      total += s.bytes_in + s.bytes_out;
    }
    return total;
  }

 private:
  // Destroyed in reverse order: the service first, then the runtime
  // (which closes the store's transfer pump), the journal, the store and
  // the agents, and the transport last.
  pa::net::TcpTransport transport_;
  pa::check::Mutex mu_{pa::check::LockRank::kLeaf, "perfbench.agents"};
  std::map<std::string, std::unique_ptr<pa::rt::AgentEndpoint>> agents_
      PA_GUARDED_BY(mu_);
  std::unique_ptr<pa::store::StoreManager> store_;
  std::unique_ptr<pa::journal::Journal> journal_;
  std::unique_ptr<pa::journal::ServiceJournal> sink_;
  std::unique_ptr<pa::rt::RemoteRuntime> runtime_;
  std::unique_ptr<pa::store::StoreDataService> data_;
  std::unique_ptr<core::PilotComputeService> service_;
  std::vector<std::string> pilot_ids_;
  double clock_offset_ = 0.0;
};

// --- accumulators -----------------------------------------------------------

/// Hypervisor steal time of the whole guest in USER_HZ ticks: the eighth
/// value of /proc/stat's "cpu" line. 0 where it cannot be read, which makes
/// every round count as clean.
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// One round's own samples. Unit-level samples live in Samples' vectors;
/// the round keeps the index range it added.
struct RoundRecord {
  std::uint64_t steal = 0;  ///< guest steal ticks while it ran
  double round_ms = 0.0;
  double rate = 0.0;  ///< units / round time
  double submit_s = 0.0;
  double wait_poll_ms = -1.0;  ///< -1 when no unit finished
  double coverage = -1.0;      ///< critical-path spans / round time
  std::size_t units = 0;
  std::size_t unit_begin = 0;  ///< range in Samples::unit_ms and friends
  std::size_t unit_end = 0;
  std::size_t ensure_begin = 0;  ///< range in Samples::ensure_ms
  std::size_t ensure_end = 0;
};

/// Raw samples of one phase; turned into metrics by finish().
struct Samples {
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_steal;
  double first_epoch_peak_mb = -1.0;  ///< see Epoch::close_memory
  double timed_s = 0.0;
  std::uint64_t units = 0;
  std::uint64_t unit_keys = 0;  ///< ordinal of the next harvested unit
  std::uint64_t objects = 0;    ///< ordinal of the next stage object
  std::vector<RoundRecord> rounds;

  std::vector<double> unit_ms;
  std::vector<double> queue_ms;
  std::vector<double> dispatch_ms;
  std::vector<double> exec_ms;

  std::uint64_t passes = 0;
  std::uint64_t passes_skipped = 0;
  std::uint64_t batches = 0;  ///< net.batch_size samples
  double batch_units = 0.0;   ///< their sum
  std::uint64_t heartbeats = 0;  ///< net.heartbeat_rtt_seconds samples
  double heartbeat_s = 0.0;      ///< their sum
  double heartbeat_max_s = 0.0;
  double send_queue_hwm = 0.0;
  std::uint64_t link_bytes = 0;

  std::uint64_t journal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t records_replayed = 0;
  double replay_s = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> recover_s;

  std::uint64_t put_bytes = 0;
  double put_s = 0.0;
  std::vector<double> ensure_ms;
  std::uint64_t ensure_hits = 0;
  std::uint64_t ensure_misses = 0;
  std::uint64_t star_bytes = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t manager_link_bytes = 0;
  std::uint64_t peer_fallbacks = 0;
  std::uint64_t tokens_expired = 0;
};

struct Checks {
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    // Keep the report short: the first few problems say enough.
    if (problems.size() < 8) {
      problems.push_back(what);
    }
  }
};

/// Adds an epoch's registry (traced phase) to the phase totals.
void absorb_registry(const pa::obs::MetricsRegistry& reg, Samples& s) {
  for (const auto& [name, value] : reg.counters()) {
    if (name == "wm.schedule_passes") {
      s.passes += value;
    } else if (name == "wm.schedule_passes_skipped") {
      s.passes_skipped += value;
    } else if (name == "journal.flushes") {
      s.journal_flushes += value;
    }
  }
  for (const auto& [name, hist] : reg.histograms()) {
    if (name == "net.batch_size") {
      s.batches += hist.count();
      s.batch_units += hist.sum();
    } else if (name == "net.heartbeat_rtt_seconds") {
      s.heartbeats += hist.count();
      s.heartbeat_s += hist.sum();
      s.heartbeat_max_s = std::max(s.heartbeat_max_s, hist.max());
    }
  }
  for (const auto& [name, value] : reg.gauges()) {
    if (name == "net.send_queue_hwm") {
      s.send_queue_hwm = std::max(s.send_queue_hwm, value);
    }
  }
}


/// What harvest_units learned about a round's units.
struct Harvest {
  double latest_finished = -1.0;  ///< wall time; -1 when no unit finished
  double last_submitted = 0.0;    ///< submit stamp of that last unit
  std::uint64_t last_key = 0;
};

/// Reads every unit of a finished round (outside the timed region): checks
/// it reached DONE, records its latency samples and rebuilds its per-unit
/// spans, keyed by a run-wide unit ordinal.
Harvest harvest_units(Cluster& cluster,
                      const std::vector<core::ComputeUnit>& units,
                      double round_end, std::int32_t round_span,
                      Trace& trace, Samples& s, Checks& checks) {
  Harvest h;
  for (const core::ComputeUnit& u : units) {
    const std::uint64_t key = s.unit_keys++;
    const core::UnitState state = u.state();
    if (state != core::UnitState::kDone) {
      ++checks.failed;
      checks.fail("unit " + u.id() + " ended " + core::to_string(state));
      continue;
    }
    const core::UnitTimes t = u.times();
    const double submitted = cluster.to_wall(t.submitted);
    const double scheduled = cluster.to_wall(t.scheduled);
    const double started = cluster.to_wall(t.started);
    const double finished = cluster.to_wall(t.finished);
    s.unit_ms.push_back((finished - submitted) * 1e3);
    s.queue_ms.push_back((scheduled - submitted) * 1e3);
    s.dispatch_ms.push_back((started - scheduled) * 1e3);
    s.exec_ms.push_back((finished - started) * 1e3);
    trace.add(kQueue, round_span, key, submitted, scheduled);
    trace.add(kDispatch, round_span, key, scheduled, started);
    trace.add(kExec, round_span, key, started, finished);
    trace.add(kComplete, round_span, key, finished, round_end);
    if (finished > h.latest_finished) {
      h.latest_finished = finished;
      h.last_submitted = submitted;
      h.last_key = key;
    }
  }
  return h;
}

/// Client-side timestamps of one round (pa::wall_seconds()), and the
/// guest's steal ticks around it.
struct RoundClock {
  double start = 0.0;         ///< first call into the stack
  double submit_start = 0.0;  ///< submit_units called
  double submit_end = 0.0;    ///< submit_units returned
  double end = 0.0;           ///< wait_all_units returned
  std::uint64_t steal_start = 0;
  std::uint64_t steal_end = 0;

  void begin() {
    steal_start = steal_ticks();
    start = pa::wall_seconds();
  }
};

/// Submits one batch and waits for all of it: the step every round shares.
std::vector<core::ComputeUnit> submit_and_wait(
    Cluster& cluster, const std::vector<core::ComputeUnitDescription>& descs,
    RoundClock& clock) {
  clock.submit_start = pa::wall_seconds();
  std::vector<core::ComputeUnit> units = cluster.service().submit_units(descs);
  clock.submit_end = pa::wall_seconds();
  cluster.service().wait_all_units(120.0);
  clock.end = pa::wall_seconds();
  clock.steal_end = steal_ticks();
  return units;
}

/// Books a finished round: the timed region, the round's spans, every
/// unit's samples, the poll wait and the critical-path coverage.
/// `round_span` is the already-recorded bench.round span (-1 untraced);
/// `store_critical_s` is the blocking store work before submit and
/// `ensures` the round's ensure_on latencies (stage only).
void book_round(Cluster& cluster, const RoundClock& clock,
                const std::vector<core::ComputeUnit>& units,
                std::int32_t round_span, double store_critical_s,
                const std::vector<double>& ensures, Trace& trace, Samples& s,
                Checks& checks) {
  RoundRecord rec;
  const double round_s = clock.end - clock.start;
  rec.steal = clock.steal_end - clock.steal_start;
  rec.round_ms = round_s * 1e3;
  rec.rate = static_cast<double>(units.size()) / round_s;
  rec.submit_s = clock.submit_end - clock.submit_start;
  rec.units = units.size();
  s.timed_s += round_s;
  s.units += units.size();
  checks.attempted += units.size();

  trace.add(kSubmit, round_span, 0, clock.submit_start, clock.submit_end);
  const std::int32_t wait_span =
      trace.add(kWaitAll, round_span, 0, clock.submit_end, clock.end);
  rec.unit_begin = s.unit_ms.size();
  const Harvest h =
      harvest_units(cluster, units, clock.end, round_span, trace, s, checks);
  rec.unit_end = s.unit_ms.size();
  rec.ensure_begin = s.ensure_ms.size();
  s.ensure_ms.insert(s.ensure_ms.end(), ensures.begin(), ensures.end());
  rec.ensure_end = s.ensure_ms.size();
  if (h.latest_finished >= 0.0) {
    const double poll_start = std::max(h.latest_finished, clock.submit_end);
    rec.wait_poll_ms = (clock.end - poll_start) * 1e3;
    trace.add(kWaitPoll, wait_span, h.last_key, poll_start, clock.end);
    // The critical path: blocking store work, submit_units, the last
    // unit's queue + dispatch + exec (its submitted -> finished) and the
    // poll. The last unit is submitted before submit_units returns, so the
    // spans overlap; their union is what they cover of the round.
    const std::vector<Span> path = {
        Span{kRound, -1, 0, clock.start, clock.end},
        Span{kPut, 0, 0, clock.start, clock.start + store_critical_s},
        Span{kSubmit, 0, 0, clock.submit_start, clock.submit_end},
        Span{kExec, 0, 0, h.last_submitted, h.latest_finished},
        Span{kWaitPoll, 0, 0, poll_start, clock.end}};
    rec.coverage = 1.0 - self_times(path)[0] / round_s;
  }
  s.rounds.push_back(rec);
}

/// Epoch bookkeeping shared by the workloads: set-up timing, the traced
/// registry, and the end-of-epoch reads that must happen before teardown.
struct Epoch {
  std::unique_ptr<pa::obs::MetricsRegistry> registry;  ///< traced only
  std::unique_ptr<Cluster> cluster;
  std::uint64_t link_start = 0;

  Epoch(ClusterConfig config, bool traced, Samples& s) {
    if (traced) {
      registry = std::make_unique<pa::obs::MetricsRegistry>();
      config.metrics = registry.get();
    }
    const std::uint64_t steal0 = steal_ticks();
    const double t0 = pa::wall_seconds();
    cluster = std::make_unique<Cluster>(config);
    s.setup_s.push_back(pa::wall_seconds() - t0);
    s.setup_steal.push_back(steal_ticks() - steal0);
    link_start = cluster->link_bytes();
  }

  /// Records the wire bytes of the epoch's rounds.
  void close_rounds(Samples& s) {
    s.link_bytes += cluster->link_bytes() - link_start;
  }

  /// Tears the stack down and folds the registry into the phase totals.
  void finish(Samples& s) {
    cluster.reset();
    if (registry != nullptr) {
      absorb_registry(*registry, s);
    }
  }

  /// The process's peak RSS once its first epoch (set-up, rounds,
  /// checks, teardown) is over: a fixed amount of work, so the figure does
  /// not grow with run length or throughput the way ru_maxrss at exit does.
  void close_memory(Samples& s) {
    if (s.first_epoch_peak_mb < 0.0) {
      struct rusage usage {};
      ::getrusage(RUSAGE_SELF, &usage);
      s.first_epoch_peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
};

// --- journal ----------------------------------------------------------------

/// A fresh wal directory for one epoch, inside the run's output directory.
fs::path wal_dir(const RunOptions& opt, int epoch) {
  const fs::path dir = fs::path(opt.out_dir) /
                       ("wal-" + std::to_string(::getpid()) + "-" +
                        std::to_string(epoch));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// End of an epoch's rounds: times Journal::flush(), books the records and
/// the wal's size on disk. Returns the live service's unit count, which
/// the replay must reproduce.
std::size_t flush_journal(Cluster& cluster, const fs::path& dir, int epoch,
                          Trace& trace, Samples& s) {
  const double f0 = pa::wall_seconds();
  cluster.journal().flush();
  const double f1 = pa::wall_seconds();
  s.flush_ms.push_back((f1 - f0) * 1e3);
  trace.add(kFlush, -1, static_cast<std::uint64_t>(epoch), f0, f1);
  s.journal_records += cluster.journal().records_appended();
  s.wal_bytes += fs::file_size(pa::journal::Journal::wal_path(dir.string()));
  return cluster.service().total_units();
}

/// After teardown: replays the epoch's whole wal with recover() and checks
/// the recovered image holds every live unit, each DONE exactly once.
void replay_journal(const fs::path& dir, int epoch, std::size_t live_units,
                    pa::obs::MetricsRegistry* registry, Trace& trace,
                    Samples& s, Checks& checks) {
  pa::journal::RecoveryCoordinator coordinator(dir.string());
  coordinator.set_metrics(registry);
  const double r0 = pa::wall_seconds();
  const pa::journal::RecoveryResult rec = coordinator.recover();
  const double r1 = pa::wall_seconds();
  s.recover_s.push_back(r1 - r0);
  s.records_replayed += rec.records_replayed;
  s.replay_s += rec.recovery_seconds;
  trace.add(kRecover, -1, static_cast<std::uint64_t>(epoch), r0, r1);

  const auto& image_units = rec.image.units();
  if (image_units.size() != live_units) {
    checks.fail("recovered image holds " + std::to_string(image_units.size()) +
                " units, live service had " + std::to_string(live_units));
  }
  for (const auto& [id, unit] : image_units) {
    if (unit.state != core::UnitState::kDone || unit.terminal_count != 1) {
      checks.fail("recovered " + id + " is " + core::to_string(unit.state) +
                  " with " + std::to_string(unit.terminal_count) +
                  " terminal records");
    }
  }
  fs::remove_all(dir);
}

// --- ensemble ---------------------------------------------------------------

/// The per-unit computation: a fixed-length dependent chain of xorshift and
/// multiply steps, so its cost is the same for every input.
std::uint64_t ensemble_kernel(std::uint64_t x, std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x = x * 0x9E3779B97F4A7C15ULL + i;
  }
  return x;
}

struct KernelInput {
  std::uint64_t value = 0;
  std::uint64_t expected = 0;
};

/// Seed-derived kernel inputs and their expected results, computed once
/// per phase on the client thread (outside any timed region).
std::vector<KernelInput> kernel_inputs(std::uint64_t seed,
                                       std::uint64_t iterations) {
  pa::Rng rng(seed);
  std::vector<KernelInput> inputs(
      static_cast<std::size_t>(sizes().kernel_inputs));
  for (KernelInput& in : inputs) {
    in.value = rng.next_u64() | 1;
    in.expected = ensemble_kernel(in.value, iterations);
  }
  return inputs;
}

/// One round's kernel units: unit i computes on a randomly chosen input and
/// stores its result in results[i]. Returns the chosen input indices.
std::vector<std::size_t> kernel_units(
    const std::vector<KernelInput>& inputs, std::uint64_t iterations,
    pa::Rng& rng, std::vector<std::atomic<std::uint64_t>>& results,
    std::vector<core::ComputeUnitDescription>& descs) {
  std::vector<std::size_t> chosen(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    chosen[i] = static_cast<std::size_t>(rng.next_u64() % inputs.size());
    results[i].store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t>* slot = &results[i];
    const std::uint64_t value = inputs[chosen[i]].value;
    descs[i].work = [slot, value, iterations] {
      slot->store(ensemble_kernel(value, iterations),
                  std::memory_order_release);
    };
  }
  return chosen;
}

/// Fails the run for every unit whose result is not the expected value.
void check_kernel_results(const std::vector<KernelInput>& inputs,
                          const std::vector<std::size_t>& chosen,
                          const std::vector<std::atomic<std::uint64_t>>& results,
                          const std::vector<core::ComputeUnit>& units,
                          Checks& checks) {
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (results[i].load(std::memory_order_acquire) !=
        inputs[chosen[i]].expected) {
      checks.fail(units[i].id() + " computed a wrong value");
    }
  }
}

/// Iterative barrier rounds (replica exchange / EnKF shape): each round is
/// a small multiple of the slot count of checkable CPU units, and ends when
/// wait_all_units returns. A group-commit journal records every lifecycle
/// event, as a long ensemble needs to resume after a manager crash; after
/// the epoch's rounds its whole wal is replayed by recover().
void ensemble_epoch(const RunOptions& opt, int epoch,
                    const std::vector<KernelInput>& inputs, pa::Rng& rng,
                    Trace& trace, Samples& s, Checks& checks) {
  const Sizes& z = sizes();
  const fs::path dir = wal_dir(opt, epoch);
  const auto n = static_cast<std::size_t>(z.ensemble_units_per_round);
  // Declared before the stack, whose payload closures point into it.
  std::vector<std::atomic<std::uint64_t>> results(n);
  ClusterConfig config;
  config.journal_dir = dir.string();
  Epoch e(config, trace.enabled(), s);
  Cluster& cluster = *e.cluster;

  for (int r = 0; r < z.ensemble_rounds_per_epoch; ++r) {
    std::vector<core::ComputeUnitDescription> descs(n);
    for (core::ComputeUnitDescription& d : descs) {
      d.name = "member";
    }
    const std::vector<std::size_t> chosen =
        kernel_units(inputs, z.ensemble_iterations, rng, results, descs);
    RoundClock clock;
    clock.begin();
    const std::vector<core::ComputeUnit> units =
        submit_and_wait(cluster, descs, clock);
    const std::int32_t round_span =
        trace.add(kRound, -1, s.rounds.size(), clock.start, clock.end);
    book_round(cluster, clock, units, round_span, 0.0, {}, trace, s, checks);
    check_kernel_results(inputs, chosen, results, units, checks);
  }
  e.close_rounds(s);
  const std::size_t live_units = flush_journal(cluster, dir, epoch, trace, s);
  e.finish(s);
  replay_journal(dir, epoch, live_units, e.registry.get(), trace, s, checks);
  e.close_memory(s);
}

// --- stage ------------------------------------------------------------------

/// Seed-derived object bytes; `tag` keeps every object of a run distinct.
std::string make_object(std::uint64_t seed, std::uint64_t tag,
                        std::uint64_t bytes) {
  pa::Rng rng(seed * 0x100000001B3ULL ^ (tag + 0x51ED));
  std::string out(bytes, '\0');
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, out.size() - i));
  }
  return out;
}

/// Completion record of one ensure_on wave. Shared with the callbacks so a
/// late callback after a timeout never touches a dead stack frame.
struct Wave {
  pa::check::Mutex mu{pa::check::LockRank::kLeaf, "perfbench.wave"};
  pa::check::CondVar cv;
  std::size_t pending PA_GUARDED_BY(mu) = 0;
  std::vector<double> done_at PA_GUARDED_BY(mu);
  std::vector<char> ok PA_GUARDED_BY(mu);
};

/// Places every object of `oids` on `pilot` and waits for all callbacks.
/// Returns the wave's wall duration (call of the first ensure_on to the
/// last callback).
double ensure_wave(Cluster& cluster, const std::string& pilot,
                   const std::vector<std::string>& oids,
                   const std::vector<std::uint64_t>& keys,
                   std::int32_t round_span, Trace& trace,
                   std::vector<double>& latencies_ms, Checks& checks) {
  auto wave = std::make_shared<Wave>();
  {
    pa::check::MutexLock lock(wave->mu);
    wave->pending = oids.size();
    wave->done_at.assign(oids.size(), 0.0);
    wave->ok.assign(oids.size(), 0);
  }
  std::vector<double> started(oids.size());
  const double w0 = pa::wall_seconds();
  for (std::size_t i = 0; i < oids.size(); ++i) {
    started[i] = pa::wall_seconds();
    cluster.store().ensure_on(pilot, oids[i], [wave, i](bool success) {
      const double at = pa::wall_seconds();
      pa::check::MutexLock lock(wave->mu);
      wave->done_at[i] = at;
      wave->ok[i] = success ? 1 : 0;
      --wave->pending;
      wave->cv.notify_all();
    });
  }
  pa::check::MutexLock lock(wave->mu);
  const double deadline = pa::wall_seconds() + 60.0;
  while (wave->pending > 0) {
    const double left = deadline - pa::wall_seconds();
    if (left <= 0.0) {
      checks.fail("ensure_on wave to " + pilot + " timed out");
      checks.failed += wave->pending;
      checks.attempted += oids.size();
      return pa::wall_seconds() - w0;
    }
    wave->cv.wait_for(lock, left);
  }
  double last = w0;
  for (std::size_t i = 0; i < oids.size(); ++i) {
    last = std::max(last, wave->done_at[i]);
    latencies_ms.push_back((wave->done_at[i] - started[i]) * 1e3);
    trace.add(kEnsure, round_span, keys[i], started[i], wave->done_at[i]);
    if (wave->ok[i] == 0) {
      ++checks.failed;
      checks.fail("ensure_on(" + pilot + ", " + oids[i] + ") failed");
    }
  }
  checks.attempted += oids.size();
  return last - w0;
}

/// Pilot-Data rounds: fresh multi-chunk objects are put, placed on both
/// agents (star push to the first, peer grant to the second), then read
/// by units; a fixed pool larger than the agents' memory tier is cycled
/// through the same path so LRU eviction and re-staging run steadily.
void stage_epoch(const RunOptions& opt, int epoch,
                 const std::vector<KernelInput>& inputs, pa::Rng& rng,
                 Trace& trace, Samples& s, Checks& checks) {
  const Sizes& z = sizes();
  const auto n = static_cast<std::size_t>(z.stage_units_per_round);
  // Declared before the stack, whose payload closures point into it.
  std::vector<std::atomic<std::uint64_t>> results(n);
  ClusterConfig config;
  config.policy = "data-affinity";
  config.store = true;
  config.shard_budget_bytes = z.shard_budget_bytes;
  Epoch e(config, trace.enabled(), s);
  Cluster& cluster = *e.cluster;
  pa::store::StoreManager& store = cluster.store();

  // The pool is prepared before the rounds (origin puts only; nothing is
  // placed on an agent until a round asks for it).
  std::map<std::string, std::string> expected;
  std::vector<std::string> pool;
  std::vector<std::uint64_t> pool_keys;
  for (int k = 0; k < z.pool_objects; ++k) {
    pool_keys.push_back(s.objects++);
    std::string bytes =
        make_object(opt.seed, static_cast<std::uint64_t>(k), z.object_bytes);
    const std::string oid = store.put(bytes);
    expected.emplace(oid, std::move(bytes));
    pool.push_back(oid);
  }

  const pa::store::StoreManagerStats before = store.stats();
  const std::uint64_t link_before = store.transfers().bytes_sent();
  std::uint64_t fresh_tag = 1'000'000ULL * static_cast<std::uint64_t>(epoch + 1);
  for (int r = 0; r < z.stage_rounds_per_epoch; ++r) {
    std::vector<std::string> fresh_bytes;
    for (int k = 0; k < z.fresh_per_round; ++k) {
      fresh_bytes.push_back(make_object(opt.seed, fresh_tag++, z.object_bytes));
    }
    std::vector<std::string> args = fresh_bytes;  // put() consumes its copy
    const std::string& first = cluster.pilots()[static_cast<std::size_t>(r % 2)];
    const std::string& second =
        cluster.pilots()[static_cast<std::size_t>((r + 1) % 2)];

    RoundClock clock;
    clock.begin();
    // Spans need the round's index before the round ends; the round span
    // is recorded first and its end patched below.
    const std::int32_t round_span =
        trace.add(kRound, -1, s.rounds.size(), clock.start, clock.start);
    std::vector<std::string> oids;
    std::vector<std::uint64_t> keys;  // object ordinals shared by spans
    double put_s = 0.0;
    for (std::string& bytes : args) {
      const double p0 = pa::wall_seconds();
      const std::string oid = store.put(std::move(bytes));
      const double p1 = pa::wall_seconds();
      put_s += p1 - p0;
      s.put_bytes += z.object_bytes;
      keys.push_back(s.objects++);
      trace.add(kPut, round_span, keys.back(), p0, p1);
      oids.push_back(oid);
    }
    for (int k = 0; k < z.pool_per_round; ++k) {
      const int idx = (r * z.pool_per_round + k) % z.pool_objects;
      oids.push_back(pool[static_cast<std::size_t>(idx)]);
      keys.push_back(pool_keys[static_cast<std::size_t>(idx)]);
    }
    std::vector<double> ensures;
    const double wave_s =
        ensure_wave(cluster, first, oids, keys, round_span, trace, ensures,
                    checks) +
        ensure_wave(cluster, second, oids, keys, round_span, trace, ensures,
                    checks);
    s.put_s += put_s;

    std::vector<core::ComputeUnitDescription> descs(n);
    for (std::size_t i = 0; i < n; ++i) {
      descs[i].name = "reader";
      descs[i].input_data = {oids[i % oids.size()]};
    }
    const std::vector<std::size_t> chosen =
        kernel_units(inputs, z.stage_iterations, rng, results, descs);
    const std::vector<core::ComputeUnit> units =
        submit_and_wait(cluster, descs, clock);
    trace.set_end(round_span, clock.end);
    book_round(cluster, clock, units, round_span, put_s + wave_s, ensures,
               trace, s, checks);
    check_kernel_results(inputs, chosen, results, units, checks);

    // Read every placed object back from both agent shards, and the fresh
    // ones from the origin (a CRC-verified get), against the put bytes.
    for (std::size_t k = 0; k < fresh_bytes.size(); ++k) {
      expected.emplace(oids[k], fresh_bytes[k]);
      const std::optional<std::string> origin = store.get(oids[k]);
      if (!origin || *origin != fresh_bytes[k]) {
        checks.fail("origin copy of " + oids[k] + " does not verify");
      }
    }
    for (const std::string& pilot : cluster.pilots()) {
      pa::store::Shard& shard = cluster.agent(pilot).store().shard();
      for (const std::string& oid : oids) {
        const std::optional<std::string> held = shard.get(oid);
        if (!held || *held != expected.at(oid)) {
          checks.fail(oid + " on " + pilot + " is missing or differs");
        }
      }
    }
    for (std::size_t k = 0; k < fresh_bytes.size(); ++k) {
      expected.erase(oids[k]);  // fresh objects are never read again
    }
  }
  e.close_rounds(s);
  const pa::store::StoreManagerStats after = store.stats();
  s.ensure_hits += after.ensure_hits - before.ensure_hits;
  s.ensure_misses += after.ensure_misses - before.ensure_misses;
  s.star_bytes += after.push_bytes - before.push_bytes;
  s.peer_bytes += after.peer_bytes - before.peer_bytes;
  s.peer_fallbacks += after.peer_fallbacks - before.peer_fallbacks;
  s.tokens_expired += after.tokens_expired - before.tokens_expired;
  s.manager_link_bytes += store.transfers().bytes_sent() - link_before;
  e.finish(s);
  e.close_memory(s);
}

// --- metrics ----------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double pct(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  return percentile(v, p);
}

/// Percentile under the "ten samples beyond" rule; a tail the sample
/// count cannot support is a benchmark sizing error, not a number.
double tail(std::vector<double> v, double p, const char* what) {
  if (!tail_supported(v.size(), p)) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::to_string(v.size()) +
                             " samples cannot support a p" +
                             std::to_string(p));
  }
  return percentile(v, p);
}

/// Span self time grouped by span name, as printable rows.
std::vector<std::string> span_table(const Trace& trace, std::uint64_t rounds) {
  const std::vector<Span>& spans = trace.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<double> total(kSpanNames, 0.0);
  std::vector<double> own(kSpanNames, 0.0);
  std::vector<std::uint64_t> count(kSpanNames, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total[spans[i].name] += spans[i].end - spans[i].start;
    own[spans[i].name] += self[i];
    ++count[spans[i].name];
  }
  std::vector<std::string> rows;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-22s %10s %14s %14s %14s", "span",
                "count", "total_ms", "self_ms", "self_ms/round");
  rows.emplace_back(line);
  for (int n = 0; n < kSpanNames; ++n) {
    if (count[n] == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-22s %10llu %14.3f %14.3f %14.4f",
                  kSpanText[n], static_cast<unsigned long long>(count[n]),
                  total[n] * 1e3, own[n] * 1e3,
                  ratio(own[n] * 1e3, static_cast<double>(rounds)));
    rows.emplace_back(line);
  }
  return rows;
}

void write_spans(const Trace& trace, const RunOptions& opt) {
  const fs::path path =
      fs::path(opt.out_dir) / ("spans-" + opt.workload + ".tsv");
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path.string());
  }
  std::fprintf(f, "index\tname\tparent\tkey\tstart_s\tend_s\n");
  const std::vector<Span>& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%zu\t%s\t%d\t%llu\t%.9f\t%.9f\n", i,
                 kSpanText[spans[i].name], spans[i].parent,
                 static_cast<unsigned long long>(spans[i].key),
                 spans[i].start, spans[i].end);
  }
  std::fclose(f);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return ratio(sum, static_cast<double>(v.size()));
}

/// The steal-tick threshold that keeps the quieter half: the smallest
/// count such that at least half of `steal` is at or below it.
std::uint64_t quiet_threshold(std::vector<std::uint64_t> steal) {
  if (steal.empty()) {
    return 0;
  }
  std::sort(steal.begin(), steal.end());
  return steal[(steal.size() - 1) / 2];
}

/// Samples of the rounds the metrics describe: those with at most
/// `threshold` guest steal ticks while they ran.
struct Selected {
  std::uint64_t threshold = 0;
  std::size_t rounds = 0;
  std::size_t units = 0;
  double submit_s = 0.0;
  std::vector<double> round_ms, rate, wait_poll_ms, coverage;
  std::vector<double> unit_ms, queue_ms, dispatch_ms, exec_ms, ensure_ms;

  /// The selection can report every tail the phase prints: p90s of
  /// rounds, units and ensure_on calls (when there are any), and p99s of
  /// per-unit samples in the traced phase (queue wait and dispatch).
  bool carries_tails(bool ensures, bool traced) const {
    return tail_supported(round_ms.size(), 90.0) &&
           tail_supported(unit_ms.size(), traced ? 99.0 : 90.0) &&
           (!ensures || tail_supported(ensure_ms.size(), 90.0));
  }
};

Selected select(const Samples& s, std::uint64_t threshold) {
  Selected sel;
  sel.threshold = threshold;
  const auto range = [](const std::vector<double>& from, std::size_t b,
                        std::size_t e, std::vector<double>& to) {
    to.insert(to.end(), from.begin() + static_cast<std::ptrdiff_t>(b),
              from.begin() + static_cast<std::ptrdiff_t>(e));
  };
  for (const RoundRecord& r : s.rounds) {
    if (r.steal > threshold) {
      continue;
    }
    ++sel.rounds;
    sel.units += r.units;
    sel.submit_s += r.submit_s;
    sel.round_ms.push_back(r.round_ms);
    sel.rate.push_back(r.rate);
    if (r.wait_poll_ms >= 0.0) {
      sel.wait_poll_ms.push_back(r.wait_poll_ms);
      sel.coverage.push_back(r.coverage);
    }
    range(s.unit_ms, r.unit_begin, r.unit_end, sel.unit_ms);
    range(s.queue_ms, r.unit_begin, r.unit_end, sel.queue_ms);
    range(s.dispatch_ms, r.unit_begin, r.unit_end, sel.dispatch_ms);
    range(s.exec_ms, r.unit_begin, r.unit_end, sel.exec_ms);
    range(s.ensure_ms, r.ensure_begin, r.ensure_end, sel.ensure_ms);
  }
  return sel;
}

/// The rounds the metrics describe. Clean rounds (no steal tick: the
/// hypervisor gave the guest's CPUs to another tenant for under 10 ms in
/// total) when they can carry every tail; otherwise the quieter half by
/// steal ticks; otherwise every round.
Selected select_rounds(const Samples& s, bool traced) {
  const bool ensures = !s.ensure_ms.empty();
  Selected clean = select(s, 0);
  if (clean.carries_tails(ensures, traced)) {
    return clean;
  }
  std::vector<std::uint64_t> steal;
  for (const RoundRecord& r : s.rounds) {
    steal.push_back(r.steal);
  }
  Selected quieter = select(s, quiet_threshold(steal));
  if (quieter.carries_tails(ensures, traced)) {
    return quieter;
  }
  return select(s, std::numeric_limits<std::uint64_t>::max());
}

/// Median set-up time over the quieter half of the set-ups.
double setup_median(const Samples& s) {
  const std::uint64_t threshold = quiet_threshold(s.setup_steal);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < s.setup_s.size(); ++i) {
    if (s.setup_steal[i] <= threshold) {
      quiet.push_back(s.setup_s[i]);
    }
  }
  return pct(quiet, 50.0);
}

PhaseResult finish(const RunOptions& opt, const Samples& s,
                   const Checks& checks, const Trace& trace) {
  PhaseResult out;
  out.problems = checks.problems;
  out.correct = checks.problems.empty() && checks.failed == 0;
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  const Selected sel = select_rounds(s, trace.enabled());
  char note[200];
  if (sel.rounds == s.rounds.size()) {
    std::snprintf(note, sizeof(note), "%zu rounds; metrics use all of them",
                  s.rounds.size());
  } else {
    std::snprintf(note, sizeof(note),
                  "%zu rounds; metrics use the %zu with <= %llu steal ticks",
                  s.rounds.size(), sel.rounds,
                  static_cast<unsigned long long>(sel.threshold));
  }
  out.sampling = note;

  // The median round's rate: every round of a workload has the same size.
  out.units_per_s = pct(sel.rate, 50.0);
  const double units = static_cast<double>(s.units);
  const double rounds = static_cast<double>(s.rounds.size());
  const double median_round_s = pct(sel.round_ms, 50.0) / 1e3;

  out.end_to_end = {
      {"units_per_s", out.units_per_s, "units/s"},
      {"unit_p50_ms", pct(sel.unit_ms, 50.0), "ms"},
      {"unit_p90_ms", tail(sel.unit_ms, 90.0, "unit latency"), "ms"},
      {"round_p50_ms", pct(sel.round_ms, 50.0), "ms"},
      {"round_p90_ms", tail(sel.round_ms, 90.0, "round time"), "ms"},
      {"setup_s", setup_median(s), "s"},
      {"peak_rss_MB", s.first_epoch_peak_mb, "MB"},
  };

  out.layer_timings = {
      {"journal.flush_ms", pct(s.flush_ms, 50.0), "ms"},
      {"journal.recover_s", pct(s.recover_s, 50.0), "s"},
      {"store.ensure_p50_ms", pct(sel.ensure_ms, 50.0), "ms"},
      {"store.ensure_p90_ms",
       sel.ensure_ms.empty() ? 0.0 : tail(sel.ensure_ms, 90.0, "ensure_on"),
       "ms"},
  };

  if (!trace.enabled()) {
    return out;
  }
  const double attempted_passes =
      static_cast<double>(s.passes + s.passes_skipped);
  const double staged_mb_per_round =
      ratio(static_cast<double>(s.star_bytes + s.peer_bytes) / 1e6, rounds);
  out.per_layer = {
      {"core.submit_us_per_unit",
       ratio(sel.submit_s * 1e6, static_cast<double>(sel.units)), "us/unit"},
      {"core.queue_wait_p50_ms", pct(sel.queue_ms, 50.0), "ms"},
      {"core.queue_wait_p99_ms", tail(sel.queue_ms, 99.0, "queue wait"), "ms"},
      {"core.passes_per_unit", ratio(static_cast<double>(s.passes), units),
       "ratio"},
      {"core.pass_skip_ratio",
       ratio(static_cast<double>(s.passes_skipped), attempted_passes),
       "ratio"},
      {"core.wait_poll_ms", pct(sel.wait_poll_ms, 50.0), "ms"},
      {"rt.dispatch_p50_ms", pct(sel.dispatch_ms, 50.0), "ms"},
      {"rt.dispatch_p99_ms", tail(sel.dispatch_ms, 99.0, "dispatch"), "ms"},
      {"rt.exec_p50_ms", pct(sel.exec_ms, 50.0), "ms"},
      {"rt.units_per_batch",
       ratio(s.batch_units, static_cast<double>(s.batches)), "units/batch"},
      {"net.bytes_per_unit", ratio(static_cast<double>(s.link_bytes), units),
       "B/unit"},
      {"net.heartbeat_rtt_mean_ms",
       ratio(s.heartbeat_s * 1e3, static_cast<double>(s.heartbeats)), "ms"},
      {"net.heartbeat_rtt_max_ms", s.heartbeat_max_s * 1e3, "ms"},
      {"net.send_queue_hwm", s.send_queue_hwm, "B"},
      {"journal.records_per_unit",
       ratio(static_cast<double>(s.journal_records), units), "records/unit"},
      {"journal.wal_bytes_per_unit",
       ratio(static_cast<double>(s.wal_bytes), units), "B/unit"},
      {"journal.flushes_per_s",
       ratio(static_cast<double>(s.journal_flushes), s.timed_s), "1/s"},
      {"journal.replay_records_per_s",
       ratio(static_cast<double>(s.records_replayed), s.replay_s), "1/s"},
      {"store.put_MB_s", ratio(static_cast<double>(s.put_bytes) / 1e6, s.put_s),
       "MB/s"},
      {"store.stage_MB_s", ratio(staged_mb_per_round, median_round_s), "MB/s"},
      {"store.hit_ratio",
       ratio(static_cast<double>(s.ensure_hits),
             static_cast<double>(s.ensure_hits + s.ensure_misses)),
       "ratio"},
      {"store.star_MB_per_round",
       ratio(static_cast<double>(s.star_bytes) / 1e6, rounds), "MB/round"},
      {"store.peer_MB_per_round",
       ratio(static_cast<double>(s.peer_bytes) / 1e6, rounds), "MB/round"},
      {"store.manager_link_MB_per_round",
       ratio(static_cast<double>(s.manager_link_bytes) / 1e6, rounds),
       "MB/round"},
      {"store.peer_fallbacks", static_cast<double>(s.peer_fallbacks), "count"},
      {"store.tokens_expired", static_cast<double>(s.tokens_expired), "count"},
      {"obs.critical_path_coverage", mean(sel.coverage), "ratio"},
      {"obs.selected_round_ratio",
       ratio(static_cast<double>(sel.rounds), rounds), "ratio"},
  };
  out.span_table = span_table(trace, s.rounds.size());
  write_spans(trace, opt);
  return out;
}

}  // namespace

PhaseResult run_phase(const RunOptions& opt, bool traced) {
  Trace trace(traced);
  Samples s;
  Checks checks;
  fs::create_directories(opt.out_dir);
  pa::Rng rng(opt.seed ^ 0xE5E3B1EULL);
  if (opt.workload == "ensemble") {
    const std::vector<KernelInput> inputs =
        kernel_inputs(opt.seed, sizes().ensemble_iterations);
    for (int epoch = 0; s.timed_s < opt.seconds; ++epoch) {
      ensemble_epoch(opt, epoch, inputs, rng, trace, s, checks);
    }
  } else if (opt.workload == "stage") {
    const std::vector<KernelInput> inputs =
        kernel_inputs(opt.seed, sizes().stage_iterations);
    for (int epoch = 0; s.timed_s < opt.seconds; ++epoch) {
      stage_epoch(opt, epoch, inputs, rng, trace, s, checks);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  return finish(opt, s, checks, trace);
}

}  // namespace perfbench
