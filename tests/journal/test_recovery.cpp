#include "pa/journal/recovery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "pa/core/pilot_compute_service.h"
#include "pa/infra/batch_cluster.h"
#include "pa/journal/journal.h"
#include "pa/journal/reader.h"
#include "pa/journal/service_journal.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/sim_runtime.h"
#include "pa/saga/session.h"

#include "../legacy_crc32.h"
#include "journal_test_util.h"

namespace pa::journal {
namespace {

using testing::TempDir;

/// Simulated stack with an attached journal — the full tentpole loop:
/// run, "crash" (drop the world), recover from disk, resume on a fresh
/// world.
class RecoveryTest : public ::testing::Test {
 protected:
  struct World {
    sim::Engine engine;
    saga::Session session;
    std::shared_ptr<infra::BatchCluster> cluster;
    std::unique_ptr<rt::SimRuntime> runtime;
    // Journal + sink are declared before the service so they outlive its
    // destructor (shutdown emits final journal records through the sink).
    std::unique_ptr<Journal> journal;
    std::unique_ptr<ServiceJournal> sink;
    std::unique_ptr<core::PilotComputeService> service;

    explicit World(const std::string& journal_dir,
                   JournalConfig config = {},
                   const ManagerImage* resume_from = nullptr) {
      infra::BatchClusterConfig cfg;
      cfg.name = "hpc-a";
      cfg.num_nodes = 4;
      cfg.node.cores = 8;
      cluster = std::make_shared<infra::BatchCluster>(engine, cfg);
      session.register_resource("slurm://hpc-a", cluster);
      runtime = std::make_unique<rt::SimRuntime>(engine, session);
      journal = std::make_unique<Journal>(journal_dir, config, resume_from);
      sink = std::make_unique<ServiceJournal>(*journal);
      service =
          std::make_unique<core::PilotComputeService>(*runtime, "backfill");
      service->attach_journal(sink.get());
    }

    /// Simulates the manager dying right now: pending records are made
    /// durable, then nothing further is journaled (the graceful teardown
    /// below must not look like part of the history).
    void crash() {
      journal->flush();
      service->attach_journal(nullptr);
    }
  };

  static core::PilotDescription pilot_desc(int nodes = 2) {
    core::PilotDescription d;
    d.resource_url = "slurm://hpc-a";
    d.nodes = nodes;
    d.walltime = 3600.0;
    return d;
  }

  static core::ComputeUnitDescription unit_desc(double duration = 10.0) {
    core::ComputeUnitDescription d;
    d.duration = duration;
    d.cores = 1;
    return d;
  }

  TempDir dir_;
};

TEST_F(RecoveryTest, JournalImageMatchesReplayedWal) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 8; ++i) {
      w.service->submit_unit(unit_desc(5.0));
    }
    w.service->wait_all_units();
    w.journal->flush();

    // Replaying the wal from scratch must land on the facade's image.
    ManagerImage replayed;
    for (const Record& r : read_journal(Journal::wal_path(dir_.path())).records) {
      replayed.apply(r);
    }
    EXPECT_EQ(replayed, w.journal->image());
    EXPECT_EQ(replayed.terminal_units(), 8u);
  }
}

TEST_F(RecoveryTest, RecoverAfterCleanRunReportsAllTerminal) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 5; ++i) {
      w.service->submit_unit(unit_desc(2.0));
    }
    w.service->wait_all_units();
  }  // journal closed (flushes) with the world

  obs::MetricsRegistry metrics;
  RecoveryCoordinator coordinator(dir_.path());
  coordinator.set_metrics(&metrics);
  const RecoveryResult result = coordinator.recover();
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.image.units().size(), 5u);
  EXPECT_EQ(result.image.terminal_units(), 5u);
  EXPECT_GT(result.records_replayed, 0u);
  EXPECT_GT(metrics.gauge("journal.recovery_seconds").value(), 0.0);

  const ResumePlan plan = make_resume_plan(result.image);
  EXPECT_EQ(plan.completed_units.size(), 5u);
  EXPECT_TRUE(plan.units.empty());  // nothing re-runs: exactly-once
}

TEST_F(RecoveryTest, MidFlightCrashResumesInFlightUnitsOnFreshWorld) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 6; ++i) {
      w.service->submit_unit(unit_desc(100.0));
    }
    // Run long enough that units are RUNNING, then "crash": drop the
    // world without waiting for completion.
    w.engine.run_until(20.0);
    w.crash();
  }

  RecoveryCoordinator coordinator(dir_.path());
  const RecoveryResult result = coordinator.recover();
  EXPECT_EQ(result.image.units().size(), 6u);
  EXPECT_EQ(result.image.terminal_units(), 0u);

  const ResumePlan plan = make_resume_plan(result.image);
  EXPECT_EQ(plan.pilots.size(), 1u);
  EXPECT_EQ(plan.units.size(), 6u);
  EXPECT_GT(plan.in_flight_requeued, 0u);

  // Resume on a brand-new simulated world, journaling to a fresh journal
  // seeded with the recovered image.
  TempDir dir2;
  World w2(dir2.path(), JournalConfig{}, &result.image);
  const auto resumed = resume(*w2.service, plan);
  EXPECT_EQ(resumed.size(), 6u);
  w2.service->wait_all_units();
  EXPECT_EQ(w2.service->metrics().units_done, 6u);
  // The resumed journal's image holds history from both lives.
  const ManagerImage after = w2.journal->image();
  EXPECT_EQ(after.units().size(), 12u);  // 6 journaled twice under new ids
  EXPECT_EQ(after.terminal_units(), 6u);
}

TEST_F(RecoveryTest, TornWalIsTruncatedAndReplays) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 4; ++i) {
      w.service->submit_unit(unit_desc(5.0));
    }
    w.service->wait_all_units();
  }
  const std::string wal = Journal::wal_path(dir_.path());
  const ReadResult before = read_journal(wal);
  ASSERT_FALSE(before.torn);
  // Chop the final frame in half: a torn write.
  truncate_file(wal, before.file_bytes - 5);

  RecoveryCoordinator coordinator(dir_.path());
  const RecoveryResult result = coordinator.recover();
  EXPECT_TRUE(result.torn_tail);
  EXPECT_GT(result.truncated_bytes, 0u);
  EXPECT_EQ(result.records_replayed, before.records.size() - 1);
  // The file was physically repaired: a second scan is clean.
  EXPECT_FALSE(read_journal(wal).torn);
}

TEST_F(RecoveryTest, CompactionPreservesRecoveredState) {
  TempDir dir_compact;
  JournalConfig compacting;
  compacting.snapshot_every_records = 16;  // force frequent snapshots

  // Drive two identical workloads, one compacting aggressively, one not.
  auto drive = [&](const std::string& journal_dir,
                   const JournalConfig& config) {
    World w(journal_dir, config);
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 20; ++i) {
      w.service->submit_unit(unit_desc(3.0));
    }
    w.service->wait_all_units();
  };
  drive(dir_.path(), JournalConfig{});
  drive(dir_compact.path(), compacting);

  RecoveryCoordinator plain(dir_.path());
  RecoveryCoordinator compacted(dir_compact.path());
  const RecoveryResult a = plain.recover();
  const RecoveryResult b = compacted.recover();
  EXPECT_TRUE(b.snapshot_loaded);
  // Same ids on both sides (fresh id generators), so images must agree.
  EXPECT_EQ(a.image, b.image);
  EXPECT_EQ(b.image.terminal_units(), 20u);
  // And the compacted wal is much shorter than the full history.
  EXPECT_LT(read_journal(Journal::wal_path(dir_compact.path())).records.size(),
            read_journal(Journal::wal_path(dir_.path())).records.size());
}

TEST_F(RecoveryTest, ResumeOnLocalRuntimeWithWorkFactory) {
  // Journal a sim-side crash, then resume the plan on a LocalRuntime with
  // real payloads rebuilt by the work factory — recovery is runtime
  // agnostic.
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 4; ++i) {
      core::ComputeUnitDescription d = unit_desc(1000.0);
      d.name = "resumable-" + std::to_string(i);
      w.service->submit_unit(d);
    }
    w.engine.run_until(10.0);  // units running, then crash
    w.crash();
  }

  RecoveryCoordinator coordinator(dir_.path());
  const RecoveryResult result = coordinator.recover();
  ResumePlan plan = make_resume_plan(result.image);
  ASSERT_EQ(plan.units.size(), 4u);
  // The journaled pilot described simulated hardware; resume on local
  // cores instead (the plan's units carry everything else).
  plan.pilots.clear();

  rt::LocalRuntime local;
  core::PilotComputeService service(local, "backfill");
  core::PilotDescription local_pilot;
  local_pilot.resource_url = "local://host";
  local_pilot.nodes = 4;
  local_pilot.walltime = 1e9;
  service.submit_pilot(local_pilot);

  std::atomic<int> executed{0};
  const auto resumed = resume(
      service, plan, [&executed](const core::ComputeUnitDescription& d) {
        EXPECT_FALSE(d.name.empty());
        return [&executed]() { executed.fetch_add(1); };
      });
  EXPECT_EQ(resumed.size(), 4u);
  service.wait_all_units(60.0);
  EXPECT_EQ(executed.load(), 4);
  EXPECT_EQ(service.metrics().units_done, 4u);
}

TEST_F(RecoveryTest, RequeueBoundFailsPoisonUnit) {
  // Satellite: a unit whose pilots keep dying must eventually FAIL
  // instead of requeueing forever.
  // Registry declared before the World so it outlives service teardown.
  obs::MetricsRegistry metrics;
  World w(dir_.path());
  w.service->set_max_unit_requeues(3);
  w.service->attach_observability(nullptr, &metrics);

  auto unit = w.service->submit_unit(unit_desc(50.0));
  for (int round = 0; round < 5; ++round) {
    auto pilot = w.service->submit_pilot(pilot_desc(1));
    pilot.wait_active();
    w.engine.run_until(w.engine.now() + 5.0);
    if (core::is_final(unit.state())) {
      break;
    }
    pilot.cancel();
    w.engine.run_until(w.engine.now() + 1.0);
  }
  EXPECT_EQ(unit.state(), core::UnitState::kFailed);
  EXPECT_EQ(w.service->metrics().requeues, 3u);
  EXPECT_EQ(metrics.counter("pcs.units_failed_requeue_limit").value(), 1u);

  // The journal saw the full story: 3 requeues then a terminal FAILED.
  const ManagerImage image = w.journal->image();
  const auto& u = image.units().begin()->second;
  EXPECT_EQ(u.attempts, 3);
  EXPECT_EQ(u.state, core::UnitState::kFailed);
  EXPECT_EQ(u.terminal_count, 1);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Frames `records` the way journal format 1 did: IEEE CRC-32, no file
/// header.
std::string format_one_bytes(const std::vector<Record>& records) {
  std::string out;
  for (const Record& r : records) {
    const std::string payload = encode_payload(r);
    const auto length = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc =
        legacy_format::legacy_ieee_crc32(payload.data(), payload.size());
    out.append(reinterpret_cast<const char*>(&length), sizeof(length));
    out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.append(payload);
  }
  return out;
}

/// Runs recover() on `dir` and returns the pa::Error it must throw.
std::string recover_error(const std::string& dir) {
  RecoveryCoordinator coordinator(dir);
  try {
    coordinator.recover();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "recover() accepted a file in another format";
  return "";
}

TEST_F(RecoveryTest, FormatOneWalIsRefusedAndLeftByteIdentical) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    for (int i = 0; i < 4; ++i) {
      w.service->submit_unit(unit_desc(5.0));
    }
    w.service->wait_all_units();
  }
  const std::string wal = Journal::wal_path(dir_.path());
  const ReadResult current = read_journal(wal);
  ASSERT_GT(current.records.size(), 4u);
  const std::string old = format_one_bytes(current.records);
  write_bytes(wal, old);

  const std::string what = recover_error(dir_.path());
  EXPECT_NE(what.find("format version 1"), std::string::npos) << what;
  EXPECT_NE(what.find("format version 2"), std::string::npos) << what;
  // Refused, not truncated as a torn tail.
  EXPECT_EQ(read_bytes(wal), old);
  // A writer will not append to it either.
  EXPECT_THROW(Writer{wal}, Error);
  EXPECT_EQ(read_bytes(wal), old);
}

TEST_F(RecoveryTest, FormatOneSnapshotIsRefusedAndLeftByteIdentical) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    w.service->submit_unit(unit_desc(5.0));
    w.service->wait_all_units();
    w.journal->compact();
  }
  const std::string snapshot = Journal::snapshot_path(dir_.path());
  const std::string wal = Journal::wal_path(dir_.path());
  const ReadResult current = read_journal(snapshot);
  ASSERT_GT(current.records.size(), 1u);
  const std::string old = format_one_bytes(current.records);
  write_bytes(snapshot, old);
  const std::string wal_before = read_bytes(wal);

  const std::string what = recover_error(dir_.path());
  EXPECT_NE(what.find("format version 1"), std::string::npos) << what;
  EXPECT_NE(what.find("format version 2"), std::string::npos) << what;
  EXPECT_EQ(read_bytes(snapshot), old);
  EXPECT_EQ(read_bytes(wal), wal_before);
}

TEST_F(RecoveryTest, WalWithAnotherHeaderVersionIsRefused) {
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    w.service->submit_unit(unit_desc(5.0));
    w.service->wait_all_units();
  }
  const std::string wal = Journal::wal_path(dir_.path());
  std::string bytes = read_bytes(wal);
  const std::uint32_t future = kFormatVersion + 1;
  bytes.replace(sizeof(kFileMagic), sizeof(future),
                reinterpret_cast<const char*>(&future), sizeof(future));
  write_bytes(wal, bytes);

  const std::string what = recover_error(dir_.path());
  EXPECT_NE(what.find("format version " + std::to_string(future)),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("format version " + std::to_string(kFormatVersion)),
            std::string::npos)
      << what;
  EXPECT_EQ(read_bytes(wal), bytes);
}

TEST_F(RecoveryTest, WalShorterThanHeaderIsATornCreation) {
  const std::string wal = Journal::wal_path(dir_.path());
  std::string header;
  append_file_header(header);
  write_bytes(wal, header.substr(0, 5));

  RecoveryCoordinator coordinator(dir_.path());
  const RecoveryResult result = coordinator.recover();
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.truncated_bytes, 5u);
  EXPECT_EQ(result.records_replayed, 0u);
  EXPECT_EQ(read_bytes(wal), "");

  // A journal opened on it starts a fresh, well-formed wal.
  {
    World w(dir_.path());
    w.service->submit_pilot(pilot_desc());
    w.service->wait_all_units();
  }
  const ReadResult reread = read_journal(wal);
  EXPECT_FALSE(reread.torn);
  EXPECT_GT(reread.records.size(), 0u);
  EXPECT_EQ(read_bytes(wal).compare(0, header.size(), header), 0);
}

}  // namespace
}  // namespace pa::journal
