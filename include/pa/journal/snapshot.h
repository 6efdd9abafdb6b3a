#pragma once
/// \file snapshot.h
/// \brief Compacted point-in-time images of the manager state.
///
/// A snapshot file reuses the wal's file header and frame format
/// (length | crc32c | payload, record.h) so the torn-tail scanner
/// validates it too: a header record carries the
/// wal sequence number the image covers, followed by one record per pilot
/// and unit. Snapshots are written atomically (tmp file + fsync + rename),
/// so a crash mid-snapshot leaves the previous snapshot intact; a crash
/// after the rename but before the wal truncation merely leaves stale wal
/// records, which recovery skips by sequence number.

#include <string>

#include "pa/journal/replayer.h"

namespace pa::journal {

class Snapshot {
 public:
  /// Atomically replaces `path` with a snapshot of `image`.
  static void write(const std::string& path, const ManagerImage& image);

  /// Loads `path` into `out`. Returns false (leaving `out` untouched) when
  /// the file is missing, torn, or structurally invalid — recovery then
  /// falls back to a full wal replay. Throws pa::Error when the file
  /// header names another format version: that file is not torn, and is
  /// left as it is.
  static bool load(const std::string& path, ManagerImage* out);
};

}  // namespace pa::journal
