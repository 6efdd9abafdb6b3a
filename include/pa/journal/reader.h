#pragma once
/// \file reader.h
/// \brief Journal scan: parses the valid record prefix and locates the
/// torn tail a crashed writer may have left.
///
/// A frame is valid when its declared length fits in the remaining bytes,
/// its CRC matches, its payload decodes, and its sequence number strictly
/// increases. The first invalid frame ends the valid prefix; everything
/// from there on is the torn tail (a partial write, or garbage from a
/// block-device crash) and is reported — not silently skipped — so the
/// recovery coordinator can physically truncate it before new appends.

#include <cstdint>
#include <string>
#include <vector>

#include "pa/journal/record.h"

namespace pa::journal {

struct ReadResult {
  std::vector<Record> records;  ///< the valid prefix, in journal order
  std::uint64_t valid_bytes = 0;  ///< length of that prefix on disk
  std::uint64_t file_bytes = 0;   ///< total file size
  bool torn = false;  ///< trailing bytes exist that are not a valid frame

  std::uint64_t torn_bytes() const { return file_bytes - valid_bytes; }
};

/// Parses `path`. A missing file yields an empty, un-torn result (a new
/// journal), and a file shorter than the file header an empty, torn one.
/// An unreadable file, or one whose header names another format, throws
/// pa::Error. Offsets in the result count the header.
ReadResult read_journal(const std::string& path);

/// The frame scan over an in-memory buffer of frames that follows the
/// file header (tests, torn-tail analysis, the journal's image drain).
ReadResult scan(const char* data, std::size_t size);

/// Truncates `path` to `bytes` (drops a torn tail). Throws pa::Error when
/// the file cannot be opened or truncated.
void truncate_file(const std::string& path, std::uint64_t bytes);

/// Dumps every valid record of `path` as JSON lines to `out` (the `.jsonl`
/// debug form); returns the scan result.
ReadResult dump_jsonl(const std::string& path, std::ostream& out);

}  // namespace pa::journal
