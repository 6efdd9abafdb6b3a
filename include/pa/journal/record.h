#pragma once
/// \file record.h
/// \brief The journal's on-disk vocabulary: one typed, CRC-checked record
/// per validated state-machine transition or scheduler decision.
///
/// Framing (little-endian, native byte order — the journal is a local
/// write-ahead log, not a wire format):
///
///     u32 payload_length | u32 crc32c(payload) | payload bytes
///
/// Every wal and snapshot file starts with an 8-byte file header,
///
///     u32 kFileMagic ("PAJL") | u32 kFormatVersion
///
/// so a file written in another format is refused by name instead of being
/// mistaken for a torn tail and truncated away. Format 1 files (IEEE CRC-32
/// frames, no header) predate it; format 2 is CRC-32C frames behind the
/// header. A file shorter than the header is a crash during creation and
/// holds no records.
///
/// The payload serializes {type, seq, time, entity, fields} with
/// length-prefixed strings, so ids and attribute values may contain any
/// byte (commas, '=', newlines, NUL). A reader that finds a frame whose
/// length runs past EOF, whose CRC mismatches, or whose payload does not
/// decode has found the torn tail of a crashed writer — everything before
/// it is valid by construction (see reader.h).

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace pa::journal {

/// What happened. Values are stable on-disk identifiers — append only.
enum class RecordType : std::uint16_t {
  kPilotSubmit = 1,     ///< pilot described + submitted (fields = description)
  kPilotState = 2,      ///< pilot state-machine transition
  kUnitSubmit = 3,      ///< unit described + accepted (fields = description)
  kUnitBind = 4,        ///< scheduler decision: unit bound to a pilot
  kUnitState = 5,       ///< unit state-machine transition
  kUnitRequeue = 6,     ///< in-flight unit reset to PENDING (pilot loss)
  kDataPlacement = 7,   ///< data unit (replica) registered at a site
  kSnapshotHeader = 8,  ///< snapshot files only: {last_seq, counts}
  kSnapshotPilot = 9,   ///< snapshot files only: one pilot image
  kSnapshotUnit = 10,   ///< snapshot files only: one unit image
};

const char* to_string(RecordType t);

/// One journal entry. `seq` is assigned by the writer (strictly
/// monotonically increasing within a journal); `time` is the emitting
/// runtime's clock (simulated seconds on SimRuntime, wall on LocalRuntime).
struct Record {
  RecordType type = RecordType::kPilotSubmit;
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string entity;  ///< pilot / unit / data-unit id
  std::map<std::string, std::string> fields;

  bool operator==(const Record& other) const = default;
};

/// Serializes the record body (no frame header).
std::string encode_payload(const Record& record);

/// Parses a record body; throws pa::Error on malformed input.
Record decode_payload(const char* data, std::size_t size);

/// "PAJL" read as a little-endian u32.
inline constexpr std::uint32_t kFileMagic = 0x4C4A4150;

/// The one on-disk format this build reads and writes; no legacy reader.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Bytes of the `magic | version` file header.
inline constexpr std::size_t kFileHeaderBytes = 8;

/// Appends the file header to `out`.
void append_file_header(std::string& out);

/// Checks the kFileHeaderBytes at `header`; throws pa::Error naming the
/// file's format and kFormatVersion when they differ. `path` names the
/// file in the message.
void check_file_header(const char* header, const std::string& path);

/// Bytes of the `length | crc` frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a sane payload; larger lengths mark a corrupt frame.
inline constexpr std::uint32_t kMaxPayloadBytes = 16U * 1024U * 1024U;

/// Appends `length | crc | payload` for `record` to `out`.
void append_frame(std::string& out, const Record& record);

/// Writes the record as one line of JSON (debug / analysis export; the
/// conventional dump extension is `.jsonl`, one record per line).
void write_jsonl(std::ostream& out, const Record& record);

}  // namespace pa::journal
