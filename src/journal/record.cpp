#include "pa/journal/record.h"

#include <cstring>

#include "pa/common/checksum.h"
#include "pa/common/error.h"
#include "pa/obs/export.h"

namespace pa::journal {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over a payload buffer.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) {
      throw Error("journal record truncated mid-payload");
    }
  }
  template <typename T>
  T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  std::string take_string() {
    const auto n = take<std::uint32_t>();
    need(n);
    std::string s(data + pos, n);
    pos += n;
    return s;
  }
};

}  // namespace

const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::kPilotSubmit:
      return "pilot_submit";
    case RecordType::kPilotState:
      return "pilot_state";
    case RecordType::kUnitSubmit:
      return "unit_submit";
    case RecordType::kUnitBind:
      return "unit_bind";
    case RecordType::kUnitState:
      return "unit_state";
    case RecordType::kUnitRequeue:
      return "unit_requeue";
    case RecordType::kDataPlacement:
      return "data_placement";
    case RecordType::kSnapshotHeader:
      return "snapshot_header";
    case RecordType::kSnapshotPilot:
      return "snapshot_pilot";
    case RecordType::kSnapshotUnit:
      return "snapshot_unit";
  }
  return "unknown";
}

std::string encode_payload(const Record& record) {
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(record.type));
  put_u64(out, record.seq);
  put_f64(out, record.time);
  put_string(out, record.entity);
  put_u32(out, static_cast<std::uint32_t>(record.fields.size()));
  for (const auto& [key, value] : record.fields) {
    put_string(out, key);
    put_string(out, value);
  }
  return out;
}

Record decode_payload(const char* data, std::size_t size) {
  Cursor c{data, size};
  Record r;
  const auto type = c.take<std::uint16_t>();
  if (type < static_cast<std::uint16_t>(RecordType::kPilotSubmit) ||
      type > static_cast<std::uint16_t>(RecordType::kSnapshotUnit)) {
    throw Error("journal record has unknown type " + std::to_string(type));
  }
  r.type = static_cast<RecordType>(type);
  r.seq = c.take<std::uint64_t>();
  r.time = c.take<double>();
  r.entity = c.take_string();
  const auto n_fields = c.take<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_fields; ++i) {
    std::string key = c.take_string();
    std::string value = c.take_string();
    r.fields.emplace(std::move(key), std::move(value));
  }
  if (c.pos != size) {
    throw Error("journal record has trailing bytes");
  }
  return r;
}

void append_file_header(std::string& out) {
  out.append(reinterpret_cast<const char*>(&kFileMagic), sizeof(kFileMagic));
  out.append(reinterpret_cast<const char*>(&kFormatVersion),
             sizeof(kFormatVersion));
}

void check_file_header(const char* header, const std::string& path) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&version, header + sizeof(magic), sizeof(version));
  if (magic != kFileMagic) {
    throw Error("journal file " + path +
                " has no format header (format version 1, or not a journal);"
                " this build reads only format version " +
                std::to_string(kFormatVersion));
  }
  if (version != kFormatVersion) {
    throw Error("journal file " + path + " has format version " +
                std::to_string(version) +
                "; this build reads only format version " +
                std::to_string(kFormatVersion));
  }
}

void append_frame(std::string& out, const Record& record) {
  const std::string payload = encode_payload(record);
  PA_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
               "journal record payload too large: " << payload.size());
  std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = crc32c(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.append(payload);
}

void write_jsonl(std::ostream& out, const Record& record) {
  out << "{\"type\":" << obs::json_quote(to_string(record.type))
      << ",\"seq\":" << record.seq << ",\"time\":" << record.time
      << ",\"entity\":" << obs::json_quote(record.entity) << ",\"fields\":{";
  bool first = true;
  for (const auto& [key, value] : record.fields) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << obs::json_quote(key) << ":" << obs::json_quote(value);
  }
  out << "}}\n";
}

}  // namespace pa::journal
