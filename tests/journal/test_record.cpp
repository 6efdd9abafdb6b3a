#include "pa/journal/record.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pa/common/checksum.h"
#include "pa/common/error.h"
#include "pa/journal/reader.h"

namespace pa::journal {
namespace {

Record sample_record() {
  Record r;
  r.type = RecordType::kUnitSubmit;
  r.seq = 42;
  r.time = 1234.5678;
  r.entity = "unit-7";
  r.fields = {{"cores", "4"}, {"duration", "10.5"}, {"name", "stage-a"}};
  return r;
}

TEST(JournalRecord, PayloadRoundTrip) {
  const Record r = sample_record();
  const std::string payload = encode_payload(r);
  const Record back = decode_payload(payload.data(), payload.size());
  EXPECT_EQ(back, r);
}

TEST(JournalRecord, RoundTripsArbitraryBytes) {
  // Ids and field values must survive every byte: NUL, newlines, the k=v
  // separators the Config layer uses, and high bytes.
  Record r;
  r.type = RecordType::kDataPlacement;
  r.seq = 1;
  r.time = -0.0;
  r.entity = std::string("du\0\n=,|\xff\x01", 8);
  r.fields[std::string("k\0ey", 4)] = std::string("v\nal=ue,\0", 9);
  r.fields[""] = "";  // empty key and value are legal
  const std::string payload = encode_payload(r);
  EXPECT_EQ(decode_payload(payload.data(), payload.size()), r);
}

TEST(JournalRecord, RoundTripsExtremeDoubles) {
  for (const double t : {0.0, -1.5e-300, 1.7976931348623157e308,
                         4.9406564584124654e-324, 123456789.123456789}) {
    Record r = sample_record();
    r.time = t;
    const std::string payload = encode_payload(r);
    EXPECT_EQ(decode_payload(payload.data(), payload.size()).time, t);
  }
}

TEST(JournalRecord, DecodeRejectsTruncation) {
  const std::string payload = encode_payload(sample_record());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_THROW(decode_payload(payload.data(), n), pa::Error)
        << "decode accepted a " << n << "-byte prefix";
  }
}

TEST(JournalRecord, DecodeRejectsTrailingGarbage) {
  std::string payload = encode_payload(sample_record());
  payload += '\0';
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), pa::Error);
}

TEST(JournalRecord, DecodeRejectsUnknownType) {
  Record r = sample_record();
  std::string payload = encode_payload(r);
  // Type is serialized first as u16; stamp an out-of-range value.
  payload[0] = static_cast<char>(0xEE);
  payload[1] = static_cast<char>(0xEE);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), pa::Error);
}

TEST(JournalRecord, FrameScanRoundTrip) {
  std::string bytes;
  std::vector<Record> written;
  for (int i = 0; i < 10; ++i) {
    Record r = sample_record();
    r.seq = static_cast<std::uint64_t>(i + 1);
    r.entity = "unit-" + std::to_string(i);
    written.push_back(r);
    append_frame(bytes, r);
  }
  const ReadResult result = scan(bytes.data(), bytes.size());
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  EXPECT_EQ(result.records, written);
}

TEST(JournalRecord, ScanStopsAtNonMonotonicSeq) {
  std::string bytes;
  Record r = sample_record();
  r.seq = 5;
  append_frame(bytes, r);
  append_frame(bytes, r);  // same seq again: stale bytes, not a valid frame
  const ReadResult result = scan(bytes.data(), bytes.size());
  EXPECT_TRUE(result.torn);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].seq, 5u);
}

TEST(JournalRecord, Crc32MatchesKnownVectors) {
  // CRC-32C (Castagnoli) check values: records are checksummed with it.
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("a", 1), 0xC1D04330u);
}

TEST(JournalRecord, JsonlEscapesAndLabels) {
  Record r = sample_record();
  r.entity = "unit \"7\"\n";
  std::ostringstream out;
  write_jsonl(out, r);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"unit_submit\""), std::string::npos);
  EXPECT_NE(line.find("\\\"7\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // Exactly one line per record.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(JournalRecord, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(RecordType::kPilotSubmit), "pilot_submit");
  EXPECT_STREQ(to_string(RecordType::kUnitRequeue), "unit_requeue");
  EXPECT_STREQ(to_string(RecordType::kSnapshotHeader), "snapshot_header");
}

}  // namespace
}  // namespace pa::journal
