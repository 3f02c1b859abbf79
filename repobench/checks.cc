#include "checks.h"

#include <cstring>

#include "bench/soak/soak.h"
#include "common/strings.h"

namespace nlq::repobench {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// FNV-1a over 8-byte words, finished with a splitmix64 avalanche so
/// that summing row hashes stays collision-resistant.
uint64_t HashWord(uint64_t h, uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Finish(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashDatum(uint64_t h, const storage::Datum& d) {
  h = HashWord(h, static_cast<uint64_t>(d.type()) * 2 + (d.is_null() ? 1 : 0));
  if (d.is_null()) return h;
  switch (d.type()) {
    case storage::DataType::kInt64:
      return HashWord(h, static_cast<uint64_t>(d.int_value()));
    case storage::DataType::kDouble:
      return HashWord(h, Bits(d.double_value()));
    case storage::DataType::kVarchar:
      for (const char c : d.string_value()) {
        h = HashWord(h, static_cast<unsigned char>(c));
      }
      return HashWord(h, d.string_value().size());
  }
  return h;
}

uint64_t HashRow(const storage::Row& row) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const storage::Datum& d : row) h = HashDatum(h, d);
  return Finish(h);
}

}  // namespace

Status CheckReply(const engine::ResultSet& expected,
                  const engine::ResultSet& actual, const std::string& what) {
  Status same = soak::ExpectBitIdentical(expected, actual);
  if (same.ok()) return same;
  return Status::Internal(what + ": reply differs from reference: " +
                          same.message());
}

Status CheckDoubles(const std::vector<double>& expected,
                    const std::vector<double>& actual,
                    const std::string& what) {
  if (expected.size() != actual.size()) {
    return Status::Internal(StringPrintf("%s: %zu values, expected %zu",
                                         what.c_str(), actual.size(),
                                         expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (Bits(expected[i]) != Bits(actual[i])) {
      return Status::Internal(StringPrintf(
          "%s: value %zu is %.17g, expected %.17g", what.c_str(), i,
          actual[i], expected[i]));
    }
  }
  return Status::OK();
}

RowsDigest DigestRows(const std::vector<storage::Row>& rows) {
  RowsDigest digest;
  digest.rows = rows.size();
  for (const storage::Row& row : rows) digest.checksum += HashRow(row);
  return digest;
}

Status CheckDigest(const RowsDigest& expected, const RowsDigest& actual,
                   const std::string& what) {
  if (expected == actual) return Status::OK();
  return Status::Internal(StringPrintf(
      "%s: %llu rows with checksum %016llx, expected %llu rows with "
      "checksum %016llx",
      what.c_str(), static_cast<unsigned long long>(actual.rows),
      static_cast<unsigned long long>(actual.checksum),
      static_cast<unsigned long long>(expected.rows),
      static_cast<unsigned long long>(expected.checksum)));
}

uint64_t ReplyChecksum(const engine::ResultSet& rs) {
  uint64_t h = HashWord(0xcbf29ce484222325ull, rs.num_columns());
  for (const storage::Row& row : rs.rows()) h = HashWord(h, HashRow(row));
  return Finish(h);
}

}  // namespace nlq::repobench
