#ifndef NLQ_REPOBENCH_CHECKS_H_
#define NLQ_REPOBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/result_set.h"
#include "storage/value.h"

namespace nlq::repobench {

/// Bit-exact comparison of a timed reply against its reference: shape,
/// types, NULLs and every datum, doubles by IEEE-754 bit pattern (the
/// soak oracle's rule). `what` names the reply in the error.
Status CheckReply(const engine::ResultSet& expected,
                  const engine::ResultSet& actual, const std::string& what);

/// Bit-exact comparison of two flattened models (coefficients,
/// matrices) by IEEE-754 bit pattern.
Status CheckDoubles(const std::vector<double>& expected,
                    const std::vector<double>& actual,
                    const std::string& what);

/// Row count plus an order-insensitive checksum over every datum's bits
/// (a scored output table is compared by this, whatever partition
/// order its rows were stored in).
struct RowsDigest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const RowsDigest& other) const {
    return rows == other.rows && checksum == other.checksum;
  }
};
RowsDigest DigestRows(const std::vector<storage::Row>& rows);

Status CheckDigest(const RowsDigest& expected, const RowsDigest& actual,
                   const std::string& what);

/// Order-sensitive 64-bit digest of a whole reply, used to compare a
/// repeat of a reply already verified in full.
uint64_t ReplyChecksum(const engine::ResultSet& rs);

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_CHECKS_H_
