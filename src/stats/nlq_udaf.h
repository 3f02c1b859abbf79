#ifndef NLQ_STATS_NLQ_UDAF_H_
#define NLQ_STATS_NLQ_UDAF_H_

#include <cstddef>

#include "common/status.h"
#include "stats/nlq_kernel.h"
#include "stats/sufstats.h"
#include "udf/udf.h"

namespace nlq::stats {

/// NULL policy (paper Section 2.1 complete-data assumption): a row
/// with a NULL in any dimension argument is skipped by every nlq UDF —
/// it contributes to none of n, L, Q, min or max. The columnar
/// aggregate implements the same policy by compacting NULL rows away
/// before the fused kernel (see engine/exec/aggregate_state.h).
/// kMaxUdfDims and the shared accumulation state live in
/// stats/nlq_kernel.h.
///
/// Registers the three aggregate UDFs with `registry`:
///
///   nlq_list('diag'|'triang'|'full', X1, ..., Xd) -> VARCHAR
///     List parameter-passing style: each dimension is a separate
///     parameter. Returns SufStats::ToPackedString().
///
///   nlq_string('diag'|'triang'|'full', packed_point) -> VARCHAR
///     String parameter-passing style: the point is packed as
///     "x1;x2;...;xd" (see udf::PackDoubles) and parsed per row —
///     the overhead the paper measures in Figure 3.
///
///   nlq_block(a_lo, a_hi, b_lo, b_hi, X_alo..X_ahi, X_blo..X_bhi)
///     -> VARCHAR
///     Computes the L range [a_lo, a_hi] and the full Q block
///     [a_lo..a_hi] x [b_lo..b_hi] (1-based, inclusive), so data sets
///     with d > kMaxUdfDims are covered by several calls in one scan
///     (paper Table 6). Decode with ParseNlqBlock /
///     MergeBlockIntoSufStats.
Status RegisterNlqUdfs(udf::UdfRegistry* registry);

/// A decoded nlq_block result.
struct NlqBlock {
  size_t a_lo = 0, a_hi = 0;  // 1-based inclusive row range
  size_t b_lo = 0, b_hi = 0;  // 1-based inclusive column range
  double n = 0.0;
  std::vector<double> l;  // a_hi - a_lo + 1 values
  std::vector<double> q;  // row-major (a range) x (b range)
};

/// Parses the packed value returned by nlq_block.
StatusOr<NlqBlock> ParseNlqBlock(std::string_view packed);

/// Folds one block into a full-kind SufStats of matching d: Q entries
/// always, L and n only from diagonal blocks (a range == b range) so
/// nothing is double-counted.
Status MergeBlockIntoSufStats(const NlqBlock& block, SufStats* stats);

}  // namespace nlq::stats

#endif  // NLQ_STATS_NLQ_UDAF_H_
