#ifndef NLQ_STATS_SCORING_H_
#define NLQ_STATS_SCORING_H_

#include <string>

#include "common/status.h"
#include "udf/udf.h"

namespace nlq::stats {

/// Registers the scalar UDFs of Section 3.5 plus the packing helper:
///
///   pack_point(X1, ..., Xd) -> VARCHAR
///     Packs a point as "x1;x2;...;xd" — the per-row number-to-string
///     conversion cost of the string parameter-passing style.
///
///   linearregscore(X1..Xd, b0, b1..bd) -> DOUBLE
///     ŷ = β₀ + βᵀx (vector dot product; 2d+1 arguments).
///
///   fascore(X1..Xd, mu1..mud, l1j..ldj) -> DOUBLE
///     jth coordinate of the reduced vector Λⱼᵀ (x − μ); called k
///     times in one SELECT since UDFs cannot return vectors.
///
///   kmeansdistance(X1..Xd, c1j..cdj) -> DOUBLE
///     Squared Euclidean distance (x − Cⱼ)ᵀ(x − Cⱼ).
///
///   clusterscore(d1, ..., dk) -> BIGINT
///     Subscript J (1-based) of the minimum distance.
Status RegisterScoringUdfs(udf::UdfRegistry* registry);

/// Registers every stats UDF (aggregate nlq_* + scoring scalars).
Status RegisterAllStatsUdfs(udf::UdfRegistry* registry);

// ---------------------------------------------------------------------------
// Scoring query generation (Section 3.5). Each generator returns a
// bare SELECT that scores every row of `x_table` in one scan; callers
// materialize with "CREATE TABLE ... AS <select>" when the scored
// output should be written back. The *Sql variants evaluate the model
// equation with interpreted SQL arithmetic (the Table 4 comparison);
// the *Udf variants call the compiled scalar UDFs.
// ---------------------------------------------------------------------------

/// Model table layouts (see model_tables.h for writers):
///   BETA(b0, b1..bd)        — one row
///   MU(X1..Xd)              — one row
///   LAMBDA(j, X1..Xd)       — k rows, row j = component j
///   C(j, X1..Xd)            — k centroid rows
std::string LinRegScoreUdfQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column = "i");

std::string LinRegScoreSqlQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column = "i");

std::string PcaScoreUdfQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column = "i");

std::string PcaScoreSqlQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column = "i");

std::string KMeansScoreUdfQuery(const std::string& x_table,
                                const std::string& c_table, size_t d, size_t k,
                                const std::string& id_column = "i");

/// One K-means step in one scan (paper Section 4.2): each row's nearest
/// centroid by clusterscore(kmeansdistance(...), ...) groups the diagonal
/// n,L,Q of its cluster — `SELECT <score> AS j, nlq_list('diag', X..)
/// AS nlq ... GROUP BY <score>`, as WarehouseMiner::BuildKMeansInDbms
/// issues it.
std::string KMeansIterationQuery(const std::string& x_table,
                                 const std::string& c_table, size_t d,
                                 size_t k);

/// SQL clustering needs two scans (paper Table 4): first materialize
/// the k distances, then pick the argmin with a CASE expression.
std::string KMeansDistancesSqlQuery(const std::string& x_table,
                                    const std::string& c_table, size_t d,
                                    size_t k,
                                    const std::string& id_column = "i");
std::string KMeansAssignSqlQuery(const std::string& distances_table, size_t k,
                                 const std::string& id_column = "i");

}  // namespace nlq::stats

#endif  // NLQ_STATS_SCORING_H_
