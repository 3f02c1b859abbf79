#include "stats/miner.h"

#include <cmath>

#include "common/strings.h"
#include "stats/model_tables.h"
#include "stats/nlq_udaf.h"
#include "stats/naive_bayes.h"
#include "stats/scoring.h"

namespace nlq::stats {
StatusOr<SufStats> WarehouseMiner::ComputeSufStats(
    const std::string& table, const std::vector<std::string>& columns,
    MatrixKind kind, ComputeVia via) {
  switch (via) {
    case ComputeVia::kSql: {
      NLQ_ASSIGN_OR_RETURN(engine::ResultSet result,
                           db_->Execute(NlqSqlQuery(table, columns, kind)));
      return SufStatsFromWideRow(result, 0, columns.size(), kind);
    }
    case ComputeVia::kUdfList:
    case ComputeVia::kUdfString: {
      const ParamStyle style = via == ComputeVia::kUdfList
                                   ? ParamStyle::kList
                                   : ParamStyle::kString;
      NLQ_ASSIGN_OR_RETURN(
          engine::ResultSet result,
          db_->Execute(NlqUdfQuery(table, columns, kind, style)));
      return SufStatsFromUdfResult(result);
    }
    case ComputeVia::kBlocks:
      if (kind != MatrixKind::kFull) {
        return Status::InvalidArgument(
            "block computation assembles a full matrix; pass kFull");
      }
      return ComputeViaBlocks(table, columns);
  }
  return Status::Internal("unhandled ComputeVia");
}

StatusOr<SufStats> WarehouseMiner::ComputeViaBlocks(
    const std::string& table, const std::vector<std::string>& columns) {
  NLQ_ASSIGN_OR_RETURN(
      engine::ResultSet result,
      db_->Execute(NlqBlockQuery(table, columns, kMaxUdfDims)));
  return SufStatsFromBlockResults(result, columns.size());
}

StatusOr<std::map<int64_t, SufStats>> WarehouseMiner::ComputeGroupedSufStats(
    const std::string& table, const std::vector<std::string>& columns,
    MatrixKind kind, ComputeVia via, const std::string& group_expr) {
  std::string sql;
  switch (via) {
    case ComputeVia::kSql:
      sql = NlqSqlQueryGrouped(table, columns, kind, group_expr);
      break;
    case ComputeVia::kUdfList:
      sql = NlqUdfQueryGrouped(table, columns, kind, ParamStyle::kList,
                               group_expr);
      break;
    case ComputeVia::kUdfString:
      sql = NlqUdfQueryGrouped(table, columns, kind, ParamStyle::kString,
                               group_expr);
      break;
    case ComputeVia::kBlocks:
      return Status::NotSupported("grouped block computation not supported");
  }
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet result, db_->Execute(sql));

  std::map<int64_t, SufStats> groups;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    const storage::Datum& key = result.At(r, 0);
    if (key.is_null()) {
      return Status::InvalidArgument("NULL group key in grouped statistics");
    }
    const int64_t group = static_cast<int64_t>(key.AsDouble());
    if (via == ComputeVia::kSql) {
      NLQ_ASSIGN_OR_RETURN(
          SufStats stats,
          SufStatsFromWideRow(result, r, columns.size(), kind,
                              /*first_col=*/1));
      groups.emplace(group, std::move(stats));
    } else {
      NLQ_ASSIGN_OR_RETURN(SufStats stats,
                           SufStatsFromUdfResult(result, r, /*col=*/1));
      groups.emplace(group, std::move(stats));
    }
  }
  return groups;
}

StatusOr<linalg::Matrix> WarehouseMiner::BuildCorrelation(
    const std::string& table, size_t d, ComputeVia via) {
  const MatrixKind kind = via == ComputeVia::kBlocks
                              ? MatrixKind::kFull
                              : MatrixKind::kLowerTriangular;
  NLQ_ASSIGN_OR_RETURN(
      SufStats stats,
      ComputeSufStats(table, DimensionColumns(d), kind, via));
  return stats.CorrelationMatrix();
}

StatusOr<LinearRegressionModel> WarehouseMiner::BuildLinearRegression(
    const std::string& table, const std::vector<std::string>& x_columns,
    const std::string& y_column, ComputeVia via) {
  std::vector<std::string> columns = x_columns;
  columns.push_back(y_column);
  const MatrixKind kind = via == ComputeVia::kBlocks
                              ? MatrixKind::kFull
                              : MatrixKind::kLowerTriangular;
  NLQ_ASSIGN_OR_RETURN(SufStats stats,
                       ComputeSufStats(table, columns, kind, via));
  return FitLinearRegression(stats);
}

StatusOr<PcaModel> WarehouseMiner::BuildPca(const std::string& table, size_t d,
                                            size_t k, ComputeVia via,
                                            PcaInput input) {
  const MatrixKind kind = via == ComputeVia::kBlocks
                              ? MatrixKind::kFull
                              : MatrixKind::kLowerTriangular;
  NLQ_ASSIGN_OR_RETURN(
      SufStats stats,
      ComputeSufStats(table, DimensionColumns(d), kind, via));
  return FitPca(stats, k, input);
}

StatusOr<KMeansModel> WarehouseMiner::BuildKMeansInDbms(
    const std::string& table, size_t d, const KMeansOptions& options) {
  const size_t k = options.k;
  if (k == 0) return Status::InvalidArgument("K-means needs k >= 1");

  // Seed centroids by sampling k spread-out rows via the id column.
  NLQ_ASSIGN_OR_RETURN(double n_rows,
                       db_->QueryDouble("SELECT count(*) FROM " + table));
  if (n_rows < static_cast<double>(k)) {
    return Status::InvalidArgument("fewer rows than clusters");
  }
  const int64_t step =
      std::max<int64_t>(1, static_cast<int64_t>(n_rows) / static_cast<int64_t>(k));
  std::string seed_sql = "SELECT ";
  for (size_t a = 1; a <= d; ++a) {
    if (a > 1) seed_sql += ", ";
    seed_sql += StringPrintf("X%zu", a);
  }
  seed_sql += " FROM " + table +
              StringPrintf(" WHERE i %% %lld = 0 ORDER BY X1 LIMIT %zu",
                           static_cast<long long>(step), k);
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet seeds, db_->Execute(seed_sql));
  if (seeds.num_rows() < k) {
    return Status::Internal("could not sample enough seed centroids");
  }

  KMeansModel model;
  model.d = d;
  model.k = k;
  model.centroids = linalg::Matrix(k, d);
  model.radii = linalg::Matrix(k, d);
  model.weights.assign(k, 0.0);
  model.counts.assign(k, 0.0);
  for (size_t j = 0; j < k; ++j) {
    for (size_t a = 0; a < d; ++a) {
      model.centroids(j, a) = seeds.GetDouble(j, a);
    }
  }

  const std::string c_table = table + "_KMC";
  const std::string r_table = table + "_KMR";
  const std::string w_table = table + "_KMW";

  // Per-iteration single-scan GROUP BY query (paper Section 4.2,
  // "this query can be used to compute k clusters if the nearest
  // centroid is available").
  const std::string iter_sql = KMeansIterationQuery(table, c_table, d, k);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    NLQ_RETURN_IF_ERROR(
        StoreClusterTables(db_, c_table, r_table, w_table, model));
    NLQ_ASSIGN_OR_RETURN(engine::ResultSet result, db_->Execute(iter_sql));

    linalg::Matrix old_centroids = model.centroids;
    double total_n = 0.0;
    std::vector<SufStats> per_cluster(k, SufStats(d, MatrixKind::kDiagonal));
    std::vector<bool> seen(k, false);
    for (size_t r = 0; r < result.num_rows(); ++r) {
      const int64_t j = static_cast<int64_t>(result.At(r, 0).AsDouble());
      if (j < 1 || j > static_cast<int64_t>(k)) {
        return Status::Internal("clusterscore returned an invalid index");
      }
      NLQ_ASSIGN_OR_RETURN(SufStats stats,
                           SufStatsFromUdfResult(result, r, /*col=*/1));
      total_n += stats.n();
      per_cluster[static_cast<size_t>(j - 1)] = std::move(stats);
      seen[static_cast<size_t>(j - 1)] = true;
    }
    for (size_t j = 0; j < k; ++j) {
      if (!seen[j]) continue;  // empty cluster keeps its centroid
      NLQ_RETURN_IF_ERROR(
          UpdateClusterFromStats(per_cluster[j], total_n, j, &model));
    }

    double max_move = 0.0;
    for (size_t j = 0; j < k; ++j) {
      double move = 0.0;
      for (size_t a = 0; a < d; ++a) {
        const double diff = model.centroids(j, a) - old_centroids(j, a);
        move += diff * diff;
      }
      max_move = std::max(max_move, std::sqrt(move));
    }
    if (max_move < options.tolerance) break;
  }

  // Refresh the persisted model tables with the final state.
  NLQ_RETURN_IF_ERROR(
      StoreClusterTables(db_, c_table, r_table, w_table, model));
  return model;
}


StatusOr<GaussianMixtureModel> WarehouseMiner::BuildGaussianMixtureInDbms(
    const std::string& table, size_t d, const EmOptions& options) {
  const size_t k = options.k;
  if (k == 0) return Status::InvalidArgument("EM needs k >= 1");

  // Initialize from a short in-DBMS K-means run.
  KMeansOptions km;
  km.k = k;
  km.max_iterations = 2;
  NLQ_ASSIGN_OR_RETURN(KMeansModel seed, BuildKMeansInDbms(table, d, km));
  GaussianMixtureModel model = MixtureFromKMeans(seed, options.min_variance);
  for (size_t j = 0; j < k; ++j) {
    for (size_t a = 0; a < d; ++a) {
      if (model.variances(j, a) <= options.min_variance) {
        model.variances(j, a) = 1.0;
      }
    }
  }

  const std::string nb_table = table + "_EMP";  // (j, prior, M.., V..)

  // Per-iteration single-scan query: assignment by minimum
  // gaussnll - ln(prior), grouped diagonal statistics per component.
  std::string assign_expr = "clusterscore(";
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) assign_expr += ", ";
    assign_expr += "gaussnll(";
    for (size_t a = 1; a <= d; ++a) {
      if (a > 1) assign_expr += ", ";
      assign_expr += StringPrintf("%s.X%zu", table.c_str(), a);
    }
    for (size_t a = 1; a <= d; ++a) {
      assign_expr += StringPrintf(", N%zu.M%zu", j, a);
    }
    for (size_t a = 1; a <= d; ++a) {
      assign_expr += StringPrintf(", N%zu.V%zu", j, a);
    }
    assign_expr += StringPrintf(") - ln(N%zu.prior)", j);
  }
  assign_expr += ")";

  std::string iter_sql = "SELECT " + assign_expr + " AS j, nlq_list('diag'";
  for (size_t a = 1; a <= d; ++a) {
    iter_sql += StringPrintf(", %s.X%zu", table.c_str(), a);
  }
  iter_sql += ") AS nlq FROM " + table;
  for (size_t j = 1; j <= k; ++j) {
    iter_sql += StringPrintf(", %s N%zu", nb_table.c_str(), j);
  }
  iter_sql += " WHERE ";
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) iter_sql += " AND ";
    iter_sql += StringPrintf("N%zu.j = %zu", j, j);
  }
  iter_sql += " GROUP BY " + assign_expr;

  auto store_params = [&]() -> Status {
    NaiveBayesModel params;
    params.d = d;
    params.k = k;
    params.priors = model.weights;
    params.means = model.means;
    params.variances = model.variances;
    for (size_t j = 0; j < k; ++j) {
      params.class_labels.push_back(static_cast<int64_t>(j + 1));
      // Dead components would make ln(prior) blow up; floor them.
      params.priors[j] = std::max(params.priors[j], 1e-6);
    }
    return StoreNaiveBayesTable(db_, nb_table, params);
  };

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    NLQ_RETURN_IF_ERROR(store_params());
    NLQ_ASSIGN_OR_RETURN(engine::ResultSet result, db_->Execute(iter_sql));

    linalg::Matrix old_means = model.means;
    double total_n = 0.0;
    std::vector<SufStats> per_component(k,
                                        SufStats(d, MatrixKind::kDiagonal));
    std::vector<bool> seen(k, false);
    for (size_t r = 0; r < result.num_rows(); ++r) {
      const int64_t j = static_cast<int64_t>(result.At(r, 0).AsDouble());
      if (j < 1 || j > static_cast<int64_t>(k)) {
        return Status::Internal("EM assignment returned an invalid index");
      }
      NLQ_ASSIGN_OR_RETURN(SufStats stats,
                           SufStatsFromUdfResult(result, r, /*col=*/1));
      total_n += stats.n();
      per_component[static_cast<size_t>(j - 1)] = std::move(stats);
      seen[static_cast<size_t>(j - 1)] = true;
    }
    for (size_t j = 0; j < k; ++j) {
      if (!seen[j] || per_component[j].n() <= 0.0) {
        model.weights[j] = 0.0;
        continue;  // dead component keeps its parameters
      }
      const double nj = per_component[j].n();
      model.weights[j] = total_n > 0.0 ? nj / total_n : 0.0;
      for (size_t a = 0; a < d; ++a) {
        const double mean = per_component[j].L(a) / nj;
        model.means(j, a) = mean;
        model.variances(j, a) =
            std::max(options.min_variance,
                     per_component[j].Q(a, a) / nj - mean * mean);
      }
    }
    model.iterations_run = iter + 1;

    double max_move = 0.0;
    for (size_t j = 0; j < k; ++j) {
      double move = 0.0;
      for (size_t a = 0; a < d; ++a) {
        const double diff = model.means(j, a) - old_means(j, a);
        move += diff * diff;
      }
      max_move = std::max(max_move, std::sqrt(move));
    }
    if (max_move < options.tolerance) break;
  }
  NLQ_RETURN_IF_ERROR(store_params());
  return model;
}

Status WarehouseMiner::ScoreLinearRegression(
    const std::string& x_table, const LinearRegressionModel& model,
    const std::string& out_table, bool use_udf) {
  const std::string beta_table = x_table + "_BETA";
  NLQ_RETURN_IF_ERROR(StoreBetaTable(db_, beta_table, model));
  NLQ_RETURN_IF_ERROR(DropTableIfExists(db_, out_table));
  const std::string select =
      use_udf ? LinRegScoreUdfQuery(x_table, beta_table, model.d)
              : LinRegScoreSqlQuery(x_table, beta_table, model.d);
  return db_->ExecuteCommand("CREATE TABLE " + out_table + " AS " + select);
}

Status WarehouseMiner::ScorePca(const std::string& x_table,
                                const PcaModel& model,
                                const std::string& out_table, bool use_udf) {
  const std::string mu_table = x_table + "_MU";
  const std::string lambda_table = x_table + "_LAMBDA";
  NLQ_RETURN_IF_ERROR(StorePcaTables(db_, mu_table, lambda_table, model));
  NLQ_RETURN_IF_ERROR(DropTableIfExists(db_, out_table));
  const std::string select =
      use_udf
          ? PcaScoreUdfQuery(x_table, mu_table, lambda_table, model.d, model.k)
          : PcaScoreSqlQuery(x_table, mu_table, lambda_table, model.d,
                             model.k);
  return db_->ExecuteCommand("CREATE TABLE " + out_table + " AS " + select);
}

Status WarehouseMiner::ScoreKMeans(const std::string& x_table,
                                   const KMeansModel& model,
                                   const std::string& out_table,
                                   bool use_udf) {
  const std::string c_table = x_table + "_C";
  const std::string r_table = x_table + "_R";
  const std::string w_table = x_table + "_W";
  NLQ_RETURN_IF_ERROR(
      StoreClusterTables(db_, c_table, r_table, w_table, model));
  NLQ_RETURN_IF_ERROR(DropTableIfExists(db_, out_table));
  if (use_udf) {
    // Single scan: distances and argmin in one statement.
    return db_->ExecuteCommand(
        "CREATE TABLE " + out_table + " AS " +
        KMeansScoreUdfQuery(x_table, c_table, model.d, model.k));
  }
  // SQL needs two scans: materialize distances, then CASE-pick argmin.
  const std::string dist_table = out_table + "_DIST";
  NLQ_RETURN_IF_ERROR(DropTableIfExists(db_, dist_table));
  NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(
      "CREATE TABLE " + dist_table + " AS " +
      KMeansDistancesSqlQuery(x_table, c_table, model.d, model.k)));
  return db_->ExecuteCommand("CREATE TABLE " + out_table + " AS " +
                             KMeansAssignSqlQuery(dist_table, model.k));
}

}  // namespace nlq::stats
