// Ablation (DESIGN.md #5): where does the aggregate-UDF scan time go?
// The same (n, L, Q) computation is run at three altitudes:
//   raw    — tight loop over a contiguous double array (pure flops,
//            the lower bound the paper's "UDFs exploit C's speed"
//            refers to);
//   rows   — SufStats::Update over materialized Datum rows (adds the
//            value-model cost);
//   batched — SufStats::Update over the storage layer's batch scan
//            (chunk columns boxed into reused 1024-row RowBatches, no
//            expression evaluation) — the raw cost of the morsel
//            scan feeding the operator pipeline;
//   columnar — the fused N,L,Q span kernel over the chunk cursor
//            (spans read in place from the column chunks, no Datum
//            boxing) — what the engine's columnar fast path runs
//            per partition;
//   interpreted — the wide 1+d+|Q| SUM-of-products SQL query with the
//            expression bytecode disabled (force_interpreted): every
//            sum(Xa*Xb) argument walks the BoundExpr tree per row —
//            the paper's "SQL arithmetic expressions are interpreted
//            at run-time";
//   compiled — the same wide SQL query on the default path: arguments
//            compiled to register bytecode and evaluated over column
//            spans by VectorHashAggregate (engine/exec/bytecode.h);
//   engine — the full nlq_list query (the planner's columnar fast
//            path: chunk scan + fused kernel + partitioned execution +
//            merge).
//
// The gap between `raw` and `engine` is the DBMS tax the paper's
// Figure 5 calls the I/O bottleneck ("no matter how much we optimize
// the aggregation step, I/O will remain a bottleneck").

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "stats/nlq_kernel.h"
#include "stats/sqlgen.h"
#include "storage/partitioned_table.h"

namespace {

using namespace nlq;
constexpr size_t kDims[] = {8, 32, 64};

void BM_RawArray(benchmark::State& state) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  gen::MixtureOptions options;
  options.n = rows;
  options.d = d;
  std::vector<double> flat;
  flat.reserve(rows * d);
  for (const auto& p : gen::GeneratePoints(options)) {
    flat.insert(flat.end(), p.begin(), p.end());
  }
  for (auto _ : state) {
    stats::SufStats suf(d, stats::MatrixKind::kLowerTriangular);
    for (uint64_t r = 0; r < rows; ++r) suf.Update(&flat[r * d]);
    benchmark::DoNotOptimize(suf);
  }
}

void BM_DatumRows(benchmark::State& state) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, d);
  auto table = db->catalog().GetTable("X");
  auto all_rows = (*table)->ReadAllRows();
  if (!all_rows.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::vector<double> x(d);
  for (auto _ : state) {
    stats::SufStats suf(d, stats::MatrixKind::kLowerTriangular);
    for (const auto& row : *all_rows) {
      for (size_t a = 0; a < d; ++a) x[a] = row[1 + a].AsDouble();
      suf.Update(x.data());
    }
    benchmark::DoNotOptimize(suf);
  }
}

void BM_BatchedScan(benchmark::State& state) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, d);
  auto table = db->catalog().GetTable("X");
  if (!table.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::vector<double> x(d);
  for (auto _ : state) {
    stats::SufStats suf(d, stats::MatrixKind::kLowerTriangular);
    for (size_t p = 0; p < (*table)->num_partitions(); ++p) {
      storage::BatchScanner scanner = (*table)->ScanPartitionBatches(p);
      storage::RowBatch batch;
      while (scanner.Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const storage::Row& row = batch.row(i);
          for (size_t a = 0; a < d; ++a) x[a] = row[1 + a].AsDouble();
          suf.Update(x.data());
        }
      }
      bench::Require(scanner.status(), state);
    }
    benchmark::DoNotOptimize(suf);
  }
}

void BM_ColumnarScan(benchmark::State& state) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, d);
  auto table = db->catalog().GetTable("X");
  if (!table.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::vector<size_t> slots(d);
  for (size_t a = 0; a < d; ++a) slots[a] = 1 + a;
  std::vector<const double*> spans(d);
  for (auto _ : state) {
    stats::NlqState nlq;
    stats::ResetNlqState(&nlq);
    bench::Require(
        stats::SetNlqShape(&nlq, d, stats::MatrixKind::kLowerTriangular),
        state);
    for (size_t p = 0; p < (*table)->num_partitions(); ++p) {
      const storage::Table& part = (*table)->partition(p);
      storage::ChunkCursor cursor(&part, slots, 0, part.num_rows());
      while (cursor.Next(storage::kChunkRows)) {
        for (size_t a = 0; a < d; ++a) {
          spans[a] = cursor.column(a).double_data() + cursor.offset();
        }
        stats::NlqAccumulateSpans(&nlq, spans.data(), cursor.rows());
      }
      bench::Require(cursor.status(), state);
    }
    benchmark::DoNotOptimize(nlq);
  }
}

// Shared body for the interpreted/compiled altitudes: the wide
// 1 + d + |Q| SUM-of-products query through the full engine, with the
// expression bytecode forced off or left on. One untimed warmup run
// pays compilation so the timed delta is expression evaluation itself.
void RunWideSqlAltitude(benchmark::State& state, bool force_interpreted) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, d);
  const std::string sql = stats::NlqSqlQuery("X", stats::DimensionColumns(d),
                                             stats::MatrixKind::kLowerTriangular);
  engine::QueryOptions qopts;
  qopts.force_interpreted = force_interpreted;
  bench::Require(db->Execute(sql, qopts).status(), state);  // warmup
  for (auto _ : state) {
    auto result = db->Execute(sql, qopts);
    bench::Require(result.status(), state);
    benchmark::DoNotOptimize(result);
  }
  bench::CaptureQueryBreakdown(
      db.get(), std::string(force_interpreted ? "interpreted" : "compiled") +
                    "/d=" + std::to_string(d));
}

void BM_InterpretedExprScan(benchmark::State& state) {
  RunWideSqlAltitude(state, /*force_interpreted=*/true);
}

void BM_CompiledExprScan(benchmark::State& state) {
  RunWideSqlAltitude(state, /*force_interpreted=*/false);
}

void BM_EngineScan(benchmark::State& state) {
  const size_t d = kDims[state.range(0)];
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, d);
  stats::WarehouseMiner miner(db.get());
  for (auto _ : state) {
    auto suf = miner.ComputeSufStats("X", stats::DimensionColumns(d),
                                     stats::MatrixKind::kLowerTriangular,
                                     stats::ComputeVia::kUdfList);
    bench::Require(suf.status(), state);
    benchmark::DoNotOptimize(suf);
  }
  bench::CaptureQueryBreakdown(db.get(), "engine/d=" + std::to_string(d));
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Ablation: row-path altitude (raw array vs Datum rows vs full "
      "engine scan), n=1600k scaled 1/%zu ===\n",
      nlq::bench::ScaleDivisor());
  for (size_t di = 0; di < 3; ++di) {
    const std::string suffix = "/d=" + std::to_string(kDims[di]);
    nlq::bench::RegisterReal(("Ablation/raw" + suffix).c_str(),
                                 BM_RawArray)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/rows" + suffix).c_str(),
                                 BM_DatumRows)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/batched" + suffix).c_str(),
                                 BM_BatchedScan)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/columnar" + suffix).c_str(),
                                 BM_ColumnarScan)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/interpreted" + suffix).c_str(),
                                 BM_InterpretedExprScan)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/compiled" + suffix).c_str(),
                                 BM_CompiledExprScan)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    nlq::bench::RegisterReal(("Ablation/engine" + suffix).c_str(),
                                 BM_EngineScan)
        ->Arg(static_cast<int>(di))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  return nlq::bench::RunSuite("bench_ablation_rowpath", &argc, argv);
}
