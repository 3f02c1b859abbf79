// Ablation (DESIGN.md #13): what does incremental n,L,Q view
// maintenance buy for streaming model refresh? Each benchmark loads
// the paper's mixture table at n=1M (scaled), seeds one model build,
// then repeats: append a burst of k rows, rebuild the model. Two
// variants of the same loop:
//
//   rescan — views disabled: every refresh replans the columnar
//            aggregate pipeline and rescans all n+ik rows;
//   view   — views enabled: every refresh accumulates only the k
//            appended rows into the maintained per-morsel partials
//            and folds them (O(k), bit-identical to the rescan).
//
// The view/rescan real_time ratio at the same (d, k) is the headline
// refresh speedup; the acceptance target is >= 5x at n=1M, k=10K,
// d=32 (NLQ_BENCH_FULL=1). Appends happen outside the timer (
// PauseTiming), so the measured number is refresh latency alone —
// the metric a streaming scorer waits on.
//
// Counters recorded into NLQ_BENCH_JSON next to the timings:
//   burst_rows      — k, the rows appended before each refresh (the
//                     scaled value actually used, not the paper's);
//   table_rows      — table size after the measured loop;
//   view_delta_rows — rows the last refresh accumulated through the
//                     maintained view (burst_rows for the view
//                     variant, 0 for rescan): the O(k) claim;
//   pages_decoded   — 64 KB storage blocks the last refresh read (the
//                     projected column bytes of every morsel, rounded
//                     up per chunk): O(k) for the view variant, O(n)
//                     for rescan;
//   view_hits       — 1 for a served view refresh, 0 for rescan.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "stats/scoring.h"
#include "storage/partitioned_table.h"
#include "storage/value.h"

namespace {

using namespace nlq;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 in [-1, 1): deterministic doubles for the appended
/// bursts, the same character as the loaded mixture data.
double MixDouble(uint64_t i) {
  uint64_t z = i + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) / 4503599627370496.0 - 1.0;
}

std::string FullGammaSql(size_t d) {
  std::string sql = "SELECT nlq_list('full'";
  for (size_t a = 1; a <= d; ++a) sql += ", X" + std::to_string(a);
  return sql + ") FROM X";
}

/// Paper-scale burst k, scaled by the same divisor as the table rows
/// (a burst is a fraction of the stream, so it shrinks with n), with
/// a floor so the delta path still has real work at small scale.
uint64_t ScaledBurst(uint64_t paper_k) {
  const uint64_t k = paper_k / bench::ScaleDivisor();
  return k < 64 ? 64 : k;
}

/// Appends `count` rows matching Schema::DataSet(d) via the normal
/// hash-routed insert path, ids continuing from `*next_id`.
void AppendBurst(storage::PartitionedTable* table, size_t d, uint64_t count,
                 uint64_t* next_id, benchmark::State& state) {
  storage::Row row(1 + d);
  for (uint64_t r = 0; r < count; ++r) {
    const uint64_t id = (*next_id)++;
    row[0] = storage::Datum::Int64(static_cast<int64_t>(id));
    for (size_t a = 0; a < d; ++a) {
      row[1 + a] = storage::Datum::Double(MixDouble(id * d + a));
    }
    bench::Require(table->AppendRow(row), state);
  }
}

// ---------------------------------------------------------------------------
// refresh: append k rows, rebuild the full-Gamma model; rescan vs view.
// ---------------------------------------------------------------------------

void BM_Refresh(benchmark::State& state, size_t d, uint64_t paper_k,
                bool views, const std::string& label) {
  const uint64_t rows = bench::ScaledRows(1000);  // paper n = 1M
  const uint64_t burst = ScaledBurst(paper_k);
  engine::DatabaseOptions options;
  options.num_partitions = 8;
  options.num_threads = bench::BenchThreads();
  options.morsel_rows = bench::BenchMorselRows();
  options.enable_view_maintenance = views;
  auto db = std::make_unique<engine::Database>(options);
  bench::Require(stats::RegisterAllStatsUdfs(&db->udfs()), state);
  bench::LoadMixture(db.get(), "X", rows, d);
  const std::string sql = FullGammaSql(d);

  auto table = db->catalog().GetTable("X");
  bench::Require(table.status(), state);
  uint64_t next_id = rows;

  // Seed pass: registers + fills the maintained view (view variant)
  // and compiles the statement (both variants), so the timed loop
  // measures steady-state refresh, not first-touch costs.
  bench::Require(db->Execute(sql).status(), state);

  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    state.PauseTiming();
    AppendBurst(*table, d, burst, &next_id, state);
    state.ResumeTiming();
    bench::Require(db->Execute(sql).status(), state);
  }
  const double secs = Seconds(t0);
  bench::CaptureQueryBreakdown(db.get(), label);

  state.counters["burst_rows"] = static_cast<double>(burst);
  state.counters["table_rows"] = static_cast<double>((*table)->num_rows());
  if (db->last_query_stats().has_value()) {
    const QueryStatsSnapshot& qs = *db->last_query_stats();
    state.counters["view_delta_rows"] =
        static_cast<double>(qs.view_delta_rows);
    state.counters["pages_decoded"] = static_cast<double>(qs.pages_decoded);
    state.counters["view_hits"] = static_cast<double>(qs.view_hits);
  }
  if (secs > 0) {
    state.counters["refreshes_per_s"] = state.iterations() / secs;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed iteration counts bound how far the appended bursts grow the
  // table (<= 10 * k extra rows), keeping the rescan baseline honest
  // and the view variant from ballooning the table at full scale.
  struct Point {
    size_t d;
    uint64_t paper_k;
  };
  const Point kGrid[] = {{8, 1000}, {8, 10000}, {32, 1000}, {32, 10000}};
  for (const Point& pt : kGrid) {
    for (const bool views : {false, true}) {
      const std::string variant = views ? "view" : "rescan";
      const std::string name =
          "Incremental/refresh/d=" + std::to_string(pt.d) + "/n=" +
          bench::PaperN(1000) + "/k=" + std::to_string(pt.paper_k) + "/" +
          variant;
      const std::string label = "refresh_d" + std::to_string(pt.d) + "_k" +
                                std::to_string(pt.paper_k) + "_" + variant;
      const size_t d = pt.d;
      const uint64_t paper_k = pt.paper_k;
      bench::RegisterReal(name,
                          [d, paper_k, views, label](benchmark::State& s) {
                            BM_Refresh(s, d, paper_k, views, label);
                          })
          ->Iterations(10)
          ->Unit(benchmark::kMillisecond);
    }
  }
  return bench::RunSuite("bench_ablation_incremental", &argc, argv);
}
