// Ablation (DESIGN.md #12): what does the compressed larger-than-RAM
// storage stack cost, and what does the SIMD span kernel buy back?
// Three axes, each isolated:
//
//   kernel_spans — NlqAccumulateSpans alone on resident d=32 spans,
//            scalar (blocked/tiled) vs simd (AVX2), bit-identical by
//            construction; the simd/scalar real_time ratio is the
//            headline kernel speedup;
//   gamma_query — the full nlq_list('full', X1..X32) query on a
//            resident table under each kernel mode: how much
//            of the kernel win survives planning, morsel dispatch and
//            merge;
//   scan — the same d=8 full-Gamma scan at three storage altitudes:
//            resident (plain in-memory column chunks), spilled with a
//            pool large enough to hold the whole compressed image
//            (compressed-resident: decompress on every hit, no I/O
//            after warmup), and spilled through a minimum-size pool
//            (the larger-than-RAM case: eviction, a disk read of every
//            page a scan pins and a chunk decode every scan).
//
// Counters recorded into NLQ_BENCH_JSON next to the timings:
//   scan_gb_per_s     — logical bytes (rows * d * 8) per second of
//                       real time: the effective scan bandwidth, so
//                       storage variants compare on delivered data,
//                       not on bytes that hit the disk;
//   compression_ratio — raw/compressed over the table's spill
//                       segments (spill variants only);
//   pool_hit_rate     — hits / (hits + misses) over the pool's pins
//                       across the measured loop (spill variants
//                       only);
//   pool_peak_bytes / pool_budget_bytes — the pool MemoryTracker's
//                       high-water mark against its frame budget:
//                       peak ≤ budget is the flat-RSS claim.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "stats/nlq_kernel.h"
#include "stats/scoring.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/partitioned_table.h"

namespace {

using namespace nlq;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 in [-1, 1): deterministic, incompressible doubles, the
/// same character as the mixture generator's gaussians.
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

// ---------------------------------------------------------------------------
// kernel_spans: the fused n,L,Q kernel alone, scalar vs AVX2.
// ---------------------------------------------------------------------------

void BM_KernelSpans(benchmark::State& state, stats::NlqKernelMode mode) {
  constexpr size_t kD = 32;
  constexpr size_t kRows = 16384;
  std::vector<std::vector<double>> cols(kD, std::vector<double>(kRows));
  for (size_t a = 0; a < kD; ++a) {
    for (size_t r = 0; r < kRows; ++r) cols[a][r] = MixDouble(a * kRows + r);
  }
  std::vector<const double*> spans(kD);
  for (size_t a = 0; a < kD; ++a) spans[a] = cols[a].data();

  stats::SetNlqKernelMode(mode);
  state.SetLabel(stats::NlqKernelVariant());
  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    stats::NlqState s;
    stats::ResetNlqState(&s);
    bench::Require(stats::SetNlqShape(&s, kD, stats::MatrixKind::kFull),
                   state);
    stats::NlqAccumulateSpans(&s, spans.data(), kRows);
    benchmark::DoNotOptimize(s);
  }
  const double secs = Seconds(t0);
  stats::SetNlqKernelMode(stats::NlqKernelMode::kAuto);
  if (secs > 0) {
    const double bytes =
        static_cast<double>(kRows) * kD * 8 * state.iterations();
    state.counters["scan_gb_per_s"] = bytes / secs / 1e9;
  }
}

// ---------------------------------------------------------------------------
// gamma_query: the same contrast through the whole engine.
// ---------------------------------------------------------------------------

void BM_GammaQuery(benchmark::State& state, stats::NlqKernelMode mode,
                   const std::string& label) {
  constexpr size_t kD = 32;
  const uint64_t rows = bench::ScaledRows(1600);
  auto db = bench::MakeBenchDatabase();
  bench::LoadMixture(db.get(), "X", rows, kD);
  const std::string sql = FullGammaSql(kD);

  stats::SetNlqKernelMode(mode);
  // One untimed run pays compilation and first-touch page faults so
  // the timed loop isolates the kernel + pipeline.
  bench::Require(db->Execute(sql).status(), state);
  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    bench::Require(db->Execute(sql).status(), state);
  }
  const double secs = Seconds(t0);
  bench::CaptureQueryBreakdown(db.get(), label);
  stats::SetNlqKernelMode(stats::NlqKernelMode::kAuto);
  if (secs > 0) {
    const double bytes =
        static_cast<double>(rows) * kD * 8 * state.iterations();
    state.counters["scan_gb_per_s"] = bytes / secs / 1e9;
  }
}

// ---------------------------------------------------------------------------
// scan: resident vs compressed-resident vs larger-than-RAM.
// ---------------------------------------------------------------------------

void BM_ScanStorage(benchmark::State& state, bool spilled,
                    uint64_t pool_bytes, const std::string& label) {
  constexpr size_t kD = 8;
  const uint64_t rows = bench::ScaledRows(10000);
  engine::DatabaseOptions options;
  options.num_partitions = 8;
  options.num_threads = bench::BenchThreads();
  options.morsel_rows = bench::BenchMorselRows();
  options.buffer_pool_bytes = pool_bytes;
  auto db = std::make_unique<engine::Database>(options);
  bench::Require(stats::RegisterAllStatsUdfs(&db->udfs()), state);
  bench::LoadMixture(db.get(), "X", rows, kD);
  if (spilled) bench::Require(db->SpillTable("X"), state);
  const std::string sql = FullGammaSql(kD);

  bench::Require(db->Execute(sql).status(), state);  // warm the pool
  storage::BufferPoolStats before;
  if (db->buffer_pool() != nullptr) before = db->buffer_pool()->GetStats();
  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    bench::Require(db->Execute(sql).status(), state);
  }
  const double secs = Seconds(t0);
  bench::CaptureQueryBreakdown(db.get(), label);

  if (secs > 0) {
    const double bytes =
        static_cast<double>(rows) * kD * 8 * state.iterations();
    state.counters["scan_gb_per_s"] = bytes / secs / 1e9;
  }
  if (!spilled) return;
  auto table = db->catalog().GetTable("X");
  if (table.ok()) {
    uint64_t raw = 0, compressed = 0;
    for (size_t p = 0; p < (*table)->num_partitions(); ++p) {
      const storage::Table& part = (*table)->partition(p);
      if (!part.is_spilled()) continue;
      raw += part.spill()->raw_bytes();
      compressed += part.spill()->compressed_bytes();
    }
    if (compressed > 0) {
      state.counters["compression_ratio"] =
          static_cast<double>(raw) / static_cast<double>(compressed);
    }
  }
  if (db->buffer_pool() != nullptr) {
    const storage::BufferPoolStats after = db->buffer_pool()->GetStats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    if (lookups > 0) state.counters["pool_hit_rate"] = hits / lookups;
    // Peak ≤ budget is the flat-RSS claim in machine-checkable form
    // (bench-smoke gates on it): frame memory never outgrew the pool.
    state.counters["pool_peak_bytes"] =
        static_cast<double>(db->buffer_pool()->tracker().peak());
    state.counters["pool_budget_bytes"] =
        static_cast<double>(db->buffer_pool()->budget_bytes());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using stats::NlqKernelMode;
  bench::RegisterReal("Storage/kernel_spans/d=32/scalar",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kScalar);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/kernel_spans/d=32/simd",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kSimd);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/gamma_query/d=32/scalar",
                      [](benchmark::State& s) {
                        BM_GammaQuery(s, NlqKernelMode::kScalar,
                                      "gamma_query_scalar");
                      })
      ->Unit(benchmark::kMillisecond);
  bench::RegisterReal("Storage/gamma_query/d=32/simd",
                      [](benchmark::State& s) {
                        BM_GammaQuery(s, NlqKernelMode::kSimd,
                                      "gamma_query_simd");
                      })
      ->Unit(benchmark::kMillisecond);
  bench::RegisterReal("Storage/scan/resident",
                      [](benchmark::State& s) {
                        BM_ScanStorage(s, /*spilled=*/false, 64ull << 20,
                                       "scan_resident");
                      })
      ->Unit(benchmark::kMillisecond);
  bench::RegisterReal("Storage/scan/spill_pool=64MiB",
                      [](benchmark::State& s) {
                        BM_ScanStorage(s, /*spilled=*/true, 64ull << 20,
                                       "scan_spill_pool_64mib");
                      })
      ->Unit(benchmark::kMillisecond);
  bench::RegisterReal(
      "Storage/scan/spill_pool=min",
      [](benchmark::State& s) {
        BM_ScanStorage(
            s, /*spilled=*/true,
            storage::kPageSize * storage::BufferPool::kMinFrames,
            "scan_spill_pool_min");
      })
      ->Unit(benchmark::kMillisecond);
  return bench::RunSuite("bench_ablation_storage", &argc, argv);
}
