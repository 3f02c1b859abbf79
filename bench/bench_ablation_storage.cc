// Ablation (DESIGN.md #12): what does the compressed larger-than-RAM
// storage stack cost, and what does the SIMD span kernel buy back?
// Three axes, each isolated:
//
//   kernel_spans — NlqAccumulateSpans alone on resident spans, scalar
//            (blocked/tiled) vs simd (register-tiled AVX2),
//            bit-identical by construction: d=32 full (the simd/scalar
//            real_time ratio is the headline kernel speedup) and d=33
//            lower-triangular (the X1..X32, Y builds of the repository
//            benchmark), each reporting achieved GFLOP/s;
//   peak_mul_add — the same thread's ceiling for that arithmetic: a
//            plain loop of independent multiply chains and add chains
//            in registers, in equal numbers as the kernel runs them
//            (1 lane per op, and 4 lanes with AVX2), in GFLOP/s;
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
//   gflop_per_s       — kernel_spans and peak_mul_add: floating-point
//                       operations per second of real time, counting
//                       a Q entry's multiply and add and an L add
//                       (min/max compares are not counted);
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

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

void BM_KernelSpans(benchmark::State& state, stats::NlqKernelMode mode,
                    size_t d, stats::MatrixKind kind) {
  constexpr size_t kRows = 16384;
  std::vector<std::vector<double>> cols(d, std::vector<double>(kRows));
  for (size_t a = 0; a < d; ++a) {
    for (size_t r = 0; r < kRows; ++r) cols[a][r] = MixDouble(a * kRows + r);
  }
  std::vector<const double*> spans(d);
  for (size_t a = 0; a < d; ++a) spans[a] = cols[a].data();

  stats::SetNlqKernelMode(mode);
  state.SetLabel(stats::NlqKernelVariant());
  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    stats::NlqState s;
    stats::ResetNlqState(&s);
    bench::Require(stats::SetNlqShape(&s, d, kind), state);
    stats::NlqAccumulateSpans(&s, spans.data(), kRows);
    benchmark::DoNotOptimize(s);
  }
  const double secs = Seconds(t0);
  stats::SetNlqKernelMode(stats::NlqKernelMode::kAuto);
  if (secs > 0) {
    const double rows = static_cast<double>(kRows) * state.iterations();
    state.counters["scan_gb_per_s"] = rows * d * 8 / secs / 1e9;
    const double q_entries = kind == stats::MatrixKind::kFull
                                 ? static_cast<double>(d * d)
                                 : static_cast<double>(d * (d + 1) / 2);
    state.counters["gflop_per_s"] = rows * (2 * q_entries + d) / secs / 1e9;
  }
}

// ---------------------------------------------------------------------------
// peak_mul_add: the arithmetic ceiling the kernel is measured against.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

/// Independent multiply chains and add chains per loop (equal counts:
/// the kernel runs one multiply per add). Six of each cover the
/// multiply latency and keep every FP port that can run them busy.
constexpr int kPeakChains = 6;
constexpr int64_t kPeakSteps = 1 << 20;

/// One lane per op (scalar SSE2 multiply and add), as the scalar kernel
/// runs them. Returns the flops done.
double PeakMulAddScalar() {
  __m128d mul[kPeakChains], add[kPeakChains];
  for (int c = 0; c < kPeakChains; ++c) {
    mul[c] = add[c] = _mm_set_sd(1.0 + c);
  }
  const __m128d shrink = _mm_set_sd(0.9999999999);
  const __m128d step = _mm_set_sd(1e-12);
  for (int64_t i = 0; i < kPeakSteps; ++i) {
#pragma GCC unroll 6
    for (int c = 0; c < kPeakChains; ++c) {
      mul[c] = _mm_mul_sd(mul[c], shrink);
      add[c] = _mm_add_sd(add[c], step);
    }
  }
  double sum = 0;
  for (int c = 0; c < kPeakChains; ++c) {
    sum += _mm_cvtsd_f64(mul[c]) + _mm_cvtsd_f64(add[c]);
  }
  benchmark::DoNotOptimize(sum);
  return 2.0 * kPeakChains * kPeakSteps;
}

/// Four lanes per op (AVX2 multiply and add — no FMA), as the SIMD
/// kernel runs them. Returns the flops done.
__attribute__((target("avx2"))) double PeakMulAddAvx2() {
  __m256d mul[kPeakChains], add[kPeakChains];
  for (int c = 0; c < kPeakChains; ++c) {
    mul[c] = add[c] = _mm256_set1_pd(1.0 + c);
  }
  const __m256d shrink = _mm256_set1_pd(0.9999999999);
  const __m256d step = _mm256_set1_pd(1e-12);
  for (int64_t i = 0; i < kPeakSteps; ++i) {
#pragma GCC unroll 6
    for (int c = 0; c < kPeakChains; ++c) {
      mul[c] = _mm256_mul_pd(mul[c], shrink);
      add[c] = _mm256_add_pd(add[c], step);
    }
  }
  alignas(32) double lanes[4];
  double sum = 0;
  for (int c = 0; c < kPeakChains; ++c) {
    _mm256_store_pd(lanes, _mm256_add_pd(mul[c], add[c]));
    sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  benchmark::DoNotOptimize(sum);
  return 8.0 * kPeakChains * kPeakSteps;
}

#endif  // __x86_64__

void BM_PeakMulAdd(benchmark::State& state, bool avx2) {
#if defined(__x86_64__)
  if (avx2 && !__builtin_cpu_supports("avx2")) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  double flops = 0;
  const Clock::time_point t0 = Clock::now();
  for (auto _ : state) {
    flops += avx2 ? PeakMulAddAvx2() : PeakMulAddScalar();
  }
  const double secs = Seconds(t0);
  if (secs > 0) state.counters["gflop_per_s"] = flops / secs / 1e9;
#else
  (void)avx2;
  state.SkipWithError("the peak loop is written for x86-64");
#endif
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
  using stats::MatrixKind;
  bench::RegisterReal("Storage/kernel_spans/d=32/scalar",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kScalar, 32,
                                       MatrixKind::kFull);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/kernel_spans/d=32/simd",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kSimd, 32,
                                       MatrixKind::kFull);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/kernel_spans/d=33/triang/scalar",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kScalar, 33,
                                       MatrixKind::kLowerTriangular);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/kernel_spans/d=33/triang/simd",
                      [](benchmark::State& s) {
                        BM_KernelSpans(s, NlqKernelMode::kSimd, 33,
                                       MatrixKind::kLowerTriangular);
                      })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/peak_mul_add/scalar",
                      [](benchmark::State& s) { BM_PeakMulAdd(s, false); })
      ->Unit(benchmark::kMicrosecond);
  bench::RegisterReal("Storage/peak_mul_add/avx2",
                      [](benchmark::State& s) { BM_PeakMulAdd(s, true); })
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
