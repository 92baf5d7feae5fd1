// Runtime dispatch for the arda::simd kernels. This translation unit is
// compiled WITHOUT -mavx2 (baseline x86-64), so the binary can safely
// reach this code on any machine; only the guarded calls into
// kernels_avx2.cc require AVX2, and they are taken only after the CPU
// probe succeeds.

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "simd/kernels.h"
#include "util/metrics.h"

namespace arda::simd {

namespace {

[[maybe_unused]] bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  // Masked by the OS XCR0 state, so this is also false when the kernel
  // does not save the ymm registers.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdLevel HighestSupported() {
  return Avx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

// The bulk level plus the probe-kernel level resolved together. Under
// `auto` (or an unset/unrecognized spec) the bulk kernels get the highest
// supported level but the open-addressing probes stay scalar: the
// home-slot probe is load-latency-bound and out-of-order scalar loads
// beat AVX2 gathers there (bench_kernels `simd_hash_probe` measured ~0.8x
// for AVX2 — docs/benchmarks.md). An explicit `scalar`/`avx2` pins every
// kernel, probes included.
struct ResolvedLevels {
  SimdLevel level;
  SimdLevel probe;
};

ResolvedLevels ResolveFromEnv() {
  const char* env = std::getenv("ARDA_SIMD");
  if (env != nullptr && *env != '\0') {
    const std::string_view spec(env);
    if (spec == "scalar") return {SimdLevel::kScalar, SimdLevel::kScalar};
    if (spec == "avx2" && Avx2Supported()) {
      return {SimdLevel::kAvx2, SimdLevel::kAvx2};
    }
    // "avx2" on a machine without AVX2 (and anything unrecognized)
    // degrades to the auto policy instead of crashing on an illegal
    // instruction; --simd= reports unknown specs as errors.
  }
  return {HighestSupported(), SimdLevel::kScalar};
}

// The dispatch levels. ARDA_SIMD is consulted exactly once per process —
// by the explicit InitFromEnvironment() call in main(), or lazily on the
// first kernel dispatch for library embedders that never call it. Either
// way the read happens through one std::once_flag, so no worker thread
// ever races std::getenv against a setenv elsewhere in the process, and
// later environment changes are deliberately invisible (the level is
// process-wide, not per-request; see docs/observability.md).
std::atomic<int> g_level{static_cast<int>(SimdLevel::kScalar)};
std::atomic<int> g_probe_level{static_cast<int>(SimdLevel::kScalar)};
std::once_flag g_env_once;

void InitFromEnvOnce() {
  std::call_once(g_env_once, [] {
    const ResolvedLevels resolved = ResolveFromEnv();
    g_level.store(static_cast<int>(resolved.level),
                  std::memory_order_relaxed);
    g_probe_level.store(static_cast<int>(resolved.probe),
                        std::memory_order_relaxed);
  });
}

std::atomic<int>& LevelStorage() {
  InitFromEnvOnce();
  return g_level;
}

std::atomic<int>& ProbeStorage() {
  InitFromEnvOnce();
  return g_probe_level;
}

}  // namespace

void InitFromEnvironment() { InitFromEnvOnce(); }

bool Avx2Supported() {
#if ARDA_SIMD_COMPILED_AVX2
  static const bool supported = CpuHasAvx2();
  return supported;
#else
  return false;
#endif
}

SimdLevel ActiveLevel() {
  return static_cast<SimdLevel>(
      LevelStorage().load(std::memory_order_relaxed));
}

const char* LevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

bool SetLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !Avx2Supported()) return false;
  LevelStorage().store(static_cast<int>(level),
                       std::memory_order_relaxed);
  // An explicit pin covers every kernel: benchmarks and tests that ask
  // for a level expect the probes to run at that level too.
  ProbeStorage().store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

bool SetLevelFromSpec(std::string_view spec) {
  if (spec == "auto") {
    // Auto keeps the probes scalar regardless of the bulk level — the
    // measured-faster default (see ProbeLevel in simd.h).
    if (!SetLevel(HighestSupported())) return false;
    return SetProbeLevel(SimdLevel::kScalar);
  }
  if (spec == "scalar") return SetLevel(SimdLevel::kScalar);
  if (spec == "avx2") return SetLevel(SimdLevel::kAvx2);
  return false;
}

SimdLevel ProbeLevel() {
  return static_cast<SimdLevel>(
      ProbeStorage().load(std::memory_order_relaxed));
}

bool SetProbeLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !Avx2Supported()) return false;
  ProbeStorage().store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

std::string DispatchSummary() {
  const SimdLevel level = ActiveLevel();
  const SimdLevel probe = ProbeLevel();
  if (probe == level) return LevelName(level);
  return std::string(LevelName(level)) + "(probe=" + LevelName(probe) +
         ")";
}

void PublishLevelMetrics() {
  metrics::SetGauge("simd.level",
                    static_cast<double>(static_cast<int>(ActiveLevel())));
  metrics::SetGauge("simd.probe_level",
                    static_cast<double>(static_cast<int>(ProbeLevel())));
  metrics::SetGauge("simd.avx2_supported", Avx2Supported() ? 1.0 : 0.0);
}

// Every kernel dispatches on the cached level; `return` of a void call is
// deliberate so one macro covers both void and value-returning kernels.
#if ARDA_SIMD_COMPILED_AVX2
#define ARDA_SIMD_DISPATCH(fn, ...)                     \
  do {                                                  \
    if (ActiveLevel() == SimdLevel::kAvx2) {            \
      return internal::fn##_Avx2(__VA_ARGS__);          \
    }                                                   \
    return internal::fn##_Scalar(__VA_ARGS__);          \
  } while (0)
// The open-addressing probe kernels dispatch on the separate probe level
// (scalar under `auto`; see ProbeLevel in simd.h).
#define ARDA_SIMD_DISPATCH_PROBE(fn, ...)               \
  do {                                                  \
    if (ProbeLevel() == SimdLevel::kAvx2) {             \
      return internal::fn##_Avx2(__VA_ARGS__);          \
    }                                                   \
    return internal::fn##_Scalar(__VA_ARGS__);          \
  } while (0)
#else
#define ARDA_SIMD_DISPATCH(fn, ...) \
  return internal::fn##_Scalar(__VA_ARGS__)
#define ARDA_SIMD_DISPATCH_PROBE(fn, ...) \
  return internal::fn##_Scalar(__VA_ARGS__)
#endif

void Mix64Batch(const uint64_t* keys, size_t n, uint64_t* out) {
  ARDA_SIMD_DISPATCH(Mix64Batch, keys, n, out);
}

size_t Int64DictLookup(const uint64_t* table_hashes,
                       const uint32_t* table_ids,
                       const int64_t* dict_values, uint64_t mask,
                       const int64_t* keys, size_t n, uint32_t* out_ids,
                       uint32_t* walk_rows) {
  ARDA_SIMD_DISPATCH_PROBE(Int64DictLookup, table_hashes, table_ids,
                           dict_values, mask, keys, n, out_ids, walk_rows);
}

void TupleHashBatch(const uint32_t* ids, size_t num_cols, size_t stride,
                    size_t n, uint64_t* out) {
  ARDA_SIMD_DISPATCH(TupleHashBatch, ids, num_cols, stride, n, out);
}

size_t GroupLookup(const uint64_t* table_hashes, const uint32_t* table_ids,
                   const uint32_t* tuple_store, const uint32_t* ids,
                   size_t num_cols, size_t stride, uint64_t mask,
                   const uint64_t* hashes, size_t n, uint64_t* gids,
                   uint32_t* walk_rows) {
  ARDA_SIMD_DISPATCH_PROBE(GroupLookup, table_hashes, table_ids, tuple_store,
                           ids, num_cols, stride, mask, hashes, n, gids,
                           walk_rows);
}

void ClassSquares(const double* left_counts, const double* class_counts,
                  size_t num_classes, double* left_sq, double* right_sq) {
  ARDA_SIMD_DISPATCH(ClassSquares, left_counts, class_counts, num_classes,
                     left_sq, right_sq);
}

void GatherValsTargets(const double* col, const double* y,
                       const uint32_t* idx, size_t n, double* vals,
                       double* ys) {
  ARDA_SIMD_DISPATCH(GatherValsTargets, col, y, idx, n, vals, ys);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
  ARDA_SIMD_DISPATCH(SquaredDistance, a, b, n);
}

void SquaredDistanceToMany(const double* query, const double* base,
                           size_t num_points, size_t dims, double* out) {
  ARDA_SIMD_DISPATCH(SquaredDistanceToMany, query, base, num_points, dims,
                     out);
}

void DecodeU64LeToDouble(const char* src, size_t n, double* dst) {
  ARDA_SIMD_DISPATCH(DecodeU64LeToDouble, src, n, dst);
}

void DecodeU64LeToInt64(const char* src, size_t n, int64_t* dst) {
  ARDA_SIMD_DISPATCH(DecodeU64LeToInt64, src, n, dst);
}

#undef ARDA_SIMD_DISPATCH
#undef ARDA_SIMD_DISPATCH_PROBE

}  // namespace arda::simd
