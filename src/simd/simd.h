#ifndef ARDA_SIMD_SIMD_H_
#define ARDA_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// Runtime-dispatched SIMD kernels for the hot paths (see DESIGN.md "SIMD
/// dispatch"). Every kernel has a scalar reference implementation and an
/// AVX2 implementation compiled into a dedicated translation unit with
/// per-file `-mavx2`; the rest of the binary stays baseline x86-64, so one
/// artifact runs everywhere and the level is chosen once at runtime from
/// the CPU (overridable with `ARDA_SIMD=auto|avx2|scalar` or `--simd=`).
///
/// Determinism contract: for every kernel, the AVX2 path produces
/// bit-identical output to the scalar path on the kernel's input domain.
/// Integer kernels (hashing, table probes, gathers) are
/// exact by construction. Floating-point kernels either perform no
/// accumulation (gathers, decodes), accumulate values that are exactly
/// representable whole numbers so any association order yields the same
/// bits (ClassSquares), or pin one lane-structured accumulation order that
/// both paths implement (SquaredDistance). No kernel uses FMA: the AVX2
/// translation units are compiled with `-ffp-contract=off` so `a*b + c`
/// never fuses and always matches the scalar fallback.

namespace arda::simd {

/// Dispatch levels, ordered; higher levels require CPU support.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the running CPU (and OS) support AVX2 and the binary was
/// built with the AVX2 translation unit.
bool Avx2Supported();

/// Reads `ARDA_SIMD` and pins the dispatch level from it. The environment
/// is consulted exactly once per process (std::once_flag) no matter how
/// often this runs; entry points call it from main() before any worker
/// thread starts so no thread ever races std::getenv. The resolved level
/// is **process-wide, not per-request** — a long-lived server cannot vary
/// it per client (use SetLevel/--simd before serving instead). Library
/// embedders that skip this call get the same once-only resolution lazily
/// on first kernel dispatch.
void InitFromEnvironment();

/// The level kernels dispatch on. Resolved once — by InitFromEnvironment
/// or lazily on first use — from the `ARDA_SIMD` environment variable
/// (`auto` or unset picks the highest supported level); later `SetLevel`
/// calls re-pin it.
SimdLevel ActiveLevel();

/// "scalar" or "avx2".
const char* LevelName(SimdLevel level);
const char* ActiveLevelName();

/// Pins the dispatch level. Returns false (and leaves the level alone)
/// when the requested level is not supported on this machine. An explicit
/// pin also pins the probe level (below) to the same value — "I asked for
/// avx2" means all kernels, including the probes.
bool SetLevel(SimdLevel level);

/// Parses `auto` / `avx2` / `scalar` and pins the level. `auto` picks the
/// highest supported level for the bulk kernels but keeps the dict-probe
/// kernels scalar (see ProbeLevel); explicit `scalar`/`avx2` pin every
/// kernel to that level. Returns false on an unknown spec or an
/// unsupported explicit level.
bool SetLevelFromSpec(std::string_view spec);

/// The level the open-addressing probe kernels (Int64DictLookup,
/// GroupLookup) dispatch on. Under `auto` this defaults to kScalar even
/// on AVX2 machines: the home-slot probe is load-latency-bound, and
/// out-of-order scalar loads beat AVX2 gathers there (the bench_kernels
/// `simd_hash_probe` pair measured ~0.8x for the AVX2 path — see
/// docs/benchmarks.md). Explicit `--simd=avx2` / `SetLevel(kAvx2)` /
/// `ARDA_SIMD=avx2` still select AVX2 probes; the determinism contract
/// holds either way.
SimdLevel ProbeLevel();

/// Pins the probe-kernel level independently of the bulk level (used by
/// bench A/B harnesses to save/restore the full dispatch state). Returns
/// false when the level is not supported on this machine.
bool SetProbeLevel(SimdLevel level);

/// Human-readable dispatch summary for reports and benchmarks: the plain
/// level name when every kernel shares one level ("scalar", "avx2"),
/// otherwise the bulk level annotated with the probe exception, e.g.
/// "avx2(probe=scalar)". This is what the `simd_level` report field and
/// the service ping carry.
std::string DispatchSummary();

/// Exports the resolved levels into the metrics registry: gauges
/// `simd.level` and `simd.probe_level` (numeric SimdLevel) and
/// `simd.avx2_supported` (0/1).
void PublishLevelMetrics();

// ---------------------------------------------------------------------------
// Kernel 1: batch hash + open-addressing table probe (KeyEncoder).
// ---------------------------------------------------------------------------

/// Sentinel id for "definite miss" from the table-probe kernels; matches
/// KeyEncoder::FlatTable::kEmpty.
inline constexpr uint32_t kIdMiss = ~0u;
/// Sentinel group id for misses; matches KeyEncoder::kMiss.
inline constexpr uint64_t kGroupMiss = ~0ull;

/// out[i] = splitmix64 finalizer of keys[i] (the KeyEncoder hash of a
/// native int64 key).
void Mix64Batch(const uint64_t* keys, size_t n, uint64_t* out);

/// Home-slot lookup of int64 keys against a KeyEncoder flat table
/// (`table_hashes` / `table_ids` of size mask+1, ids 1-based into
/// `dict_values`). For each key i:
///  - home slot empty            -> out_ids[i] = kIdMiss (definite miss)
///  - hash and stored value match -> out_ids[i] = the 1-based value id
///  - otherwise (collision)       -> i is appended to walk_rows; the
///    caller resolves it with the scalar probe walk.
/// Returns the number of entries written to walk_rows (capacity >= n).
size_t Int64DictLookup(const uint64_t* table_hashes,
                       const uint32_t* table_ids,
                       const int64_t* dict_values, uint64_t mask,
                       const int64_t* keys, size_t n, uint32_t* out_ids,
                       uint32_t* walk_rows);

/// FNV-1a over column-major value-id tuples followed by the splitmix64
/// finalizer (the KeyEncoder composite-key hash): for each row r,
/// out[r] = Mix64(fnv(ids[0*stride + r], ..., ids[(num_cols-1)*stride + r])).
void TupleHashBatch(const uint32_t* ids, size_t num_cols, size_t stride,
                    size_t n, uint64_t* out);

/// Home-slot lookup of composite keys against the KeyEncoder group table.
/// `ids` is the column-major tuple store being probed (stride `stride`),
/// `tuple_store` holds each group's tuple row-major (num_cols per group).
/// For each row i: empty home slot -> gids[i] = kGroupMiss; hash match
/// with verified tuple -> gids[i] = group id; otherwise i goes to
/// walk_rows. Returns the walk_rows count.
size_t GroupLookup(const uint64_t* table_hashes, const uint32_t* table_ids,
                   const uint32_t* tuple_store, const uint32_t* ids,
                   size_t num_cols, size_t stride, uint64_t mask,
                   const uint64_t* hashes, size_t n, uint64_t* gids,
                   uint32_t* walk_rows);

// ---------------------------------------------------------------------------
// Kernel 2: decision-tree split scan (DecisionTree).
// ---------------------------------------------------------------------------

/// left_sq = sum_c left_counts[c]^2 and right_sq = sum_c
/// (class_counts[c] - left_counts[c])^2, the Gini numerators of the
/// threshold scan. Inputs are class-count histograms: whole numbers, so
/// every partial sum is exactly representable and the vectorized
/// association order is bit-identical to the sequential one (callers
/// guard counts < 2^26 so squares stay below 2^53).
void ClassSquares(const double* left_counts, const double* class_counts,
                  size_t num_classes, double* left_sq, double* right_sq);

/// vals[i] = col[idx[i]], ys[i] = y[idx[i]] — the sorted-order gather of
/// one feature slice plus targets feeding the regression threshold scan.
void GatherValsTargets(const double* col, const double* y,
                       const uint32_t* idx, size_t n, double* vals,
                       double* ys);

// ---------------------------------------------------------------------------
// Kernel 3: squared Euclidean distance (KNN, geo join).
// ---------------------------------------------------------------------------

/// sum_i (a[i] - b[i])^2 with a pinned lane-structured accumulation
/// order: four independent running sums over the vectorizable prefix
/// (combined as (s0+s2) + (s1+s3)), then a sequential tail. Both dispatch
/// levels implement exactly this order, so results are bit-identical; for
/// n < 4 it degenerates to the plain sequential sum.
double SquaredDistance(const double* a, const double* b, size_t n);

/// out[p] = SquaredDistance(query, base + p*dims, dims) for each of the
/// `num_points` row-major rows of `base` — the KNN "one query against the
/// whole training set" loop. Per point the accumulation order is exactly
/// SquaredDistance's, so every out[p] is bit-identical to the pairwise
/// call at both dispatch levels; the AVX2 path gains by interleaving six
/// points (six independent addition chains) rather than by reordering
/// any per-point sum.
void SquaredDistanceToMany(const double* query, const double* base,
                           size_t num_points, size_t dims, double* out);

// ---------------------------------------------------------------------------
// Kernel 4: columnar decode (ReadColumnarString).
// ---------------------------------------------------------------------------

/// dst[i] = bit_cast<double>(little-endian u64 at src + 8*i).
void DecodeU64LeToDouble(const char* src, size_t n, double* dst);

/// dst[i] = static_cast<int64_t>(little-endian u64 at src + 8*i).
void DecodeU64LeToInt64(const char* src, size_t n, int64_t* dst);

}  // namespace arda::simd

#endif  // ARDA_SIMD_SIMD_H_
