#ifndef ARDA_SIMD_KERNELS_H_
#define ARDA_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Internal: per-level kernel entry points. dispatch.cc routes the public
// arda::simd kernels here based on the active level. The _Avx2 symbols
// exist only when the build compiled the AVX2 translation unit
// (ARDA_SIMD_COMPILED_AVX2); dispatch guards every reference.

namespace arda::simd::internal {

#define ARDA_SIMD_KERNEL_DECLS(suffix)                                       \
  void Mix64Batch_##suffix(const uint64_t* keys, size_t n, uint64_t* out);   \
  size_t Int64DictLookup_##suffix(                                          \
      const uint64_t* table_hashes, const uint32_t* table_ids,              \
      const int64_t* dict_values, uint64_t mask, const int64_t* keys,       \
      size_t n, uint32_t* out_ids, uint32_t* walk_rows);                     \
  void TupleHashBatch_##suffix(const uint32_t* ids, size_t num_cols,         \
                               size_t stride, size_t n, uint64_t* out);      \
  size_t GroupLookup_##suffix(                                               \
      const uint64_t* table_hashes, const uint32_t* table_ids,              \
      const uint32_t* tuple_store, const uint32_t* ids, size_t num_cols,    \
      size_t stride, uint64_t mask, const uint64_t* hashes, size_t n,        \
      uint64_t* gids, uint32_t* walk_rows);                                  \
  void ClassSquares_##suffix(const double* left_counts,                      \
                             const double* class_counts, size_t num_classes, \
                             double* left_sq, double* right_sq);             \
  void GatherValsTargets_##suffix(const double* col, const double* y,        \
                                  const uint32_t* idx, size_t n,             \
                                  double* vals, double* ys);                 \
  double SquaredDistance_##suffix(const double* a, const double* b,          \
                                  size_t n);                                 \
  void SquaredDistanceToMany_##suffix(const double* query,                   \
                                      const double* base, size_t num_points, \
                                      size_t dims, double* out);             \
  void DecodeU64LeToDouble_##suffix(const char* src, size_t n, double* dst); \
  void DecodeU64LeToInt64_##suffix(const char* src, size_t n, int64_t* dst);

ARDA_SIMD_KERNEL_DECLS(Scalar)
#if ARDA_SIMD_COMPILED_AVX2
ARDA_SIMD_KERNEL_DECLS(Avx2)
#endif

#undef ARDA_SIMD_KERNEL_DECLS

// splitmix64 finalizer; must match KeyEncoder's Mix64 bit for bit.
inline uint64_t Mix64One(uint64_t value) {
  value += 0x9e3779b97f4a7c15ull;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return value ^ (value >> 31);
}

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

}  // namespace arda::simd::internal

#endif  // ARDA_SIMD_KERNELS_H_
