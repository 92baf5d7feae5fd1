// Scalar reference implementations. These define the semantics every
// other dispatch level must reproduce bit for bit; the AVX2 bodies in
// kernels_avx2.cc mirror each function's structure lane by lane.

#include <cstring>

#include "simd/kernels.h"

namespace arda::simd::internal {

namespace {
constexpr uint32_t kEmptySlot = ~0u;
constexpr uint64_t kMissGroup = ~0ull;
}  // namespace

void Mix64Batch_Scalar(const uint64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Mix64One(keys[i]);
}

size_t Int64DictLookup_Scalar(const uint64_t* table_hashes,
                              const uint32_t* table_ids,
                              const int64_t* dict_values, uint64_t mask,
                              const int64_t* keys, size_t n,
                              uint32_t* out_ids, uint32_t* walk_rows) {
  size_t walk_count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Mix64One(static_cast<uint64_t>(keys[i]));
    const size_t slot = static_cast<size_t>(h & mask);
    const uint32_t id = table_ids[slot];
    if (id == kEmptySlot) {
      out_ids[i] = kEmptySlot;  // home slot free: definite miss
    } else if (table_hashes[slot] == h && dict_values[id - 1] == keys[i]) {
      out_ids[i] = id;
    } else {
      walk_rows[walk_count++] = static_cast<uint32_t>(i);
    }
  }
  return walk_count;
}

void TupleHashBatch_Scalar(const uint32_t* ids, size_t num_cols,
                           size_t stride, size_t n, uint64_t* out) {
  for (size_t r = 0; r < n; ++r) {
    uint64_t h = kFnvOffset;
    for (size_t k = 0; k < num_cols; ++k) {
      h = (h ^ ids[k * stride + r]) * kFnvPrime;
    }
    out[r] = Mix64One(h);
  }
}

size_t GroupLookup_Scalar(const uint64_t* table_hashes,
                          const uint32_t* table_ids,
                          const uint32_t* tuple_store, const uint32_t* ids,
                          size_t num_cols, size_t stride, uint64_t mask,
                          const uint64_t* hashes, size_t n, uint64_t* gids,
                          uint32_t* walk_rows) {
  size_t walk_count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    const size_t slot = static_cast<size_t>(h & mask);
    const uint32_t gid = table_ids[slot];
    if (gid == kEmptySlot) {
      gids[i] = kMissGroup;
      continue;
    }
    if (table_hashes[slot] == h) {
      const uint32_t* stored = tuple_store + size_t{gid} * num_cols;
      bool match = true;
      for (size_t k = 0; k < num_cols; ++k) {
        if (stored[k] != ids[k * stride + i]) {
          match = false;
          break;
        }
      }
      if (match) {
        gids[i] = gid;
        continue;
      }
    }
    walk_rows[walk_count++] = static_cast<uint32_t>(i);
  }
  return walk_count;
}

void ClassSquares_Scalar(const double* left_counts,
                         const double* class_counts, size_t num_classes,
                         double* left_sq, double* right_sq) {
  // Plain sequential sums: exact (and therefore order-independent)
  // because every operand is a whole-number count below 2^26.
  double ls = 0.0;
  double rs = 0.0;
  for (size_t c = 0; c < num_classes; ++c) {
    const double lc = left_counts[c];
    const double rc = class_counts[c] - lc;
    ls += lc * lc;
    rs += rc * rc;
  }
  *left_sq = ls;
  *right_sq = rs;
}

void GatherValsTargets_Scalar(const double* col, const double* y,
                              const uint32_t* idx, size_t n, double* vals,
                              double* ys) {
  for (size_t i = 0; i < n; ++i) {
    const size_t row = idx[i];
    vals[i] = col[row];
    ys[i] = y[row];
  }
}

void SquaredDistanceToMany_Scalar(const double* query, const double* base,
                                  size_t num_points, size_t dims,
                                  double* out) {
  // One pairwise distance per row, each computed with the same pinned
  // accumulation order as SquaredDistance_Scalar — this is exactly the
  // loop KNN ran before the batch kernel existed.
  for (size_t p = 0; p < num_points; ++p) {
    out[p] = SquaredDistance_Scalar(query, base + p * dims, dims);
  }
}

double SquaredDistance_Scalar(const double* a, const double* b, size_t n) {
  const size_t vec = n & ~size_t{3};
  double total;
  if (vec == 0) {
    total = 0.0;
  } else {
    // The pinned lane-structured order (see simd.h): four running sums,
    // combined as (s0+s2) + (s1+s3) to match the AVX2 128-bit fold.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i < vec; i += 4) {
      const double d0 = a[i] - b[i];
      const double d1 = a[i + 1] - b[i + 1];
      const double d2 = a[i + 2] - b[i + 2];
      const double d3 = a[i + 3] - b[i + 3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    total = (s0 + s2) + (s1 + s3);
  }
  for (size_t i = vec; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

void DecodeU64LeToDouble_Scalar(const char* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) {
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(src) + i * 8;
    uint64_t bits = 0;
    for (int b = 7; b >= 0; --b) bits = (bits << 8) | p[b];
    double v;
    std::memcpy(&v, &bits, sizeof v);
    dst[i] = v;
  }
}

void DecodeU64LeToInt64_Scalar(const char* src, size_t n, int64_t* dst) {
  for (size_t i = 0; i < n; ++i) {
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(src) + i * 8;
    uint64_t bits = 0;
    for (int b = 7; b >= 0; --b) bits = (bits << 8) | p[b];
    dst[i] = static_cast<int64_t>(bits);
  }
}

}  // namespace arda::simd::internal
