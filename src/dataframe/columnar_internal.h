#ifndef ARDA_DATAFRAME_COLUMNAR_INTERNAL_H_
#define ARDA_DATAFRAME_COLUMNAR_INTERNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataframe/column.h"
#include "dataframe/columnar_io.h"
#include "util/status.h"

/// \file
/// Internals of the `.ardac` v3 layout shared between the eager reader
/// (columnar_io.cc) and the mmap reader (mapped_columnar.cc). Not part of
/// the public dataframe API.

namespace arda::df::internal {

/// One decoded column-index entry: where the column's validity bytes and
/// data block live in the file.
struct V3Column {
  std::string name;
  DataType type = DataType::kDouble;
  uint64_t validity_off = 0;
  uint64_t data_off = 0;
  uint64_t data_len = 0;
};

/// The decoded v3 header + column index.
struct V3Index {
  uint64_t rows = 0;
  uint32_t cols = 0;
  uint64_t index_end = 0;
  /// FNV-1a of bytes [48, EOF); validated by the eager reader only (the
  /// mapped reader would have to fault in every page to check it).
  uint64_t payload_checksum = 0;
  std::vector<V3Column> columns;
  uint64_t meta_off = 0;
  uint64_t meta_len = 0;
};

constexpr size_t kV3HeaderSize = 48;

/// Parses and fully validates the v3 header and column index of `data`
/// (which must cover at least the header + index region) against the
/// actual byte count `file_size`: magic, version, index checksum, and —
/// before anything touches the payload — every recorded extent
/// (validity/data/meta offsets and lengths, numeric alignment and sizing,
/// EOF position). Each truncation or corruption point maps to a precise
/// Status, so a mapped open can reject a damaged file without a single
/// payload access (and therefore without SIGBUS risk).
Status ParseV3Index(std::string_view data, uint64_t file_size,
                    V3Index* out);

/// Decodes the meta block bytes `block` (exactly the [meta_off,
/// meta_off + meta_len) slice). Carries the `stats_decode` fault site.
Status DecodeMetaBlockRange(std::string_view block, uint32_t cols,
                            ColumnarMeta* meta);

/// Decodes a v3 string-column data block (`block` = exactly the column's
/// data slice, `validity` = its `rows` validity bytes) into an owned
/// string column named `name`.
Result<Column> DecodeV3StringColumn(std::string_view block,
                                    std::string_view validity,
                                    std::string name, size_t rows);

/// The format's FNV-1a (the payload and index checksum function).
uint64_t ColumnarFnv1a64(std::string_view data);

}  // namespace arda::df::internal

#endif  // ARDA_DATAFRAME_COLUMNAR_INTERNAL_H_
