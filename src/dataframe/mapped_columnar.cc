#include "dataframe/mapped_columnar.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "dataframe/columnar_internal.h"
#include "simd/simd.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define ARDA_HAVE_MMAP 1
#else
#define ARDA_HAVE_MMAP 0
#endif

namespace arda::df {

#if ARDA_HAVE_MMAP

namespace {

// Owns one read-only file mapping; shared by every column borrowed out
// of it, so munmap runs exactly once — after the last borrower drops.
struct Mapping {
  void* addr = nullptr;
  size_t len = 0;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (addr != nullptr) ::munmap(addr, len);
  }
};

}  // namespace

Result<DataFrame> MapColumnar(const std::string& path, ColumnarMeta* meta) {
  if (meta != nullptr) *meta = ColumnarMeta{};
  ARDA_FAULT_POINT(fault::kColumnarMap);
  trace::StageScope scope("ingest/columnar_map");

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open file: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat file: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < internal::kV3HeaderSize) {
    // Covers the 0-byte case, which mmap itself would reject (EINVAL).
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("columnar data truncated reading header (need %zu "
                  "bytes, have %llu): %s",
                  internal::kV3HeaderSize,
                  static_cast<unsigned long long>(file_size),
                  path.c_str()));
  }

  auto mapping = std::make_shared<Mapping>();
  void* addr = ::mmap(nullptr, static_cast<size_t>(file_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap file: " + path);
  }
  mapping->addr = addr;
  mapping->len = static_cast<size_t>(file_size);
  // Column slices are the access granularity here, and bounded residency
  // is the point of the mapped path: with default sequential readahead
  // the kernel's fault windows (64 KiB fault-around, up to 2 MiB
  // readahead) around the header/meta touches below would pull a whole
  // few-MiB table resident on open. Advise random access so each kernel
  // pays for exactly the pages it reads. Advisory only — ignore failure.
  ::madvise(addr, static_cast<size_t>(file_size), MADV_RANDOM);
  const char* base = static_cast<const char*>(addr);
  std::string_view data(base, static_cast<size_t>(file_size));

  internal::V3Index index;
  ARDA_RETURN_IF_ERROR(internal::ParseV3Index(data, file_size, &index));
  const size_t rows = static_cast<size_t>(index.rows);

  DataFrame frame;
  for (const internal::V3Column& entry : index.columns) {
    const uint8_t* validity =
        reinterpret_cast<const uint8_t*>(base + entry.validity_off);
    Column col = Column::Empty(entry.name, entry.type);
    switch (entry.type) {
      case DataType::kDouble:
        if constexpr (std::endian::native == std::endian::little) {
          col = Column::BorrowedDouble(
              entry.name,
              reinterpret_cast<const double*>(base + entry.data_off),
              validity, rows, mapping);
        } else {
          std::vector<double> decoded(rows);
          simd::DecodeU64LeToDouble(base + entry.data_off, rows,
                                    decoded.data());
          col = Column::Double(entry.name, std::move(decoded));
          col.SetValidity(
              std::vector<uint8_t>(validity, validity + rows));
        }
        break;
      case DataType::kInt64:
        if constexpr (std::endian::native == std::endian::little) {
          col = Column::BorrowedInt64(
              entry.name,
              reinterpret_cast<const int64_t*>(base + entry.data_off),
              validity, rows, mapping);
        } else {
          std::vector<int64_t> decoded(rows);
          simd::DecodeU64LeToInt64(base + entry.data_off, rows,
                                   decoded.data());
          col = Column::Int64(entry.name, std::move(decoded));
          col.SetValidity(
              std::vector<uint8_t>(validity, validity + rows));
        }
        break;
      case DataType::kString:
        // Strings are variable-width — no zero-copy view exists for
        // them, so they decode eagerly like the meta block.
        ARDA_ASSIGN_OR_RETURN(
            col, internal::DecodeV3StringColumn(
                     data.substr(entry.data_off, entry.data_len),
                     data.substr(entry.validity_off, rows), entry.name,
                     rows));
        break;
    }
    ARDA_RETURN_IF_ERROR(frame.AddColumn(std::move(col)));
  }
  ColumnarMeta local_meta;
  ARDA_RETURN_IF_ERROR(internal::DecodeMetaBlockRange(
      data.substr(index.meta_off, index.meta_len), index.cols,
      meta == nullptr ? &local_meta : meta));

  metrics::IncrementCounter("ingest.columnar_map_bytes", data.size());
  metrics::IncrementCounter("ingest.columnar_map_tables", 1);
  return frame;
}

#else  // !ARDA_HAVE_MMAP

Result<DataFrame> MapColumnar(const std::string& path, ColumnarMeta* meta) {
  if (meta != nullptr) *meta = ColumnarMeta{};
  (void)path;
  return Status::FailedPrecondition(
      "mmap-backed columnar open is unsupported on this platform");
}

#endif  // ARDA_HAVE_MMAP

}  // namespace arda::df
