#ifndef ARDA_DATAFRAME_MAPPED_COLUMNAR_H_
#define ARDA_DATAFRAME_MAPPED_COLUMNAR_H_

#include <string>

#include "dataframe/columnar_io.h"
#include "dataframe/data_frame.h"
#include "util/status.h"

/// \file
/// Mmap-backed open of `.ardac` version-3 files. Instead of slurping the
/// whole table into owned vectors (ReadColumnar), MapColumnar maps the
/// file read-only (`MAP_PRIVATE`) and hands out a DataFrame whose numeric
/// columns *borrow* their validity and value blocks straight out of the
/// mapping (Column::BorrowedDouble/BorrowedInt64). Pages fault in lazily
/// on first touch, so a repository holding many cached tables costs
/// resident memory only for the columns a run actually reads — the basis
/// of the out-of-core execution mode (DESIGN.md).
///
/// Safety: the header, the column index checksum and every recorded
/// extent are validated against the real (fstat) file size before the
/// first payload access, so a truncated or corrupted file yields a
/// Status — never SIGBUS. What the mapped path deliberately skips is the
/// whole-payload checksum (validating it would fault in every page and
/// defeat laziness); a file whose payload bytes were corrupted in place
/// can therefore produce wrong values, but never out-of-bounds access.
/// Eager ReadColumnar keeps full checksum validation; cache rewrites go
/// through WriteColumnar's temp-file + rename, so a live mapping keeps
/// its old inode and stays readable.
///
/// The mapping's lifetime is tied to the returned columns via a shared
/// owner: copies of the frame share it, and munmap happens only when the
/// last borrowing column is destroyed (or materialized by a mutation).

namespace arda::df {

/// Maps `path` (a `.ardac` version-3 file) and returns a DataFrame whose
/// numeric columns borrow the mapping zero-copy; string columns and the
/// meta block decode eagerly. Fails with a Status on a missing file, an
/// mmap error, truncation, index corruption or a version other than 3
/// (FailedPrecondition, as the eager reader). Carries the
/// `fault::kColumnarMap` injection site. On non-POSIX builds always
/// fails with FailedPrecondition.
Result<DataFrame> MapColumnar(const std::string& path,
                              ColumnarMeta* meta = nullptr);

}  // namespace arda::df

#endif  // ARDA_DATAFRAME_MAPPED_COLUMNAR_H_
