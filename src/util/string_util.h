#ifndef ARDA_UTIL_STRING_UTIL_H_
#define ARDA_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace arda {

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Returns `text` with leading and trailing ASCII whitespace removed.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Returns true if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses a double. The accepted grammar is locale-independent and strict
/// (see docs/csv_dialect.md "Numeric grammar"): optional surrounding ASCII
/// whitespace, optional single leading '-', decimal digits with at most
/// one '.', optional e/E exponent. Rejects "nan"/"inf" spellings, hex
/// floats, '+' signs, trailing garbage, and magnitudes outside double
/// range; subnormals (e.g. "1e-320") parse.
bool ParseDouble(std::string_view text, double* out);

/// Parses a signed 64-bit integer: optional surrounding ASCII whitespace,
/// optional single leading '-', decimal digits only (no '+', no hex).
/// Rejects trailing garbage and out-of-range values.
bool ParseInt64(std::string_view text, int64_t* out);

/// Parses a byte-size spelling: a non-negative decimal integer with an
/// optional single case-insensitive binary suffix `k`/`m`/`g` (multiples
/// of 1024; "64m" = 64 MiB). Rejects signs, fractions, trailing garbage,
/// and values that overflow uint64 after scaling. Used by
/// `bench_kernels --oocore-budget`.
bool ParseByteSize(std::string_view text, uint64_t* out);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `text` for embedding inside a JSON string literal: quotes,
/// backslashes and all control characters (< 0x20) become escape
/// sequences. Shared by every JSON emitter in the repo (run report,
/// trace export, metrics, benches) — emitting a string without it is a
/// bug (skip reasons and table names can carry quotes and newlines).
std::string JsonEscape(std::string_view text);

}  // namespace arda

#endif  // ARDA_UTIL_STRING_UTIL_H_
