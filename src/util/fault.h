#ifndef ARDA_UTIL_FAULT_H_
#define ARDA_UTIL_FAULT_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// Deterministic fault-injection harness for exercising graceful
/// degradation. Pipeline stages that can fail recoverably declare a named
/// fault site (`ARDA_FAULT_POINT`); when the site is armed — via the
/// `ARDA_FAULT` environment variable or `SetFaultSpecForTest` — the stage
/// returns an injected `Status` instead of doing its work, letting tests
/// prove the pipeline completes (skipping or downgrading the affected
/// candidate) with any single fault active.
///
/// Spec grammar (comma-separated list of sites):
///   ARDA_FAULT="cholesky"            every hit of the site fails
///   ARDA_FAULT="csv_parse:2"         only the 2nd hit fails (1-based)
///   ARDA_FAULT="impute,cholesky:1"   multiple armed sites
///
/// Hit counting is per-site and process-wide; `ResetFaultCounters`
/// restarts it (tests call this between cases). With no spec the
/// fast-path check is a single relaxed atomic load.

namespace arda::fault {

/// Canonical fault-site names, one per recoverable pipeline stage. Tests
/// iterate this list to build the single-fault matrix; arming an unknown
/// site name is an error surfaced by SetFaultSpecForTest.
inline constexpr std::string_view kCsvParse = "csv_parse";
inline constexpr std::string_view kColumnarRead = "columnar_read";
/// Mmap-backed open of a v3 `.ardac` file (dataframe/mapped_columnar.h).
/// A failed map degrades like a failed read: the loader falls back to the
/// CSV and records the table in LoadStats::fallbacks.
inline constexpr std::string_view kColumnarMap = "columnar_map";
inline constexpr std::string_view kStatsDecode = "stats_decode";
inline constexpr std::string_view kJoinKeyEncode = "join_key_encode";
inline constexpr std::string_view kPreAggregate = "preaggregate";
inline constexpr std::string_view kResample = "resample";
inline constexpr std::string_view kImpute = "impute";
inline constexpr std::string_view kCholesky = "cholesky";
inline constexpr std::string_view kCoreset = "coreset";
inline constexpr std::string_view kRifs = "rifs";
/// Service sites: request admission/decode in the daemon's connection
/// path (the request is rejected with an error response, the connection
/// and server survive) and snapshot construction during an `ingest`
/// request (the ingest fails, the previous snapshot keeps serving).
inline constexpr std::string_view kServiceAccept = "service_accept";
inline constexpr std::string_view kServiceIngest = "service_ingest";

/// Every registered fault site.
const std::vector<std::string_view>& AllFaultSites();

/// Reads `ARDA_FAULT` and arms the listed sites. The environment is
/// consulted exactly once per process (std::once_flag) no matter how
/// often this runs; entry points call it from main() before any worker
/// thread starts so no thread ever races std::getenv. The armed spec is
/// **process-wide, not per-request**: a long-lived server cannot inject
/// faults for one client only (tests override with SetFaultSpecForTest
/// instead). Callers that skip this get the same once-only arming lazily
/// on the first FaultsArmed() check. A malformed spec aborts the process
/// (tests and operators rely on the injection actually arming).
void InitFromEnvironment();

/// True when any fault site is armed (cheap: one atomic load).
bool FaultsArmed();

/// True when `site` should fail at this hit; increments the site's hit
/// counter when the site is armed. Thread-safe.
bool ShouldFail(std::string_view site);

/// Arms sites from `spec` (see grammar above), replacing any previous
/// spec, and resets all hit counters. An empty spec disarms everything.
/// Returns InvalidArgument for unknown site names or malformed counts.
Status SetFaultSpecForTest(std::string_view spec);

/// Resets per-site hit counters without changing the armed spec.
void ResetFaultCounters();

/// The injected error every armed site returns, so degradation reasons
/// are greppable in reports and logs.
Status InjectedFault(std::string_view site);

}  // namespace arda::fault

/// Fails the enclosing Status/Result-returning function with an injected
/// error when `site` is armed. Compiles to one atomic load when no fault
/// spec is set.
#define ARDA_FAULT_POINT(site)                          \
  do {                                                  \
    if (::arda::fault::FaultsArmed() &&                 \
        ::arda::fault::ShouldFail(site)) {              \
      return ::arda::fault::InjectedFault(site);        \
    }                                                   \
  } while (0)

#endif  // ARDA_UTIL_FAULT_H_
