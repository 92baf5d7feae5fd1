#include "util/fault.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/string_util.h"

namespace arda::fault {

namespace {

struct ArmedSite {
  std::string name;
  // 0 = every hit fails; otherwise only this (1-based) hit fails.
  uint64_t only_hit = 0;
  uint64_t hits = 0;
};

struct FaultState {
  std::mutex mu;
  std::vector<ArmedSite> sites;
};

// Any armed sites at all; checked lock-free on the hot path.
std::atomic<bool> g_armed{false};

FaultState& State() {
  static FaultState* state = new FaultState();
  return *state;
}

bool KnownSite(std::string_view name) {
  for (std::string_view site : AllFaultSites()) {
    if (site == name) return true;
  }
  return false;
}

Status ParseSpecLocked(std::string_view spec, std::vector<ArmedSite>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view entry = Trim(spec.substr(pos, comma - pos));
    pos = comma + 1;
    if (entry.empty()) continue;
    ArmedSite site;
    size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      site.name = std::string(entry);
    } else {
      site.name = std::string(Trim(entry.substr(0, colon)));
      int64_t n = 0;
      if (!ParseInt64(Trim(entry.substr(colon + 1)), &n) || n <= 0) {
        return Status::InvalidArgument("bad fault hit count in spec entry: " +
                                       std::string(entry));
      }
      site.only_hit = static_cast<uint64_t>(n);
    }
    if (!KnownSite(site.name)) {
      return Status::InvalidArgument("unknown fault site: " + site.name);
    }
    out->push_back(std::move(site));
  }
  return Status::Ok();
}

// Arms sites from the ARDA_FAULT environment variable exactly once.
void ArmFromEnvOnce() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    const char* env = std::getenv("ARDA_FAULT");
    if (env == nullptr || *env == '\0') return;
    FaultState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    std::vector<ArmedSite> sites;
    Status st = ParseSpecLocked(env, &sites);
    if (!st.ok()) {
      // A bad env spec should fail loudly, not silently run without
      // faults: tests and operators both rely on the injection arming.
      std::fprintf(stderr, "ARDA_FAULT: %s\n", st.ToString().c_str());
      std::abort();
    }
    state.sites = std::move(sites);
    g_armed.store(!state.sites.empty(), std::memory_order_release);
  });
}

}  // namespace

const std::vector<std::string_view>& AllFaultSites() {
  static const std::vector<std::string_view>* sites =
      new std::vector<std::string_view>{
          kCsvParse, kColumnarRead, kColumnarMap, kStatsDecode,
          kJoinKeyEncode, kPreAggregate, kResample, kImpute,
          kCholesky, kCoreset, kRifs, kServiceAccept, kServiceIngest,
      };
  return *sites;
}

void InitFromEnvironment() { ArmFromEnvOnce(); }

bool FaultsArmed() {
  ArmFromEnvOnce();
  return g_armed.load(std::memory_order_acquire);
}

bool ShouldFail(std::string_view site) {
  FaultState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (ArmedSite& armed : state.sites) {
    if (armed.name != site) continue;
    ++armed.hits;
    return armed.only_hit == 0 || armed.hits == armed.only_hit;
  }
  return false;
}

Status SetFaultSpecForTest(std::string_view spec) {
  ArmFromEnvOnce();  // keep env parsing ordered before overrides
  FaultState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<ArmedSite> sites;
  ARDA_RETURN_IF_ERROR(ParseSpecLocked(spec, &sites));
  state.sites = std::move(sites);
  g_armed.store(!state.sites.empty(), std::memory_order_release);
  return Status::Ok();
}

void ResetFaultCounters() {
  FaultState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (ArmedSite& site : state.sites) site.hits = 0;
}

Status InjectedFault(std::string_view site) {
  return Status::Internal("injected fault at site '" + std::string(site) +
                          "' (ARDA_FAULT)");
}

}  // namespace arda::fault
