#include "common/faults.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/perf.h"
#include "common/strings.h"

namespace mmflow::faults {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One armed site. `probability < 0` means the @N / @N* form.
struct SiteSpec {
  std::uint64_t nth = 0;     ///< 1-based hit index to fire on
  bool from_nth = false;     ///< @N* : fire on every hit >= nth
  double probability = -1.0; ///< ~P/SEED : per-hit probability
  std::uint64_t seed = 0;
  std::uint64_t hits = 0;    ///< hits recorded since install
};

std::mutex g_mutex;
std::map<std::string, SiteSpec, std::less<>>& registry() {
  static std::map<std::string, SiteSpec, std::less<>> specs;
  return specs;
}

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Deterministic per-hit coin: hash(seed, site, hit index) mapped to [0, 1).
/// Independent of thread scheduling — hit K of a site fires or not
/// regardless of which worker observes it.
double hit_uniform(std::uint64_t seed, std::string_view site,
                   std::uint64_t hit) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a_step(h, seed);
  for (const char c : site) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h = fnv1a_step(h, hit);
  // splitmix64 finalizer for avalanche; fnv alone is too weak in low bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[noreturn]] void bad_spec(std::string_view what, std::string_view term,
                           std::string_view why) {
  std::ostringstream os;
  os << what << ": bad fault term '" << term << "': " << why
     << " (expected site@N, site@N* or site~P/SEED)";
  throw PreconditionError(os.str());
}

}  // namespace

void install(const std::string& spec, std::string_view what) {
  std::map<std::string, SiteSpec, std::less<>> parsed;
  for (const std::string& raw : split_char(spec, ',')) {
    const std::string_view term = trim(raw);
    if (term.empty()) continue;
    SiteSpec s;
    std::string site;
    if (const auto at = term.find('@'); at != std::string_view::npos) {
      site = std::string(term.substr(0, at));
      std::string_view count = term.substr(at + 1);
      if (!count.empty() && count.back() == '*') {
        s.from_nth = true;
        count.remove_suffix(1);
      }
      s.nth = parse_u64(count, what);
      if (s.nth == 0) bad_spec(what, term, "hit index is 1-based");
    } else if (const auto tilde = term.find('~');
               tilde != std::string_view::npos) {
      site = std::string(term.substr(0, tilde));
      const std::string_view rest = term.substr(tilde + 1);
      const auto slash = rest.find('/');
      if (slash == std::string_view::npos) {
        bad_spec(what, term, "missing /SEED after probability");
      }
      s.probability = parse_double(rest.substr(0, slash), what);
      if (s.probability < 0.0 || s.probability > 1.0) {
        bad_spec(what, term, "probability outside [0, 1]");
      }
      s.seed = parse_u64(rest.substr(slash + 1), what);
    } else {
      bad_spec(what, term, "no @ or ~ trigger");
    }
    if (site.empty()) bad_spec(what, term, "empty site name");
    if (std::find(kSites.begin(), kSites.end(), site) == kSites.end()) {
      std::ostringstream os;
      os << what << ": unknown fault site '" << site << "' (shipped sites:";
      for (const std::string_view known : kSites) os << ' ' << known;
      os << ')';
      throw PreconditionError(os.str());
    }
    parsed.emplace(std::move(site), s);
  }

  const std::lock_guard<std::mutex> lock(g_mutex);
  registry() = std::move(parsed);
  detail::g_enabled.store(!registry().empty(), std::memory_order_relaxed);
}

void install_from_env() {
  const char* spec = std::getenv("MMFLOW_FAULTS");
  if (spec != nullptr && spec[0] != '\0') {
    install(spec, "MMFLOW_FAULTS");
  }
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  registry().clear();
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t hits(std::string_view site) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.hits;
}

namespace detail {

void maybe_throw_slow(std::string_view site) {
  bool fire = false;
  std::uint64_t hit = 0;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    const auto it = registry().find(site);
    if (it == registry().end()) return;
    SiteSpec& s = it->second;
    hit = ++s.hits;
    if (s.probability >= 0.0) {
      fire = hit_uniform(s.seed, site, hit) < s.probability;
    } else {
      fire = s.from_nth ? hit >= s.nth : hit == s.nth;
    }
  }
  if (fire) {
    MMFLOW_PERF_ADD("faults.injected", 1);
    std::ostringstream os;
    os << "injected fault at site '" << site << "' (hit " << hit << ")";
    throw FaultInjected(os.str());
  }
}

}  // namespace detail

}  // namespace mmflow::faults
