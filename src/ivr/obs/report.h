#ifndef IVR_OBS_REPORT_H_
#define IVR_OBS_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "ivr/core/args.h"
#include "ivr/core/result.h"
#include "ivr/core/status.h"

namespace ivr {
namespace obs {

/// Version of the --stats-json document layout. Bump when a key is
/// renamed, removed, or its meaning changes; additions are backwards
/// compatible and do not bump it.
inline constexpr int kStatsSchemaVersion = 1;

/// The machine-readable stats snapshot: every registered counter, gauge
/// and histogram (sorted by name) plus the fault injector's per-site
/// fire tallies, as deterministic pretty-printed JSON:
///
///   {
///     "schema_version": 1,
///     "counters":   {"name": <uint>, ...},
///     "gauges":     {"name": <int>, ...},
///     "histograms": {"name": {"count": n, "sum": s, "max": m,
///                             "p50": q, "p90": q, "p99": q,
///                             "buckets": [<uint> x 40]}, ...},
///     "faults":     {"site": {"calls": n, "injected": m}, ...},
///     "cache":      {"hits": n, "misses": n, ...}  // cache.* metrics,
///                                                  // prefix stripped
///   }
///
/// Byte-for-byte reproducible whenever the recorded values are (fixed
/// workload + fake clock), for any thread count — the property
/// stats_golden_test pins.
std::string StatsJson();

/// Writes StatsJson() atomically.
Status WriteStatsJson(const std::string& path);

/// Human-readable summary: non-zero counters, all gauges, and non-empty
/// histograms with count/p50/p95/max. Multi-line, trailing newline; what
/// every tool prints on stderr at exit (FinishToolWithObs).
std::string StatsSummary();

/// Tool glue, start of main: parses argv, rejects any --flag outside
/// `flags`, arms the fault injector (--fault-spec/--fault-seed) and
/// enables tracing when --trace is present. A failure is printed on
/// stderr; the tool then exits 2.
Result<ArgParser> StartTool(int argc, const char* const* argv,
                            const std::vector<std::string>& flags);

/// Tool glue, end of main: prints the fault injector's per-site summary
/// (when armed) and StatsSummary() on stderr, then writes --stats-json and
/// flushes --trace when the flags are present. Returns `rc`, or 1 when an
/// explicitly requested output cannot be written and `rc` was 0.
int FinishToolWithObs(const ArgParser& args, int rc);

/// Same, first printing `health` on stderr when it reports a degraded
/// mode (any report with degraded() and ToString(), e.g. HealthReport).
template <typename Health>
int FinishToolWithObs(const ArgParser& args, int rc, const Health& health) {
  if (health.degraded()) {
    std::fprintf(stderr, "%s\n", health.ToString().c_str());
  }
  return FinishToolWithObs(args, rc);
}

}  // namespace obs
}  // namespace ivr

#endif  // IVR_OBS_REPORT_H_
