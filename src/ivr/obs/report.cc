#include "ivr/obs/report.h"

#include <cstdio>

#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/obs/metrics.h"
#include "ivr/obs/trace.h"

namespace ivr {
namespace obs {
namespace {

std::string U64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

std::string I64(int64_t v) {
  return StrFormat("%lld", static_cast<long long>(v));
}

}  // namespace

std::string StatsJson() {
  const RegistrySnapshot snap = Registry::Global().TakeSnapshot();
  const std::vector<FaultInjector::SiteStats> faults =
      FaultInjector::Global().PerSiteStats();

  std::string out;
  out += StrFormat("{\n  \"schema_version\": %d,\n", kStatsSchemaVersion);

  out += "  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("    \"%s\": %s",
                     JsonEscape(snap.counters[i].first).c_str(),
                     U64(snap.counters[i].second).c_str());
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("    \"%s\": %s",
                     JsonEscape(snap.gauges[i].first).c_str(),
                     I64(snap.gauges[i].second).c_str());
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const HistogramSnapshot& h = snap.histograms[i].second;
    out += StrFormat(
        "    \"%s\": {\"count\": %s, \"sum\": %s, \"max\": %s, "
        "\"p50\": %s, \"p90\": %s, \"p99\": %s, \"buckets\": [",
        JsonEscape(snap.histograms[i].first).c_str(), U64(h.count).c_str(),
        I64(h.sum).c_str(), I64(h.max).c_str(),
        I64(h.Quantile(0.50)).c_str(), I64(h.Quantile(0.90)).c_str(),
        I64(h.Quantile(0.99)).c_str());
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += U64(h.buckets[b]);
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "},\n" : "\n  },\n";

  out += "  \"faults\": {";
  for (size_t i = 0; i < faults.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("    \"%s\": {\"calls\": %s, \"injected\": %s}",
                     JsonEscape(faults[i].site).c_str(),
                     U64(faults[i].calls).c_str(),
                     U64(faults[i].injected).c_str());
  }
  out += faults.empty() ? "},\n" : "\n  },\n";

  // Derived view of the result cache: every "cache."-prefixed counter and
  // gauge with the prefix stripped, grouped so cache behaviour can be read
  // off one object. Empty (but present) when no cache was attached —
  // an addition, so the schema version stays at 1.
  out += "  \"cache\": {";
  constexpr const char kCachePrefix[] = "cache.";
  constexpr size_t kCachePrefixLen = sizeof(kCachePrefix) - 1;
  size_t cache_keys = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(kCachePrefix, 0) != 0) continue;
    out += cache_keys == 0 ? "\n" : ",\n";
    out += StrFormat("    \"%s\": %s",
                     JsonEscape(name.substr(kCachePrefixLen)).c_str(),
                     U64(value).c_str());
    ++cache_keys;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind(kCachePrefix, 0) != 0) continue;
    out += cache_keys == 0 ? "\n" : ",\n";
    out += StrFormat("    \"%s\": %s",
                     JsonEscape(name.substr(kCachePrefixLen)).c_str(),
                     I64(value).c_str());
    ++cache_keys;
  }
  out += cache_keys == 0 ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

Status WriteStatsJson(const std::string& path) {
  return WriteFileAtomic(path, StatsJson());
}

std::string StatsSummary() {
  const RegistrySnapshot snap = Registry::Global().TakeSnapshot();
  std::string out = "-- observability summary --\n";
  size_t printed = 0;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    out += StrFormat("  %-36s %s\n", name.c_str(), U64(value).c_str());
    ++printed;
  }
  for (const auto& [name, value] : snap.gauges) {
    out += StrFormat("  %-36s %s\n", name.c_str(), I64(value).c_str());
    ++printed;
  }
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    out += StrFormat(
        "  %-36s count=%s p50<=%sus p95<=%sus max=%sus\n", name.c_str(),
        U64(h.count).c_str(), I64(h.Quantile(0.50)).c_str(),
        I64(h.Quantile(0.95)).c_str(), I64(h.max).c_str());
    ++printed;
  }
  if (printed == 0) out += "  (no activity recorded)\n";
  return out;
}

Result<ArgParser> StartTool(int argc, const char* const* argv,
                            const std::vector<std::string>& flags) {
  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  Status status = args.ok() ? args->RejectUnknown(flags) : args.status();
  if (status.ok()) status = ConfigureFaultInjectionFromArgs(*args);
  if (status.ok() && args->Has("trace")) {
    if (args->GetString("trace").empty()) {
      status = Status::InvalidArgument("--trace requires an output path");
    } else {
      TraceRecorder::Global().Enable();
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return status;
  }
  return args;
}

int FinishToolWithObs(const ArgParser& args, int rc) {
  if (FaultInjector::Global().enabled()) {
    std::fprintf(stderr, "%s", FaultInjector::Global().Summary().c_str());
  }
  std::fprintf(stderr, "%s", StatsSummary().c_str());
  Status status = Status::OK();
  if (args.Has("stats-json")) {
    const std::string path = args.GetString("stats-json");
    status = path.empty() ? Status::InvalidArgument(
                                "--stats-json requires an output path")
                          : WriteStatsJson(path);
  }
  if (args.Has("trace")) {
    const Status trace_status =
        TraceRecorder::Global().FlushToFile(args.GetString("trace"));
    if (status.ok()) status = trace_status;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "obs output failed: %s\n",
                 status.ToString().c_str());
    if (rc == 0) rc = 1;
  }
  return rc;
}

}  // namespace obs
}  // namespace ivr
