/**
 * @file
 * Exporters for the obs metrics registry:
 *
 *  - addMetricsTables(): the `"metrics"` table family of the shared
 *    sim/report document — a deterministic scalar table ("metrics")
 *    every format carries, and a timing table ("metrics-timing",
 *    p50/p95/p99 per stage) the caller includes only in views that
 *    tolerate wall-clock data (the same rule as tagecon_serve's
 *    timing section: never in the CSV byte-diff path).
 *
 *  - writePrometheusText(): a Prometheus-style text dump for
 *    `--metrics-out=`. The document is split by marker comments into a
 *    `# --- deterministic ---` section (counters, sorted,
 *    byte-identical at any --jobs for a fixed workload configuration —
 *    the section CI diffs j4-vs-j1) and a
 *    `# --- timing (non-deterministic) ---` section (histograms with
 *    cumulative `le` buckets, `_sum`, `_count`).
 */

#ifndef TAGECON_OBS_METRICS_EXPORT_HPP
#define TAGECON_OBS_METRICS_EXPORT_HPP

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "util/errors.hpp"

namespace tagecon {

class Report;

namespace obs {

/**
 * Append the metrics table family to @p report: table id "metrics"
 * (metric | value, deterministic scalars), and — when
 * @p include_timing — table id "metrics-timing"
 * (stage | count | p50/p95/p99/mean ns).
 */
void addMetricsTables(Report& report, const MetricsSnapshot& snap,
                      bool include_timing);

/** Prometheus metric name: "tagecon_" + name with dots flattened. */
std::string prometheusName(const std::string& metric);

/** Write the two-section Prometheus-style text dump. */
void writePrometheusText(const MetricsSnapshot& snap, std::ostream& os);

/** writePrometheusText() into @p path ("-" = stdout). */
[[nodiscard]] Err writePrometheusFile(const MetricsSnapshot& snap,
                                      const std::string& path);

} // namespace obs
} // namespace tagecon

#endif // TAGECON_OBS_METRICS_EXPORT_HPP
