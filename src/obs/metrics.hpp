/**
 * @file
 * MetricsRegistry: named counters and fixed-bucket timing histograms
 * for the serving / sweep / checkpoint paths — the repo's
 * observability layer.
 *
 * The registry enforces a hard split the rest of the codebase's
 * determinism contract depends on:
 *
 *  - **Deterministic metrics** (Counter): pure functions of the
 *    workload configuration — predictions served, allocations,
 *    quarantines, retries, pool admissions, checkpoint bytes, sweep
 *    cache hits. Integer sums are order-independent, so their values are
 *    byte-identical at any --jobs (with shards/pool/batch held fixed)
 *    and CI diffs the deterministic dump j4-vs-j1.
 *
 *  - **Timing metrics** (TimingHistogram): per-stage latency
 *    distributions with p50/p95/p99. Readings come exclusively from
 *    the util/wall_clock seam (the one clock site the no-wall-clock
 *    lint rule whitelists) and are excluded from every byte-diff gate
 *    by construction — the exporter emits them in a separately marked
 *    section.
 *
 * Cost discipline (same as util/failpoint.hpp): every instrumented
 * site is gated on one relaxed atomic load (metricsEnabled()); with
 * collection disabled — the default — that load is the entire
 * overhead, pinned by BM_MetricsDisabled* in bench_micro_predictor
 * and committed in BENCH_obs.json. Metric objects are never erased,
 * so handles from counter()/timingHistogram() stay valid for
 * the process lifetime and hot paths can cache them in local statics.
 */

#ifndef TAGECON_OBS_METRICS_HPP
#define TAGECON_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tagecon {
namespace obs {

namespace detail {
extern std::atomic<int> g_metricsEnabled;
} // namespace detail

/** True when metric collection is on. One relaxed load — the gate. */
inline bool
metricsEnabled()
{
    return detail::g_metricsEnabled.load(std::memory_order_relaxed) != 0;
}

/** Turn collection on or off (off is the zero-overhead default). */
void setMetricsEnabled(bool on);

/**
 * Monotonically increasing event count. add() is a relaxed fetch_add:
 * integer sums are independent of thread interleaving, so a counter's
 * final value is deterministic whenever the *set* of increments is —
 * which every instrumented site guarantees by counting events that are
 * pure functions of the workload configuration.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (metricsEnabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Fixed-bucket histogram for nanosecond timings. Bucket b counts
 * samples v with v <= bounds[b] (the last bucket is the +Inf
 * overflow), so the cumulative counts are exactly the Prometheus
 * `le` convention. record() is two relaxed fetch_adds plus a binary
 * search over the (immutable) bounds — safe from any thread.
 *
 * Timing histograms are non-deterministic by nature and are emitted
 * only in the exporter's timing section, never in byte-diffed output.
 */
class TimingHistogram
{
  public:
    /**
     * @param bounds Strictly increasing bucket upper bounds. The
     * registry's default timing buckets (defaultTimingBoundsNs())
     * cover 100ns..10s in log-spaced thirds of a decade.
     */
    explicit TimingHistogram(std::vector<uint64_t> bounds);

    /** Record one sample (gated on metricsEnabled()). */
    void record(uint64_t value);

    /** Samples recorded. */
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /** Sum of all samples. */
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    /** The bucket upper bounds (excluding the implicit +Inf). */
    const std::vector<uint64_t>& bounds() const { return bounds_; }

    /** Per-bucket counts, bounds().size() + 1 entries (+Inf last). */
    std::vector<uint64_t> bucketCounts() const;

    /**
     * Quantile estimate by linear interpolation inside the bucket the
     * q-th sample falls into (q in [0,1]); 0 when empty. An estimate —
     * good to bucket resolution, which the log-spaced defaults keep
     * within ~2x.
     */
    double quantile(double q) const;

    void reset();

  private:
    std::vector<uint64_t> bounds_;
    std::vector<std::atomic<uint64_t>> counts_; // bounds_.size() + 1
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
};

/** The default timing bucket bounds: 100ns..10s, thirds of a decade. */
const std::vector<uint64_t>& defaultTimingBoundsNs();

// ------------------------------------------------------------ registry

/**
 * Look up (creating on first use) the named counter. Names are
 * dot-separated, lower-case, area-first ("serve.predictions",
 * "ckpt.bytes.written", "sweep.cache.hits") — the exporter turns dots
 * into underscores for the Prometheus dump. The returned reference is
 * valid for the process lifetime; hot paths cache it in a local
 * static. Lookup takes the registry mutex — do it once, not per event.
 */
Counter& counter(const std::string& name);

/**
 * Like counter(), for timing histograms with the default nanosecond
 * buckets. A second lookup of the same name returns the same
 * histogram regardless of @p bounds.
 */
TimingHistogram&
timingHistogram(const std::string& name,
                const std::vector<uint64_t>* bounds = nullptr);

/** Zero every registered metric (tests; registration survives). */
void resetAllMetrics();

// ------------------------------------------------------------ snapshot

/** Point-in-time sample of one counter. */
struct ScalarSample {
    std::string name;
    int64_t value = 0;
};

/** Point-in-time sample of one timing histogram. */
struct TimingSample {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> bounds;
    std::vector<uint64_t> bucketCounts; // bounds.size() + 1, +Inf last
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Everything the registry holds, names sorted: the deterministic
 * scalars (counters) and the timing histograms, separated so
 * exporters cannot accidentally mix a clock reading into a
 * byte-diffed section.
 */
struct MetricsSnapshot {
    std::vector<ScalarSample> scalars;
    std::vector<TimingSample> timings;
};

/** Sample every registered metric. */
MetricsSnapshot snapshotMetrics();

// --------------------------------------------------------------- timer

/**
 * RAII stage timer: reads wallclock::monotonicNanos() on construction
 * and records the elapsed nanoseconds into @p h on destruction. When
 * metrics are disabled the constructor is one relaxed load and the
 * clock is never touched.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(TimingHistogram& h);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    TimingHistogram* hist_; // nullptr when disabled at construction
    uint64_t startNs_ = 0;
};

} // namespace obs
} // namespace tagecon

#endif // TAGECON_OBS_METRICS_HPP
