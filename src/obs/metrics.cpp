#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "util/mutex.hpp"
#include "util/wall_clock.hpp"

namespace tagecon {
namespace obs {

namespace detail {
std::atomic<int> g_metricsEnabled{0};
} // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::g_metricsEnabled.store(on ? 1 : 0,
                                   std::memory_order_relaxed);
}

// ---------------------------------------------------- TimingHistogram

TimingHistogram::TimingHistogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
}

void
TimingHistogram::record(uint64_t value)
{
    if (!metricsEnabled())
        return;
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const size_t bucket =
        static_cast<size_t>(it - bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t>
TimingHistogram::bucketCounts() const
{
    std::vector<uint64_t> out(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

double
TimingHistogram::quantile(double q) const
{
    const std::vector<uint64_t> counts = bucketCounts();
    uint64_t total = 0;
    for (const uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const double target = q * static_cast<double>(total);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0)
            continue;
        const uint64_t next = cumulative + counts[b];
        if (static_cast<double>(next) >= target) {
            // Interpolate inside bucket b between its lower and upper
            // bound; the overflow bucket reports its lower bound.
            const double lo =
                b == 0 ? 0.0 : static_cast<double>(bounds_[b - 1]);
            if (b >= bounds_.size())
                return lo;
            const double hi = static_cast<double>(bounds_[b]);
            const double into =
                (target - static_cast<double>(cumulative)) /
                static_cast<double>(counts[b]);
            return lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
        }
        cumulative = next;
    }
    return static_cast<double>(bounds_.empty() ? 0 : bounds_.back());
}

void
TimingHistogram::reset()
{
    for (auto& c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

const std::vector<uint64_t>&
defaultTimingBoundsNs()
{
    // 100ns .. 10s in log-spaced thirds of a decade (100, 215, 464,
    // 1000, ...): wide enough for a predict batch and a checkpoint
    // fsync alike, and coarse enough that quantile estimates stay
    // within ~2x of the truth.
    static const std::vector<uint64_t> bounds = [] {
        std::vector<uint64_t> b;
        uint64_t decade = 100;
        while (decade <= 10'000'000'000ULL) {
            b.push_back(decade);
            b.push_back(decade * 215 / 100);
            b.push_back(decade * 464 / 100);
            decade *= 10;
        }
        return b;
    }();
    return bounds;
}

// ------------------------------------------------------------ registry

namespace {

/**
 * The process-global registry. std::map (not unordered) so snapshots
 * iterate in sorted name order without an extra sort — the order the
 * deterministic dump is byte-diffed in. Entries are never erased, so
 * references handed out stay valid; resetAllMetrics() only zeroes
 * values.
 */
struct Registry {
    Mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters
        TAGECON_GUARDED_BY(mutex);
    std::map<std::string, std::unique_ptr<TimingHistogram>> timings
        TAGECON_GUARDED_BY(mutex);
};

Registry&
registry()
{
    static Registry* r = new Registry; // never destroyed: handles
                                       // outlive static teardown
    return *r;
}

} // namespace

Counter&
counter(const std::string& name)
{
    Registry& r = registry();
    MutexLock lock(r.mutex);
    auto& slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

TimingHistogram&
timingHistogram(const std::string& name,
                const std::vector<uint64_t>* bounds)
{
    Registry& r = registry();
    MutexLock lock(r.mutex);
    auto& slot = r.timings[name];
    if (!slot)
        slot = std::make_unique<TimingHistogram>(
            bounds != nullptr ? *bounds : defaultTimingBoundsNs());
    return *slot;
}

void
resetAllMetrics()
{
    Registry& r = registry();
    MutexLock lock(r.mutex);
    for (auto& [name, c] : r.counters)
        c->reset();
    for (auto& [name, h] : r.timings)
        h->reset();
}

MetricsSnapshot
snapshotMetrics()
{
    MetricsSnapshot out;
    Registry& r = registry();
    MutexLock lock(r.mutex);
    out.scalars.reserve(r.counters.size());
    for (const auto& [name, c] : r.counters)
        out.scalars.push_back(
            ScalarSample{name, static_cast<int64_t>(c->value())});
    out.timings.reserve(r.timings.size());
    for (const auto& [name, h] : r.timings) {
        TimingSample s;
        s.name = name;
        s.count = h->count();
        s.sum = h->sum();
        s.bounds = h->bounds();
        s.bucketCounts = h->bucketCounts();
        s.p50 = h->quantile(0.50);
        s.p95 = h->quantile(0.95);
        s.p99 = h->quantile(0.99);
        out.timings.push_back(std::move(s));
    }
    return out;
}

// --------------------------------------------------------------- timer

ScopedTimer::ScopedTimer(TimingHistogram& h)
    : hist_(metricsEnabled() ? &h : nullptr)
{
    if (hist_ != nullptr)
        startNs_ = wallclock::monotonicNanos();
}

ScopedTimer::~ScopedTimer()
{
    if (hist_ != nullptr)
        hist_->record(wallclock::monotonicNanos() - startNs_);
}

} // namespace obs
} // namespace tagecon
