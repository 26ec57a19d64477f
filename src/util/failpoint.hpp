/**
 * @file
 * Deterministic fault injection: named failure sites compiled into the
 * I/O and serving paths, armed at runtime from a spec string so
 * failure schedules are reproducible — bit-identical at any --jobs.
 *
 * Sites (the fixed, known set — parse rejects typos):
 *
 *   trace.open        opening/probing a trace source
 *   trace.read        reading one record from a file-backed trace
 *   ckpt.encode       snapshotting a predictor into a blob
 *   ckpt.decode       decoding a checkpoint blob
 *   ckpt.read         reading a checkpoint file
 *   ckpt.write        writing a checkpoint file (fires as a torn
 *                     write: a partial .tmp is left behind, the real
 *                     file is never replaced)
 *   serve.worker.step one serving scheduling turn of one stream
 *
 * Spec grammar (the --faults flag):
 *
 *   spec  := rule (';' rule)*
 *   rule  := SITE [':' param (',' param)*]
 *   param := 'nth='N      fail the Nth matching hit (1-based) within
 *                         each key scope (default: every hit)
 *          | 'count='M    fire at most M times per key scope
 *          | 'rate='P     fail each hit with probability P in [0,1],
 *                         decided by a seeded hash of
 *                         (site, key, hit-index) — not a shared RNG
 *          | 'seed='S     seed for rate hashing (default 0)
 *          | 'key='K      only hits whose scope key equals K
 *          | 'err='CODE   ErrCode to inject (errCodeName() names;
 *                         default "io", the retryable class)
 *
 *   e.g.  --faults=ckpt.read:key=3;trace.read:rate=0.01,seed=7
 *
 * Determinism: every trigger decision is a pure function of
 * (rule, scope key, per-key hit index). The scope key is set by the
 * execution layer (the serving engine scopes each stream's work to its
 * stream id via KeyScope), and one key's hits are sequential within
 * the worker that owns it, so schedules do not depend on thread
 * interleaving.
 *
 * Cost when unarmed: check() reads one relaxed atomic and branches —
 * no lock, no map lookup, no allocation (micro-bench: BM_Failpoint*
 * in bench_micro_predictor). Armed evaluation takes a mutex; fault
 * runs are diagnostics, not throughput runs.
 */

#ifndef TAGECON_UTIL_FAILPOINT_HPP
#define TAGECON_UTIL_FAILPOINT_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace tagecon {
namespace failpoints {

/** Scope key meaning "no specific scope" (hits outside any KeyScope). */
inline constexpr uint64_t kNoKey = UINT64_MAX;

/** One armed injection rule; see the file comment for semantics. */
struct FailRule {
    std::string site;
    uint64_t key = kNoKey;         ///< kNoKey = match any scope key
    uint64_t nth = 0;              ///< 0 = any hit
    uint64_t count = UINT64_MAX;   ///< max fires per key scope
    double rate = -1.0;            ///< < 0 = not rate-based
    uint64_t seed = 0;
    ErrCode code = ErrCode::Io;
};

/** The site names parse accepts; sorted, for --help style listings. */
const std::vector<std::string>& knownSites();

/**
 * Parse a --faults spec into rules. Returns false with the reason in
 * @p error on an unknown site, unknown/duplicate param, out-of-range
 * value or malformed syntax. Does not arm anything.
 */
bool parseFaultSpec(const std::string& spec, std::vector<FailRule>& out,
                    std::string& error);

/**
 * Parse @p spec and arm it, replacing any previously armed rules and
 * resetting all hit counters. An empty spec disarms. Returns false
 * with the reason in @p error (when non-null) on a bad spec, leaving
 * the previous arming untouched.
 */
bool arm(const std::string& spec, std::string* error = nullptr);

/** Arm pre-parsed rules (tests), replacing state like arm(). */
void armRules(std::vector<FailRule> rules);

/** Disarm every rule and drop all counters. */
void disarm();

namespace detail {
extern std::atomic<int> g_armed;
} // namespace detail

/** True when any rule is armed. One relaxed load — the hot-path gate. */
inline bool
anyArmed()
{
    return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/**
 * Record a hit at @p site under the current thread's scope key and
 * return the injected Err when an armed rule decides this hit fails.
 * The unarmed fast path is a single relaxed atomic load.
 */
std::optional<Err> check(const char* site);

/**
 * RAII scope key: failpoint hits on this thread evaluate under @p key
 * until the scope dies (restoring the previous key). The serving
 * engine opens one per stream so rules can target streams and per-key
 * hit counters are interleaving-independent.
 */
class KeyScope
{
  public:
    explicit KeyScope(uint64_t key);
    ~KeyScope();

    KeyScope(const KeyScope&) = delete;
    KeyScope& operator=(const KeyScope&) = delete;

  private:
    uint64_t prev_;
};

/**
 * Test helper: arm on construction, disarm on destruction, so a
 * failing test cannot leak armed rules into the next one.
 */
class ScopedFaults
{
  public:
    explicit ScopedFaults(const std::string& spec, std::string* error = nullptr)
    {
        ok_ = arm(spec, error);
    }

    ~ScopedFaults() { disarm(); }

    ScopedFaults(const ScopedFaults&) = delete;
    ScopedFaults& operator=(const ScopedFaults&) = delete;

    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

} // namespace failpoints
} // namespace tagecon

#endif // TAGECON_UTIL_FAILPOINT_HPP
