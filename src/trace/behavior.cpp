#include "trace/behavior.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace tagecon {

BranchBehavior
BranchBehavior::always(bool taken)
{
    return BranchBehavior(AlwaysModel{taken});
}

BranchBehavior
BranchBehavior::loop(uint32_t period, double trip_jitter)
{
    TAGECON_ASSERT(period >= 1, "loop period must be >= 1");
    return BranchBehavior(
        LoopModel{period, std::clamp(trip_jitter, 0.0, 1.0), 0, period});
}

BranchBehavior
BranchBehavior::pattern(std::vector<bool> pattern)
{
    TAGECON_ASSERT(!pattern.empty(), "pattern must be non-empty");
    return BranchBehavior(PatternModel{std::move(pattern), 0});
}

BranchBehavior
BranchBehavior::biased(double p_taken)
{
    return BranchBehavior(BiasedModel{std::clamp(p_taken, 0.0, 1.0)});
}

BranchBehavior
BranchBehavior::markov(double p_stay_taken, double p_stay_not_taken)
{
    return BranchBehavior(MarkovModel{std::clamp(p_stay_taken, 0.0, 1.0),
                                      std::clamp(p_stay_not_taken, 0.0, 1.0),
                                      false});
}

BranchBehavior
BranchBehavior::correlated(std::vector<uint16_t> taps, bool invert,
                           double noise)
{
    TAGECON_ASSERT(!taps.empty(), "correlated branch needs taps");
    for (const uint16_t t : taps)
        TAGECON_ASSERT(t >= 1, "correlation tap must look at the past");
    return BranchBehavior(CorrelatedModel{std::move(taps), invert,
                                          std::clamp(noise, 0.0, 1.0)});
}

bool
BranchBehavior::nextOutcome(BehaviorContext& ctx)
{
    struct Visitor {
        BehaviorContext& ctx;

        bool operator()(AlwaysModel& m) const { return m.taken; }

        bool
        operator()(LoopModel& m) const
        {
            if (m.pos == 0 && m.tripJitter > 0.0 &&
                ctx.rng.nextBool(m.tripJitter)) {
                // Data-dependent trip count: this run is one iteration
                // shorter or longer than nominal.
                const bool up = ctx.rng.nextBool(0.5);
                m.curPeriod = up ? m.period + 1
                                 : (m.period > 1 ? m.period - 1 : 1);
            } else if (m.pos == 0) {
                m.curPeriod = m.period;
            }
            const bool taken = m.pos + 1 < m.curPeriod;
            m.pos = (m.pos + 1) % m.curPeriod;
            return taken;
        }

        bool
        operator()(PatternModel& m) const
        {
            const bool taken = m.outcomes[m.pos];
            m.pos = (m.pos + 1) % m.outcomes.size();
            return taken;
        }

        bool
        operator()(BiasedModel& m) const
        {
            return ctx.rng.nextBool(m.pTaken);
        }

        bool
        operator()(MarkovModel& m) const
        {
            const double stay = m.state ? m.pStayTaken : m.pStayNotTaken;
            if (!ctx.rng.nextBool(stay))
                m.state = !m.state;
            return m.state;
        }

        bool
        operator()(CorrelatedModel& m) const
        {
            unsigned parity = m.invert ? 1u : 0u;
            for (const uint16_t t : m.taps)
                parity ^= ctx.history[t];
            bool taken = (parity & 1u) != 0;
            if (m.noise > 0.0 && ctx.rng.nextBool(m.noise))
                taken = !taken;
            return taken;
        }
    };

    return std::visit(Visitor{ctx}, model_);
}

BehaviorKind
BranchBehavior::kind() const
{
    struct Visitor {
        BehaviorKind operator()(const AlwaysModel&) const
        { return BehaviorKind::Always; }
        BehaviorKind operator()(const LoopModel&) const
        { return BehaviorKind::Loop; }
        BehaviorKind operator()(const PatternModel&) const
        { return BehaviorKind::Pattern; }
        BehaviorKind operator()(const BiasedModel&) const
        { return BehaviorKind::Biased; }
        BehaviorKind operator()(const MarkovModel&) const
        { return BehaviorKind::Markov; }
        BehaviorKind operator()(const CorrelatedModel&) const
        { return BehaviorKind::Correlated; }
    };
    return std::visit(Visitor{}, model_);
}

void
BranchBehavior::reset()
{
    struct Visitor {
        void operator()(AlwaysModel&) const {}
        void
        operator()(LoopModel& m) const
        {
            m.pos = 0;
            m.curPeriod = m.period;
        }
        void operator()(PatternModel& m) const { m.pos = 0; }
        void operator()(BiasedModel&) const {}
        void operator()(MarkovModel& m) const { m.state = false; }
        void operator()(CorrelatedModel&) const {}
    };
    std::visit(Visitor{}, model_);
}

} // namespace tagecon
