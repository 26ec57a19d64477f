/**
 * @file
 * The paper's experiments as named plans. Each plan reproduces one
 * figure, table or section of the paper, or a comparison or ablation
 * around it, as a SweepPlan executed by runSweepRows() and rendered
 * into a Report. `tagecon_sweep --plan=NAME` runs one:
 *
 *   tagecon_sweep --plan=figure4 --branches=1000000 --jobs=8
 *
 * Plan names are the experiment ids (figure2..figure6, table1..table3,
 * section5, warmup, bim_burst, vs_jrs, vs_selfconf, prob_sweep,
 * ablation_ctrwidth, ablation_looppred, ablation_usealt). Output is
 * bit-identical at any --jobs apart from the banner's jobs field.
 *
 * Built as its own small library so only tagecon_sweep and its test
 * carry the paper-report code.
 */

#ifndef TAGECON_BENCH_PAPER_PLANS_HPP
#define TAGECON_BENCH_PAPER_PLANS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analysis_config.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** Run parameters of a paper plan, as tagecon_sweep parses them. */
struct PlanParams {
    /** Branches generated per trace (--branches). */
    uint64_t branchesPerTrace = 1000000;

    /** Seed salt applied to every trace (--seed). */
    uint64_t seedSalt = 0;

    /** Run-analysis observers attached to every cell (--analysis). */
    AnalysisConfig analysis;

    /**
     * Registry specs replacing the default lineup (--predictors).
     * Only the lineup plans (bim_burst, vs_jrs, vs_selfconf) take
     * them; the others reject a non-empty list.
     */
    std::vector<std::string> predictors;
};

/**
 * Run plan @p name over @p sweep's workers. Fails (NotFound) on an
 * unknown name, listing the known ones, and (BadSpec) when
 * @p params.predictors is given to a plan with a fixed lineup.
 */
[[nodiscard]] Expected<Report> runPaperPlan(const std::string& name,
                                            const PlanParams& params,
                                            const SweepOptions& sweep);

} // namespace tagecon

#endif // TAGECON_BENCH_PAPER_PLANS_HPP
