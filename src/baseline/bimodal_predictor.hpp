/**
 * @file
 * Smith's bimodal predictor (ISCA 1981): a PC-indexed table of 2-bit
 * saturating counters. Also the historical origin of storage-free
 * confidence: a weak counter means an unreliable prediction — the same
 * observation the paper applies to TAGE's base component.
 */

#ifndef TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP
#define TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP

#include <vector>

#include "baseline/predictor.hpp"
#include "util/saturating_counter.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/** Stand-alone bimodal predictor with Smith-style self-confidence. */
class BimodalPredictor : public ConditionalPredictor
{
  public:
    /**
     * @param log_entries log2 of the table size.
     * @param ctr_bits Counter width (2 in the classic design).
     */
    explicit BimodalPredictor(int log_entries, int ctr_bits = 2);

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    std::string name() const override { return "bimodal"; }
    uint64_t storageBits() const override;

    /**
     * Smith self-confidence for the branch at @p pc: high confidence
     * iff the counter is not weak.
     */
    bool highConfidence(uint64_t pc) const;

    /** Raw value of the counter backing @p pc (tests / introspection). */
    unsigned counterFor(uint64_t pc) const;

    /** Serialize geometry fingerprint + counter table. */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState() on an identical geometry.
     * Returns false with the reason in @p error on mismatch/underrun.
     */
    bool loadState(StateReader& in, std::string& error);

  private:
    uint32_t indexFor(uint64_t pc) const;

    /** Packed counters: one byte per entry, width held in ctrBits_. */
    std::vector<uint8_t> table_;
    int logEntries_;
    int ctrBits_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP
