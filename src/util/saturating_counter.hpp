/**
 * @file
 * Saturating counter primitives used throughout the predictor code.
 *
 * packed::* are static saturating-counter operations on raw values,
 * parameterized by a width. They are the only counter vocabulary: the
 * hot predictor tables store one int8_t/uint8_t per counter (hardware
 * stores 2-4 bits) and apply these ops with the width held once per
 * table, and the low-frequency architectural registers (USE_ALT_ON_NA,
 * L-TAGE's WITHLOOP) are plain ints updated by the same ops.
 *
 * A signed counter's sign encodes the prediction; |2*ctr + 1| encodes
 * the strength, which is the quantity the confidence classes of the
 * paper (Sec. 5.2) are defined on.
 */

#ifndef TAGECON_UTIL_SATURATING_COUNTER_HPP
#define TAGECON_UTIL_SATURATING_COUNTER_HPP

#include <cstdint>

namespace tagecon {

/**
 * Static saturating-counter operations over raw packed values.
 *
 * Signed counters live in [-2^(bits-1), 2^(bits-1) - 1] and are stored
 * as plain int8_t in the tables (bits <= 8) or int registers (bits <=
 * 15); unsigned counters live in [0, 2^bits - 1] and are stored as
 * plain uint8_t (bits <= 8). The width is passed per call so a table
 * can hold it once.
 */
namespace packed {

/** Smallest representable signed value (e.g. -4 for 3 bits). */
constexpr int
signedMin(int bits)
{
    return -(1 << (bits - 1));
}

/** Largest representable signed value (e.g. +3 for 3 bits). */
constexpr int
signedMax(int bits)
{
    return (1 << (bits - 1)) - 1;
}

/**
 * Clamp @p v into the signed range of @p bits. Takes 64 bits so a
 * value read from a checkpoint is clamped before it is narrowed.
 */
constexpr int
signedClamp(int64_t v, int bits)
{
    const int lo = signedMin(bits);
    const int hi = signedMax(bits);
    return v < lo ? lo : (v > hi ? hi : static_cast<int>(v));
}

/** Signed counter predicts taken when the sign bit is clear. */
constexpr bool
signedTaken(int v)
{
    return v >= 0;
}

/** Prediction strength |2*ctr + 1| (1 = weak, 2^bits - 1 = saturated). */
constexpr int
signedStrength(int v)
{
    const int s = 2 * v + 1;
    return s < 0 ? -s : s;
}

/** True when the signed counter is weak (strength 1). */
constexpr bool
signedWeak(int v)
{
    return v == 0 || v == -1;
}

/** True when the signed counter sits at either rail. */
constexpr bool
signedSaturated(int v, int bits)
{
    return v == signedMin(bits) || v == signedMax(bits);
}

/** Saturating update toward an outcome; returns the new value. */
constexpr int
signedUpdate(int v, int bits, bool outcome_taken)
{
    if (outcome_taken)
        return v < signedMax(bits) ? v + 1 : v;
    return v > signedMin(bits) ? v - 1 : v;
}

/**
 * True iff signedUpdate(v, bits, outcome_taken) would move the counter
 * into a saturated state from a non-saturated one (the transition the
 * Sec. 6 probabilistic automaton gates).
 */
constexpr bool
signedUpdateWouldSaturate(int v, int bits, bool outcome_taken)
{
    if (outcome_taken)
        return v == signedMax(bits) - 1;
    return v == signedMin(bits) + 1;
}

/** Largest representable unsigned value. */
constexpr unsigned
unsignedMax(int bits)
{
    return (1u << bits) - 1;
}

/** Unsigned counter predicts taken in the upper half of its range. */
constexpr bool
unsignedTaken(unsigned v, int bits)
{
    return v >= (1u << (bits - 1));
}

/** True at either of the two middle values (e.g. 1 or 2 for 2 bits). */
constexpr bool
unsignedWeak(unsigned v, int bits)
{
    const unsigned mid = 1u << (bits - 1);
    return v == mid || v == mid - 1;
}

/** Saturating increment; returns the new value. */
constexpr unsigned
unsignedInc(unsigned v, int bits)
{
    return v < unsignedMax(bits) ? v + 1 : v;
}

/** Saturating decrement; returns the new value. */
constexpr unsigned
unsignedDec(unsigned v)
{
    return v > 0 ? v - 1 : v;
}

/** Saturating update toward an outcome; returns the new value. */
constexpr unsigned
unsignedUpdate(unsigned v, int bits, bool outcome_taken)
{
    return outcome_taken ? unsignedInc(v, bits) : unsignedDec(v);
}

/**
 * ctru*: a TAGE tagged entry's signed prediction counter (ctr, low
 * ctr_bits bits) and unsigned useful counter (u, the bits above it)
 * packed into one storage byte. Requires ctr_bits + u_bits <= 8;
 * TageConfig::validate() enforces that. The packed byte is the unit
 * the tagged arena stores (3 B/entry together with the uint16_t tag),
 * and also the unit checkpoints serialize.
 */

/** Pack a ctr value and a u value into one byte. */
constexpr uint8_t
ctruPack(int ctr, unsigned u, int ctr_bits)
{
    return static_cast<uint8_t>(
        (u << ctr_bits) |
        (static_cast<unsigned>(ctr) & unsignedMax(ctr_bits)));
}

/** Sign-extended prediction counter field of a packed ctr+u byte. */
constexpr int
ctruCtr(uint8_t v, int ctr_bits)
{
    const unsigned raw = v & unsignedMax(ctr_bits);
    const unsigned sign = 1u << (ctr_bits - 1);
    return static_cast<int>(raw ^ sign) - static_cast<int>(sign);
}

/** Useful counter field of a packed ctr+u byte. */
constexpr unsigned
ctruU(uint8_t v, int ctr_bits)
{
    return static_cast<unsigned>(v) >> ctr_bits;
}

/** Replace the prediction counter field, leaving u untouched. */
constexpr uint8_t
ctruWithCtr(uint8_t v, int ctr, int ctr_bits)
{
    return static_cast<uint8_t>(
        (v & ~unsignedMax(ctr_bits)) |
        (static_cast<unsigned>(ctr) & unsignedMax(ctr_bits)));
}

/** Replace the useful counter field, leaving ctr untouched. */
constexpr uint8_t
ctruWithU(uint8_t v, unsigned u, int ctr_bits)
{
    return static_cast<uint8_t>((v & unsignedMax(ctr_bits)) |
                                (u << ctr_bits));
}

/** One-bit right shift of the useful field (graceful aging). */
constexpr uint8_t
ctruAgeU(uint8_t v, int ctr_bits)
{
    return ctruWithU(v, ctruU(v, ctr_bits) >> 1, ctr_bits);
}

} // namespace packed

} // namespace tagecon

#endif // TAGECON_UTIL_SATURATING_COUNTER_HPP
