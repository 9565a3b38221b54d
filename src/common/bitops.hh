/**
 * @file
 * Small bit-manipulation helpers used across the router and network
 * builders (METRO constrains several architectural parameters to
 * powers of two — Table 1).
 */

#ifndef METRO_COMMON_BITOPS_HH
#define METRO_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace metro
{

/** True when x is a (positive) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)). @pre x > 0. */
constexpr unsigned
log2Floor(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** ceil(log2(x)). @pre x > 0. */
constexpr unsigned
log2Ceil(std::uint64_t x)
{
    return x <= 1 ? 0 : log2Floor(x - 1) + 1;
}

/** ceil(a / b). @pre b > 0. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Mask of the low n bits (n ≤ 64). */
constexpr std::uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Call f(i) for every set bit i of mask, in ascending order. */
template <typename F>
constexpr void
forEachBit(std::uint64_t mask, F &&f)
{
    for (; mask != 0; mask &= mask - 1)
        f(static_cast<unsigned>(std::countr_zero(mask)));
}

} // namespace metro

#endif // METRO_COMMON_BITOPS_HH
