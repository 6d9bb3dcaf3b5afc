/**
 * @file
 * Fundamental machine types and address-geometry helpers shared by every
 * module of the ACR reproduction.
 *
 * The simulated machine is word-addressed: an Addr names one 64-bit word.
 * Cache lines span kWordsPerLine consecutive words (64 bytes, matching
 * Table I of the paper), and all cache/DRAM traffic is accounted at line
 * granularity while checkpoint undo-log records are word granular (see
 * DESIGN.md, "Granularity substitution").
 */

#ifndef ACR_COMMON_TYPES_HH
#define ACR_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace acr
{

/** A 64-bit machine word: the unit of registers, memory, and logging. */
using Word = std::uint64_t;

/** Signed view of a machine word, for arithmetic that needs a sign. */
using SWord = std::int64_t;

/** A word-granular memory address. */
using Addr = std::uint64_t;

/** A simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Energy in picojoules. */
using Energy = double;

/** Identifier of a core (equivalently, of the thread pinned to it). */
using CoreId = std::uint32_t;

/** Bytes per machine word. */
inline constexpr std::size_t kWordBytes = 8;

/** Words per cache line (64-byte lines per Table I). */
inline constexpr std::size_t kWordsPerLine = 8;

/** Bytes per cache line. */
inline constexpr std::size_t kLineBytes = kWordBytes * kWordsPerLine;

/** Identifier of a cache line (its index in line-granular space). */
using LineId = std::uint64_t;

/** Line containing the given word address. */
constexpr LineId
lineOf(Addr addr)
{
    return addr / kWordsPerLine;
}

/** First word address of the given line. */
constexpr Addr
lineBase(LineId line)
{
    return line * kWordsPerLine;
}

/** Offset of a word address within its line. */
constexpr std::size_t
lineOffset(Addr addr)
{
    return static_cast<std::size_t>(addr % kWordsPerLine);
}

/** Sentinel for "no address". */
inline constexpr Addr kInvalidAddr = ~Addr{0};

/** Sentinel for "no core". */
inline constexpr CoreId kInvalidCore = ~CoreId{0};

/** splitmix64's finalizer: a bijective 64-bit mixer, the building
 *  block of the machine-state digests (DESIGN.md §12.1). */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace acr

#endif // ACR_COMMON_TYPES_HH
