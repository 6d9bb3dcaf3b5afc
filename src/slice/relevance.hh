/**
 * @file
 * Static slice relevance: the instructions whose results a Slice build
 * can ever read (DESIGN.md §13.2).
 *
 * A build walks the producer DAG behind a store's rs2, and that DAG
 * holds only sliceable instructions plus the loads, tid reads and
 * collapsed values that are its leaves. So a result the slicer needs
 * is one that can reach the rs2 of a building store through a chain of
 * sliceable instructions. A backward liveness pass over the program's
 * control-flow graph finds those pcs once; the slicer observers feed
 * SliceEngine::observe only them, the way the paper's pass finds
 * Slices offline and the runtime tracks nothing else (Sec. III-A).
 *
 * The filter is exact. Every reaching definition of a tracked
 * instruction's engine operands is itself tracked, or is program entry
 * or a rollback's resetCore, both of which leave the real register
 * value as a lazy leaf. Branch targets are immediates that
 * Program::validate range-checks, so a corrupted register cannot steer
 * a core off the graph. Every build therefore reads the same slots the
 * unfiltered engine would.
 */

#ifndef ACR_SLICE_RELEVANCE_HH
#define ACR_SLICE_RELEVANCE_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace acr::slice
{

/** The stores whose rs2 a run builds Slices for. */
enum class BuildingStores
{
    kEvery,   ///< the slice pass: every store is a candidate
    kHinted,  ///< a ReCkpt run: stores carrying the ASSOC-ADDR hint
};

/**
 * Per-pc mask over a valid @p program: 1 where the slicer must observe
 * the instruction. Only register-writing pcs are ever set.
 */
std::vector<std::uint8_t> relevantPcs(const isa::Program &program,
                                      BuildingStores stores);

} // namespace acr::slice

#endif // ACR_SLICE_RELEVANCE_HH
