/**
 * @file
 * Observation interface onto the dynamic instruction stream.
 *
 * This is the simulator's equivalent of the paper's Pin instrumentation:
 * the dynamic slicer tracks register producer chains through it, and the
 * checkpoint substrate intercepts stores for undo logging. One observer is
 * attached per run; composite observers fan events out.
 */

#ifndef ACR_CPU_EXEC_OBSERVER_HH
#define ACR_CPU_EXEC_OBSERVER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace acr::cpu
{

/** Everything knowable about one retired dynamic instruction. */
struct InstrEvent
{
    CoreId core = 0;
    /** Static pc of the instruction. */
    std::size_t pc = 0;
    const isa::Instruction *inst = nullptr;

    /**
     * Value produced: rd's new value for ALU ops and loads, the stored
     * value for stores, 0 otherwise.
     */
    Word result = 0;

    /** Effective address for loads/stores. */
    Addr addr = 0;

    /** Previous memory value at addr, for stores (the undo-log datum). */
    Word oldValue = 0;
};

/**
 * Callback interface invoked once per retired instruction at a watched
 * static pc. An observer watches every pc unless its constructor
 * declares a smaller set with watchOnly(); the core then builds an
 * InstrEvent only at those pcs (DESIGN.md §13.3).
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;
    virtual void onInstr(const InstrEvent &event) = 0;

    /** Per-pc watch mask (nonzero: watched), empty when every pc is. */
    const std::vector<std::uint8_t> &watchedPcs() const { return watched_; }

  protected:
    /** Watch only the pcs set in @p mask, one byte per static pc of
     *  the program this observer is attached to. */
    void watchOnly(std::vector<std::uint8_t> mask)
    {
        watched_ = std::move(mask);
    }

    /** Set @p mask at every store of @p program: the pcs the
     *  checkpoint substrate and the Slice builds react to. */
    static void
    markStores(const isa::Program &program, std::vector<std::uint8_t> &mask)
    {
        for (std::size_t pc = 0; pc < program.size(); ++pc) {
            if (isa::isStore(program.at(pc).op))
                mask[pc] = 1;
        }
    }

  private:
    std::vector<std::uint8_t> watched_;
};

} // namespace acr::cpu

#endif // ACR_CPU_EXEC_OBSERVER_HH
