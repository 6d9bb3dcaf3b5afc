/**
 * @file
 * A Program is the unit of execution: one SPMD instruction sequence run by
 * every core (differentiated through kTid), plus its initial data segment.
 */

#ifndef ACR_ISA_PROGRAM_HH
#define ACR_ISA_PROGRAM_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace acr::isa
{

/** Initial memory contents: (word address, value) pairs. */
struct DataSegment
{
    std::vector<std::pair<Addr, Word>> words;

    /** Set one word, overwriting any earlier initializer for it. */
    void set(Addr addr, Word value) { words.emplace_back(addr, value); }
};

/** An executable SPMD program. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Instruction stream; the entry point is pc 0. */
    const std::vector<Instruction> &code() const { return code_; }
    std::vector<Instruction> &code() { return code_; }

    /** Initial data image applied to MainMemory before execution. */
    const DataSegment &data() const { return data_; }
    DataSegment &data() { return data_; }

    std::size_t size() const { return code_.size(); }
    const Instruction &at(std::size_t pc) const { return code_[pc]; }

    /**
     * Static sanity checks: nonempty, holds a kHalt, cannot step past
     * its end (the last instruction is kHalt or kJmp), register
     * indices < kNumRegs, branch targets within [0, size), r0 never
     * written. Returns an empty string when valid, else a description of
     * the first problem found.
     */
    std::string validate() const;

    /** Count of stores carrying the ASSOC-ADDR slice hint. */
    std::size_t sliceHintedStores() const;

    /** Disassemble the whole program. */
    void disassemble(std::ostream &os) const;

  private:
    std::string name_;
    std::vector<Instruction> code_;
    DataSegment data_;
};

} // namespace acr::isa

#endif // ACR_ISA_PROGRAM_HH
