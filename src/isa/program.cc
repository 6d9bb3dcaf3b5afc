#include "isa/program.hh"

#include <iomanip>

#include "common/logging.hh"

namespace acr::isa
{

std::string
Program::validate() const
{
    if (code_.empty())
        return "program has no instructions";

    bool has_halt = false;
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
        const Instruction &inst = code_[pc];
        if (inst.op >= Opcode::kNumOpcodes)
            return csprintf("pc %zu: invalid opcode", pc);
        if (writesReg(inst.op)) {
            if (inst.rd >= kNumRegs)
                return csprintf("pc %zu: rd out of range", pc);
            if (inst.rd == 0)
                return csprintf("pc %zu: writes hardwired r0", pc);
        }
        if (readsRs1(inst.op) && inst.rs1 >= kNumRegs)
            return csprintf("pc %zu: rs1 out of range", pc);
        if (readsRs2(inst.op) && inst.rs2 >= kNumRegs)
            return csprintf("pc %zu: rs2 out of range", pc);
        if (isBranch(inst.op)) {
            if (inst.imm < 0 ||
                static_cast<std::size_t>(inst.imm) >= code_.size()) {
                return csprintf("pc %zu: branch target %lld out of range",
                                pc, static_cast<long long>(inst.imm));
            }
        }
        if (inst.sliceHint && !isStore(inst.op))
            return csprintf("pc %zu: sliceHint on non-store", pc);
        if (isHalt(inst.op))
            has_halt = true;
    }
    if (!has_halt)
        return "program has no halt instruction";
    // Only a halt or an unconditional jump keeps the last pc from
    // stepping past the end.
    const Opcode last = code_.back().op;
    if (!isHalt(last) && last != Opcode::kJmp)
        return csprintf("pc %zu: falls through the program end",
                        code_.size() - 1);
    return "";
}

std::size_t
Program::sliceHintedStores() const
{
    std::size_t n = 0;
    for (const auto &inst : code_)
        if (isStore(inst.op) && inst.sliceHint)
            ++n;
    return n;
}

void
Program::disassemble(std::ostream &os) const
{
    os << "; program '" << name_ << "', " << code_.size()
       << " instructions, " << data_.words.size() << " data words\n";
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
        os << std::setw(6) << pc << ":  " << toString(code_[pc]) << "\n";
    }
}

} // namespace acr::isa
