#include "slice/relevance.hh"

namespace acr::slice
{

std::vector<std::uint8_t>
relevantPcs(const isa::Program &program, BuildingStores stores)
{
    using RegSet = std::uint32_t;
    static_assert(isa::kNumRegs <= 32, "a register set must fit RegSet");
    auto bit = [](isa::Reg reg) { return RegSet{1} << reg; };

    // live[pc]: the registers whose value on entry to pc a tracked
    // instruction or a building store may read before a redefinition.
    // live[size], past the last instruction, stays empty.
    const std::size_t size = program.size();
    std::vector<RegSet> live(size + 1, 0);
    std::vector<std::uint8_t> tracked(size, 0);

    // Backward sweeps to the fixpoint: the sets only grow, and a loop
    // carries a value across its back edge on the next sweep.
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t pc = size; pc-- > 0;) {
            const isa::Instruction &inst = program.at(pc);
            RegSet out = 0;
            if (!isa::isHalt(inst.op) && inst.op != isa::Opcode::kJmp)
                out = live[pc + 1];
            if (isa::isBranch(inst.op))
                out |= live[static_cast<std::size_t>(inst.imm)];

            RegSet in = out;
            if (isa::isStore(inst.op)) {
                if (stores == BuildingStores::kEvery || inst.sliceHint)
                    in |= bit(inst.rs2);
            } else if (isa::writesReg(inst.op)) {
                const bool needed = (out & bit(inst.rd)) != 0;
                tracked[pc] = needed;
                in &= ~bit(inst.rd);
                // Loads and tid reads are leaves: they read no operand
                // the engine tracks.
                if (needed && isa::isSliceable(inst.op)) {
                    if (isa::readsRs1(inst.op))
                        in |= bit(inst.rs1);
                    if (isa::readsRs2(inst.op))
                        in |= bit(inst.rs2);
                }
            }
            if (in != live[pc]) {
                live[pc] = in;
                changed = true;
            }
        }
    }
    return tracked;
}

} // namespace acr::slice
