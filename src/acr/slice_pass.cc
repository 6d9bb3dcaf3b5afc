#include "acr/slice_pass.hh"

#include "common/logging.hh"
#include "slice/engine.hh"
#include "slice/relevance.hh"
#include "slice/repository.hh"
#include "sim/system.hh"

namespace acr::amnesic
{

namespace
{

/**
 * Pin-tool-style instrumentation callback. Every store is a candidate,
 * so the observer watches every store and every result that can reach
 * a store's value.
 */
class PassObserver final : public cpu::ExecObserver
{
  public:
    PassObserver(slice::SliceEngine &slicer, const isa::Program &program,
                 std::uint64_t memory_digest)
        : slicer_(slicer), hintedPcs_(program.size(), 0),
          memoryDigest_(memory_digest)
    {
        std::vector<std::uint8_t> mask =
            slice::relevantPcs(program, slice::BuildingStores::kEvery);
        markStores(program, mask);
        watchOnly(std::move(mask));
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isStore(event.inst->op)) {
            ++dynamicStores_;
            memoryDigest_ +=
                mem::MainMemory::wordDigest(event.addr, event.result) -
                mem::MainMemory::wordDigest(event.addr, event.oldValue);
            const slice::BuiltSlice *built = slicer_.buildForStore(event);
            if (built) {
                ++sliceableStores_;
                hintedPcs_[event.pc] = 1;
                repo_.intern(built->slice);
            }
            return;
        }
        slicer_.observe(event);
    }

    bool
    hinted(std::size_t pc) const
    {
        return hintedPcs_[pc] != 0;
    }
    const slice::SliceRepository &repo() const { return repo_; }
    std::uint64_t dynamicStores() const { return dynamicStores_; }
    std::uint64_t sliceableStores() const { return sliceableStores_; }
    std::uint64_t memoryDigest() const { return memoryDigest_; }

  private:
    slice::SliceEngine &slicer_;
    /** Per-pc hint flags, indexed by static pc (dense, hot). */
    std::vector<std::uint8_t> hintedPcs_;
    slice::SliceRepository repo_;
    std::uint64_t dynamicStores_ = 0;
    std::uint64_t sliceableStores_ = 0;
    /** Running MainMemory::digest(), kept from the stores observed. */
    std::uint64_t memoryDigest_;
};

} // namespace

SlicePassResult
SlicePass::run(const isa::Program &program,
               const sim::MachineConfig &machine,
               const slice::SlicePolicyConfig &policy)
{
    sim::MulticoreSystem system(machine, program);
    slice::SliceEngine slicer(machine.numCores, policy);
    PassObserver observer(slicer, program, system.memory().digest());
    SlicePassResult result;
    auto record = [&] {
        result.goldenTrack.push_back({system.progress(),
                                      system.archDigest(),
                                      observer.memoryDigest()});
    };
    record();
    system.runToCompletionWith(&observer, record);

    result.program = program;
    for (auto &inst : result.program.code()) {
        if (isa::isStore(inst.op)) {
            ++result.staticStores;
            if (observer.hinted(static_cast<std::size_t>(
                    &inst - result.program.code().data())))
            {
                inst.sliceHint = true;
                ++result.hintedStores;
            }
        }
    }

    result.uniqueSlices = observer.repo().uniqueSlices();
    result.sliceInstrs = observer.repo().totalInstrs();
    result.binaryGrowthPct =
        100.0 * static_cast<double>(result.sliceInstrs) /
        static_cast<double>(program.size());
    result.dynamicStores = observer.dynamicStores();
    result.sliceableStores = observer.sliceableStores();
    result.totalProgress = system.progress();
    result.cycles = system.maxCycle();
    result.finalImage = system.memory().image();
    system.exportStats(result.stats);
    return result;
}

} // namespace acr::amnesic
