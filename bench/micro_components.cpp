/**
 * @file
 * Component microbenchmarks (google-benchmark): host-side throughput of
 * the hot simulator paths — cache lookups, DRAM queue accounting,
 * functional memory, the dynamic slicer, slice replay as a function of
 * slice length, undo-log appends — plus the simulated-energy
 * recompute-vs-restore crossover that underpins Equation 4.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "ckpt/log.hh"
#include "energy/energy_model.hh"
#include "isa/builder.hh"
#include "mem/main_memory.hh"
#include "slice/engine.hh"
#include "slice/instance.hh"
#include "workloads/workload.hh"

namespace
{

using namespace acr;

void
BM_CacheAccess(benchmark::State &state)
{
    cache::CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.ways = 8;
    cache::Cache cache(config);
    Rng rng(1);
    std::vector<LineId> lines(4096);
    for (auto &line : lines)
        line = rng.below(2048);
    std::size_t i = 0;
    for (auto _ : state) {
        const LineId line = lines[i & 4095];
        const bool write = (i++ & 3) == 0;
        benchmark::DoNotOptimize(cache.access(line, write));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_DramQueueAccounting(benchmark::State &state)
{
    mem::DramModel dram(mem::DramConfig{});
    Cycle now = 0;
    LineId line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.lineWrite(line++, now));
        now += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramQueueAccounting);

void
BM_MainMemoryWrite(benchmark::State &state)
{
    mem::MainMemory memory;
    Rng rng(2);
    std::vector<Addr> addrs(4096);
    for (auto &addr : addrs)
        addr = rng.below(1 << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr addr = addrs[i & 4095];
        const Word value = i++;
        benchmark::DoNotOptimize(memory.write(addr, value));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MainMemoryWrite);

/** Sums the old values of stores, the only pcs it watches: the
 *  observer shape a Ckpt run's driver has. */
class StoreWatcher final : public cpu::ExecObserver
{
  public:
    explicit StoreWatcher(const isa::Program &program)
    {
        std::vector<std::uint8_t> mask(program.size(), 0);
        markStores(program, mask);
        watchOnly(std::move(mask));
    }

    void onInstr(const cpu::InstrEvent &event) override
    {
        sum += event.oldValue;
    }

    Word sum = 0;
};

/** One core over its own memory and caches, loaded with a program. */
struct CoreRig
{
    explicit CoreRig(const isa::Program &program)
        : caches(1, cache::HierarchyConfig{}, mem::DramConfig{}),
          core(0, program, memory, caches, cpu::CoreTimingConfig{})
    {
        for (const auto &[addr, value] : program.data().words)
            memory.write(addr, value);
    }

    mem::MainMemory memory;
    cache::CacheSystem caches;
    cpu::Core core;
};

/**
 * Core dispatch in 1000-instruction quanta. "spin" runs an ALU loop
 * with no observer; "cg_stores_watched" runs the cg kernel built for
 * one thread through an observer that watches only stores, the path a
 * Ckpt run takes, and restarts the kernel when it halts.
 */
void
BM_CoreExecution(benchmark::State &state, bool kernel)
{
    isa::Program program;
    if (kernel) {
        workloads::WorkloadParams params;
        params.threads = 1;
        program = workloads::makeWorkload("cg")->build(params);
    } else {
        isa::ProgramBuilder b("spin");
        b.movi(1, 0);
        b.movi(2, 1 << 30);
        b.label("loop");
        b.addi(1, 1, 1);
        b.muli(3, 1, 17);
        b.xori(3, 3, 99);
        b.bltu(1, 2, "loop");
        b.halt();
        program = b.build();
    }
    StoreWatcher watcher(program);
    auto rig = std::make_unique<CoreRig>(program);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        cpu::Core &core = rig->core;
        const std::uint64_t before = core.instrsRetired();
        const cpu::CoreState run_state = kernel
                                             ? core.run(1000, &watcher)
                                             : core.run(1000, nullptr);
        instrs += core.instrsRetired() - before;
        if (run_state == cpu::CoreState::kAtBarrier) {
            core.releaseBarrier(core.cycle());
        } else if (run_state == cpu::CoreState::kHalted) {
            state.PauseTiming();
            rig = std::make_unique<CoreRig>(program);
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(watcher.sum);
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK_CAPTURE(BM_CoreExecution, spin, false);
BENCHMARK_CAPTURE(BM_CoreExecution, cg_stores_watched, true);

void
BM_SlicerTracking(benchmark::State &state, unsigned chain)
{
    // Throughput of producer-chain tracking (the per-instruction cost
    // the ReCkpt configurations pay) on a self-dependent addi chain.
    // With chain > 0 a movi restarts it every `chain` instructions, so
    // every result stays within the build cap and holds a node
    // (shallow); with 0 the chain is unbounded and runs node-less past
    // the cap (deep).
    isa::Instruction addi{isa::Opcode::kAddi, 1, 1, 0, 1, false};
    isa::Instruction movi{isa::Opcode::kMovi, 1, 0, 0, 0, false};
    slice::SliceEngine engine(1, slice::SlicePolicyConfig{});
    cpu::InstrEvent event;
    event.core = 0;
    unsigned left = chain;
    for (auto _ : state) {
        const bool restart = chain != 0 && --left == 0;
        if (restart)
            left = chain;
        event.inst = restart ? &movi : &addi;
        event.result = restart ? 0 : event.result + 1;
        engine.observe(event);
    }
    benchmark::DoNotOptimize(engine.liveNodes());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SlicerTracking, shallow, 8u);
BENCHMARK_CAPTURE(BM_SlicerTracking, deep, 0u);

void
BM_SliceReplay(benchmark::State &state)
{
    const auto length = static_cast<std::uint32_t>(state.range(0));
    slice::StaticSlice shape;
    shape.numInputs = 1;
    shape.code.push_back({isa::Opcode::kAddi, 1, slice::inputSrc(0),
                          slice::kNoSrc});
    for (std::uint32_t i = 1; i < length; ++i) {
        shape.code.push_back({isa::Opcode::kMuli, 3,
                              static_cast<std::int32_t>(i - 1),
                              slice::kNoSrc});
    }
    slice::SliceRepository repo;
    slice::SliceId id = repo.intern(std::move(shape));
    slice::OperandBufferAccounting buf(16);
    auto instance = slice::SliceInstance::create(id, {42}, buf);

    for (auto _ : state)
        benchmark::DoNotOptimize(instance->replay(repo, nullptr));
    state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_SliceReplay)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

void
BM_UndoLogAppend(benchmark::State &state)
{
    Addr addr = 0;
    ckpt::IntervalLog log(1);
    for (auto _ : state) {
        log.append({addr++, 7, 0, nullptr});
        if ((addr & 0xffff) == 0) {
            state.PauseTiming();
            log = ckpt::IntervalLog(1);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UndoLogAppend);

/**
 * Equation 4's energy side: simulated energy of recomputing one value
 * (slice replay + operand reads + write-back) vs restoring it from a
 * checkpoint log in memory (word read + word write), as a function of
 * slice length. The counter reports the recompute/restore ratio —
 * below 1.0 recomputation wins; the crossover sits far above the
 * paper's threshold of 10.
 */
void
BM_RecomputeVsRestoreCrossover(benchmark::State &state)
{
    const double length = static_cast<double>(state.range(0));
    energy::EnergyConfig config;
    const double recompute = length * config.aluOpPj +
                             2 * config.operandBufferPj +
                             kWordBytes * config.dramBytePj;
    const double restore = 2 * kWordBytes * config.dramBytePj;
    for (auto _ : state)
        benchmark::DoNotOptimize(recompute / restore);
    state.counters["recompute_over_restore"] = recompute / restore;
}
BENCHMARK(BM_RecomputeVsRestoreCrossover)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(93)
    ->Arg(120);

/**
 * End-to-end throughput of the in-process ShardedSweep fan-out as a
 * function of the job count (the argument): a fixed 8-point grid over
 * a pre-warmed shared RunnerPool, so the measurement isolates
 * experiment execution plus pool overhead from one-time
 * program/slice-pass construction. On a multi-core host, items/s
 * should scale with the argument until it reaches the core count.
 */
void
BM_SweepFanout(benchmark::State &state)
{
    static harness::RunnerPool pool;
    std::vector<harness::ExperimentConfig> configs;
    for (auto mode : {harness::BerMode::kNoCkpt, harness::BerMode::kCkpt,
                      harness::BerMode::kReCkpt,
                      harness::BerMode::kReCkpt}) {
        harness::ExperimentConfig config;
        config.mode = mode;
        config.numCheckpoints = 10;
        config.sliceThreshold = 0;
        configs.push_back(config);
    }
    const auto points = bench::crossGrid({"is", "cg"}, configs, 4);
    harness::ShardedSweep sweep(pool,
                                static_cast<unsigned>(state.range(0)));
    sweep.run(points);  // warm every cache outside the timing loop
    for (auto _ : state)
        benchmark::DoNotOptimize(sweep.run(points));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_SweepFanout)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
