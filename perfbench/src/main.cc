/**
 * @file
 * perfbench driver. One invocation runs one workload:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--golden DIR] [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics from untraced passes;
 * --trace 1 alternates untraced and traced passes, attributes host time
 * to layers from the spans, and reports the deterministic per-layer
 * counters. Either way the last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; the exit code is 0
 * only when every point ran and matched its check.
 *
 *   perfbench --worker   forked_sweep's worker process (wire protocol)
 *   perfbench --spec     print BENCHMARK.json for this metric set
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "common/serde.hh"
#include "harness/runner.hh"
#include "harness/sharded_sweep.hh"
#include "sim/system.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;
using acr::csprintf;
using acr::fatal;
using acr::serde::Json;

/** Seconds one driver run measures (BENCHMARK.json run_seconds). */
constexpr unsigned kRunSeconds = 35;
/** Fewest passes a run medians over, however long they take. */
constexpr unsigned kMinPasses = 3;

struct Metric
{
    const char *name;
    const char *unit;
    const char *better;
    double bound;  ///< end-to-end only
    const char *stat = nullptr;  ///< per-layer counter's StatSet name
};

const std::vector<Metric> kEndToEnd = {
    {"points_per_s", "1/s", "higher", 0.25},
    {"setup_s", "s", "lower", 0.25},
    {"cpu_s_per_point", "s", "lower", 0.25},
    {"peak_rss_mb", "MiB", "lower", 0.25},
    {"time_overhead_reduction_pct", "%", "higher", 0.05},
    {"energy_overhead_reduction_pct", "%", "higher", 0.05},
    {"ckpt_size_reduction_pct", "%", "higher", 0.05},
    {"recovery_overhead_pct", "%", "lower", 0.1},
};

const std::vector<Metric> kPerLayer = {
    // cpu: core dispatch
    {"cpu.cores.instrs", "count", "lower", 0, "cores.instrs"},
    {"cpu.cores.aluOps", "count", "lower", 0, "cores.aluOps"},
    {"cpu.cores.loads", "count", "lower", 0, "cores.loads"},
    {"cpu.cores.stores", "count", "lower", 0, "cores.stores"},
    {"cpu.cores.memStallCycles", "cycles", "lower", 0,
     "cores.memStallCycles"},
    // cache: hierarchy + directory
    {"cache.l1d.hits", "count", "higher", 0, "l1d.hits"},
    {"cache.l1d.misses", "count", "lower", 0, "l1d.misses"},
    {"cache.l2.hits", "count", "higher", 0, "l2.hits"},
    {"cache.l2.misses", "count", "lower", 0, "l2.misses"},
    {"cache.l1i.fetches", "count", "lower", 0, "l1i.fetches"},
    {"cache.directory.reads", "count", "lower", 0, "directory.reads"},
    {"cache.directory.writes", "count", "lower", 0, "directory.writes"},
    {"cache.directory.invalidationsSent", "count", "lower", 0,
     "directory.invalidationsSent"},
    {"cache.directory.ownerForwards", "count", "lower", 0,
     "directory.ownerForwards"},
    // mem: DRAM / NVM timing
    {"mem.dram.bytes", "B", "lower", 0, "dram.bytes"},
    {"mem.dram.lineWrites", "count", "lower", 0, "dram.lineWrites"},
    {"mem.nvm.bytesRead", "B", "lower", 0, "nvm.bytesRead"},
    {"mem.nvm.bytesWritten", "B", "lower", 0, "nvm.bytesWritten"},
    {"mem.nvm.persists", "count", "lower", 0, "nvm.persists"},
    {"mem.nvm.queueDelayCycles", "cycles", "lower", 0,
     "nvm.queueDelayCycles"},
    // acr: slice pass, AddrMap, operand buffer
    {"acr.captures", "count", "higher", 0, "acr.captures"},
    {"acr.sliceInstrs", "count", "lower", 0, "acr.sliceInstrs"},
    {"acr.uniqueSlices", "count", "lower", 0, "acr.uniqueSlices"},
    {"acr.addrMapAccesses", "count", "lower", 0, "acr.addrMapAccesses"},
    {"acr.addrMapOverflows", "count", "lower", 0, "acr.addrMapOverflows"},
    {"acr.addrMapPeakEntries", "count", "lower", 0,
     "acr.addrMapPeakEntries"},
    {"acr.operandBufferWords", "count", "lower", 0,
     "acr.operandBufferWords"},
    {"acr.omit_ratio", "ratio", "higher", 0},
    // ckpt: manager + store
    {"ckpt.establishments", "count", "lower", 0, "ckpt.establishments"},
    {"ckpt.records", "count", "lower", 0, "ckpt.records"},
    {"ckpt.amnesicRecords", "count", "higher", 0, "ckpt.amnesicRecords"},
    {"ckpt.loggedBytes", "B", "lower", 0, "ckpt.loggedBytes"},
    {"ckpt.omittedBytes", "B", "higher", 0, "ckpt.omittedBytes"},
    {"ckpt.flushedLines", "count", "lower", 0, "ckpt.flushedLines"},
    {"ckpt.establishStallCycles", "cycles", "lower", 0,
     "ckpt.establishStallCycles"},
    {"ckpt.replicaBytes", "B", "lower", 0, "ckpt.replicaBytes"},
    {"ckpt.integrityChecks", "count", "lower", 0, "ckpt.integrityChecks"},
    {"ckpt.corruptReads", "count", "lower", 0, "ckpt.corruptReads"},
    {"ckpt.tornRefusals", "count", "lower", 0, "ckpt.tornRefusals"},
    // rec: rollback + recovery replay
    {"rec.recoveries", "count", "lower", 0, "rec.recoveries"},
    {"rec.restoredWords", "count", "lower", 0, "rec.restoredWords"},
    {"rec.recomputedWords", "count", "higher", 0, "rec.recomputedWords"},
    {"rec.replayAluOps", "count", "lower", 0, "acr.replayAluOps"},
    {"rec.rollbackCycles", "cycles", "lower", 0, "rec.rollbackCycles"},
    {"rec.wasteCycles", "cycles", "lower", 0, "rec.wasteCycles"},
    {"rec.retargets", "count", "lower", 0, "rec.retargets"},
    {"rec.replicaSwitches", "count", "lower", 0, "rec.replicaSwitches"},
    {"rec.unrecoverable", "count", "lower", 0, "rec.unrecoverable"},
    {"rec.unrecoverable_frac", "ratio", "lower", 0},
    // fault
    {"fault.injected", "count", "lower", 0, "fault.injected"},
    {"fault.detected", "count", "lower", 0, "fault.detected"},
    {"fault.dropped", "count", "lower", 0, "fault.dropped"},
    {"fault.requeued", "count", "lower", 0, "fault.requeued"},
    {"fault.storage.injected", "count", "lower", 0, "storage.injected"},
    // validate: the recovery oracle
    {"validate.oracle.goldenCompares", "count", "lower", 0,
     "oracle.goldenCompares"},
    {"validate.oracle.establishmentsChecked", "count", "lower", 0,
     "oracle.establishmentsChecked"},
    {"validate.oracle.recoveriesChecked", "count", "lower", 0,
     "oracle.recoveriesChecked"},
    // harness: Runner caches, prefix sharing, supervisor, wire
    {"harness.runner.programBuilds", "count", "lower", 0},
    {"harness.runner.slicePassRuns", "count", "lower", 0},
    {"harness.runner.noCkptRuns", "count", "lower", 0},
    {"harness.prefix.captures", "count", "lower", 0},
    {"harness.prefix.resumes", "count", "higher", 0},
    {"harness.prefix.resume_ratio", "ratio", "higher", 0},
    {"harness.supervisor.respawns", "count", "lower", 0},
    {"harness.supervisor.retries", "count", "lower", 0},
    {"harness.supervisor.quarantined", "count", "lower", 0},
    {"harness.wire.bytes_per_point", "B", "lower", 0},
    // host spans (traced run)
    {"workloads.build_s", "s", "lower", 0},
    {"sim.run_s", "s", "lower", 0},
    {"sim.ns_per_instr", "ns", "lower", 0},
    {"acr.slice_pass_s", "s", "lower", 0},
    {"acr.slicer_self_s", "s", "lower", 0},
    {"harness.run.nockpt_s", "s", "lower", 0},
    {"harness.run.ckpt_ne_s", "s", "lower", 0},
    {"harness.run.ckpt_e_s", "s", "lower", 0},
    {"harness.run.reckpt_ne_s", "s", "lower", 0},
    {"harness.run.reckpt_e_s", "s", "lower", 0},
    {"harness.prefix.saved_s", "s", "higher", 0},
    {"ckpt.store.log_s", "s", "lower", 0},
    {"ckpt.store.replicated_s", "s", "lower", 0},
    {"ckpt.store.nvm_s", "s", "lower", 0},
    {"validate.oracle_s", "s", "lower", 0},
    {"harness.wire.encode_s", "s", "lower", 0},
    {"harness.wire.decode_s", "s", "lower", 0},
    {"harness.forked.cpu_overhead_ratio", "ratio", "lower", 0},
    {"trace.overhead_pct", "%", "lower", 0},
    {"trace.span_coverage", "ratio", "higher", 0},
};

/** The paper's published aggregates the model is compared against. */
struct PaperValue
{
    const char *metric;
    double paper;
    const char *source;
};

const std::vector<PaperValue> kPaper = {
    {"time_overhead_reduction_pct", 11.92, "Sec. V-A, Fig. 6 NE mean"},
    {"energy_overhead_reduction_pct", 12.53, "Sec. V-B, Fig. 7 NE mean"},
    {"ckpt_size_reduction_pct", 38.31, "Fig. 9 Overall mean"},
};

struct Args
{
    Workload workload = Workload::kFig06Grid;
    std::uint64_t seed = 0;
    double seconds = kRunSeconds;
    bool trace = false;
    std::string golden = "tests/golden";
    std::string traceOut;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
printSpec()
{
    auto metricLine = [](const Metric &m, bool bounded) {
        Json entry = Json::object();
        entry.set("name", m.name);
        entry.set("unit", m.unit);
        entry.set("better", m.better);
        if (bounded)
            entry.set("bound", m.bound);
        return entry.dump();
    };
    auto list = [](const std::vector<std::string> &lines) {
        std::string out = "[\n";
        for (std::size_t i = 0; i < lines.size(); ++i)
            out += "    " + lines[i] + (i + 1 < lines.size() ? ",\n" : "\n");
        return out + "  ]";
    };
    std::vector<std::string> workloads, e2e, layers;
    for (Workload w : allWorkloads()) {
        Json entry = Json::object();
        entry.set("name", workloadName(w));
        entry.set("why", workloadWhy(w));
        workloads.push_back(entry.dump());
    }
    for (const auto &m : kEndToEnd)
        e2e.push_back(metricLine(m, true));
    for (const auto &m : kPerLayer)
        layers.push_back(metricLine(m, false));
    std::cout << "{\n"
              << "  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
              << "  \"paths\": [\"perfbench\"],\n"
              << "  \"run_seconds\": " << kRunSeconds << ",\n"
              << "  \"workloads\": " << list(workloads) << ",\n"
              << "  \"end_to_end\": " << list(e2e) << ",\n"
              << "  \"per_layer\": " << list(layers) << "\n"
              << "}\n";
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("%s needs a value", flag.c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseWorkload(value, args.workload))
                fatal("unknown workload '%s'", value.c_str());
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                fatal("--seed expects an unsigned integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
                fatal("--seconds expects a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                fatal("--trace expects 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--golden") {
            args.golden = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            fatal("unknown flag '%s'", flag.c_str());
        }
    }
    return args;
}

/** Correctness bookkeeping over every pass a run makes. */
struct Checks
{
    const std::vector<GridPoint> &grid;
    std::uint64_t seed;
    Goldens goldens;
    std::vector<std::string> reference;  ///< first main pass's results
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Check one pass; @p same_as_reference holds it to the first main
     *  pass byte for byte (passes that alter the configuration, like
     *  the oracle-off repeat, are checked on their own). */
    void
    check(const Pass &pass, bool same_as_reference)
    {
        auto bad = checkPoints(grid, pass.results, seed, goldens);
        if (same_as_reference) {
            const auto prints = fingerprints(pass.results);
            if (reference.empty())
                reference = prints;
            for (std::size_t i = 0; i < prints.size(); ++i)
                if (prints[i] != reference[i])
                    bad[i] = true;
        }
        attempted += grid.size();
        for (std::size_t i = 0; i < bad.size(); ++i) {
            if (!bad[i])
                continue;
            ++failed;
            std::cerr << "perfbench: FAILED point " << i << " ("
                      << grid[i].workload << ", "
                      << grid[i].config.label() << ")\n";
        }
    }
};

Pass
mainPass(Workload workload, const std::vector<GridPoint> &grid,
         const std::vector<std::string> &worker_cmd, Tracer *tracer,
         PassOptions options = {})
{
    if (workload == Workload::kForkedSweep)
        return runForked(grid, worker_cmd, tracer);
    options.tracer = tracer;
    return runInProcess(workload, grid, options);
}

void
printHeader(const Args &args, const std::vector<GridPoint> &grid)
{
    std::cout << "perfbench " << workloadName(args.workload)
              << ": seed " << args.seed << " (ExperimentConfig::seed "
              << kGoldenSeed + args.seed << "), " << grid.size()
              << " points per pass, " << (args.trace ? "traced" : "untraced")
              << " run\n"
              << "host: nproc " << std::thread::hardware_concurrency()
              << ", build " << PERFBENCH_BUILD_TYPE
              << "; wall-time figures compare only within one window "
                 "(same host, interleaved A/B)\n";
}

void
printResult(const Checks &checks,
            const std::vector<std::pair<const Metric *, double>> &metrics)
{
    Json values = Json::object();
    for (const auto &[metric, value] : metrics) {
        Json entry = Json::object();
        entry.set("value", std::isfinite(value) ? value : 0.0);
        entry.set("unit", metric->unit);
        values.set(metric->name, std::move(entry));
        std::cout << csprintf("  %-40s %18.10g %s\n", metric->name, value,
                              metric->unit);
    }
    std::cout << csprintf("error_frac %.6g (%llu of %llu points failed)\n",
                          checks.attempted
                              ? static_cast<double>(checks.failed) /
                                    static_cast<double>(checks.attempted)
                              : 0.0,
                          static_cast<unsigned long long>(checks.failed),
                          static_cast<unsigned long long>(
                              checks.attempted));
    Json doc = Json::object();
    doc.set("correct", checks.failed == 0 && checks.attempted > 0);
    doc.set("attempted", checks.attempted);
    doc.set("failed", checks.failed);
    doc.set("metrics", std::move(values));
    std::cout << doc.dump() << std::endl;
}

const Metric *
findMetric(const std::vector<Metric> &set, const std::string &name)
{
    for (const auto &m : set)
        if (name == m.name)
            return &m;
    fatal("no metric named '%s'", name.c_str());
}

void
printModelled(const Modelled &m)
{
    std::cout << "modelled design vs the paper (simulated; the model is "
                 "checked only against the paper's published "
                 "aggregates):\n";
    const double model[] = {m.timeOverheadReductionPct,
                            m.energyOverheadReductionPct,
                            m.ckptSizeReductionPct};
    for (std::size_t i = 0; i < kPaper.size(); ++i)
        std::cout << csprintf("  %-32s model %7.2f%%  paper %6.2f%%  "
                              "gap %+7.2f pts  (%s)\n",
                              kPaper[i].metric, model[i], kPaper[i].paper,
                              model[i] - kPaper[i].paper,
                              kPaper[i].source);
    std::cout << csprintf("  %-32s model %7.2f%%\n",
                          "recovery_overhead_pct", m.recoveryOverheadPct)
              << csprintf("  %-32s model %7.4f\n", "unrecoverable_frac",
                          m.unrecoverableFrac);
}

/** --trace 0: end-to-end metrics from untraced passes. */
int
measure(const Args &args, const std::vector<std::string> &worker_cmd)
{
    const auto grid = gridOf(args.workload, args.seed);
    Checks checks{grid, args.seed, loadGoldens(args.golden), {}, 0, 0};
    printHeader(args, grid);

    const auto start = Clock::now();
    std::vector<double> setup, rate, cpu;

    // On a shared host, co-tenants slow one CPU at a time, for tens of
    // seconds: on the 4-CPU host the benchmark was defined on, one
    // fig06 pass pinned to each CPU in turn read 1.33 s on the fastest
    // and 2.00 s on the slowest, and which one is slow changes from
    // minute to minute. A lone thread stays on the CPU it started on,
    // so one slow CPU could set a whole run. In-process passes
    // therefore move every point one CPU along per pass: over the run
    // each point is timed on every CPU, and each pass spreads its
    // points over all of them. (Forked workers spread already.)
    PassOptions rotation;
    rotation.cpus = allowedCpus();

    Pass first;
    unsigned passes = 0;
    std::vector<double> fastest(grid.size(), 1e300);
    std::vector<double> fastest_cpu(grid.size(), 1e300), setup_cpu;
    while (passes < kMinPasses || secondsSince(start) < args.seconds) {
        rotation.cpuOffset = passes;
        Pass pass =
            mainPass(args.workload, grid, worker_cmd, nullptr, rotation);
        checks.check(pass, true);
        const double points = static_cast<double>(grid.size());
        for (std::size_t i = 0; i < pass.pointS.size(); ++i) {
            fastest[i] = std::min(fastest[i], pass.pointS[i]);
            fastest_cpu[i] = std::min(fastest_cpu[i], pass.pointCpuS[i]);
        }
        setup.push_back(pass.setupS);
        setup_cpu.push_back(pass.setupCpuS);
        rate.push_back(points / (pass.wallS - pass.setupS));
        cpu.push_back(pass.cpuS / points);
        std::cerr << csprintf("perfbench: pass %u: %.3f s wall, %.3f s "
                              "set-up, %.2f points/s, %.4f cpu s/point\n",
                              passes + 1, pass.wallS, pass.setupS,
                              rate.back(), cpu.back());
        if (passes++ == 0)
            first = std::move(pass);
    }
    const Modelled m = modelled(grid, first.results, first.references);

    // Co-tenant load on a shared host only ever slows a point down, and
    // it comes in bursts shorter than a run: the fastest run of each
    // point over the passes is the steadiest throughput estimate, and
    // its least CPU time plus the median set-up the steadiest CPU
    // cost. The driver cannot time points that run inside forked
    // workers, so forked_sweep takes the median pass for both.
    double points_per_s = median(rate);
    double cpu_s_per_point = median(cpu);
    if (args.workload != Workload::kForkedSweep) {
        double fastest_sum = 0.0, cpu_sum = median(setup_cpu);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            fastest_sum += fastest[i];
            cpu_sum += fastest_cpu[i];
        }
        const double points = static_cast<double>(grid.size());
        points_per_s = points / fastest_sum;
        cpu_s_per_point = cpu_sum / points;
    }
    std::cout << csprintf("end-to-end metrics over %u passes; median "
                          "pass %.4g points/s\n",
                          passes, median(rate));
    std::vector<std::pair<const Metric *, double>> metrics = {
        {findMetric(kEndToEnd, "points_per_s"), points_per_s},
        {findMetric(kEndToEnd, "setup_s"), median(setup)},
        {findMetric(kEndToEnd, "cpu_s_per_point"), cpu_s_per_point},
        {findMetric(kEndToEnd, "peak_rss_mb"), peakRssMb()},
        {findMetric(kEndToEnd, "time_overhead_reduction_pct"),
         m.timeOverheadReductionPct},
        {findMetric(kEndToEnd, "energy_overhead_reduction_pct"),
         m.energyOverheadReductionPct},
        {findMetric(kEndToEnd, "ckpt_size_reduction_pct"),
         m.ckptSizeReductionPct},
        {findMetric(kEndToEnd, "recovery_overhead_pct"),
         m.recoveryOverheadPct},
    };
    printModelled(m);
    printResult(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
}

/** Span totals under one pass's root span, by span name; run spans are
 *  also summed per checkpoint store as "ckpt.store.<backend>". */
std::map<std::string, double>
spanTotals(const Tracer &tracer, int root,
           const std::vector<GridPoint> &grid)
{
    const auto &spans = tracer.spans();
    auto under = [&](int id) {
        for (; id >= 0; id = spans[static_cast<std::size_t>(id)].parent)
            if (id == root)
                return true;
        return false;
    };
    std::map<std::string, double> totals;
    double children = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &span = spans[i];
        if (static_cast<int>(i) == root || !under(static_cast<int>(i)))
            continue;
        totals[span.name] += span.seconds();
        if (span.parent == root)
            children += span.seconds();
        if (span.point >= 0 && span.name.rfind("harness.run.", 0) == 0) {
            totals["harness.run.all"] += span.seconds();
            totals[std::string("ckpt.store.") +
                   acr::ckpt::backendName(
                       grid[static_cast<std::size_t>(span.point)]
                           .config.backend)] += span.seconds();
        }
    }
    totals["coverage"] =
        children / spans[static_cast<std::size_t>(root)].seconds();
    return totals;
}

/** Median over passes of one span total. */
double
medianOf(const std::vector<std::map<std::string, double>> &passes,
         const std::string &name)
{
    std::vector<double> values;
    for (const auto &totals : passes) {
        const auto it = totals.find(name);
        values.push_back(it == totals.end() ? 0.0 : it->second);
    }
    return median(values);
}

/** Observer-free MulticoreSystem runs of each kernel: core + cache +
 *  DRAM alone. Returns retired instructions. */
std::uint64_t
simProbe(Workload workload, Tracer &tracer)
{
    ScopedSpan root(&tracer, "probe");
    acr::harness::Runner runner(kThreads);
    std::uint64_t instrs = 0;
    for (const auto &kernel : kernelsOf(workload)) {
        acr::sim::MulticoreSystem system(runner.machine(),
                                         runner.baseProgram(kernel));
        ScopedSpan span(&tracer, "sim.run");
        system.runToCompletion();
        instrs += system.progress();
    }
    return instrs;
}

/** --trace 1: per-layer counters and host spans. */
int
traceRun(const Args &args, const std::vector<std::string> &worker_cmd)
{
    const auto grid = gridOf(args.workload, args.seed);
    const auto fig06 = gridOf(Workload::kFig06Grid, args.seed);
    Checks checks{grid, args.seed, loadGoldens(args.golden), {}, 0, 0};
    Checks fig06_checks{fig06, args.seed, checks.goldens, {}, 0, 0};
    printHeader(args, grid);

    Tracer tracer;
    std::vector<double> untraced_wall, traced_wall, traced_cpu, ref_cpu;
    std::vector<std::map<std::string, double>> main_totals, extra_totals,
        probe_totals;
    Pass last;
    std::uint64_t probe_instrs = 0;

    const auto start = Clock::now();
    unsigned rounds = 0;
    while (rounds == 0 || secondsSince(start) < args.seconds) {
        ++rounds;
        Pass plain = mainPass(args.workload, grid, worker_cmd, nullptr);
        checks.check(plain, true);
        untraced_wall.push_back(plain.wallS);

        Pass traced = mainPass(args.workload, grid, worker_cmd, &tracer);
        checks.check(traced, true);
        traced_wall.push_back(traced.wallS);
        traced_cpu.push_back(traced.cpuS);
        main_totals.push_back(spanTotals(tracer, traced.span, grid));

        // The repeat that makes the span subtraction clean: prefix
        // sharing off (fig06), the oracle detached (recovery), or the
        // same grid in process (forked, for the CPU overhead ratio).
        PassOptions options;
        options.tracer = &tracer;
        Pass extra;
        if (args.workload == Workload::kFig06Grid) {
            options.prefixShare = false;
            extra = runInProcess(args.workload, grid, options);
            checks.check(extra, true);
        } else if (args.workload == Workload::kRecoveryCampaign) {
            options.prefixShare = false;
            options.oracleOff = true;
            extra = runInProcess(args.workload, grid, options);
            checks.check(extra, false);
        } else {
            extra = runInProcess(Workload::kFig06Grid, fig06, options);
            fig06_checks.check(extra, true);
            ref_cpu.push_back(extra.cpuS);
        }
        extra_totals.push_back(spanTotals(tracer, extra.span,
                                          args.workload ==
                                                  Workload::kForkedSweep
                                              ? fig06
                                              : grid));

        const int probe_root = static_cast<int>(tracer.spans().size());
        probe_instrs = simProbe(args.workload, tracer);
        probe_totals.push_back(spanTotals(tracer, probe_root, grid));
        last = std::move(traced);
    }
    checks.attempted += fig06_checks.attempted;
    checks.failed += fig06_checks.failed;

    // Wire round trip of every result, as a forked worker and its
    // coordinator would do it.
    const int wire_root = tracer.begin("wire");
    std::uint64_t wire_bytes = 0;
    for (std::size_t i = 0; i < last.results.size(); ++i) {
        std::string line;
        {
            ScopedSpan span(&tracer, "harness.wire.encode");
            line = acr::harness::wire::encodeResultLine(
                {i, last.results[i]});
        }
        wire_bytes += line.size();
        ScopedSpan span(&tracer, "harness.wire.decode");
        acr::harness::wire::decodeLine(line);
    }
    tracer.end(wire_root);
    const auto wire = spanTotals(tracer, wire_root, grid);

    if (!args.traceOut.empty()) {
        std::ofstream out(args.traceOut, std::ios::trunc);
        if (!out)
            fatal("cannot write '%s'", args.traceOut.c_str());
        tracer.writeChromeTrace(out);
        std::cout << "spans: " << tracer.spans().size() << " written to "
                  << args.traceOut << "\n";
    }

    // Deterministic counters: one pass's results (every pass matched).
    const StatSet totals = counterTotals(last.results);
    std::map<std::string, double> values;
    for (const auto &m : kPerLayer)
        if (m.stat)
            values[m.name] = totals.get(m.stat);
    const double logged = totals.get("ckpt.loggedBytes");
    const double omitted = totals.get("ckpt.omittedBytes");
    values["acr.omit_ratio"] =
        logged + omitted > 0 ? omitted / (logged + omitted) : 0.0;
    values["rec.unrecoverable_frac"] =
        modelled(grid, last.results, last.references).unrecoverableFrac;
    values["harness.runner.programBuilds"] =
        static_cast<double>(last.programBuilds);
    values["harness.runner.slicePassRuns"] =
        static_cast<double>(last.slicePassRuns);
    values["harness.runner.noCkptRuns"] =
        static_cast<double>(last.noCkptRuns);
    values["harness.prefix.captures"] =
        static_cast<double>(last.prefixCaptures);
    values["harness.prefix.resumes"] =
        static_cast<double>(last.prefixResumes);
    const double shared =
        static_cast<double>(last.prefixCaptures + last.prefixResumes);
    values["harness.prefix.resume_ratio"] =
        shared > 0 ? static_cast<double>(last.prefixResumes) / shared : 0.0;
    values["harness.supervisor.respawns"] =
        last.sweepStats.get("sweep.respawns");
    values["harness.supervisor.retries"] =
        last.sweepStats.get("sweep.retries");
    values["harness.supervisor.quarantined"] =
        last.sweepStats.get("sweep.quarantined");
    values["harness.wire.bytes_per_point"] =
        static_cast<double>(wire_bytes) /
        static_cast<double>(last.results.size());

    // Host spans. In-process layer spans come from the main traced
    // passes, except on forked_sweep, whose layers run inside the
    // workers: there they come from the in-process reference passes.
    const bool forked = args.workload == Workload::kForkedSweep;
    const auto &layer = forked ? extra_totals : main_totals;
    values["workloads.build_s"] = medianOf(layer, "workloads.build");
    values["acr.slice_pass_s"] = medianOf(layer, "acr.slice_pass");
    values["sim.run_s"] = medianOf(probe_totals, "sim.run");
    values["sim.ns_per_instr"] = values["sim.run_s"] * 1e9 /
                                 static_cast<double>(probe_instrs);
    values["acr.slicer_self_s"] =
        values["acr.slice_pass_s"] - values["sim.run_s"];
    // Prefix sharing off (fig06) or the oracle detached (recovery)
    // leaves only the layer's own work in the run spans.
    const auto &runs =
        args.workload == Workload::kFig06Grid ? extra_totals : layer;
    for (const char *run : {"nockpt", "ckpt_ne", "ckpt_e", "reckpt_ne",
                            "reckpt_e"})
        values[std::string("harness.run.") + run + "_s"] =
            medianOf(runs, std::string("harness.run.") + run);
    if (args.workload == Workload::kFig06Grid)
        values["harness.prefix.saved_s"] =
            medianOf(extra_totals, "harness.run.all") -
            medianOf(main_totals, "harness.run.all");
    if (args.workload == Workload::kRecoveryCampaign) {
        for (const char *store : {"log", "replicated", "nvm"})
            values[std::string("ckpt.store.") + store + "_s"] =
                medianOf(extra_totals, std::string("ckpt.store.") + store);
        values["validate.oracle_s"] =
            medianOf(main_totals, "harness.run.all") -
            medianOf(extra_totals, "harness.run.all");
    }
    values["harness.wire.encode_s"] = wire.at("harness.wire.encode");
    values["harness.wire.decode_s"] = wire.at("harness.wire.decode");
    if (forked)
        values["harness.forked.cpu_overhead_ratio"] =
            median(traced_cpu) / median(ref_cpu);
    values["trace.overhead_pct"] =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
    values["trace.span_coverage"] = medianOf(
        args.workload == Workload::kForkedSweep ? extra_totals
                                                : main_totals,
        "coverage");

    std::cout << "per-layer metrics: counters from one pass (every pass "
                 "matched it exactly), spans the median of "
              << rounds << " traced round(s)\n";
    std::vector<std::pair<const Metric *, double>> metrics;
    for (const auto &m : kPerLayer)
        metrics.push_back({&m, values[m.name]});
    printModelled(modelled(grid, last.results, last.references));
    printResult(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--worker") {
        acr::harness::RunnerPool pool;
        return acr::harness::ShardedSweep::workerLoop(pool, std::cin,
                                                      std::cout);
    }
    if (argc == 2 && std::string(argv[1]) == "--spec") {
        printSpec();
        return 0;
    }
    const Args args = parseArgs(argc, argv);
    const std::vector<std::string> worker_cmd = {
        acr::harness::ShardedSweep::selfExecutable(argv[0]), "--worker"};
    return args.trace ? traceRun(args, worker_cmd)
                      : measure(args, worker_cmd);
}
