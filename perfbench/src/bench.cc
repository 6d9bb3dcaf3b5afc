#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "common/serde.hh"
#include "harness/runner.hh"
#include "harness/sharded_sweep.hh"

namespace perfbench
{

using namespace acr;
using harness::BerMode;

// The benchmark links only the libraries under src/ and keeps its own
// grid helpers rather than bench/bench_util.hh, so a change to the
// figure benches cannot change what it measures.
namespace
{

ExperimentConfig
makeConfig(BerMode mode, unsigned errors, ckpt::Coordination coord,
           unsigned checkpoints, std::uint64_t seed)
{
    ExperimentConfig config;
    config.mode = mode;
    config.numErrors = errors;
    config.coordination = coord;
    config.numCheckpoints = checkpoints;
    config.sliceThreshold = 0;  // per-kernel default (is: 5, else 10)
    config.seed = kGoldenSeed + seed;
    return config;
}

/** The paper's default grid (Sec. IV): 25 checkpoints, global
 *  coordination, log store, one error in the _E points. */
std::vector<GridPoint>
fig06Grid(std::uint64_t seed)
{
    const auto global = ckpt::Coordination::kGlobal;
    std::vector<GridPoint> grid;
    for (const auto &kernel : kernelsOf(Workload::kFig06Grid)) {
        for (auto [mode, errors] :
             {std::pair{BerMode::kNoCkpt, 0u}, {BerMode::kCkpt, 1u},
              {BerMode::kCkpt, 0u}, {BerMode::kReCkpt, 1u},
              {BerMode::kReCkpt, 0u}})
            grid.push_back({kernel,
                            makeConfig(mode, errors, global, 25, seed),
                            kThreads});
    }
    return grid;
}

/** bench/torture's defaults (8 errors, 5 checkpoints, detection
 *  latency 0.4, oracle on) across every backend, with and without one
 *  storage fault against the checkpoint medium. */
std::vector<GridPoint>
recoveryGrid(std::uint64_t seed)
{
    std::vector<GridPoint> grid;
    for (const auto &kernel : kernelsOf(Workload::kRecoveryCampaign))
        for (BerMode mode : {BerMode::kCkpt, BerMode::kReCkpt})
            for (auto coord : {ckpt::Coordination::kGlobal,
                               ckpt::Coordination::kLocal})
                for (auto backend :
                     {ckpt::Backend::kLog, ckpt::Backend::kReplicated,
                      ckpt::Backend::kNvm})
                    for (unsigned storage : {0u, 1u}) {
                        ExperimentConfig config =
                            makeConfig(mode, 8, coord, 5, seed);
                        config.backend = backend;
                        config.detectionLatencyFraction = 0.4;
                        config.oracle = true;
                        config.storageErrors = storage;
                        grid.push_back({kernel, config, kThreads});
                    }
    return grid;
}

const char *
runSpanName(const ExperimentConfig &config)
{
    const bool e = config.numErrors > 0;
    switch (config.mode) {
      case BerMode::kNoCkpt:
        return "harness.run.nockpt";
      case BerMode::kCkpt:
        return e ? "harness.run.ckpt_e" : "harness.run.ckpt_ne";
      case BerMode::kReCkpt:
        return e ? "harness.run.reckpt_e" : "harness.run.reckpt_ne";
    }
    return "harness.run";
}

/** A pass's set-up: programs, slice passes, and (when the grid has no
 *  NoCkpt points) the overhead baselines. */
void
setUp(Workload workload, harness::Runner &runner, Pass &pass,
      Tracer *tracer)
{
    const auto kernels = kernelsOf(workload);
    for (const auto &kernel : kernels) {
        ScopedSpan span(tracer, "workloads.build");
        runner.baseProgram(kernel);
    }
    for (const auto &kernel : kernels) {
        ScopedSpan span(tracer, "acr.slice_pass");
        runner.profile(kernel);
    }
    if (workload == Workload::kRecoveryCampaign) {
        for (const auto &kernel : kernels) {
            ScopedSpan span(tracer, "harness.nockpt_ref");
            pass.references[kernel] = runner.noCkpt(kernel);
        }
    }
}

const char *
modeName(BerMode mode)
{
    switch (mode) {
      case BerMode::kNoCkpt: return "NoCkpt";
      case BerMode::kCkpt: return "Ckpt";
      case BerMode::kReCkpt: return "ReCkpt";
    }
    return "?";
}

const char *
coordName(ckpt::Coordination coord)
{
    return coord == ckpt::Coordination::kGlobal ? "global" : "local";
}

std::string
cellKey(const std::string &kernel, const std::string &mode,
        const std::string &coord, const std::string &errors)
{
    return kernel + "|" + mode + "|" + coord + "|" + errors;
}

/** The value of `key=` in a whitespace-separated golden line. */
std::string
field(const std::string &line, const std::string &key)
{
    std::istringstream in(line);
    std::string token;
    while (in >> token)
        if (token.rfind(key + "=", 0) == 0)
            return token.substr(key.size() + 1);
    return "";
}

/** A result rendered exactly as tests/perf_equiv_test.cpp renders it. */
std::string
renderCell(const GridPoint &point, const ExperimentResult &r)
{
    const auto &c = point.config;
    std::ostringstream out;
    out << "cell workload=" << point.workload
        << " mode=" << modeName(c.mode)
        << " coord=" << coordName(c.coordination)
        << " errors=" << c.numErrors << " cycles=" << r.cycles
        << " energyPj=" << serde::formatDouble(r.energyPj)
        << " edp=" << serde::formatDouble(r.edp)
        << " ckpts=" << r.checkpointsEstablished
        << " recoveries=" << r.recoveries
        << " bytesStored=" << r.ckptBytesStored
        << " bytesOmitted=" << r.ckptBytesOmitted;
    return out.str();
}

std::vector<std::string>
splitCsv(const std::string &row)
{
    std::vector<std::string> fields;
    std::stringstream in(row);
    std::string f;
    while (std::getline(in, f, ','))
        fields.push_back(f);
    return fields;
}

double
reductionPct(double baseline, double improved)
{
    return baseline == 0.0 ? 0.0
                           : 100.0 * (baseline - improved) / baseline;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        Workload::kFig06Grid, Workload::kRecoveryCampaign,
        Workload::kForkedSweep};
    return all;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::kFig06Grid: return "fig06_grid";
      case Workload::kRecoveryCampaign: return "recovery_campaign";
      case Workload::kForkedSweep: return "forked_sweep";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload &workload)
{
    for (Workload w : allWorkloads()) {
        if (name == workloadName(w)) {
            workload = w;
            return true;
        }
    }
    return false;
}

const char *
workloadWhy(Workload workload)
{
    switch (workload) {
      case Workload::kFig06Grid:
        return "the paper's 8-kernel x 5-scheme grid in process: slice "
               "passes and ReCkpt runs dominate, prefix sharing and the "
               "NoCkpt fast path engaged";
      case Workload::kRecoveryCampaign:
        return "bt,sp x 3 backends x storage faults under the oracle: "
               "rollback, replay, stores and integrity ladder do the "
               "work; prefix sharing is bypassed";
      case Workload::kForkedSweep:
        return "the fig06 grid dealt to 3 forked workers: the "
               "supervisor, wire encoding and pipes join the path, and "
               "each worker repeats slice passes";
    }
    return "";
}

std::vector<std::string>
kernelsOf(Workload workload)
{
    if (workload == Workload::kRecoveryCampaign)
        return {"bt", "sp"};
    return workloads::allWorkloadNames();
}

std::vector<GridPoint>
gridOf(Workload workload, std::uint64_t seed)
{
    return workload == Workload::kRecoveryCampaign ? recoveryGrid(seed)
                                                   : fig06Grid(seed);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    auto seconds = [](const struct rusage &u) {
        return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
               static_cast<double>(u.ru_utime.tv_usec +
                                   u.ru_stime.tv_usec) *
                   1e-6;
    };
    struct rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return seconds(self) + seconds(children);
}

double
peakRssMb()
{
    struct rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        fatal("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    return cpus;
}

void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        fatal("sched_setaffinity refused %zu CPU(s)", cpus.size());
}

int
Tracer::begin(const std::string &name, int point)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.point = point;
    span.startS = secondsSince(origin_);
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    ACR_ASSERT(!open_.empty() && open_.back() == id,
               "span %d closed out of order", id);
    spans_[static_cast<std::size_t>(id)].endS = secondsSince(origin_);
    open_.pop_back();
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    serde::Json events = serde::Json::array();
    for (const auto &span : spans_) {
        serde::Json event = serde::Json::object();
        event.set("name", span.name);
        event.set("ph", "X");
        event.set("ts", span.startS * 1e6);
        event.set("dur", span.seconds() * 1e6);
        event.set("pid", 1);
        event.set("tid", 1);
        if (span.point >= 0) {
            serde::Json args = serde::Json::object();
            args.set("point", span.point);
            event.set("args", std::move(args));
        }
        events.push(std::move(event));
    }
    serde::Json doc = serde::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.write(os);
    os << "\n";
}

Pass
runInProcess(Workload workload, const std::vector<GridPoint> &grid,
             const PassOptions &options)
{
    Tracer *tracer = options.tracer;
    auto pin = [&](std::size_t step) {
        if (!options.cpus.empty())
            pinTo({options.cpus[(options.cpuOffset + step) %
                                options.cpus.size()]});
    };
    Pass pass;
    pin(0);
    const double cpu_start = cpuSeconds();
    const auto start = Clock::now();
    pass.span = tracer ? tracer->begin("pass") : -1;

    auto runner = std::make_unique<harness::Runner>(kThreads);
    runner->setPrefixShare(options.prefixShare);
    {
        ScopedSpan span(tracer, "setup");
        setUp(workload, *runner, pass, tracer);
    }
    pass.setupS = secondsSince(start);
    pass.setupCpuS = cpuSeconds() - cpu_start;

    for (std::size_t i = 0; i < grid.size(); ++i) {
        ExperimentConfig config = grid[i].config;
        if (options.oracleOff)
            config.oracle = false;
        pin(1 + i);
        ScopedSpan span(tracer, runSpanName(config), static_cast<int>(i));
        const auto point_start = Clock::now();
        const double point_cpu = cpuSeconds();
        pass.results.push_back(runner->run(grid[i].workload, config));
        pass.pointS.push_back(secondsSince(point_start));
        pass.pointCpuS.push_back(cpuSeconds() - point_cpu);
    }

    pass.programBuilds = runner->programBuilds();
    pass.slicePassRuns = runner->slicePassRuns();
    pass.noCkptRuns = runner->noCkptRuns();
    pass.prefixCaptures = runner->prefixCaptures();
    pass.prefixResumes = runner->prefixResumes();
    {
        ScopedSpan span(tracer, "harness.teardown");
        runner.reset();
    }

    if (tracer)
        tracer->end(pass.span);
    pass.wallS = secondsSince(start);
    pass.cpuS = cpuSeconds() - cpu_start;
    if (!options.cpus.empty())
        pinTo(options.cpus);
    return pass;
}

Pass
runForked(const std::vector<GridPoint> &grid,
          const std::vector<std::string> &workerCmd, Tracer *tracer)
{
    Pass pass;
    const double cpu_start = cpuSeconds();
    const auto start = Clock::now();
    pass.span = tracer ? tracer->begin("pass") : -1;
    {
        ScopedSpan span(tracer, "harness.forked.sweep");
        // The pool stays empty: forked workers own their Runners.
        harness::RunnerPool pool;
        harness::ShardedSweep sweep(pool, 1);
        bool first = true;
        pass.results = sweep.runForked(
            grid, kForkWorkers, workerCmd, {},
            [&](std::size_t, const ExperimentResult &) {
                if (!first)
                    return;
                first = false;
                pass.setupS = secondsSince(start);
                if (tracer)
                    tracer->end(
                        tracer->begin("harness.forked.first_result"));
            });
        pass.sweepStats = sweep.hostStats();
    }
    if (tracer)
        tracer->end(pass.span);
    pass.wallS = secondsSince(start);
    pass.cpuS = cpuSeconds() - cpu_start;
    return pass;
}

Goldens
loadGoldens(const std::string &dir)
{
    Goldens goldens;
    const std::string cells_path = dir + "/equiv_grid.txt";
    std::ifstream cells(cells_path);
    if (!cells)
        fatal("cannot read golden '%s'", cells_path.c_str());
    std::string line;
    while (std::getline(cells, line)) {
        if (line.rfind("cell ", 0) != 0)
            continue;
        goldens.cells[cellKey(field(line, "workload"), field(line, "mode"),
                              field(line, "coord"),
                              field(line, "errors"))] = line;
    }

    const std::string rows_path = dir + "/fig06_grid.csv";
    std::ifstream rows(rows_path);
    if (!rows)
        fatal("cannot read golden '%s'", rows_path.c_str());
    bool header = true;
    while (std::getline(rows, line)) {
        if (header || line.empty()) {
            header = false;
            continue;
        }
        goldens.rows[line.substr(0, line.find(','))] = line;
    }
    if (goldens.cells.empty() || goldens.rows.empty())
        fatal("golden files under '%s' hold no grid", dir.c_str());
    return goldens;
}

std::vector<bool>
checkPoints(const std::vector<GridPoint> &grid,
            const std::vector<ExperimentResult> &results,
            std::uint64_t seed, const Goldens &goldens)
{
    std::vector<bool> failed(grid.size(), false);
    // kernel → label → grid index, for the fig06 CSV rows.
    std::map<std::string, std::map<std::string, std::size_t>> fig06;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &c = grid[i].config;
        const auto &r = results[i];
        if (r.failed || r.oracleDivergences > 0 ||
            (r.unrecoverable && c.storageErrors == 0)) {
            failed[i] = true;
            continue;
        }
        if (c.oracle)
            continue;  // recovery campaign: the oracle is the check
        fig06[grid[i].workload][c.label()] = i;
        if (c.numErrors > 0 && seed != 0)
            continue;  // only seed 0's fault plan has a golden
        const auto golden = goldens.cells.find(
            cellKey(grid[i].workload, modeName(c.mode),
                    coordName(c.coordination),
                    std::to_string(c.numErrors)));
        if (golden == goldens.cells.end() ||
            golden->second != renderCell(grid[i], r))
            failed[i] = true;
    }

    for (const auto &[kernel, at] : fig06) {
        const auto golden = goldens.rows.find(kernel);
        const char *labels[] = {"NoCkpt", "Ckpt_NE", "Ckpt_E",
                                "ReCkpt_NE", "ReCkpt_E"};
        bool complete = golden != goldens.rows.end();
        for (const char *label : labels)
            complete = complete && at.count(label);
        if (!complete) {
            for (const auto &[label, i] : at)
                failed[i] = true;
            continue;
        }
        const auto cycles = results[at.at("NoCkpt")].cycles;
        auto ovh = [&](const char *label) {
            return results[at.at(label)].timeOverheadPct(cycles);
        };
        const std::string row = csprintf(
            "%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f", kernel.c_str(),
            ovh("Ckpt_NE"), ovh("Ckpt_E"), ovh("ReCkpt_NE"),
            ovh("ReCkpt_E"), reductionPct(ovh("Ckpt_NE"), ovh("ReCkpt_NE")),
            reductionPct(ovh("Ckpt_E"), ovh("ReCkpt_E")));
        // Columns 2, 4 and 6 hold _E points, which only seed 0 pins.
        const auto want = splitCsv(golden->second);
        const auto got = splitCsv(row);
        bool match = want.size() == got.size();
        for (std::size_t col = 0; match && col < want.size(); ++col)
            if ((seed == 0 || col % 2 == 1 || col == 0) &&
                want[col] != got[col])
                match = false;
        if (!match)
            for (const auto &[label, i] : at)
                failed[i] = true;
    }
    return failed;
}

std::vector<std::string>
fingerprints(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> prints;
    prints.reserve(results.size());
    for (const auto &r : results)
        prints.push_back(r.failed ? "failed: " + r.failReason
                                  : harness::wire::encodeResult(r).dump());
    return prints;
}

Modelled
modelled(const std::vector<GridPoint> &grid,
         const std::vector<ExperimentResult> &results,
         const std::map<std::string, ExperimentResult> &refs)
{
    std::map<std::string, ExperimentResult> base = refs;
    // Ckpt/ReCkpt siblings share everything but the scheme.
    std::map<std::string, std::pair<int, int>> pairs;
    bool any_ne = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &c = grid[i].config;
        if (c.mode == BerMode::kNoCkpt) {
            base[grid[i].workload] = results[i];
            continue;
        }
        const std::string key = csprintf(
            "%s|%d|%s|%u|%u", grid[i].workload.c_str(),
            static_cast<int>(c.coordination), ckpt::backendName(c.backend),
            c.numErrors, c.storageErrors);
        auto &slot = pairs.try_emplace(key, -1, -1).first->second;
        (c.mode == BerMode::kCkpt ? slot.first : slot.second) =
            static_cast<int>(i);
        any_ne = any_ne || c.numErrors == 0;
    }

    std::vector<double> time_red, energy_red, size_red, recovery_ovh;
    for (const auto &[key, slot] : pairs) {
        if (slot.first < 0 || slot.second < 0)
            continue;
        const auto &point = grid[static_cast<std::size_t>(slot.first)];
        const auto &ck = results[static_cast<std::size_t>(slot.first)];
        const auto &re = results[static_cast<std::size_t>(slot.second)];
        // Storage faults decide which pairs survive at all, so pairs
        // carrying them would make the mean jump with the seed.
        if ((point.config.numErrors == 0) != any_ne ||
            point.config.storageErrors > 0 || ck.failed || re.failed)
            continue;
        const auto &ref = base.at(point.workload);
        time_red.push_back(reductionPct(ck.timeOverheadPct(ref.cycles),
                                        re.timeOverheadPct(ref.cycles)));
        energy_red.push_back(
            reductionPct(ck.energyOverheadPct(ref.energyPj),
                         re.energyOverheadPct(ref.energyPj)));
        size_red.push_back(
            reductionPct(static_cast<double>(ck.ckptBytesStored),
                         static_cast<double>(re.ckptBytesStored)));
    }

    std::size_t storage_points = 0, unrecoverable = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &c = grid[i].config;
        const auto &r = results[i];
        if (c.storageErrors > 0) {
            ++storage_points;
            unrecoverable += r.unrecoverable ? 1 : 0;
        }
        if (c.numErrors > 0 && !r.failed && !r.unrecoverable)
            recovery_ovh.push_back(
                r.timeOverheadPct(base.at(grid[i].workload).cycles));
    }

    Modelled m;
    m.timeOverheadReductionPct = mean(time_red);
    m.energyOverheadReductionPct = mean(energy_red);
    m.ckptSizeReductionPct = mean(size_red);
    m.recoveryOverheadPct = mean(recovery_ovh);
    m.unrecoverableFrac =
        storage_points == 0 ? 0.0
                            : static_cast<double>(unrecoverable) /
                                  static_cast<double>(storage_points);
    return m;
}

StatSet
counterTotals(const std::vector<ExperimentResult> &results)
{
    StatSet totals;
    for (const auto &r : results)
        totals.merge(r.stats);
    return totals;
}

} // namespace perfbench
