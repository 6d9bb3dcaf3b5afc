/**
 * @file
 * Torture: multi-error fault-injection campaigns with the recovery
 * oracle attached. Sweeps (workload × mode × coordination × detection
 * latency × seed) under the standard sweep machinery; every recovery
 * is differentially validated against a fault-free golden replay, and
 * a campaign that surfaces a divergence is shrunk — by bisection over
 * the FaultPlan's event set — to a minimal failing plan, printed as a
 * one-line repro command.
 *
 * Joint compute × storage campaigns (DESIGN.md §16): --storage-errors
 * additionally injects seeded faults into the checkpoint medium, so
 * every rollback runs against possibly-rotten stored bytes and the
 * escalation ladder (replica switch → older-checkpoint retarget →
 * structured unrecoverable) is exercised under the oracle. A failing
 * campaign shrinks the compute event mask first, then the storage
 * mask with the compute events fixed.
 *
 * Exit codes (benchMain's verdict exit, shared by every bench): 0
 * clean, 3 quarantined points, 4 oracle divergence, 5 unrecoverable
 * point (max wins). With --oracle=off the oracle still audits every
 * recomputation and the final image, so a diverging point still exits
 * 4 and shrinks.
 *
 * Every campaign knob is a flag with a matching environment variable
 * (flag wins), both validated by the same strict parser:
 *
 *   --errors=N          ACR_TORTURE_ERRORS        planned errors (1..64)
 *   --checkpoints=N     ACR_TORTURE_CHECKPOINTS   checkpoints per run
 *   --seeds=N           ACR_TORTURE_SEEDS         seeds per grid point
 *   --campaign-seed=S   ACR_CAMPAIGN_SEED         base seed (point i
 *                                                 runs S + i)
 *   --oracle=on|off     ACR_ORACLE                the oracle's shadow
 *                                                 checks
 *   --event-mask=M      ACR_EVENT_MASK            FaultPlan bit mask
 *                                                 (keep event i iff bit
 *                                                 i % 64; shrinker sets
 *                                                 this in repro lines)
 *   --storage-errors=N  ACR_STORAGE_FAULT         storage faults against
 *                                                 the checkpoint medium
 *                                                 (0..64; 0 = reliable)
 *   --storage-mask=M    ACR_STORAGE_MASK          StorageFaultPlan bit
 *                                                 mask, same convention
 *                                                 as --event-mask
 *   --modes=a,b                                   ckpt,reckpt subset
 *   --coords=a,b                                  global,local subset
 *   --backends=a,b                                log,replicated,nvm
 *                                                 subset
 *   --lats=x,y                                    detection-latency
 *                                                 fractions
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.hh"

namespace
{

using namespace acr;
using namespace acr::bench;
using harness::BerMode;
using harness::ExperimentConfig;
using harness::ExperimentResult;

/** The campaign the flags/environment selected (readOptions fills it;
 *  grid and render both consult it, so reruns agree byte-for-byte). */
struct Campaign
{
    unsigned errors = 8;
    unsigned checkpoints = 5;
    unsigned seeds = 3;
    std::uint64_t campaignSeed = 0xacce55ULL;
    bool oracle = true;
    std::uint64_t eventMask = ~std::uint64_t{0};
    unsigned storageErrors = 0;
    std::uint64_t storageMask = ~std::uint64_t{0};
    std::vector<BerMode> modes = {BerMode::kCkpt, BerMode::kReCkpt};
    std::vector<ckpt::Coordination> coords = {
        ckpt::Coordination::kGlobal, ckpt::Coordination::kLocal};
    std::vector<ckpt::Backend> backends = {ckpt::Backend::kLog};
    std::vector<double> lats = {0.4, 0.5};
};

Campaign campaign;

const char *
modeName(BerMode mode)
{
    return mode == BerMode::kCkpt ? "ckpt" : "reckpt";
}

const char *
coordName(ckpt::Coordination coordination)
{
    return coordination == ckpt::Coordination::kGlobal ? "global"
                                                       : "local";
}

void
declareOptions(OptionParser &parser)
{
    parser.addUint("errors", 8, "planned errors per run (1..64)");
    parser.addUint("checkpoints", 5, "checkpoints per run");
    parser.addUint("seeds", 3, "seeds per (workload, config) point");
    parser.addUint("campaign-seed", 0xacce55ULL,
                   "base FaultPlan seed; seed index i runs base + i");
    parser.addString("oracle", "on",
                     "the recovery oracle's shadow checks: on or off "
                     "(recomputation and the final image are always "
                     "checked)");
    parser.addUint("event-mask", ~std::uint64_t{0},
                   "FaultPlan event mask: keep planned error i iff bit "
                   "(i % 64) is set (repro lines from the shrinker "
                   "set this)");
    parser.addUint("storage-errors", 0,
                   "storage faults injected into the checkpoint "
                   "medium per run (0..64; 0: reliable medium)");
    parser.addUint("storage-mask", ~std::uint64_t{0},
                   "StorageFaultPlan event mask, same keep-bit "
                   "convention as --event-mask");
    parser.addString("modes", "ckpt,reckpt",
                     "comma-separated subset of ckpt,reckpt");
    parser.addString("coords", "global,local",
                     "comma-separated subset of global,local");
    parser.addString("backends", "log",
                     "comma-separated subset of log,replicated,nvm");
    parser.addString("lats", "0.4,0.5",
                     "comma-separated detection-latency fractions "
                     "(each in [0, 1])");

    // One validation path for both spellings: the environment value is
    // assigned through the identical strict parse as --flag=value, and
    // an explicit flag overrides it.
    parser.envDefault("errors", "ACR_TORTURE_ERRORS");
    parser.envDefault("checkpoints", "ACR_TORTURE_CHECKPOINTS");
    parser.envDefault("seeds", "ACR_TORTURE_SEEDS");
    parser.envDefault("campaign-seed", "ACR_CAMPAIGN_SEED");
    parser.envDefault("oracle", "ACR_ORACLE");
    parser.envDefault("event-mask", "ACR_EVENT_MASK");
    parser.envDefault("storage-errors", "ACR_STORAGE_FAULT");
    parser.envDefault("storage-mask", "ACR_STORAGE_MASK");
}

void
readOptions(const OptionParser &parser)
{
    const unsigned long long errors = parser.getUint("errors");
    if (errors < 1 || errors > 64)
        fatal("--errors must be in 1..64 (the event mask is 64 bits), "
              "got %llu",
              errors);
    campaign.errors = static_cast<unsigned>(errors);

    const unsigned long long checkpoints = parser.getUint("checkpoints");
    if (checkpoints < 1)
        fatal("--checkpoints must be >= 1");
    campaign.checkpoints = static_cast<unsigned>(checkpoints);

    const unsigned long long seeds = parser.getUint("seeds");
    if (seeds < 1)
        fatal("--seeds must be >= 1");
    campaign.seeds = static_cast<unsigned>(seeds);

    campaign.campaignSeed = parser.getUint("campaign-seed");
    campaign.eventMask = parser.getUint("event-mask");
    if (campaign.eventMask == 0)
        fatal("--event-mask=0 would drop every planned error; use "
              "--errors with a smaller count instead");

    const unsigned long long storage_errors =
        parser.getUint("storage-errors");
    if (storage_errors > 64)
        fatal("--storage-errors must be in 0..64 (the storage mask is "
              "64 bits), got %llu",
              storage_errors);
    campaign.storageErrors = static_cast<unsigned>(storage_errors);
    campaign.storageMask = parser.getUint("storage-mask");
    if (campaign.storageMask == 0 && campaign.storageErrors > 0)
        fatal("--storage-mask=0 would drop every planned storage "
              "fault; use --storage-errors=0 instead");

    const std::string oracle = parser.getString("oracle");
    if (oracle == "on")
        campaign.oracle = true;
    else if (oracle == "off")
        campaign.oracle = false;
    else
        fatal("--oracle expects on or off, got '%s'", oracle.c_str());

    campaign.modes.clear();
    for (const auto &name : splitCommaList(parser.getString("modes"))) {
        if (name == "ckpt")
            campaign.modes.push_back(BerMode::kCkpt);
        else if (name == "reckpt")
            campaign.modes.push_back(BerMode::kReCkpt);
        else
            fatal("--modes expects ckpt/reckpt entries, got '%s'",
                  name.c_str());
    }
    if (campaign.modes.empty())
        fatal("--modes selected nothing");

    campaign.coords.clear();
    for (const auto &name : splitCommaList(parser.getString("coords"))) {
        if (name == "global")
            campaign.coords.push_back(ckpt::Coordination::kGlobal);
        else if (name == "local")
            campaign.coords.push_back(ckpt::Coordination::kLocal);
        else
            fatal("--coords expects global/local entries, got '%s'",
                  name.c_str());
    }
    if (campaign.coords.empty())
        fatal("--coords selected nothing");

    campaign.backends.clear();
    for (const auto &name : splitCommaList(parser.getString("backends"))) {
        ckpt::Backend backend;
        if (!ckpt::parseBackend(name, backend))
            fatal("--backends expects log/replicated/nvm entries, got "
                  "'%s'",
                  name.c_str());
        campaign.backends.push_back(backend);
    }
    if (campaign.backends.empty())
        fatal("--backends selected nothing");

    campaign.lats.clear();
    for (const auto &text : splitCommaList(parser.getString("lats"))) {
        double lat = 0.0;
        if (!parseStrictDouble(text, lat) || lat < 0.0 || lat > 1.0)
            fatal("--lats entries must be numbers in [0, 1], got '%s'",
                  text.c_str());
        campaign.lats.push_back(lat);
    }
    if (campaign.lats.empty())
        fatal("--lats selected nothing");
}

/** Enumerate the campaign grid: workload-major, then mode × coord ×
 *  backend × latency × seed — the order render() re-derives to label
 *  rows. */
std::vector<harness::GridPoint>
buildGrid(const std::vector<std::string> &names)
{
    std::vector<harness::GridPoint> points;
    for (const auto &name : names) {
        for (BerMode mode : campaign.modes) {
            for (ckpt::Coordination coordination : campaign.coords) {
                for (ckpt::Backend backend : campaign.backends) {
                    for (double lat : campaign.lats) {
                        for (unsigned s = 0; s < campaign.seeds; ++s) {
                            ExperimentConfig config = makeConfig(
                                mode, campaign.errors, coordination,
                                campaign.checkpoints);
                            config.backend = backend;
                            config.detectionLatencyFraction = lat;
                            config.seed = campaign.campaignSeed + s;
                            config.oracle = campaign.oracle;
                            config.faultEventMask = campaign.eventMask;
                            config.storageErrors =
                                campaign.storageErrors;
                            config.storageFaultMask =
                                campaign.storageMask;
                            points.push_back(
                                {name, config, kDefaultThreads});
                        }
                    }
                }
            }
        }
    }
    return points;
}

/** The planned-error indices an event mask keeps. */
std::vector<unsigned>
maskEvents(std::uint64_t mask, unsigned errors)
{
    std::vector<unsigned> events;
    for (unsigned i = 0; i < errors; ++i)
        if ((mask >> (i % 64)) & 1)
            events.push_back(i);
    return events;
}

std::uint64_t
eventsToMask(const std::vector<unsigned> &events)
{
    std::uint64_t mask = 0;
    for (unsigned i : events)
        mask |= std::uint64_t{1} << (i % 64);
    return mask;
}

/**
 * Shrink one event set to a minimal subset that keeps @p fails true:
 * first bisect (keep whichever half still reproduces), then greedily
 * drop single events until every remaining one is load-bearing.
 */
std::vector<unsigned>
shrinkEvents(std::vector<unsigned> events,
             const std::function<bool(std::uint64_t)> &fails)
{
    // Bisection: halve while a half alone still reproduces.
    while (events.size() > 1) {
        const std::size_t half = events.size() / 2;
        std::vector<unsigned> lo(events.begin(), events.begin() + half);
        std::vector<unsigned> hi(events.begin() + half, events.end());
        if (fails(eventsToMask(lo)))
            events = std::move(lo);
        else if (fails(eventsToMask(hi)))
            events = std::move(hi);
        else
            break;  // the halves only fail together
    }

    // Greedy refinement: drop any single event that is not needed.
    bool changed = true;
    while (changed && events.size() > 1) {
        changed = false;
        for (std::size_t i = 0; i < events.size(); ++i) {
            std::vector<unsigned> candidate = events;
            candidate.erase(candidate.begin() + i);
            if (fails(eventsToMask(candidate))) {
                events = std::move(candidate);
                changed = true;
                break;
            }
        }
    }
    return events;
}

/** A shrunk repro: minimal compute event mask, and — for joint
 *  campaigns — minimal storage mask with the compute events fixed. */
struct ShrunkMasks
{
    std::uint64_t eventMask = ~std::uint64_t{0};
    std::uint64_t storageMask = ~std::uint64_t{0};
};

/**
 * Shrink a failing campaign to a minimal failing plan. `failure_class`
 * decides what counts as reproducing: an unrecoverable point must
 * shrink to a still-unrecoverable plan, a diverging one to a
 * still-diverging plan (the classes escalate differently, so mixing
 * them would "shrink" one bug into a different one). The compute
 * event mask shrinks first; the storage mask then shrinks with the
 * surviving compute events held fixed. Runs serially on the context's
 * runner — the repro should come from the same deterministic engine
 * the sweep used.
 */
ShrunkMasks
shrinkFailure(harness::Runner &runner, const std::string &workload,
              const ExperimentConfig &config, bool want_unrecoverable,
              std::ostream &err)
{
    auto fails_with = [&](const ExperimentConfig &candidate) {
        const ExperimentResult result = runner.run(workload, candidate);
        return want_unrecoverable ? result.unrecoverable
                                  : result.oracleDivergences > 0;
    };

    ShrunkMasks masks;
    std::vector<unsigned> events = shrinkEvents(
        maskEvents(config.faultEventMask, config.numErrors),
        [&](std::uint64_t mask) {
            ExperimentConfig candidate = config;
            candidate.faultEventMask = mask;
            return fails_with(candidate);
        });
    masks.eventMask = eventsToMask(events);

    err << "[torture] shrunk to " << events.size() << " of "
        << config.numErrors << " planned event(s):";
    for (unsigned i : events)
        err << " #" << i;
    err << "\n";

    if (config.storageErrors > 0) {
        std::vector<unsigned> storage = shrinkEvents(
            maskEvents(config.storageFaultMask, config.storageErrors),
            [&](std::uint64_t mask) {
                ExperimentConfig candidate = config;
                candidate.faultEventMask = masks.eventMask;
                candidate.storageFaultMask = mask;
                return fails_with(candidate);
            });
        masks.storageMask = eventsToMask(storage);
        err << "[torture] shrunk to " << storage.size() << " of "
            << config.storageErrors << " storage fault(s):";
        for (unsigned i : storage)
            err << " #" << i;
        err << "\n";
    }
    return masks;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSpec spec;
    spec.name = "torture";
    spec.defaultWorkloads = {"is"};
    spec.options = declareOptions;
    spec.readOptions = readOptions;
    spec.grid = [](harness::BenchContext &ctx) {
        return buildGrid(ctx.workloads());
    };
    spec.render = [](harness::BenchContext &ctx,
                     const std::vector<ExperimentResult> &results) {
        ctx.note(csprintf("Torture: %u error(s), %u checkpoint(s), "
                          "%u seed(s) from base %llu, oracle %s\n\n",
                          campaign.errors, campaign.checkpoints,
                          campaign.seeds,
                          static_cast<unsigned long long>(
                              campaign.campaignSeed),
                          campaign.oracle ? "on" : "off"));
        if (campaign.storageErrors > 0)
            ctx.note(csprintf("Storage faults: %u per run against the "
                              "checkpoint medium\n\n",
                              campaign.storageErrors));

        const auto grid = buildGrid(ctx.workloads());
        Table table({"bench", "config", "lat", "seed", "cycles",
                     "ckpts", "recov", "inj", "det", "drop", "requeue",
                     "recompW", "diverge"});
        std::uint64_t total_divergences = 0;
        std::uint64_t corrupt_reads = 0, replica_switches = 0;
        std::uint64_t retargets = 0, unrecoverable_points = 0;
        std::vector<std::size_t> failing;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &point = grid[i];
            const auto &result = results[i];
            auto stat = [&](const char *name) {
                return static_cast<long long>(result.stats.get(name));
            };
            // The config cell stays byte-identical for default
            // (log-backend) campaigns; joint backend sweeps tag it.
            std::string config_cell =
                csprintf("%s,%s", modeName(point.config.mode),
                         coordName(point.config.coordination));
            if (point.config.backend != ckpt::Backend::kLog)
                config_cell += std::string("@") +
                               ckpt::backendName(point.config.backend);
            Table &row =
                table.row()
                    .cell(point.workload)
                    .cell(config_cell)
                    .cell(point.config.detectionLatencyFraction)
                    .cell(static_cast<long long>(point.config.seed))
                    .cell(static_cast<long long>(result.cycles))
                    .cell(static_cast<long long>(
                        result.checkpointsEstablished))
                    .cell(static_cast<long long>(result.recoveries))
                    .cell(stat("fault.injected"))
                    .cell(stat("fault.detected"))
                    .cell(stat("fault.dropped"))
                    .cell(stat("fault.requeued"))
                    .cell(stat("rec.recomputedWords"));
            if (result.unrecoverable)
                row.cell("UNREC");
            else
                row.cell(
                    static_cast<long long>(result.oracleDivergences));
            if (result.failed)
                continue;
            corrupt_reads += stat("ckpt.corruptReads");
            replica_switches += stat("rec.replicaSwitches");
            retargets += stat("rec.retargets");
            if (result.unrecoverable)
                ++unrecoverable_points;
            if (result.oracleDivergences > 0 || result.unrecoverable) {
                total_divergences += result.oracleDivergences;
                failing.push_back(i);
            }
        }
        ctx.emit(table);

        if (campaign.storageErrors > 0)
            std::cerr << csprintf(
                "[torture] storage: %llu corrupt read(s), %llu "
                "replica switch(es), %llu older-checkpoint "
                "retarget(s), %llu unrecoverable campaign(s)\n",
                static_cast<unsigned long long>(corrupt_reads),
                static_cast<unsigned long long>(replica_switches),
                static_cast<unsigned long long>(retargets),
                static_cast<unsigned long long>(unrecoverable_points));

        if (failing.empty()) {
            ctx.note(csprintf("\nall %zu campaign(s) recovered "
                              "bit-exactly (0 divergences)\n",
                              results.size()));
            return;
        }

        // Failure post-mortem goes to stderr: the structured reports,
        // then a minimal shrunk repro per failing point.
        std::cerr << "[torture] " << total_divergences
                  << " divergence(s) across " << failing.size()
                  << " campaign(s)\n";
        for (std::size_t i : failing) {
            const auto &point = grid[i];
            const bool unrec = results[i].unrecoverable;
            if (unrec)
                std::cerr << "[torture] UNRECOVERABLE: "
                          << results[i].unrecoverableDetail << "\n";
            if (!results[i].oracleReport.empty())
                std::cerr << results[i].oracleReport << "\n";
            const ShrunkMasks masks = shrinkFailure(
                ctx.runner(point.threads), point.workload,
                point.config, unrec, std::cerr);
            std::string repro = csprintf(
                "[torture] repro: torture --workloads=%s --modes=%s "
                "--coords=%s --backends=%s --lats=%g --errors=%u "
                "--checkpoints=%u --campaign-seed=%llu --seeds=1 "
                "--oracle=%s --event-mask=%llu",
                point.workload.c_str(), modeName(point.config.mode),
                coordName(point.config.coordination),
                ckpt::backendName(point.config.backend),
                point.config.detectionLatencyFraction,
                point.config.numErrors, point.config.numCheckpoints,
                static_cast<unsigned long long>(point.config.seed),
                campaign.oracle ? "on" : "off",
                static_cast<unsigned long long>(masks.eventMask));
            if (point.config.storageErrors > 0)
                repro += csprintf(
                    " --storage-errors=%u --storage-mask=%llu",
                    point.config.storageErrors,
                    static_cast<unsigned long long>(
                        masks.storageMask));
            std::cerr << repro << " --jobs=1\n";
        }
    };
    return harness::benchMain(argc, argv, spec);
}
