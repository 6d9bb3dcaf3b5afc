#include "harness/bench_main.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/exit_code.hh"
#include "harness/result_cache.hh"
#include "workloads/workload.hh"

namespace acr::harness
{

namespace
{

std::vector<std::string>
resolveWorkloads(const std::string &flag, const BenchSpec &spec)
{
    std::vector<std::string> selected = splitCommaList(flag);
    if (selected.empty())
        selected = spec.defaultWorkloads;
    if (selected.empty())
        selected = workloads::allWorkloadNames();
    const auto &known = workloads::allWorkloadNames();
    for (const auto &name : selected)
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal("unknown workload '%s' (have: %s)", name.c_str(),
                  [&] {
                      std::string all;
                      for (const auto &k : known)
                          all += (all.empty() ? "" : ", ") + k;
                      return all;
                  }()
                      .c_str());
    return selected;
}

BenchOptions
parseOptions(int argc, const char *const *argv, const BenchSpec &spec)
{
    OptionParser parser(spec.name);
    parser.addInt("jobs", 0,
                  "sweep worker threads (0: hardware concurrency; env "
                  "$ACR_JOBS)");
    parser.envDefault("jobs", "ACR_JOBS");
    parser.addInt("forks", 0,
                  "local worker processes (fork/exec of this binary "
                  "with --worker; 0: in-process threads)");
    parser.addString("shard", "",
                     "run only shard i of N ('i/N') into --cache "
                     "instead of rendering; render the concatenated "
                     "legs' caches with --cache");
    parser.addFlag("worker",
                   "wire-protocol worker: read point frames on stdin, "
                   "write result frames to stdout (used by --forks)");
    parser.addString("format", "table",
                     "output format: table, csv, or json");
    parser.addString("workloads", "",
                     "comma-separated workload subset (default: all)");
    parser.addString("backend", "",
                     "checkpoint store backend override for every "
                     "checkpointing grid point: log, replicated, or "
                     "nvm (default: run the bench's grid exactly as "
                     "enumerated; env $ACR_BACKEND)");
    parser.envDefault("backend", "ACR_BACKEND");
    parser.addInt("retries", 2,
                  "retry a failed point this many times on fresh "
                  "workers before quarantining it (--forks)");
    parser.addDouble("point-timeout", 0.0,
                     "per-point watchdog in seconds: SIGKILL and retry "
                     "a worker wedged longer than this (0: off)");
    parser.addString("cache", "",
                     "content-addressed cross-bench result cache "
                     "file: serve identical (workload, config, "
                     "threads) points from it instead of simulating, "
                     "and append fresh results; rerun a killed sweep "
                     "with the same file to restart it (default: "
                     "$ACR_CACHE)");
    if (spec.options)
        spec.options(parser);
    parser.parse(argc, argv);
    if (spec.readOptions)
        spec.readOptions(parser);

    BenchOptions options;
    const long long jobs = parser.getInt("jobs");
    if (jobs < 0)
        fatal("--jobs must be >= 0, got %lld", jobs);
    options.jobs = static_cast<unsigned>(jobs);
    const long long forks = parser.getInt("forks");
    if (forks < 0)
        fatal("--forks must be >= 0, got %lld", forks);
    options.forks = static_cast<unsigned>(forks);
    const std::string shard = parser.getString("shard");
    if (!shard.empty()) {
        options.shardMode = true;
        options.shard = ShardedSweep::parseShard(shard);
    }
    options.workerMode = parser.getFlag("worker");
    options.format = parseTableFormat(parser.getString("format"));
    options.workloads =
        resolveWorkloads(parser.getString("workloads"), spec);
    const std::string backend = parser.getString("backend");
    if (!backend.empty()) {
        options.backendOverride = true;
        if (!ckpt::parseBackend(backend, options.backend))
            fatal("--backend must be log, replicated, or nvm, got "
                  "'%s'",
                  backend.c_str());
    }
    const long long retries = parser.getInt("retries");
    if (retries < 0)
        fatal("--retries must be >= 0, got %lld", retries);
    options.retries = static_cast<unsigned>(retries);
    options.pointTimeout = parser.getDouble("point-timeout");
    if (options.pointTimeout < 0)
        fatal("--point-timeout must be >= 0, got %g",
              options.pointTimeout);
    options.cachePath = parser.getString("cache");

    if (options.workerMode && options.shardMode)
        fatal("--worker does not combine with --shard");
    if (options.workerMode && !options.cachePath.empty())
        fatal("--cache only applies when this invocation sweeps (not "
              "--worker)");
    // ACR_CACHE is only a default for sweeping invocations: forked
    // --worker children inherit the environment, but lookups are
    // coordinator-side by design (cached points are never dealt out).
    if (options.cachePath.empty() && !options.workerMode)
        if (const char *env = std::getenv("ACR_CACHE"))
            options.cachePath = env;
    if (options.shardMode && options.cachePath.empty())
        fatal("--shard needs --cache=FILE (or $ACR_CACHE): a shard leg "
              "stores its results there, and the legs' files, "
              "concatenated, are what --cache renders");
    return options;
}

/**
 * The one verdict exit of every mode that runs points: report each
 * quarantined, diverging and unrecoverable point (results[slot]
 * belongs to grid index indices[slot]) with one stderr line, and pick
 * the process exit code — kExitQuarantine when any point failed every
 * attempt, kExitDivergence when the recovery oracle found any
 * divergence, kExitUnrecoverable when any point lost its machine
 * (precedence: harness/exit_code.hh).
 */
int
verdictExit(const std::vector<GridPoint> &grid,
            const std::vector<std::size_t> &indices,
            const std::vector<ExperimentResult> &results)
{
    std::size_t failures = 0;
    std::size_t divergent = 0;
    std::size_t losses = 0;
    for (std::size_t slot = 0; slot < results.size(); ++slot) {
        const ExperimentResult &result = results[slot];
        const std::size_t index = indices[slot];
        const std::string where =
            csprintf("point %zu (%s, %s)", index,
                     grid[index].workload.c_str(),
                     grid[index].config.label().c_str());
        if (result.failed) {
            ++failures;
            std::cerr << "[sweep] FAILED " << where << " after "
                      << result.attempts
                      << " attempt(s): " << result.failReason << "\n";
        }
        if (result.oracleDivergences > 0) {
            ++divergent;
            std::cerr << "[sweep] DIVERGED " << where << ": "
                      << result.oracleDivergences
                      << " oracle divergence(s)\n";
        }
        if (result.unrecoverable) {
            ++losses;
            std::cerr << "[sweep] UNRECOVERABLE " << where << ": "
                      << result.unrecoverableDetail << "\n";
        }
    }
    int code = kExitClean;
    if (failures != 0) {
        std::cerr << "[sweep] " << failures << " of " << results.size()
                  << " point(s) quarantined; treat rendered output as "
                     "partial (NaN-derived columns show FAILED)\n";
        code = combineExitCodes(code, kExitQuarantine);
    }
    if (divergent != 0) {
        std::cerr << "[sweep] " << divergent << " of " << results.size()
                  << " point(s) diverged: the recovery oracle caught a "
                     "wrong recovery (DESIGN.md §12)\n";
        code = combineExitCodes(code, kExitDivergence);
    }
    if (losses != 0) {
        std::cerr << "[sweep] " << losses << " of " << results.size()
                  << " point(s) unrecoverable: no rollback target "
                     "could be restored (DESIGN.md §16)\n";
        code = combineExitCodes(code, kExitUnrecoverable);
    }
    return code;
}

} // namespace

int
benchMain(int argc, const char *const *argv, const BenchSpec &spec)
{
    ACR_ASSERT(spec.grid && spec.render, "incomplete BenchSpec");
    const BenchOptions options = parseOptions(argc, argv, spec);

    RunnerPool pool;
    if (options.workerMode)
        return ShardedSweep::workerLoop(pool, std::cin, std::cout);

    BenchContext context(spec.name, options, pool, std::cout);
    std::vector<GridPoint> grid = spec.grid(context);
    ACR_ASSERT(!grid.empty(), "bench grid is empty");

    // --backend rewrites the grid before anything derives from it
    // (cache keys), so every mode — jobs, forks, shard — agrees on
    // the same points and the ResultCache distinguishes backends by
    // content. NoCkpt points
    // keep the default: they store nothing, and validate() rejects a
    // non-log backend on them.
    if (options.backendOverride)
        for (GridPoint &point : grid)
            if (point.config.mode != BerMode::kNoCkpt)
                point.config.backend = options.backend;

    ShardedSweep sweep(pool, options.jobs);
    const std::vector<std::string> worker_cmd = {
        ShardedSweep::selfExecutable(argc > 0 ? argv[0] : spec.name),
        "--worker"};

    const ShardedSweep::Shard shard =
        options.shardMode ? options.shard : ShardedSweep::Shard{};
    const auto owned =
        ShardedSweep::shardIndices(grid.size(), shard);

    ResultCache cache;
    if (!options.cachePath.empty())
        cache.open(options.cachePath);

    // Test hook: _exit abruptly after this many cache appends —
    // simulates a coordinator SIGKILLed mid-sweep for the restart
    // tests. Inert unless the environment sets it.
    const char *exit_env = std::getenv("ACR_TEST_COORD_EXIT_AFTER");
    unsigned long long exit_after = 0;
    if (exit_env != nullptr && *exit_env != '\0' &&
        !parseStrictUint(exit_env, exit_after))
        fatal("ACR_TEST_COORD_EXIT_AFTER='%s' is not an unsigned "
              "integer",
              exit_env);

    ShardedSweep::SweepControls controls;
    controls.supervise.retries = options.retries;
    controls.supervise.pointTimeoutSec = options.pointTimeout;

    // Coordinator-side serving map, by grid index: the owned points
    // the cache holds by content. It feeds SweepControls::cache, so a
    // served point is never dealt to a worker — in-process, forked,
    // or sharded mode alike — and a rerun of a killed sweep, or the
    // render of a sharded one, redoes only what never reached the
    // file.
    std::map<std::size_t, ExperimentResult> served;
    if (cache.isOpen()) {
        served = cache.served(grid, owned);
        controls.cache = &served;
        controls.completed = [&cache, &grid, exit_after](
                                 std::size_t index,
                                 const ExperimentResult &result) {
            cache.insert(grid[index], result);
            if (exit_after != 0 && cache.inserts() >= exit_after)
                ::_exit(7);
        };
    }

    const std::vector<ExperimentResult> results =
        options.forks > 0 ? sweep.runForked(grid, options.forks,
                                            worker_cmd, shard, controls)
                          : sweep.run(grid, shard, controls);
    sweep.reportTiming(std::cerr);
    if (cache.isOpen())
        std::cerr << "[sweep] cache: " << cache.hits() << " hit(s), "
                  << cache.misses() << " miss(es), "
                  << cache.inserts() << " insert(s) in '"
                  << options.cachePath << "'\n";
    // A shard leg renders nothing: its output is its cache file.
    if (!options.shardMode)
        spec.render(context, results);
    return verdictExit(grid, owned, results);
}

} // namespace acr::harness
