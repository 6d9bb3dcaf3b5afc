#include "harness/bench_main.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/exit_code.hh"
#include "harness/result_cache.hh"
#include "harness/supervisor.hh"
#include "workloads/workload.hh"

namespace acr::harness
{

namespace
{

std::vector<std::string>
splitCommaList(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream stream(text);
    std::string part;
    while (std::getline(stream, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

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
                     "run only shard i of N ('i/N') and emit wire "
                     "records instead of rendering");
    parser.addString("merge", "",
                     "comma-separated shard record files to merge and "
                     "render");
    parser.addFlag("worker",
                   "wire-protocol worker: read point records on stdin, "
                   "write result records to stdout");
    parser.addString("listen", "",
                     "distributed coordinator: accept TCP --connect "
                     "workers on HOST:PORT (port 0: kernel-picked, "
                     "announced on stderr) and deal grid points to "
                     "them");
    parser.addString("connect", "",
                     "distributed worker: dial a --listen coordinator "
                     "at HOST:PORT and run dealt points (default: "
                     "$ACR_CONNECT)");
    parser.envDefault("connect", "ACR_CONNECT");
    parser.addUint("heartbeat", 5,
                   "distributed keepalive cadence in seconds (idle "
                   "timeout 4x, join grace 8x, reconnect window 10x)");
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
                  "workers before quarantining it (forked mode)");
    parser.addDouble("point-timeout", 0.0,
                     "per-point watchdog in seconds: SIGKILL and retry "
                     "a worker wedged longer than this (0: off)");
    parser.addString("journal", "",
                     "append each completed point to this file as "
                     "fsync'd wire records (progress log + result "
                     "cache)");
    parser.addFlag("resume",
                   "serve points already completed in --journal "
                   "instead of re-simulating them");
    parser.addString("cache", "",
                     "content-addressed cross-bench result cache "
                     "file: serve identical (workload, config, "
                     "threads) points from it instead of simulating, "
                     "and append fresh results (default: $ACR_CACHE)");
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
    options.mergeFiles = splitCommaList(parser.getString("merge"));
    options.workerMode = parser.getFlag("worker");
    const std::string listen = parser.getString("listen");
    if (!listen.empty()) {
        options.listenMode = true;
        // Port 0 asks the kernel for a free port (the bound endpoint
        // is announced on stderr); --connect needs a real one.
        options.listen = net::parseEndpoint(listen, "--listen", true);
    }
    const std::string connect = parser.getString("connect");
    if (!connect.empty()) {
        options.connectMode = true;
        options.connect =
            net::parseEndpoint(connect, "--connect", false);
    }
    const unsigned long long heartbeat = parser.getUint("heartbeat");
    if (heartbeat < 1 || heartbeat > 3600)
        fatal("--heartbeat must be in [1, 3600] seconds, got %llu",
              heartbeat);
    options.heartbeatSec = static_cast<unsigned>(heartbeat);
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
    options.journal = parser.getString("journal");
    options.resume = parser.getFlag("resume");
    options.cachePath = parser.getString("cache");

    if (options.shardMode && !options.mergeFiles.empty())
        fatal("--shard and --merge are mutually exclusive");
    if (options.workerMode &&
        (options.shardMode || !options.mergeFiles.empty()))
        fatal("--worker does not combine with --shard/--merge");
    if (options.listenMode && options.connectMode)
        fatal("--listen and --connect are mutually exclusive (one "
              "process is either the coordinator or a worker)");
    if (options.listenMode &&
        (options.workerMode || options.shardMode ||
         !options.mergeFiles.empty() || options.forks > 0))
        fatal("--listen does not combine with "
              "--worker/--shard/--merge/--forks");
    if (options.connectMode &&
        (options.workerMode || options.shardMode ||
         !options.mergeFiles.empty() || options.forks > 0))
        fatal("--connect does not combine with "
              "--worker/--shard/--merge/--forks");
    if (options.connectMode &&
        (!options.journal.empty() || !options.cachePath.empty()))
        fatal("--journal/--cache are coordinator-side; they do not "
              "combine with --connect");
    if (options.resume && options.journal.empty())
        fatal("--resume needs --journal");
    if (!options.journal.empty() &&
        (options.workerMode || !options.mergeFiles.empty()))
        fatal("--journal only applies when this invocation sweeps "
              "(not --worker/--merge)");
    if (!options.cachePath.empty() &&
        (options.workerMode || !options.mergeFiles.empty()))
        fatal("--cache only applies when this invocation sweeps "
              "(not --worker/--merge)");
    // ACR_CACHE is only a default for sweeping invocations: forked
    // --worker children and TCP --connect workers inherit the
    // environment, but lookups are coordinator-side by design (cached
    // points are never dealt out).
    if (options.cachePath.empty() && !options.workerMode &&
        !options.connectMode && options.mergeFiles.empty())
        if (const char *env = std::getenv("ACR_CACHE"))
            options.cachePath = env;
    return options;
}

/**
 * Load shard record files, verify they are a complete, disjoint cover
 * of exactly this grid (same point count, same gridHash, every shard
 * of the declared partition present once), and return the results in
 * grid order.
 */
std::vector<ExperimentResult>
mergeShardFiles(const BenchSpec &spec,
                const std::vector<GridPoint> &grid,
                const std::vector<std::string> &files)
{
    const std::uint64_t expect_hash = wire::gridHash(grid);
    std::vector<ExperimentResult> results(grid.size());
    std::vector<bool> filled(grid.size(), false);
    std::set<std::uint64_t> shards_seen;
    std::uint64_t shard_count = 0;

    for (const auto &file : files) {
        std::ifstream in(file);
        if (!in)
            fatal("cannot open shard file '%s'", file.c_str());
        std::string line;
        bool have_manifest = false;
        std::uint64_t file_shard = 0;
        std::size_t line_number = 0;
        while (std::getline(in, line)) {
            ++line_number;
            if (line.empty())
                continue;
            wire::Record record;
            try {
                record = wire::decodeLine(line);
            } catch (const serde::SerdeError &error) {
                fatal("%s:%zu: %s", file.c_str(), line_number,
                      error.what());
            }
            if (record.type == wire::Record::Type::kManifest) {
                const auto &manifest = record.manifest;
                if (have_manifest)
                    fatal("%s: second manifest record", file.c_str());
                have_manifest = true;
                if (manifest.bench != spec.name)
                    fatal("%s: records belong to bench '%s', not "
                          "'%s'",
                          file.c_str(), manifest.bench.c_str(),
                          spec.name.c_str());
                if (manifest.gridPoints != grid.size() ||
                    manifest.gridHash != expect_hash)
                    fatal("%s: shard was produced from a different "
                          "grid (points %llu vs %zu; check that "
                          "--workloads and bench flags match)",
                          file.c_str(),
                          static_cast<unsigned long long>(
                              manifest.gridPoints),
                          grid.size());
                if (shard_count == 0)
                    shard_count = manifest.shardCount;
                else if (shard_count != manifest.shardCount)
                    fatal("%s: shard declares 1/%llu but earlier "
                          "files declared 1/%llu",
                          file.c_str(),
                          static_cast<unsigned long long>(
                              manifest.shardCount),
                          static_cast<unsigned long long>(
                              shard_count));
                if (!shards_seen.insert(manifest.shard).second)
                    fatal("%s: shard %llu appears twice",
                          file.c_str(),
                          static_cast<unsigned long long>(
                              manifest.shard));
                file_shard = manifest.shard;
                continue;
            }
            // A shard stream carries its quarantined points as
            // explicit `failed` records; merging turns them back into
            // quarantine placeholders so the rendered table shows
            // FAILED cells instead of the merge aborting.
            const bool quarantine =
                record.type == wire::Record::Type::kFailed;
            if (record.type != wire::Record::Type::kResult &&
                !quarantine)
                fatal("%s:%zu: unexpected record type", file.c_str(),
                      line_number);
            if (!have_manifest)
                fatal("%s: result record before the manifest",
                      file.c_str());
            const std::uint64_t index = quarantine
                                            ? record.failed.index
                                            : record.result.index;
            if (index >= grid.size())
                fatal("%s:%zu: result index %llu out of range",
                      file.c_str(), line_number,
                      static_cast<unsigned long long>(index));
            if (index % shard_count != file_shard)
                fatal("%s:%zu: result index %llu does not belong to "
                      "shard %llu/%llu",
                      file.c_str(), line_number,
                      static_cast<unsigned long long>(index),
                      static_cast<unsigned long long>(file_shard),
                      static_cast<unsigned long long>(shard_count));
            if (filled[index])
                fatal("%s:%zu: duplicate result for index %llu",
                      file.c_str(), line_number,
                      static_cast<unsigned long long>(index));
            if (quarantine)
                results[index] = ExperimentResult::quarantined(
                    static_cast<unsigned>(record.failed.attempts),
                    record.failed.reason);
            else
                results[index] = std::move(record.result.result);
            filled[index] = true;
        }
        if (!have_manifest)
            fatal("%s: no manifest record", file.c_str());
    }

    for (std::uint64_t shard = 0; shard < shard_count; ++shard)
        if (!shards_seen.count(shard))
            fatal("shard %llu/%llu is missing from --merge",
                  static_cast<unsigned long long>(shard),
                  static_cast<unsigned long long>(shard_count));
    for (std::size_t i = 0; i < filled.size(); ++i)
        if (!filled[i])
            fatal("no result for grid point %zu (workload '%s', "
                  "config %s)",
                  i, grid[i].workload.c_str(),
                  grid[i].config.label().c_str());
    return results;
}

/**
 * Report quarantined and unrecoverable points (results[slot] belongs
 * to grid index indices[slot]) to stderr and pick the process exit
 * code: kExitClean for a clean sweep, kExitQuarantine when any point
 * failed every attempt, kExitUnrecoverable when any point's storage
 * faults defeated the escalation ladder (precedence:
 * harness/exit_code.hh).
 */
int
quarantineExit(const std::vector<GridPoint> &grid,
               const std::vector<std::size_t> &indices,
               const std::vector<ExperimentResult> &results)
{
    std::size_t failures = 0;
    std::size_t losses = 0;
    for (std::size_t slot = 0; slot < results.size(); ++slot) {
        const std::size_t index = indices[slot];
        if (results[slot].unrecoverable) {
            ++losses;
            std::cerr << "[sweep] UNRECOVERABLE point " << index << " ("
                      << grid[index].workload << ", "
                      << grid[index].config.label()
                      << "): " << results[slot].unrecoverableDetail
                      << "\n";
        }
        if (!results[slot].failed)
            continue;
        ++failures;
        std::cerr << "[sweep] FAILED point " << index << " ("
                  << grid[index].workload << ", "
                  << grid[index].config.label() << ") after "
                  << results[slot].attempts
                  << " attempt(s): " << results[slot].failReason
                  << "\n";
    }
    int code = kExitClean;
    if (failures != 0) {
        std::cerr << "[sweep] " << failures << " of " << results.size()
                  << " point(s) quarantined; treat rendered output as "
                     "partial (NaN-derived columns show FAILED)\n";
        code = combineExitCodes(code, kExitQuarantine);
    }
    if (losses != 0) {
        std::cerr << "[sweep] " << losses << " of " << results.size()
                  << " point(s) unrecoverable: storage faults "
                     "defeated every escalation rung (DESIGN.md §16)\n";
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
    // (gridHash, journals, manifests, cache keys), so every mode —
    // jobs, forks, shard, merge — agrees on the same points and the
    // ResultCache distinguishes backends by content. NoCkpt points
    // keep the default: they store nothing, and validate() rejects a
    // non-log backend on them.
    if (options.backendOverride)
        for (GridPoint &point : grid)
            if (point.config.mode != BerMode::kNoCkpt)
                point.config.backend = options.backend;

    // The TCP worker enumerates the same grid (same binary, flags,
    // and environment) so its handshake hash proves it will simulate
    // exactly the points the coordinator deals.
    if (options.connectMode)
        return ShardedSweep::netWorkerLoop(pool, spec.name, grid,
                                           options.connect,
                                           options.heartbeatSec);

    if (!options.mergeFiles.empty()) {
        const auto results =
            mergeShardFiles(spec, grid, options.mergeFiles);
        spec.render(context, results);
        int code = quarantineExit(
            grid, ShardedSweep::shardIndices(grid.size(), {}),
            results);
        if (spec.exitCode)
            code = combineExitCodes(code,
                                    spec.exitCode(context, results));
        return code;
    }

    ShardedSweep sweep(pool, options.jobs);
    const std::vector<std::string> worker_cmd = {
        ShardedSweep::selfExecutable(argc > 0 ? argv[0] : spec.name),
        "--worker"};

    const ShardedSweep::Shard shard =
        options.shardMode ? options.shard : ShardedSweep::Shard{};
    const auto owned =
        ShardedSweep::shardIndices(grid.size(), shard);

    Journal journal;
    if (!options.journal.empty())
        journal.open(options.journal, options.resume, spec.name,
                     shard.index, shard.count, grid);

    ResultCache cache;
    if (!options.cachePath.empty())
        cache.open(options.cachePath);

    // Test hook: _exit abruptly after this many journal appends —
    // simulates a coordinator SIGKILLed mid-sweep for the --resume
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

    // Coordinator-side serving map, by grid index: the journal's
    // grid-keyed completions plus content-addressed cache hits. Both
    // feed SweepControls::cache, so a served point is never dealt to
    // a worker — in-process, forked, or sharded mode alike.
    std::map<std::size_t, ExperimentResult> served;
    if (journal.isOpen()) {
        served = journal.entries();
        std::size_t hits = 0;
        for (const auto index : owned)
            hits += journal.entries().count(index);
        std::cerr << "[sweep] journal: served " << hits << " of "
                  << owned.size() << " owned point(s) from '"
                  << options.journal << "'\n";
    }
    if (cache.isOpen())
        for (const auto index : owned)
            if (!served.count(index))
                if (const auto *hit = cache.find(grid[index]))
                    served.emplace(index, *hit);
    if (journal.isOpen() || cache.isOpen()) {
        controls.cache = &served;
        controls.completed = [&journal, &cache, &grid, exit_after](
                                 std::size_t index,
                                 const ExperimentResult &result) {
            if (journal.isOpen()) {
                journal.record(index, result);
                if (exit_after != 0 &&
                    journal.appended() >= exit_after)
                    ::_exit(7);
            }
            if (cache.isOpen())
                cache.insert(grid[index], result);
        };
    }

    if (options.shardMode) {
        // Emit this shard's slice as wire records: a manifest line,
        // then one result (or failed) line per owned point, streamed
        // in grid order as results land.
        wire::ManifestRecord manifest;
        manifest.bench = spec.name;
        manifest.shard = options.shard.index;
        manifest.shardCount = options.shard.count;
        manifest.gridPoints = grid.size();
        manifest.gridHash = wire::gridHash(grid);
        std::cout << wire::encodeManifestLine(manifest) << "\n"
                  << std::flush;
        controls.sink = [&](std::size_t index,
                            const ExperimentResult &result) {
            std::cout << (result.failed
                              ? wire::encodeFailedLine(
                                    {index, result.attempts,
                                     result.failReason})
                              : wire::encodeResultLine(
                                    {index, result}))
                      << "\n"
                      << std::flush;
        };
    }

    std::vector<ExperimentResult> results;
    if (options.listenMode)
        results = sweep.runDistributed(grid, options.listen,
                                       options.heartbeatSec,
                                       spec.name, controls);
    else if (options.forks > 0)
        results = sweep.runForked(grid, options.forks, worker_cmd,
                                  shard, controls);
    else
        results = sweep.run(grid, shard, controls);
    sweep.reportTiming(std::cerr);
    if (cache.isOpen())
        std::cerr << "[sweep] cache: " << cache.hits() << " hit(s), "
                  << cache.misses() << " miss(es), "
                  << cache.inserts() << " insert(s) in '"
                  << options.cachePath << "'\n";
    if (!options.shardMode)
        spec.render(context, results);
    int code = quarantineExit(grid, owned, results);
    if (!options.shardMode && spec.exitCode)
        code = combineExitCodes(code,
                                spec.exitCode(context, results));
    return code;
}

} // namespace acr::harness
