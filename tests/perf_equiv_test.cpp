/**
 * @file
 * Differential golden lock for the simulator hot path: the engine must
 * reproduce the recorded seed engine's results byte-for-byte on every
 * workload × mode × coordination cell of the tier-1 grid, errors on
 * and off, plus the functional final state of the slice-pass profile.
 * Unlike golden_test.cpp (reduction arithmetic with a float
 * tolerance), this lock renders every measured quantity into a
 * canonical text grid — integers verbatim, doubles through
 * serde::formatDouble's shortest-round-trip form — and compares the
 * whole document against tests/golden/equiv_grid.txt. Any byte of
 * drift fails, so an SoA/devirtualization refactor cannot silently
 * change results.
 *
 * The grid is rendered twice, once per path a checkpointing cell can
 * take (DESIGN.md §13.6): with prefix sharing off (full re-simulation,
 * the reference path), and with each `_E` point run immediately before
 * its `_NE` sibling on one thread, so each error-free cell resumes from
 * the snapshot its with-errors sibling has just captured. Both renders
 * must match the golden, and each resumed result must also equal a
 * full re-simulation's in every stat and history interval. The
 * PrefixSlot tests pin which run orders the Runner's one held snapshot
 * serves.
 *
 * Regenerate (only for a CONSCIOUS model change, explained in the
 * commit) with:
 *   ACR_UPDATE_GOLDEN=1 ./tests/acr_tests \
 *       --gtest_filter=PerfEquiv.TierOneGridMatchesSeedEngine
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/serde.hh"

namespace acr::bench
{
namespace
{

using harness::BerMode;

constexpr const char *kGoldenPath = ACR_GOLDEN_DIR "/equiv_grid.txt";

/** FNV-1a over (addr, word) pairs in address order. */
std::uint64_t
imageHash(const std::map<Addr, Word> &image)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &[addr, word] : image) {
        mix(addr);
        mix(word);
    }
    return h;
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

/** Every workload × mode × coord cell: NoCkpt once per workload,
 *  then {Ckpt, ReCkpt} × {global, local} × {0, 1 errors}. */
std::vector<harness::ExperimentConfig>
gridConfigs()
{
    std::vector<harness::ExperimentConfig> configs;
    configs.push_back(makeConfig(BerMode::kNoCkpt));
    for (auto mode : {BerMode::kCkpt, BerMode::kReCkpt})
        for (auto coord :
             {ckpt::Coordination::kGlobal, ckpt::Coordination::kLocal})
            for (unsigned errors : {0u, 1u})
                configs.push_back(makeConfig(mode, errors, coord));
    return configs;
}

/** Render @p results (workload-major over gridConfigs()) into the
 *  canonical lock document. */
std::string
renderGrid(harness::Runner &runner,
           const std::vector<harness::ExperimentResult> &results)
{
    const auto configs = gridConfigs();
    std::ostringstream out;
    out << "# perf-equiv golden: seed-engine results on the tier-1 "
           "grid (8 threads, 25 checkpoints, default thresholds)\n";
    const auto &names = workloads::allWorkloadNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &profile = runner.profile(names[w]);
        out << "image workload=" << names[w]
            << " words=" << profile.finalImage.size()
            << " hash=" << std::hex << imageHash(profile.finalImage)
            << std::dec << " progress=" << profile.totalProgress
            << " passCycles=" << profile.cycles << "\n";
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &config = configs[c];
            const auto &r = results[w * configs.size() + c];
            // The runtime's oracle checks every run's final image
            // (prefix-resumed runs included) and reports a divergence
            // in the result.
            EXPECT_EQ(r.oracleDivergences, 0u)
                << names[w] << "/" << config.label() << ":\n"
                << r.oracleReport;
            out << "cell workload=" << names[w]
                << " mode=" << modeName(config.mode) << " coord="
                << (config.coordination == ckpt::Coordination::kGlobal
                        ? "global"
                        : "local")
                << " errors=" << config.numErrors
                << " cycles=" << r.cycles
                << " energyPj=" << serde::formatDouble(r.energyPj)
                << " edp=" << serde::formatDouble(r.edp)
                << " ckpts=" << r.checkpointsEstablished
                << " recoveries=" << r.recoveries
                << " bytesStored=" << r.ckptBytesStored
                << " bytesOmitted=" << r.ckptBytesOmitted << "\n";
        }
    }
    return out.str();
}

void
expectMatchesGolden(const std::string &actual)
{
    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << kGoldenPath
        << " (regenerate with ACR_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();

    if (actual == expected.str())
        return;

    // Find the first differing line for a readable failure.
    std::istringstream a(actual), e(expected.str());
    std::string aline, eline;
    std::size_t lineno = 0;
    while (true) {
        ++lineno;
        const bool agot = static_cast<bool>(std::getline(a, aline));
        const bool egot = static_cast<bool>(std::getline(e, eline));
        if (!agot && !egot)
            break;
        if (aline != eline || agot != egot) {
            FAIL() << "engine output diverged from the recorded seed "
                      "engine at line "
                   << lineno << ":\n  golden: "
                   << (egot ? eline : "<end of file>")
                   << "\n  actual: " << (agot ? aline : "<end of file>");
        }
    }
    FAIL() << "golden mismatch (line endings or trailing bytes)";
}

/** @p result's wire encoding: every measured field, stats and history
 *  included. */
std::string
encoded(const harness::ExperimentResult &result)
{
    return harness::wire::encodeResult(result).dump();
}

TEST(PerfEquiv, TierOneGridMatchesSeedEngine)
{
    // The reference path: every checkpointing cell re-simulates from
    // cycle 0.
    harness::RunnerPool pool;
    harness::Runner &runner = pool.at(kDefaultThreads);
    runner.setPrefixShare(false);
    const auto results = harness::ShardedSweep(pool).run(
        crossGrid(workloads::allWorkloadNames(), gridConfigs()));
    const std::string actual = renderGrid(runner, results);

    if (std::getenv("ACR_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << actual;
        GTEST_LOG_(INFO) << "regenerated " << kGoldenPath;
        return;
    }
    expectMatchesGolden(actual);
}

TEST(PerfEquiv, PrefixResumedGridMatchesSeedEngine)
{
    // The fast path, in perfbench's fig06_grid order: on one thread,
    // each `_E` point runs immediately before its `_NE` sibling, which
    // resumes from the snapshot the `_E` run has just captured.
    harness::Runner runner(kDefaultThreads);
    runner.setPrefixShare(true);
    const auto grid =
        crossGrid(workloads::allWorkloadNames(), gridConfigs());
    std::vector<harness::ExperimentResult> results(grid.size());
    std::vector<harness::GridPoint> resumed;
    std::vector<harness::ExperimentResult> resumed_results;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const harness::GridPoint &point = grid[i];
        if (point.config.mode == BerMode::kNoCkpt) {
            results[i] = runner.run(point.workload, point.config);
            continue;
        }
        // gridConfigs() lists each `_NE` point right before its `_E`
        // sibling; run the pair the other way round.
        ASSERT_LT(i + 1, grid.size());
        const harness::GridPoint &sibling = grid[i + 1];
        ASSERT_EQ(point.config.numErrors, 0u);
        ASSERT_EQ(sibling.config.numErrors, 1u);
        ASSERT_EQ(sibling.workload, point.workload);
        ASSERT_EQ(sibling.config.mode, point.config.mode);
        ASSERT_EQ(sibling.config.coordination, point.config.coordination);
        results[i + 1] = runner.run(sibling.workload, sibling.config);
        results[i] = runner.run(point.workload, point.config);
        resumed.push_back(point);
        resumed_results.push_back(results[i]);
        ++i;
    }

    // Every `_NE` cell (8 workloads × 2 modes × 2 coordinations) took
    // the resume path.
    ASSERT_EQ(resumed.size(), 32u);
    EXPECT_EQ(runner.prefixResumes(), resumed.size());

    // The golden renders only the headline fields; every stat and
    // history interval of a resumed run must also equal a full
    // re-simulation's.
    harness::RunnerPool reference_pool;
    reference_pool.at(kDefaultThreads).setPrefixShare(false);
    const auto reference =
        harness::ShardedSweep(reference_pool).run(resumed);
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        const std::string want = encoded(reference[i]);
        const std::string got = encoded(resumed_results[i]);
        if (got != want) {
            ADD_FAILURE() << resumed[i].workload << "/"
                          << resumed[i].config.label()
                          << " diverged from full re-simulation:\n"
                             "  reference: "
                          << want << "\n  resumed:   " << got;
            break;
        }
    }
    expectMatchesGolden(renderGrid(runner, results));
}

/** @p config run down the reference path (prefix sharing off). */
std::string
fullResimulation(const std::string &workload,
                 const harness::ExperimentConfig &config)
{
    harness::Runner reference(kDefaultThreads);
    reference.setPrefixShare(false);
    return encoded(reference.run(workload, config));
}

TEST(PrefixSlot, HoldsOnlyTheLatestCapture)
{
    // A's capture is replaced by B's before A's error-free sibling
    // runs, so that sibling re-simulates in full.
    harness::Runner runner(kDefaultThreads);
    const auto a_e = makeConfig(BerMode::kCkpt, 1);
    const auto a_ne = makeConfig(BerMode::kCkpt, 0);
    const auto b_e =
        makeConfig(BerMode::kCkpt, 1, ckpt::Coordination::kLocal);
    runner.run("is", a_e);
    runner.run("is", b_e);
    const auto unshared = runner.run("is", a_ne);
    EXPECT_EQ(runner.prefixCaptures(), 2u);
    EXPECT_EQ(runner.prefixResumes(), 0u);

    // Run right after a fresh capture of A, the sibling resumes.
    runner.run("is", a_e);
    const auto resumed = runner.run("is", a_ne);
    EXPECT_EQ(runner.prefixCaptures(), 3u);
    EXPECT_EQ(runner.prefixResumes(), 1u);

    const std::string want = fullResimulation("is", a_ne);
    EXPECT_EQ(encoded(unshared), want);
    EXPECT_EQ(encoded(resumed), want);
}

TEST(PrefixSlot, EarlierFirstTriggerRefusesTheOfferAndCaptures)
{
    // One error triggers at T/2, two errors first at T/3: the 2-error
    // run is offered the T/2 snapshot, must refuse it (the injector
    // acts before the snapshot's state), and captures at T/3 instead.
    harness::Runner runner(kDefaultThreads);
    const auto one = makeConfig(BerMode::kReCkpt, 1);
    const auto two = makeConfig(BerMode::kReCkpt, 2);
    runner.run("is", one);
    const auto refused = runner.run("is", two);
    EXPECT_EQ(runner.prefixCaptures(), 2u);
    EXPECT_EQ(runner.prefixResumes(), 0u);
    EXPECT_EQ(encoded(refused), fullResimulation("is", two));

    // The T/3 capture replaced the T/2 one and serves the 1-error run,
    // whose first trigger lies past it.
    const auto resumed = runner.run("is", one);
    EXPECT_EQ(runner.prefixCaptures(), 2u);
    EXPECT_EQ(runner.prefixResumes(), 1u);
    EXPECT_EQ(encoded(resumed), fullResimulation("is", one));
}

TEST(PrefixSlot, KeyIsTheConfigWithoutThePostTriggerFields)
{
    harness::Runner runner(kDefaultThreads);
    auto capturer = makeConfig(BerMode::kReCkpt, 1);
    runner.run("is", capturer);
    ASSERT_EQ(runner.prefixCaptures(), 1u);

    // AddrMap retention shapes execution from cycle 0: not offered.
    auto retention = makeConfig(BerMode::kReCkpt, 0);
    retention.addrMapRetention = 2;
    runner.run("is", retention);
    EXPECT_EQ(runner.prefixResumes(), 0u);

    // The fault-plan fields act only after the first trigger: a run
    // differing from the capturer in all four of them still resumes.
    auto plan = makeConfig(BerMode::kReCkpt, 0);
    plan.detectionLatencyFraction = 0.5;
    plan.seed = capturer.seed + 1;
    plan.faultEventMask = 1;
    const auto resumed = runner.run("is", plan);
    EXPECT_EQ(runner.prefixResumes(), 1u);
    EXPECT_EQ(encoded(resumed), fullResimulation("is", plan));
}

} // namespace
} // namespace acr::bench
