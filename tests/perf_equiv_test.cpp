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
 * the reference path), and with every `_E` point run before every
 * `_NE` point, so each error-free cell resumes from the snapshot its
 * with-errors sibling captured. Both renders must match the golden,
 * and each resumed result must also equal a full re-simulation's in
 * every stat and history interval.
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
    // The fast path: run every point except the error-free
    // checkpointing ones first, so each `_E` run captures its prefix
    // snapshot; then every `_NE` point resumes from its sibling's.
    harness::RunnerPool pool;
    harness::Runner &runner = pool.at(kDefaultThreads);
    runner.setPrefixShare(true);
    const auto grid =
        crossGrid(workloads::allWorkloadNames(), gridConfigs());
    std::vector<harness::GridPoint> first, second;
    std::vector<std::size_t> first_at, second_at;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &config = grid[i].config;
        const bool resumes =
            config.mode != BerMode::kNoCkpt && config.numErrors == 0;
        (resumes ? second : first).push_back(grid[i]);
        (resumes ? second_at : first_at).push_back(i);
    }

    harness::ShardedSweep sweep(pool);
    std::vector<harness::ExperimentResult> results(grid.size());
    const auto first_results = sweep.run(first);
    for (std::size_t i = 0; i < first.size(); ++i)
        results[first_at[i]] = first_results[i];
    const auto second_results = sweep.run(second);
    for (std::size_t i = 0; i < second.size(); ++i)
        results[second_at[i]] = second_results[i];

    // Every `_NE` cell (8 workloads × 2 modes × 2 coordinations) took
    // the resume path.
    ASSERT_EQ(second.size(), 32u);
    EXPECT_EQ(runner.prefixResumes(), second.size());

    // The golden renders only the headline fields; every stat and
    // history interval of a resumed run must also equal a full
    // re-simulation's.
    harness::RunnerPool reference_pool;
    reference_pool.at(kDefaultThreads).setPrefixShare(false);
    const auto reference = harness::ShardedSweep(reference_pool).run(second);
    for (std::size_t i = 0; i < second.size(); ++i) {
        const std::string want =
            harness::wire::encodeResult(reference[i]).dump();
        const std::string got =
            harness::wire::encodeResult(second_results[i]).dump();
        if (got != want) {
            ADD_FAILURE() << second[i].workload << "/"
                          << second[i].config.label()
                          << " diverged from full re-simulation:\n"
                             "  reference: "
                          << want << "\n  resumed:   " << got;
            break;
        }
    }
    expectMatchesGolden(renderGrid(runner, results));
}

} // namespace
} // namespace acr::bench
