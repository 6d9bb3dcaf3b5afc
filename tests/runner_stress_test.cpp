/**
 * @file
 * Concurrency stress over one shared Runner: 16 threads hammering the
 * caches with the same and with different (workload, threshold, policy)
 * keys. Asserts the exactly-once contract — each program build, slice
 * pass, and NoCkpt baseline computes once no matter how many threads
 * race for it — and that the returned references are stable: the same
 * key always yields the same address, and values published early stay
 * intact while later insertions grow the caches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/runner.hh"

namespace acr::harness
{
namespace
{

constexpr unsigned kThreads = 16;

/** Spin barrier: maximizes the simultaneity of the cache race. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties) : remaining_(parties) {}

    void
    arriveAndWait()
    {
        remaining_.fetch_sub(1, std::memory_order_acq_rel);
        while (remaining_.load(std::memory_order_acquire) > 0)
            std::this_thread::yield();  // oversubscribed hosts, TSan
    }

  private:
    std::atomic<unsigned> remaining_;
};

template <typename Fn>
void
runThreads(unsigned count, Fn &&fn)
{
    std::vector<std::thread> pool;
    pool.reserve(count);
    for (unsigned t = 0; t < count; ++t)
        pool.emplace_back([&fn, t] { fn(t); });
    for (auto &thread : pool)
        thread.join();
}

TEST(RunnerStress, SameKeyComputesOnceAndAllSeeOneValue)
{
    Runner runner(2);
    SpinBarrier barrier(kThreads);
    std::vector<const amnesic::SlicePassResult *> seen(kThreads);

    runThreads(kThreads, [&](unsigned t) {
        barrier.arriveAndWait();
        seen[t] = &runner.profileAt("is", 7);
    });

    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0], seen[t]) << "thread " << t;
    EXPECT_EQ(runner.slicePassRuns(), 1u);
    EXPECT_EQ(runner.programBuilds(), 1u);  // base program raced too
    EXPECT_GT(seen[0]->totalProgress, 0u);
}

TEST(RunnerStress, DistinctKeysComputeConcurrentlyExactlyOnce)
{
    Runner runner(2);
    SpinBarrier barrier(kThreads);
    std::vector<const amnesic::SlicePassResult *> first(kThreads);

    // Thread t owns threshold 3 + t: 16 distinct keys, one program.
    runThreads(kThreads, [&](unsigned t) {
        barrier.arriveAndWait();
        first[t] = &runner.profileAt("cg", 3 + t);
    });

    EXPECT_EQ(runner.slicePassRuns(), kThreads);
    EXPECT_EQ(runner.programBuilds(), 1u);

    // Re-request every key: no new computes, addresses unchanged (the
    // reference-stability half of the contract).
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(first[t], &runner.profileAt("cg", 3 + t));
    EXPECT_EQ(runner.slicePassRuns(), kThreads);
}

TEST(RunnerStress, MixedExperimentsShareBaselinesExactlyOnce)
{
    Runner runner(2);
    SpinBarrier barrier(kThreads);
    std::vector<const ExperimentResult *> baselines(kThreads);
    std::vector<ExperimentResult> owned(kThreads);

    // Half the threads request the shared NoCkpt baseline, half run
    // their own (mutable-state-owning) experiments against it.
    runThreads(kThreads, [&](unsigned t) {
        barrier.arriveAndWait();
        if (t % 2 == 0) {
            baselines[t] = &runner.noCkpt("mg");
        } else {
            ExperimentConfig config;
            config.mode =
                t % 4 == 1 ? BerMode::kCkpt : BerMode::kReCkpt;
            config.numCheckpoints = 5 + t;
            config.sliceThreshold = 0;
            owned[t] = runner.run("mg", config);
            baselines[t] = &runner.noCkpt("mg");
        }
    });

    EXPECT_EQ(runner.noCkptRuns(), 1u);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(baselines[0], baselines[t]) << "thread " << t;
    for (unsigned t = 1; t < kThreads; t += 2) {
        EXPECT_GT(owned[t].cycles, baselines[0]->cycles)
            << "checkpointing must cost time (thread " << t << ")";
        EXPECT_EQ(owned[t].oracleDivergences, 0u) << owned[t].oracleReport;
    }

    // The early-published baseline survived all later cache growth.
    EXPECT_EQ(baselines[0], &runner.noCkpt("mg"));
    EXPECT_GT(baselines[0]->cycles, 0u);
}

} // namespace
} // namespace acr::harness
