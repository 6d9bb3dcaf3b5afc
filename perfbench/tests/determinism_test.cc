/**
 * @file
 * perfbench's determinism self-check: the per-layer counters and the
 * modelled metrics are gated exactly, so they must repeat exactly.
 *
 *   - Two passes at one seed give equal results, counters and modelled
 *     metrics, on every in-process workload.
 *   - Two seeds give equal error-free (NE) points on fig06_grid — no
 *     fault plan touches them — and different recovery_campaign
 *     results, so the seed argument really reaches the fault plans.
 *   - The forked sweep returns exactly the in-process results.
 *
 * Usage: perfbench_determinism_test <path to the perfbench binary>
 * (forked workers run `perfbench --worker`). Exits 0 when every check
 * holds.
 */

#include <iostream>

#include "bench.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    failures += ok ? 0 : 1;
}

bool
sameModelled(const Modelled &a, const Modelled &b)
{
    return a.timeOverheadReductionPct == b.timeOverheadReductionPct &&
           a.energyOverheadReductionPct == b.energyOverheadReductionPct &&
           a.ckptSizeReductionPct == b.ckptSizeReductionPct &&
           a.recoveryOverheadPct == b.recoveryOverheadPct &&
           a.unrecoverableFrac == b.unrecoverableFrac;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: perfbench_determinism_test <perfbench>\n";
        return 2;
    }

    std::vector<std::string> recovery_seed0;
    for (Workload w : {Workload::kFig06Grid, Workload::kRecoveryCampaign}) {
        const std::string name = workloadName(w);
        const auto grid = gridOf(w, 0);
        const Pass a = runInProcess(w, grid, {});
        if (w == Workload::kRecoveryCampaign)
            recovery_seed0 = fingerprints(a.results);
        const Pass b = runInProcess(w, grid, {});
        expect(fingerprints(a.results) == fingerprints(b.results),
               name + ": two passes at one seed give equal results");
        expect(counterTotals(a.results).all() ==
                   counterTotals(b.results).all(),
               name + ": per-layer counters repeat exactly");
        expect(sameModelled(modelled(grid, a.results, a.references),
                            modelled(grid, b.results, b.references)),
               name + ": modelled metrics repeat exactly");
    }

    const auto grid0 = gridOf(Workload::kFig06Grid, 0);
    const auto grid1 = gridOf(Workload::kFig06Grid, 1);
    const auto seed0 = fingerprints(runInProcess(Workload::kFig06Grid,
                                                 grid0, {}).results);
    const auto seed1 = fingerprints(runInProcess(Workload::kFig06Grid,
                                                 grid1, {}).results);
    bool ne_equal = true;
    for (std::size_t i = 0; i < grid0.size(); ++i)
        if (grid0[i].config.numErrors == 0)
            ne_equal = ne_equal && seed0[i] == seed1[i];
    expect(ne_equal, "fig06_grid: NE points are equal across seeds");
    const auto recovery1 = gridOf(Workload::kRecoveryCampaign, 1);
    expect(fingerprints(runInProcess(Workload::kRecoveryCampaign,
                                     recovery1, {}).results) !=
               recovery_seed0,
           "recovery_campaign: the seed moves the fault plans");

    const Pass forked = runForked(grid0, {argv[1], "--worker"}, nullptr);
    expect(fingerprints(forked.results) == seed0,
           "forked_sweep: forked workers return the in-process results");

    std::cout << (failures ? "determinism self-check FAILED\n"
                           : "determinism self-check passed\n");
    return failures ? 1 : 0;
}
