/**
 * @file
 * Backend comparison (DESIGN.md §14, the ROADMAP's multi-backend
 * results axis): sweep checkpoint-store backend × workload × error
 * rate, with the recovery oracle attached to every checkpointing
 * point by default. Each backend runs under its natural scheme:
 *
 *   log         ReCkpt — ACR's amnesic undo log in DRAM (the paper)
 *   replicated  Ckpt   — ReStore-style k-replica in-memory images;
 *                        recovery reads a replica, nothing is
 *                        recomputed, so amnesic omission is off
 *   nvm         ReCkpt — JASS-style hybrid: the amnesic log on an
 *                        NVM tier with asymmetric read/write/persist
 *                        costs
 *
 * Expected shape: ACR-on-log beats replicated on stored footprint and
 * on time/energy overhead (replicated writes every datum k times and
 * omits nothing, so its log is bigger and its rollbacks touch more
 * words); nvm trades establishment/energy cost for persistence, and
 * amnesic omission pays the most there because NVM writes are the
 * expensive operation.
 *
 * Flags (validated by the shared strict parser; env spelling in
 * parentheses):
 *
 *   --backends=a,b,c (ACR_BACKENDS)  subset of log,replicated,nvm
 *   --errors=a,b,... (ACR_ERRORS)    error counts per run (0 = clean)
 *   --oracle=on|off  (ACR_ORACLE)    the oracle's shadow checks
 *
 * Exit codes (benchMain's verdict exit): 0 clean, 3 quarantined
 * points, 4 oracle divergence, 5 unrecoverable point (max-combined,
 * harness/exit_code.hh).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace
{

using namespace acr;
using namespace acr::bench;
using harness::BerMode;
using harness::ExperimentConfig;
using harness::ExperimentResult;

/** The sweep the flags/environment selected (readOptions fills it;
 *  grid and render both consult it, so reruns agree byte-for-byte). */
struct Selection
{
    std::vector<ckpt::Backend> backends = {ckpt::Backend::kLog,
                                           ckpt::Backend::kReplicated,
                                           ckpt::Backend::kNvm};
    std::vector<unsigned> errors = {0, 1, 2, 4};
    bool oracle = true;
};

Selection selection;

/** The scheme a backend naturally runs under (see the file header). */
BerMode
modeFor(ckpt::Backend backend)
{
    return backend == ckpt::Backend::kReplicated ? BerMode::kCkpt
                                                 : BerMode::kReCkpt;
}

const char *
modeName(BerMode mode)
{
    return mode == BerMode::kCkpt ? "Ckpt" : "ReCkpt";
}

void
declareOptions(OptionParser &parser)
{
    parser.addString("backends", "log,replicated,nvm",
                     "comma-separated subset of log,replicated,nvm");
    parser.addString("errors", "0,1,2,4",
                     "comma-separated error counts per run (0 = "
                     "error-free)");
    parser.addString("oracle", "on",
                     "the recovery oracle's shadow checks on every "
                     "checkpointing point: on or off (recomputation and "
                     "the final image are always checked)");

    // One validation path for both spellings: the environment value is
    // assigned through the identical strict parse as --flag=value, and
    // an explicit flag overrides it.
    parser.envDefault("backends", "ACR_BACKENDS");
    parser.envDefault("errors", "ACR_ERRORS");
    parser.envDefault("oracle", "ACR_ORACLE");
}

void
readOptions(const OptionParser &parser)
{
    selection.backends.clear();
    for (const std::string &name :
         splitCommaList(parser.getString("backends"))) {
        ckpt::Backend backend;
        if (!ckpt::parseBackend(name, backend))
            fatal("--backends: '%s' is not a backend (have: log, "
                  "replicated, nvm)",
                  name.c_str());
        selection.backends.push_back(backend);
    }
    if (selection.backends.empty())
        fatal("--backends must select at least one backend");

    selection.errors.clear();
    for (const std::string &text :
         splitCommaList(parser.getString("errors"))) {
        unsigned long long value = 0;
        if (!parseStrictUint(text, value) || value > 64)
            fatal("--errors: '%s' is not an error count in 0..64",
                  text.c_str());
        selection.errors.push_back(static_cast<unsigned>(value));
    }
    if (selection.errors.empty())
        fatal("--errors must select at least one error count");

    const std::string oracle = parser.getString("oracle");
    if (oracle == "on")
        selection.oracle = true;
    else if (oracle == "off")
        selection.oracle = false;
    else
        fatal("--oracle must be on or off, got '%s'", oracle.c_str());
}

/** Per workload: NoCkpt baseline, then (error count × backend). */
std::vector<ExperimentConfig>
configAxis()
{
    std::vector<ExperimentConfig> configs = {
        makeConfig(BerMode::kNoCkpt)};
    for (unsigned errors : selection.errors) {
        for (ckpt::Backend backend : selection.backends) {
            ExperimentConfig config =
                makeConfig(modeFor(backend), errors);
            config.backend = backend;
            config.oracle = selection.oracle;
            configs.push_back(config);
        }
    }
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchSpec spec;
    spec.name = "fig_backend";
    spec.options = declareOptions;
    spec.readOptions = readOptions;
    spec.grid = [](harness::BenchContext &ctx) {
        return crossGrid(ctx.workloads(), configAxis());
    };
    spec.render = [](harness::BenchContext &ctx,
                     const std::vector<ExperimentResult> &results) {
        ctx.note("Checkpoint-store backend comparison (overheads % vs "
                 "NoCkpt; oracle validates every recovery)\n\n");

        const auto configs = configAxis();
        const auto &names = ctx.workloads();
        const std::size_t backends = selection.backends.size();

        for (std::size_t e = 0; e < selection.errors.size(); ++e) {
            const unsigned errors = selection.errors[e];
            Table table({"bench", "backend", "scheme", "time %",
                         "energy %", "storedB", "maxCkptB",
                         "rollbackCyc", "div"});
            Summary stored_red;
            std::size_t log_slot = backends;
            for (std::size_t b = 0; b < backends; ++b)
                if (selection.backends[b] == ckpt::Backend::kLog)
                    log_slot = b;
            for (std::size_t w = 0; w < names.size(); ++w) {
                const auto *row = &results[w * configs.size()];
                const auto &base = row[0];
                for (std::size_t b = 0; b < backends; ++b) {
                    const auto &result = row[1 + e * backends + b];
                    const ckpt::Backend backend =
                        selection.backends[b];
                    if (backend == ckpt::Backend::kReplicated &&
                        log_slot < backends)
                        stored_red.add(
                            names[w],
                            reductionPct(
                                static_cast<double>(
                                    result.ckptBytesStored),
                                static_cast<double>(
                                    row[1 + e * backends + log_slot]
                                        .ckptBytesStored)));
                    const double rollback =
                        result.recoveries == 0
                            ? 0.0
                            : result.stats.get("rec.rollbackCycles") /
                                  static_cast<double>(
                                      result.recoveries);
                    table.row()
                        .cell(names[w])
                        .cell(ckpt::backendName(backend))
                        .cell(modeName(modeFor(backend)))
                        .cell(result.timeOverheadPct(base.cycles))
                        .cell(result.energyOverheadPct(base.energyPj))
                        .cell(static_cast<long long>(
                            result.ckptBytesStored))
                        .cell(static_cast<long long>(
                            maxCheckpointBytes(result)))
                        .cell(rollback)
                        .cell(static_cast<long long>(
                            result.oracleDivergences));
                }
            }
            ctx.note(csprintf("--- %u error(s) ---\n", errors));
            ctx.emit(table);
            if (stored_red.count > 0)
                ctx.note(stored_red.text(
                    "ACR-on-log stored-byte reduction vs replicated"));
            ctx.note("\n");
        }

        ctx.note("(expected: log wins footprint and overhead; "
                 "replicated pays k-copy traffic and full-log "
                 "rollbacks; nvm pays establishment for persistence "
                 "and gains the most from amnesic omission)\n");
    };
    return harness::benchMain(argc, argv, spec);
}
