/**
 * @file
 * metro_sim — command-line front end for the METRO simulator.
 *
 * Examples:
 *   metro_sim --topology=fig3 --think=2000,200,20,0
 *   metro_sim --topology=fig1 --mode=open --inject=0.005,0.02 --csv
 *   metro_sim --topology=fig3 --router-faults=4 --fault-cycle=5000
 *   metro_sim --topology=fig1 --serve --window=1024 \
 *       --checkpoint-out=ckpt.metro --checkpoint-at=8192
 *   metro_sim --sweep-file=experiments/ablation_fast_reclaim.ini
 *
 * A sweep file's claims print one verdict each on stderr; any miss
 * exits 1, a malformed claim (like any bad option) exits 2.
 *
 * SIGINT/SIGTERM request a graceful stop: sweeps finish in-flight
 * points and report what completed; serve mode stops at the next
 * window boundary, flushing the metrics stream and (with
 * --checkpoint-out) a final resumable checkpoint.
 */

#include <cstdio>

#include "app/options.hh"
#include "serve/signal.hh"

int
main(int argc, char **argv)
{
    std::string error;
    const auto opts = metro::parseOptions(argc, argv, error);
    if (!opts.has_value()) {
        std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
                     metro::usageText().c_str());
        return 2;
    }
    if (opts->help) {
        std::fputs(metro::usageText().c_str(), stdout);
        return 0;
    }
    if (opts->supervise)
        return metro::runSupervisedFromOptions(*opts);
    metro::installStopHandlers();
    std::vector<metro::ClaimVerdict> verdicts;
    std::fputs(metro::runFromOptions(*opts, &verdicts).c_str(), stdout);
    if (metro::requestedStop()) {
        std::fflush(stdout);
        return 130;
    }
    bool held = true;
    for (const auto &v : verdicts) {
        std::fprintf(stderr, "%s\n", v.text.c_str());
        held = held && v.held;
    }
    return held ? 0 : 1;
}
