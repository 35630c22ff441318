/**
 * @file
 * metrobench: one workload of the METRO simulator benchmark.
 *
 *   metrobench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--work-dir DIR] [--trace-out FILE]
 *              [--expect-digest HEX]
 *
 * Prints the host facts, the workload's notes and every metric by
 * name with its unit, then one JSON line with the correctness tally,
 * the output digest and all metrics. With --trace 1 it records spans
 * around its calls into the library, runs the micro cases, and writes
 * a Chrome-trace file. metrobench/run.py builds this program and
 * reduces its JSON line to the metrics BENCHMARK.json names.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace.hh"
#include "workloads.hh"

#ifndef METROBENCH_BUILD_TYPE
#define METROBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace mb;

struct Args
{
    std::string workload;
    RunOptions run;
    std::string traceOut;
    std::string expectDigest;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "metrobench: %s\n"
                 "usage: metrobench --workload fig3_sweep|"
                 "mb1024_saturated|serve_checkpoint [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--trace-out FILE] [--expect-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        if (k + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++k];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.run.seed = std::strtoull(v, &end, 10);
        } else if (arg == "--seconds") {
            a.run.seconds = std::strtod(v, &end);
        } else if (arg == "--trace") {
            a.run.trace = std::strcmp(v, "1") == 0;
            if (!a.run.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (arg == "--work-dir") {
            a.run.workDir = v;
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else if (arg == "--expect-digest") {
            a.expectDigest = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == v))
            usage(("bad number for " + arg + ": " + v).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.run.seconds >= 0.0))
        usage("--seconds must be >= 0");
    return a;
}

void
printHost()
{
#ifdef __OPTIMIZE__
    const bool optimised = true;
#else
    const bool optimised = false;
#endif
#ifdef NDEBUG
    const char *assertions = "off";
#else
    const char *assertions = "on";
#endif
    std::printf("# host: nproc %u, compiler %s, CMAKE_BUILD_TYPE %s, "
                "optimised %s, assertions %s\n",
                hardwareThreads(),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                METROBENCH_BUILD_TYPE, optimised ? "yes" : "NO",
                assertions);
    if (!optimised)
        std::printf("# WARNING: THIS BUILD IS NOT OPTIMISED; timings "
                    "are not comparable with optimised builds\n");
}

void
printSpanTable()
{
    std::printf("# spans (all but the untraced repetitions): name, "
                "count, total ms, self ms\n");
    for (const auto &[name, t] : Tracer::get().totals())
        std::printf("#   %-36s %7zu %12.3f %12.3f\n", name.c_str(),
                    t.count, t.total * 1e3, t.self * 1e3);
}

std::string
jsonLine(const Result &r, bool correct)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"digest\": \"" + r.digest + "\", \"metrics\": {";
    char buf[64];
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
        const Metric &m = r.metrics[k];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += (k ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    mb::now(); // the process origin every span is timed from
    const Args args = parseArgs(argc, argv);
    // Outside the timed repetitions a traced run records every span.
    Tracer::get().enable(args.run.trace);
    Tracer::get().setDetail(args.run.trace);

    std::printf("# metrobench: workload %s, seed %llu, seconds %g, "
                "trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.run.seed),
                args.run.seconds, args.run.trace ? 1 : 0);
    printHost();

    Result r;
    for (const auto &m : kPerLayer)
        r.set(m.name, 0.0, m.unit);
    if (args.workload == "fig3_sweep")
        runFig3Sweep(args.run, r);
    else if (args.workload == "mb1024_saturated")
        runMb1024Saturated(args.run, r);
    else if (args.workload == "serve_checkpoint")
        runServeCheckpoint(args.run, r);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (args.run.trace) {
        Span micro("micro", Span::Top);
        runMicroCases(r);
    }

    if (args.expectDigest.empty()) {
        r.note("digest " + r.digest + " (unpinned for this seed)");
    } else {
        r.check(r.digest == args.expectDigest,
                "digest " + r.digest + " != pinned " +
                    args.expectDigest);
        if (r.digest == args.expectDigest)
            r.note("digest " + r.digest + " matches the pinned digest");
    }
    r.set("peak_rss_mb", peakRssMb(), "MB");

    if (args.run.trace) {
        r.set("trace.coverage", Tracer::get().coverage(now()), "ratio");
        r.set("trace.spans", static_cast<double>(Tracer::get().size()),
              "count");
        if (!args.traceOut.empty()) {
            if (Tracer::get().writeChromeTrace(args.traceOut))
                r.note("chrome trace written to " + args.traceOut);
            else
                r.check(false, "cannot write " + args.traceOut);
        }
        printSpanTable();
    }

    for (const auto &line : r.notes)
        std::printf("# %s\n", line.c_str());
    for (const auto &m : r.metrics)
        std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("failed_frac %.6g (%llu of %llu checked operations "
                "failed)\n",
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("%s\n", jsonLine(r, correct).c_str());
    return 0;
}
