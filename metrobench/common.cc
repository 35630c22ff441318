#include "workloads.hh"

namespace mb
{

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_cycles_per_s", "1/s"},
    {"step_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    // An end-to-end figure, but on a shared host its run-to-run spread
    // is wider than any bound a regression gate could use.
    {"step_ms_tail", "ms"},
    {"network.build_s", "s"},
    {"network.components", "count"},
    {"network.links", "count"},
    {"sim.ticks_skipped", "count"},
    {"sim.skip_ratio", "ratio"},
    {"sim.links_fastpathed", "count"},
    {"sim.fastpath_ratio", "ratio"},
    {"sim.run_s", "s"},
    {"sim.chunk_ms_p50", "ms"},
    {"sim.chunk_ms_tail", "ms"},
    {"sim.component_ticks_per_s", "1/s"},
    {"sim.shard_cycles_parked", "count"},
    {"sim.t1_cycles_per_s", "1/s"},
    {"sim.parallel_speedup", "ratio"},
    {"sim.idle_cycle_us", "us"},
    {"sim.saturated_cycle_us", "us"},
    {"router.alloc_ns_r1", "ns"},
    {"router.alloc_ns_r4", "ns"},
    {"router.alloc_ns_r8", "ns"},
    {"endpoint.message_us", "us"},
    {"router.requests", "count"},
    {"router.blocks", "count"},
    {"router.block_ratio", "ratio"},
    {"endpoint.msgs_completed", "count"},
    {"endpoint.attempts_per_msg", "ratio"},
    {"endpoint.gave_up", "count"},
    {"endpoint.ledger_records", "count"},
    {"endpoint.unloaded_latency_cycles", "cycles"},
    {"sweep.point_s_p50", "s"},
    {"sweep.point_s_max", "s"},
    {"sweep.worker_busy_ratio", "ratio"},
    {"obs.snapshot_ms", "ms"},
    {"serve.conservation_ms", "ms"},
    {"serve.checkpoint_bytes", "bytes"},
    {"serve.checkpoint_serialize_ms", "ms"},
    {"serve.checkpoint_write_ms", "ms"},
    {"serve.restore_ms", "ms"},
    {"serve.checkpoint_mb_per_s", "MB/s"},
    {"serve.jsonl_bytes", "bytes"},
    {"serve.window_count", "count"},
    {"fault.link_events", "count"},
    {"diag.masks", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
};

double
overheadFrac(const Repetitions &r)
{
    if (r.traced.empty() || r.untraced.empty())
        return 0.0;
    return median(r.traced) / median(r.untraced) - 1.0;
}

std::string
auditLedger(const metro::MessageTracker &tracker)
{
    for (const auto &[id, rec] : tracker.all()) {
        const bool ok = rec.deliveredCount <= 1 &&
                        (!rec.succeeded || rec.deliveredCount == 1) &&
                        !(rec.succeeded && rec.gaveUp);
        if (!ok)
            return "message " + std::to_string(id) + " delivered " +
                   std::to_string(rec.deliveredCount) + " times";
    }
    return "";
}

void
reportNetworkCounts(metro::Network &net,
                    const metro::MetricsRegistry &snap, Result &out)
{
    const double cycles = static_cast<double>(net.engine().now());
    const double components =
        static_cast<double>(net.engine().scheduledCount());
    const double links = static_cast<double>(net.numLinks());
    const double skipped =
        static_cast<double>(snap.get("engine.ticks_skipped"));
    const double fastpathed =
        static_cast<double>(snap.get("engine.links_fastpathed"));
    out.set("network.components", components, "count");
    out.set("network.links", links, "count");
    out.set("sim.ticks_skipped", skipped, "count");
    out.set("sim.skip_ratio",
            cycles > 0 ? skipped / (components * cycles) : 0.0,
            "ratio");
    out.set("sim.links_fastpathed", fastpathed, "count");
    out.set("sim.fastpath_ratio",
            cycles > 0 ? fastpathed / (links * cycles) : 0.0, "ratio");

    const double requests =
        static_cast<double>(snap.get("router.total.requests"));
    const double blocks =
        static_cast<double>(snap.get("router.total.blocks"));
    out.set("router.requests", requests, "count");
    out.set("router.blocks", blocks, "count");
    out.set("router.block_ratio", requests > 0 ? blocks / requests : 0.0,
            "ratio");

    std::uint64_t completed = 0;
    std::uint64_t gaveUp = 0;
    std::uint64_t attempts = 0;
    for (const auto &[id, rec] : net.tracker().all()) {
        if (!rec.succeeded && !rec.gaveUp)
            continue;
        completed += rec.succeeded ? 1 : 0;
        gaveUp += rec.gaveUp ? 1 : 0;
        attempts += rec.attempts;
    }
    const auto resolved = static_cast<double>(completed + gaveUp);
    out.set("endpoint.msgs_completed", static_cast<double>(completed),
            "count");
    out.set("endpoint.attempts_per_msg",
            resolved > 0 ? static_cast<double>(attempts) / resolved
                         : 0.0,
            "ratio");
    out.set("endpoint.gave_up", static_cast<double>(gaveUp), "count");
    out.set("endpoint.ledger_records",
            static_cast<double>(net.tracker().size()), "count");
}

} // namespace mb
