/**
 * @file
 * Umbrella header: the public API of the METRO library.
 *
 * Typical use:
 *
 *   #include "metro/metro.hh"
 *
 *   auto spec = metro::fig3Spec();
 *   auto net = metro::buildMultibutterfly(spec);
 *   auto id = net->endpoint(0).send(42, {0x12, 0x34});
 *   net->engine().runUntil([&] {
 *       const auto &rec = net->tracker().record(id);
 *       return rec.succeeded || rec.gaveUp;
 *   }, 10000);
 */

#ifndef METRO_METRO_HH
#define METRO_METRO_HH

#include "common/bitops.hh"
#include "common/crc.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "endpoint/interface.hh"
#include "endpoint/message.hh"
#include "fault/injector.hh"
#include "model/blocking.hh"
#include "model/latency.hh"
#include "network/analysis.hh"
#include "network/fattree.hh"
#include "network/multibutterfly.hh"
#include "network/network.hh"
#include "network/presets.hh"
#include "obs/counters.hh"
#include "obs/observer.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "retry/policy.hh"
#include "router/allocator.hh"
#include "router/cascade.hh"
#include "router/config.hh"
#include "router/params.hh"
#include "router/router.hh"
#include "router/tap.hh"
#include "sim/component.hh"
#include "sim/engine.hh"
#include "sim/link.hh"
#include "sim/pipe.hh"
#include "sim/symbol.hh"
#include "trace/probe.hh"
#include "report/csv.hh"
#include "report/dot.hh"
#include "report/json.hh"
#include "report/stats_dump.hh"
#include "app/options.hh"
#include "app/specfile.hh"
#include "app/sweepfile.hh"
#include "traffic/drivers.hh"
#include "traffic/experiment.hh"
#include "traffic/patterns.hh"

#endif // METRO_METRO_HH
