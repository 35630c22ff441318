/**
 * @file
 * The bench/micro_router cases as plain timing loops: crossbar
 * allocation with 1, 4 and 8 requests, one idle and one saturated
 * fig3 network cycle, and one unloaded end-to-end message. Each case
 * runs a batch of calls per sample and reports the median sample.
 */

#include <cstdio>
#include <memory>

#include "network/presets.hh"
#include "router/allocator.hh"
#include "traffic/drivers.hh"
#include "workloads.hh"

namespace mb
{

namespace
{

using namespace metro;

constexpr unsigned kSamples = 15;

/** Median over kSamples batches of `batch` calls to `body`, in
 *  seconds per call. */
template <class F>
double
perCall(unsigned batch, F &&body)
{
    std::vector<double> samples;
    for (unsigned s = 0; s < kSamples; ++s) {
        const double t0 = now();
        for (unsigned k = 0; k < batch; ++k)
            body();
        samples.push_back((now() - t0) / batch);
    }
    return median(samples);
}

double
allocNs(unsigned n_req)
{
    Span span("router.allocateCrossbar");
    std::vector<AllocRequest> requests;
    for (unsigned k = 0; k < n_req; ++k)
        requests.push_back({k, k % 4});
    const std::vector<bool> avail(8, true);
    std::uint64_t word = 0x123456789abcdefULL;
    std::size_t sink = 0;
    const double s = perCall(20000, [&] {
        sink += allocateCrossbar(requests, avail, 2, word++).size();
    });
    if (sink == 0)
        std::fprintf(stderr, "allocator returned nothing\n");
    return s * 1e9;
}

} // namespace

void
runMicroCases(Result &out)
{
    out.set("router.alloc_ns_r1", allocNs(1), "ns");
    out.set("router.alloc_ns_r4", allocNs(4), "ns");
    out.set("router.alloc_ns_r8", allocNs(8), "ns");

    {
        Span span("sim.Engine::step idle");
        auto net = buildMultibutterfly(fig3Spec(1));
        net->engine().run(100);
        out.set("sim.idle_cycle_us",
                perCall(1000, [&] { net->engine().step(); }) * 1e6,
                "us");
    }
    {
        Span span("sim.Engine::step saturated");
        auto net = buildMultibutterfly(fig3Spec(2));
        DestinationGenerator dests(TrafficPattern::UniformRandom, 64, 3);
        DriverConfig dcfg;
        dcfg.messageWords = 20;
        std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
        for (NodeId e = 0; e < 64; ++e) {
            drivers.push_back(std::make_unique<ClosedLoopDriver>(
                &net->endpoint(e), &dests, dcfg, 0, 100 + e));
            net->engine().addComponent(drivers.back().get());
        }
        net->engine().run(2000); // steady state
        out.set("sim.saturated_cycle_us",
                perCall(200, [&] { net->engine().step(); }) * 1e6,
                "us");
    }
    {
        Span span("endpoint.NetworkInterface::send");
        auto net = buildMultibutterfly(fig3Spec(3));
        NodeId dest = 1;
        out.set("endpoint.message_us",
                perCall(20,
                        [&] {
                            const auto id = net->endpoint(0).send(
                                dest, std::vector<Word>(19, 0x42));
                            net->engine().runUntil(
                                [&] {
                                    return net->tracker()
                                        .record(id)
                                        .succeeded;
                                },
                                10000);
                            dest = dest % 63 + 1;
                        }) *
                    1e6,
                "us");
    }
}

} // namespace mb
