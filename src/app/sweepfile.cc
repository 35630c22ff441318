#include "app/sweepfile.hh"

#include "app/config.hh"

namespace metro
{

std::optional<SweepFile>
parseSweepText(const std::string &text, std::string &error,
               const std::string &base_dir)
{
    SweepConfig config;
    if (!applySweepText(text, base_dir, config, error))
        return std::nullopt;
    auto points = expandPoints(config, error);
    if (!points.has_value())
        return std::nullopt;
    SweepFile out;
    out.points = std::move(*points);
    out.threads = config.threads;
    out.engineThreads = config.engineThreads;
    return out;
}

} // namespace metro
