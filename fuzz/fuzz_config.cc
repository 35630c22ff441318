/**
 * @file
 * libFuzzer entry point for every configuration surface: the
 * command line, sweep files and spec files all read the knob
 * tables in src/app/, so one harness covers them.
 *
 * The first input byte picks the surface (mod 3: argv, sweep file,
 * spec file); the rest is the text. For argv, each line is one
 * argument. Every input must parse or be rejected with an error
 * message — never crash, hang, or exhaust memory. Accepted specs
 * must also round-trip through specToText(). Validation
 * (spec.validate()) is deliberately not called: it fatal()s by
 * contract on semantically impossible specs, which is not a parser
 * bug.
 *
 * Seed corpus: tests/corpus/argv/, tests/corpus/sweepfile/ and
 * tests/corpus/specfile/ (replayed as plain ctest cases by
 * tests/test_parser_fuzz.cc on non-clang toolchains; prefix a seed
 * with the surface byte to use it here).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "app/options.hh"
#include "app/specfile.hh"
#include "app/sweepfile.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size == 0)
        return 0;
    const std::string text(reinterpret_cast<const char *>(data) + 1,
                           size - 1);
    std::string error;
    switch (data[0] % 3) {
      case 0: {
        std::vector<std::string> args = {"metro_sim"};
        std::size_t from = 0;
        for (std::size_t nl; (nl = text.find('\n', from)) !=
                             std::string::npos;
             from = nl + 1)
            args.push_back(text.substr(from, nl - from));
        args.push_back(text.substr(from));
        std::vector<const char *> argv;
        for (const auto &a : args)
            argv.push_back(a.c_str());
        if (!metro::parseOptions(static_cast<int>(argv.size()),
                                 argv.data(), error) &&
            error.empty())
            __builtin_trap(); // rejection must carry a message
        break;
      }
      case 1:
        if (!metro::parseSweepText(text, error) && error.empty())
            __builtin_trap();
        break;
      default: {
        const auto spec = metro::parseSpecText(text, error);
        if (spec.has_value() &&
            !metro::parseSpecText(metro::specToText(*spec), error))
            __builtin_trap(); // accepted specs must round-trip
        break;
      }
    }
    return 0;
}
