/**
 * @file
 * Fixed, enum-indexed counter blocks: the one place a router or a
 * network interface counts anything.
 *
 * A block is a plain array indexed by an enum and named by a
 * constexpr table (`Names::kNames`, one name per enumerator, in
 * enum order). Tables are sorted and unique, so index order is name
 * order: a block iterates, serialises and reports in the sorted
 * order of the string-keyed maps it replaced, and a name resolves by
 * binary search.
 *
 * Each entity writes only its own blocks, at every engine thread
 * count. What several entities feed together — the network-wide
 * `words.*` counters and `conn.*` histograms — is kept as a
 * per-entity *share* block under the registry's own names, which the
 * owning Network moves into its MetricsRegistry when it syncs
 * (Network::syncMetrics); adds and merges commute, so the result
 * does not depend on which thread ticked whom.
 */

#ifndef METRO_OBS_COUNTERS_HH
#define METRO_OBS_COUNTERS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "obs/registry.hh"

namespace metro
{

/**
 * One value per name of `Names::kNames`, indexed by `Names::Id`.
 * `T` is std::uint64_t (counters) or LogHistogram (histograms).
 */
template <class Names, class T = std::uint64_t>
class NamedBlock
{
    static constexpr bool kHistogram = std::is_same_v<T, LogHistogram>;

  public:
    using Id = typename Names::Id;
    static constexpr std::size_t kSize = std::size(Names::kNames);
    static_assert(std::adjacent_find(std::begin(Names::kNames),
                                     std::end(Names::kNames),
                                     std::greater_equal<>()) ==
                      std::end(Names::kNames),
                  "counter name table must be sorted and unique");

    T &operator[](Id id) { return v_[static_cast<std::size_t>(id)]; }

    /** Value and name by table index. @{ */
    T &at(std::size_t i) { return v_[i]; }
    const T &at(std::size_t i) const { return v_[i]; }
    static std::string_view name(std::size_t i) { return Names::kNames[i]; }
    /** @} */

    /** Table index of `name`; kSize when the table has none. */
    static std::size_t
    indexOf(std::string_view name)
    {
        const auto *it = std::lower_bound(std::begin(Names::kNames),
                                          std::end(Names::kNames), name);
        return it != std::end(Names::kNames) && *it == name
                   ? static_cast<std::size_t>(it - Names::kNames)
                   : kSize;
    }

    /** The value called `name`, which must be in the table. */
    const T &
    get(std::string_view name) const
    {
        const std::size_t i = indexOf(name);
        METRO_ASSERT(i < kSize, "unknown counter name: %.*s",
                     static_cast<int>(name.size()), name.data());
        return v_[i];
    }

    /** `fn(name, value)` for each non-zero counter, in name order. */
    template <class Fn>
    void
    forEachFired(Fn fn) const
    {
        for (std::size_t i = 0; i < kSize; ++i) {
            if (v_[i] != 0)
                fn(Names::kNames[i], v_[i]);
        }
    }

    NamedBlock &
    operator+=(const NamedBlock &other)
    {
        for (std::size_t i = 0; i < kSize; ++i) {
            if constexpr (kHistogram)
                v_[i].merge(other.v_[i]);
            else
                v_[i] += other.v_[i];
        }
        return *this;
    }

    /** Counter-wise difference from an earlier snapshot of the same
     *  (monotone) counters. */
    NamedBlock
    operator-(const NamedBlock &baseline) const
    {
        NamedBlock d;
        for (std::size_t i = 0; i < kSize; ++i)
            d.v_[i] = v_[i] - baseline.v_[i];
        return d;
    }

    /** Create every slot of the table in `registry`, at zero. */
    static void
    registerIn(MetricsRegistry &registry)
    {
        NamedBlock().addTo(registry, "", true);
    }

    /** Add each value into the registry slot `prefix` + its name;
     *  zero values create no slot unless `all`. */
    void
    addTo(MetricsRegistry &registry, const std::string &prefix = "",
          bool all = false) const
    {
        for (std::size_t i = 0; i < kSize; ++i) {
            const std::string key = prefix + std::string(Names::kNames[i]);
            if constexpr (kHistogram) {
                if (all || v_[i].count() != 0)
                    registry.histogram(key).merge(v_[i]);
            } else if (all || v_[i] != 0) {
                registry.counter(key) += v_[i];
            }
        }
    }

  private:
    std::array<T, kSize> v_{};
};

/** A block of counters / of log-histograms. @{ */
template <class Names>
using CounterBlock = NamedBlock<Names, std::uint64_t>;
template <class Names>
using HistogramBlock = NamedBlock<Names, LogHistogram>;
/** @} */

/** The network-wide word-accounting counters every router and
 *  endpoint feeds a share of (the conservation identities in
 *  docs/observability.md). */
enum class Words : std::uint8_t
{
    admitted,
    delivered,
    discardedBlock,
    discardedEndpoint,
    discardedRouter,
    injected,
    shedAdmission,
    submitted,
};
struct WordNames
{
    using Id = Words;
    static constexpr std::string_view kNames[] = {
        "words.admitted",         "words.delivered",
        "words.discarded.block",  "words.discarded.endpoint",
        "words.discarded.router", "words.injected",
        "words.shed.admission",   "words.submitted"};
};
using WordCounters = CounterBlock<WordNames>;

/** Declares `enum class Enum` and its name table `Table` from an
 *  X-macro list `LIST(X)` of `X(identifier)` entries: each counter
 *  is named after its enumerator. */
#define METRO_COUNTER_TABLE(Enum, Table, LIST)                          \
    enum class Enum : std::uint8_t                                      \
    {                                                                   \
        LIST(METRO_COUNTER_ENUMERATOR)                                  \
    };                                                                  \
    struct Table                                                        \
    {                                                                   \
        using Id = Enum;                                                \
        static constexpr std::string_view kNames[] = {                  \
            LIST(METRO_COUNTER_NAME)};                                  \
    }
#define METRO_COUNTER_ENUMERATOR(id) id,
#define METRO_COUNTER_NAME(id) #id,

} // namespace metro

#endif // METRO_OBS_COUNTERS_HH
