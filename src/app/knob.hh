/**
 * @file
 * The text layer every configuration surface shares — the command
 * line, sweep files, spec files and fault files: one tokenizer and
 * declarative knob tables.
 *
 * The file formats share one lexical shape (`key = value` lines,
 * '#' comments, blank lines ignored, `[section]` headers where the
 * format has sections) and parse numbers, booleans and comma lists
 * the same way.
 *
 * A knob is one row: a name, a binding to a field of an existing
 * config struct, the field's type and range, and a line of help.
 * Every text surface reads the same rows — the command line as
 * `--kebab-name=value`, the sweep and spec files as `name = value` —
 * so parsing, range checks, `--help` and serialization all come
 * from one place. A field's default is whatever its struct
 * initializer says.
 *
 * Bindings are generic lambdas returning a reference to the field;
 * METRO_KNOB_FIELD(path) spells one. The row builders below read
 * the field's type (integer, real, bool, enum, std::optional of
 * those, or a std::vector forming a comma list) off that lambda.
 */

#ifndef METRO_APP_KNOB_HH
#define METRO_APP_KNOB_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

/** A binding for a knob row: `t.path` of the table's struct. */
#define METRO_KNOB_FIELD(path) [](auto &t) -> auto & { return t.path; }

namespace metro
{

/** Decimal digits only, whole string, within 64 bits. */
bool parseU64(const std::string &s, std::uint64_t &out);

/** Floating-point number, whole string. */
bool parseF64(const std::string &s, double &out);

/** `true`/`1` or `false`/`0`. */
bool parseBool(const std::string &s, bool &out);

/** Split on commas; every part is trimmed. */
std::vector<std::string> splitList(const std::string &s);

/** Split on whitespace; empty parts are dropped. */
std::vector<std::string> splitWords(const std::string &s);

/** Shortest decimal text that reads back as exactly `v`. */
std::string formatReal(double v);

/** `retryBudgetCap` -> `retry-budget-cap`. */
std::string kebabCase(const std::string &camel);

/** One meaningful line of an INI-like document. */
struct TextLine
{
    unsigned number = 0;
    /** The key, or the section name of a `[name]` header. */
    std::string key;
    std::string value;
    bool section = false;
};

/**
 * Walk `text` line by line, calling `fn` for every `key = value`
 * line and `[section]` header. A line that is neither, or a
 * non-empty string returned by `fn`, stops the walk: `error` gets
 * the reason prefixed with "line N: " and the result is false.
 */
bool forEachTextLine(const std::string &text, std::string &error,
                     const std::function<std::string(const TextLine &)>
                         &fn);

/** Read a whole file; false with "cannot open PATH" on failure. */
bool readTextFile(const std::string &path, std::string &out,
                  std::string &error);

/** One row of a knob table over struct T. */
template <class T>
struct Knob
{
    /** camelCase key; the command-line flag is its kebab case. */
    const char *name = "";

    /** `--help` value placeholder; empty for a bare switch. */
    std::string arg;

    const char *help = "";

    /** Parse `value` into the bound field; "" or the reason it
     *  was rejected. */
    std::function<std::string(T &, const std::string &)> set;

    /** The bound field as text `set` accepts ("" when unset). */
    std::function<std::string(const T &)> show;

    /** Command-line spelling when it is not the kebab-case name. */
    const char *flag = nullptr;

    std::string
    cliFlag() const
    {
        return "--" + (flag != nullptr ? std::string(flag)
                                       : kebabCase(name));
    }
};

/** The row of `table` named `name`, or nullptr. */
template <class T>
const Knob<T> *
findKnob(const std::vector<Knob<T>> &table, const std::string &name)
{
    for (const auto &k : table)
        if (name == k.name)
            return &k;
    return nullptr;
}

/** Apply one `key = value` line to `target`; "" or the reason. */
template <class T>
std::string
applyKnobLine(const std::vector<Knob<T>> &table, T &target,
              const std::string &key, const std::string &value,
              const char *unknown = "unknown key")
{
    const Knob<T> *k = findKnob(table, key);
    if (k == nullptr)
        return std::string(unknown) + ": " + key;
    const std::string reason = k->set(target, value);
    return reason.empty() ? reason
                          : "bad value for " + key + ": " + value +
                                " (" + reason + ")";
}

/** Every row as `name = value` lines. */
template <class T>
std::string
knobsToText(const std::vector<Knob<T>> &table, const T &source)
{
    std::string out;
    for (const auto &k : table)
        out += std::string(k.name) + " = " + k.show(source) + "\n";
    return out;
}

namespace knob_detail
{

template <class F> struct Shape
{
    using Value = F;
    static constexpr bool optional = false, list = false;
};
template <class V> struct Shape<std::optional<V>>
{
    using Value = V;
    static constexpr bool optional = true, list = false;
};
template <class V> struct Shape<std::vector<V>>
{
    using Value = V;
    static constexpr bool optional = false, list = true;
};

template <class T, class Get>
using FieldOf = std::decay_t<decltype(std::declval<Get>()(
    std::declval<T &>()))>;

template <class V>
std::string
showScalar(const V &v, const std::vector<std::string> &names)
{
    if constexpr (std::is_same_v<V, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_enum_v<V>)
        return names.at(static_cast<std::size_t>(v));
    else if constexpr (std::is_floating_point_v<V>)
        return formatReal(v);
    else
        return std::to_string(v);
}

/** Wire a field of any shape to a scalar parser. */
template <class T, class Get, class Parse>
Knob<T>
bind(const char *name, std::string arg, const char *help, Get get,
     Parse parse, std::vector<std::string> names = {})
{
    using Field = FieldOf<T, Get>;
    using S = Shape<Field>;
    using V = typename S::Value;
    Knob<T> k;
    k.name = name;
    k.arg = arg;
    k.help = help;
    k.set = [get, parse](T &t, const std::string &value) {
        if constexpr (S::list) {
            Field list;
            for (const auto &part : splitList(value)) {
                V v{};
                const std::string reason = parse(part, v);
                if (!reason.empty())
                    return reason;
                list.push_back(v);
            }
            get(t) = std::move(list);
        } else {
            V v{};
            const std::string reason = parse(value, v);
            if (!reason.empty())
                return reason;
            get(t) = v;
        }
        return std::string();
    };
    k.show = [get, names](const T &t) {
        const Field &f = get(t);
        if constexpr (S::list) {
            std::string out;
            for (const auto &v : f) {
                if (!out.empty())
                    out += ',';
                out += showScalar(v, names);
            }
            return out;
        } else if constexpr (S::optional) {
            return f.has_value() ? showScalar(*f, names)
                                 : std::string();
        } else {
            return showScalar(f, names);
        }
    };
    return k;
}

} // namespace knob_detail

/**
 * An integer or real field (or optional / list of one) accepting
 * values in [lo, hi]; integers also stop at the field type's
 * maximum.
 */
template <class T, class Get>
Knob<T>
numKnob(const char *name, Get get, const char *help = "", double lo = 0,
        double hi = std::numeric_limits<double>::infinity())
{
    using Field = knob_detail::FieldOf<T, Get>;
    using V = typename knob_detail::Shape<Field>::Value;
    constexpr bool list = knob_detail::Shape<Field>::list;
    constexpr bool integral = std::is_integral_v<V>;
    if constexpr (integral)
        hi = std::min<double>(hi, std::numeric_limits<V>::max());
    const char *arg = integral ? (list ? "N[,N...]" : "N")
                               : (list ? "F[,F...]" : "F");
    auto parse = [lo, hi](const std::string &s, V &out) {
        const std::string range =
            std::string(integral ? "expected an integer in ["
                                 : "expected a number in [") +
            formatReal(lo) + ", " + formatReal(hi) + "]";
        if constexpr (integral) {
            std::uint64_t u = 0;
            if (!parseU64(s, u) || u < lo || u > hi)
                return range;
            out = static_cast<V>(u);
        } else {
            double f = 0.0;
            if (!parseF64(s, f) || !(f >= lo && f <= hi))
                return range;
            out = f;
        }
        return std::string();
    };
    return knob_detail::bind<T>(name, arg, help, get, parse);
}

/** A bool field, set by a bare `--flag` or `true|false|1|0`. */
template <class T, class Get>
Knob<T>
boolKnob(const char *name, Get get, const char *help = "")
{
    auto parse = [](const std::string &s, bool &out) {
        return parseBool(s, out) ? std::string()
                                 : std::string("expected true or false");
    };
    return knob_detail::bind<T>(name, "", help, get, parse);
}

/**
 * An enum field (or list of one) spelled by `names`, indexed by the
 * enumerator's value.
 */
template <class T, class Get>
Knob<T>
enumKnob(const char *name, Get get, std::vector<std::string> names,
         const char *help)
{
    using Field = knob_detail::FieldOf<T, Get>;
    using E = typename knob_detail::Shape<Field>::Value;
    std::string spelled;
    for (const auto &n : names)
        spelled += (spelled.empty() ? "" : "|") + n;
    auto parse = [names, spelled](const std::string &s, E &out) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (s == names[i]) {
                out = static_cast<E>(i);
                return std::string();
            }
        }
        return "expected " + spelled;
    };
    if constexpr (knob_detail::Shape<Field>::list)
        spelled += "[,...]";
    return knob_detail::bind<T>(name, spelled, help, get, parse, names);
}

/** A string field (a path, unless `arg` says otherwise). */
template <class T, class Get>
Knob<T>
textKnob(const char *name, Get get, const char *help,
         std::string arg = "PATH")
{
    Knob<T> k;
    k.name = name;
    k.arg = arg;
    k.help = help;
    k.set = [get](T &t, const std::string &value) {
        if (value.empty())
            return std::string("expected a value");
        get(t) = value;
        return std::string();
    };
    k.show = [get](const T &t) { return std::string(get(t)); };
    return k;
}

/** The rows of `inner`, re-bound to the `get(outer)` sub-struct. */
template <class Outer, class Inner, class Get>
std::vector<Knob<Outer>>
liftKnobs(const std::vector<Knob<Inner>> &inner, Get get)
{
    std::vector<Knob<Outer>> out;
    for (const auto &k : inner) {
        Knob<Outer> o;
        o.name = k.name;
        o.arg = k.arg;
        o.help = k.help;
        o.flag = k.flag;
        o.set = [set = k.set, get](Outer &t, const std::string &v) {
            return set(get(t), v);
        };
        o.show = [show = k.show, get](const Outer &t) {
            return show(get(t));
        };
        out.push_back(std::move(o));
    }
    return out;
}

/**
 * The scalar retry-policy rows, shared by the command line, sweep
 * files (bound into RetryOverrides) and spec files (bound into
 * RetryPolicyConfig — the field names match). `retryPolicy` itself
 * is not here: it is a sweep axis on the command line and in sweep
 * files, a scalar in spec files.
 */
template <class R>
std::vector<Knob<R>>
retryKnobs()
{
    return {
        numKnob<R>("backoffMin", METRO_KNOB_FIELD(backoffMin),
                   "backoff window lower bound, cycles"),
        numKnob<R>("backoffMax", METRO_KNOB_FIELD(backoffMax),
                   "backoff window upper bound, cycles"),
        numKnob<R>("backoffCap", METRO_KNOB_FIELD(backoffCap),
                   "exponential/aimd window cap, cycles", 1),
        boolKnob<R>("retryJitter", METRO_KNOB_FIELD(decorrelatedJitter),
                    "decorrelated jitter (exponential)"),
        numKnob<R>("aimdDecrease", METRO_KNOB_FIELD(aimdDecrease),
                   "aimd window shrink per success"),
        numKnob<R>("retryBudget", METRO_KNOB_FIELD(retryBudget),
                   "retry tokens granted per success (0 = off)"),
        numKnob<R>("retryBudgetCap", METRO_KNOB_FIELD(retryBudgetCap),
                   "retry token-bucket capacity", 1),
        numKnob<R>("sendQueueLimit", METRO_KNOB_FIELD(sendQueueLimit),
                   "shed sends beyond this queue depth (0 = off)"),
        numKnob<R>("inflightLimit", METRO_KNOB_FIELD(inflightLimit),
                   "network-wide active-message gate (0 = off)"),
        numKnob<R>("ageClamp", METRO_KNOB_FIELD(ageClamp),
                   "clamp backoff for messages older than N cycles"),
        numKnob<R>("ageStarve", METRO_KNOB_FIELD(ageStarve),
                   "budget bypass + starvation count past N cycles"),
    };
}

} // namespace metro

#endif // METRO_APP_KNOB_HH
