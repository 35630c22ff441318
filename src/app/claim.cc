#include "app/claim.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "report/csv.hh"

namespace metro
{

namespace
{

bool
isNameChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '/';
}

/** A cursor over a claim expression; every read skips blanks. */
struct Lexer
{
    const std::string &s;
    std::size_t at = 0;

    void
    blank()
    {
        while (at < s.size() && (s[at] == ' ' || s[at] == '\t'))
            ++at;
    }

    bool
    eat(const std::string &token)
    {
        blank();
        if (s.compare(at, token.size(), token) != 0)
            return false;
        at += token.size();
        return true;
    }

    std::string
    name()
    {
        blank();
        const std::size_t from = at;
        while (at < s.size() && isNameChar(s[at]))
            ++at;
        return s.substr(from, at - from);
    }

    bool
    number(double &out)
    {
        blank();
        if (at == s.size() ||
            !(std::isdigit(static_cast<unsigned char>(s[at])) ||
              s[at] == '.'))
            return false;
        const char *from = s.c_str() + at;
        char *end = nullptr;
        const double v = std::strtod(from, &end);
        if (end == from)
            return false;
        out = v;
        at += static_cast<std::size_t>(end - from);
        return true;
    }
};

/** `RUN.COLUMN` or `"LABEL".COLUMN` into `side`. */
std::string
parseRef(Lexer &lx, ClaimSide &side)
{
    if (lx.eat("\"")) {
        const auto close = lx.s.find('"', lx.at);
        if (close == std::string::npos || close == lx.at)
            return "expected a \"LABEL\"";
        side.label = lx.s.substr(lx.at, close - lx.at);
        lx.at = close + 1;
    } else if (!isRunName(side.run = lx.name())) {
        return "expected RUN.COLUMN or \"LABEL\".COLUMN";
    }
    if (!lx.eat("."))
        return "expected .COLUMN";
    const std::string column = lx.name();
    const auto header = experimentCsvHeader();
    const auto it = std::find(header.begin() + 1, header.end(), column);
    if (it == header.end())
        return "unknown column: " + column;
    side.column = static_cast<std::size_t>(it - header.begin());
    return "";
}

/** `REF)` after a function name. */
std::string
parseCall(Lexer &lx, ClaimSide &side, ClaimSide::Fn fn)
{
    side.fn = fn;
    const std::string reason = parseRef(lx, side);
    return !reason.empty() || lx.eat(")") ? reason : "expected )";
}

std::string
parseSide(Lexer &lx, ClaimSide &side)
{
    double n = 1;
    if (lx.number(side.factor) && !lx.eat("*"))
        return ""; // a constant
    if (lx.number(n)) {
        side.factor *= n;
        return "";
    }
    if (lx.eat("max("))
        return parseCall(lx, side, ClaimSide::Fn::Max);
    if (lx.eat("afterPeak("))
        return parseCall(lx, side, ClaimSide::Fn::AfterPeak);
    return parseRef(lx, side);
}

bool
reads(const ClaimSide &side, const std::string &label)
{
    return side.run.empty() ? label == side.label
                            : label.rfind(side.run + "/", 0) == 0;
}

/** What `side` reads from the sweep, in point order. */
std::vector<double>
values(const ClaimSide &side, const SweepResult &sweep)
{
    if (side.run.empty() && side.label.empty())
        return {side.factor};
    std::vector<double> v;
    for (const auto &p : sweep.points) {
        if (p.skipped || !reads(side, p.label))
            continue;
        // The CSV cell, so a verdict agrees with the printed row.
        double x = 0;
        parseF64(experimentCsvRow(p.label, p.result)[side.column], x);
        v.push_back(x * side.factor);
    }
    const auto peak = std::max_element(v.begin(), v.end());
    if (side.fn == ClaimSide::Fn::Max && peak != v.end())
        return {*peak};
    if (side.fn == ClaimSide::Fn::AfterPeak)
        return peak == v.end() || peak + 1 == v.end()
                   ? std::vector<double>{}
                   : std::vector<double>{*(peak + 1)};
    return v;
}

const char *const kOps[] = {"<", "<=", ">", ">=", "=="};

bool
compare(double a, Claim::Op op, double b)
{
    switch (op) {
      case Claim::Op::Lt: return a < b;
      case Claim::Op::Le: return a <= b;
      case Claim::Op::Gt: return a > b;
      case Claim::Op::Ge: return a >= b;
      default: return a == b;
    }
}

/** "" when the claim holds, else the first values that break it. */
std::string
firstBreach(const Claim &claim, const SweepResult &sweep)
{
    const auto lhs = values(claim.lhs, sweep);
    if (claim.op == Claim::Op::Monotone) {
        for (std::size_t k = 1; k < lhs.size(); ++k)
            if (lhs[k] < lhs[k - 1])
                return formatReal(lhs[k - 1]) + " falls to " +
                       formatReal(lhs[k]);
        return "";
    }
    for (double a : lhs)
        for (double b : values(claim.rhs, sweep))
            if (!compare(a, claim.op, b))
                return formatReal(a) + " " +
                       kOps[static_cast<int>(claim.op)] + " " +
                       formatReal(b) + " is false";
    return "";
}

} // namespace

bool
isRunName(const std::string &name)
{
    return !name.empty() &&
           std::isalpha(static_cast<unsigned char>(name[0])) &&
           std::all_of(name.begin(), name.end(), isNameChar);
}

std::string
parseClaim(const TextLine &line, Claim &out)
{
    out.name = line.key;
    out.text = line.value;
    out.line = line.number;
    Lexer lx{line.value};
    std::string reason;
    if (lx.eat("monotone(")) {
        out.op = Claim::Op::Monotone;
        reason = parseCall(lx, out.lhs, ClaimSide::Fn::Each);
    } else if ((reason = parseSide(lx, out.lhs)).empty()) {
        // Two-character operators first: "<" is a prefix of "<=".
        const int order[] = {1, 3, 4, 0, 2};
        const int *op = std::find_if(
            std::begin(order), std::end(order),
            [&lx](int o) { return lx.eat(kOps[o]); });
        if (op == std::end(order)) {
            reason = "expected < <= > >= or ==";
        } else {
            out.op = static_cast<Claim::Op>(*op);
            reason = parseSide(lx, out.rhs);
        }
    }
    lx.blank();
    if (reason.empty() && lx.at != lx.s.size())
        reason = "unexpected text: " + lx.s.substr(lx.at);
    return reason.empty() ? "" : reason + " in claim " + out.name;
}

std::string
resolveClaim(const Claim &claim, const std::vector<std::string> &labels)
{
    for (const ClaimSide *side : {&claim.lhs, &claim.rhs}) {
        if ((side->run.empty() && side->label.empty()) ||
            std::any_of(labels.begin(), labels.end(),
                        [side](const std::string &label) {
                            return reads(*side, label);
                        }))
            continue;
        return "line " + std::to_string(claim.line) + ": " +
               (side->run.empty()
                    ? "no point labelled \"" + side->label + "\""
                    : "unknown run: " + side->run) +
               " in claim " + claim.name;
    }
    return "";
}

std::vector<ClaimVerdict>
checkClaims(const std::vector<Claim> &claims, const SweepResult &sweep)
{
    std::vector<ClaimVerdict> out;
    for (const Claim &claim : claims) {
        const std::string breach = firstBreach(claim, sweep);
        const bool held = breach.empty();
        out.push_back({claim.name, held,
                       "claim " + claim.name +
                           (held ? " held: " + claim.text
                                 : " MISSED: " + claim.text + " (" +
                                       breach + ")")});
    }
    return out;
}

} // namespace metro
