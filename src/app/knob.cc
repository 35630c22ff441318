#include "app/knob.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace metro
{

namespace
{

/** `s` without leading/trailing blanks (space, tab, CR). */
std::string
trimText(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

} // namespace

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s != "true" && s != "1" && s != "false" && s != "0")
        return false;
    out = s == "true" || s == "1";
    return true;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> parts;
    std::size_t from = 0;
    for (;;) {
        const auto comma = s.find(',', from);
        parts.push_back(trimText(s.substr(from, comma - from)));
        if (comma == std::string::npos)
            return parts;
        from = comma + 1;
    }
}

std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> words;
    std::istringstream in(s);
    std::string w;
    while (in >> w)
        words.push_back(w);
    return words;
}

std::string
formatReal(double v)
{
    char buf[40];
    for (int digits : {6, 15, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
kebabCase(const std::string &camel)
{
    std::string out;
    for (char c : camel) {
        if (std::isupper(static_cast<unsigned char>(c))) {
            out += '-';
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        }
        out += c;
    }
    return out;
}

bool
forEachTextLine(const std::string &text, std::string &error,
                const std::function<std::string(const TextLine &)> &fn)
{
    std::istringstream in(text);
    std::string raw;
    TextLine line;
    while (std::getline(in, raw)) {
        ++line.number;
        std::string body = trimText(raw.substr(0, raw.find('#')));
        if (body.empty())
            continue;
        const auto eq = body.find('=');
        std::string reason;
        if (body.front() == '[' && body.back() == ']') {
            line.section = true;
            line.key = trimText(body.substr(1, body.size() - 2));
            line.value.clear();
            reason = fn(line);
        } else if (eq == std::string::npos) {
            reason = "expected key = value";
        } else {
            line.section = false;
            line.key = trimText(body.substr(0, eq));
            line.value = trimText(body.substr(eq + 1));
            reason = fn(line);
        }
        if (!reason.empty()) {
            error = "line " + std::to_string(line.number) + ": " + reason;
            return false;
        }
    }
    return true;
}

bool
readTextFile(const std::string &path, std::string &out,
             std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace metro
