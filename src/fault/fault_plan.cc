#include "fault/fault_plan.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "nvme/controller.hh"
#include "sim/logging.hh"

namespace afa::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Limp:
        return "limp";
      case FaultKind::Dropout:
        return "dropout";
      case FaultKind::LinkError:
        return "link_error";
      case FaultKind::CtrlStall:
        return "ctrl_stall";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
planError(std::string_view origin, unsigned line, const char *what)
{
    afa::sim::fatal("fault plan %.*s:%u: %s",
                    static_cast<int>(origin.size()), origin.data(),
                    line, what);
}

/** Split a line into whitespace-separated tokens, dropping comments. */
std::vector<std::string>
tokenize(std::string_view line)
{
    std::vector<std::string> out;
    std::string token;
    for (char c : line) {
        if (c == '#')
            break;
        if (c == ' ' || c == '\t' || c == '\r') {
            if (!token.empty())
                out.push_back(std::move(token));
            token.clear();
        } else {
            token.push_back(c);
        }
    }
    if (!token.empty())
        out.push_back(std::move(token));
    return out;
}

double
parseNumber(const std::string &text, std::string_view origin,
            unsigned line)
{
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value < 0)
        planError(origin, line, "expected a finite non-negative number");
    return value;
}

/** A millisecond value in ticks; fatal when the clock cannot hold it. */
Tick
parseMsec(const std::string &text, std::string_view origin,
          unsigned line)
{
    const double ms = parseNumber(text, origin, line);
    if (ms >= afa::sim::toMsec(afa::sim::kMaxTick))
        planError(origin, line, "milliseconds overflow the clock");
    return afa::sim::msec(ms);
}

/** A whole number that fits in unsigned. */
unsigned
parseCount(const std::string &text, std::string_view origin,
           unsigned line)
{
    const double value = parseNumber(text, origin, line);
    if (value != std::floor(value) || value > UINT_MAX)
        planError(origin, line, "expected a whole number <= 4294967295");
    return static_cast<unsigned>(value);
}

/** The text after "key=", checking the key; fatal when absent. */
std::string
requireField(const std::vector<std::string> &tokens,
             std::string_view key, std::string_view origin,
             unsigned line)
{
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &t = tokens[i];
        std::size_t eq = t.find('=');
        if (eq != std::string::npos &&
            std::string_view(t).substr(0, eq) == key)
            return t.substr(eq + 1);
    }
    afa::sim::fatal("fault plan %.*s:%u: missing %.*s=",
                    static_cast<int>(origin.size()), origin.data(),
                    line, static_cast<int>(key.size()), key.data());
}

} // namespace

FaultPlan
FaultPlan::parseText(std::string_view text, std::string_view origin)
{
    FaultPlan plan;
    std::istringstream in{std::string(text)};
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;
        const std::string &verb = tokens[0];
        if (verb == "timeout_ms") {
            if (tokens.size() != 2)
                planError(origin, lineno, "timeout_ms takes one value");
            plan.nvmeTimeout = parseMsec(tokens[1], origin, lineno);
        } else if (verb == "max_retries") {
            if (tokens.size() != 2)
                planError(origin, lineno,
                          "max_retries takes one value");
            plan.maxRetries = parseCount(tokens[1], origin, lineno);
        } else if (verb == "retry_backoff_ms") {
            if (tokens.size() != 2)
                planError(origin, lineno,
                          "retry_backoff_ms takes one value");
            plan.retryBackoff = parseMsec(tokens[1], origin, lineno);
        } else if (verb == "limp" || verb == "dropout" ||
                   verb == "link_error" || verb == "ctrl_stall") {
            FaultEvent ev;
            ev.kind = verb == "limp"       ? FaultKind::Limp
                    : verb == "dropout"    ? FaultKind::Dropout
                    : verb == "link_error" ? FaultKind::LinkError
                                           : FaultKind::CtrlStall;
            const auto field = [&](std::string_view key) {
                return requireField(tokens, key, origin, lineno);
            };
            ev.ssd = parseCount(field("ssd"), origin, lineno);
            ev.at = parseMsec(field("at_ms"), origin, lineno);
            ev.duration = parseMsec(field("dur_ms"), origin, lineno);
            if (ev.duration > afa::sim::kMaxTick - ev.at)
                planError(origin, lineno,
                          "at_ms + dur_ms overflows the clock");
            if (ev.kind == FaultKind::Limp) {
                ev.factor = parseNumber(field("factor"), origin, lineno);
                if (ev.factor < 1.0 ||
                    ev.factor > afa::nvme::Controller::kMaxLimpFactor)
                    planError(origin, lineno,
                              "limp factor must be in [1, 1e6]");
            }
            if (ev.kind == FaultKind::LinkError) {
                ev.rate = parseNumber(field("rate"), origin, lineno);
                if (ev.rate >= 1.0)
                    planError(origin, lineno,
                              "link_error rate must be < 1");
            }
            plan.events.push_back(ev);
        } else {
            planError(origin, lineno, "unknown directive");
        }
    }
    // Deterministic application order regardless of spec order.
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return plan;
}

FaultPlan
FaultPlan::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        afa::sim::fatal("fault plan: cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseText(text.str(), path);
}

std::string
FaultPlan::summary() const
{
    std::string out = afa::sim::strfmt(
        "fault plan: %zu event(s), timeout %.1f ms, "
        "%u retries, backoff %.1f ms\n",
        events.size(), afa::sim::toMsec(nvmeTimeout), maxRetries,
        afa::sim::toMsec(retryBackoff));
    for (const FaultEvent &ev : events) {
        out += afa::sim::strfmt(
            "  %-10s ssd%u  [%.1f, %.1f) ms", faultKindName(ev.kind),
            ev.ssd, afa::sim::toMsec(ev.at),
            afa::sim::toMsec(ev.at + ev.duration));
        if (ev.kind == FaultKind::Limp)
            out += afa::sim::strfmt("  factor=%.1f", ev.factor);
        if (ev.kind == FaultKind::LinkError)
            out += afa::sim::strfmt("  rate=%.3f", ev.rate);
        out += "\n";
    }
    return out;
}

} // namespace afa::fault
