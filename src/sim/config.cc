#include "sim/config.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace afa::sim {

void
Config::set(const std::string &key, const std::string &value)
{
    values[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) != 0;
}

const std::string *
Config::lookup(const std::string &key) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    return it == values.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    const std::string *raw = lookup(key);
    return raw ? *raw : dflt;
}

namespace {

/** @p key as typed on a command line: "--runtime-ms" for runtime_ms. */
std::string
flagName(std::string key)
{
    std::replace(key.begin(), key.end(), '_', '-');
    return "--" + key;
}

bool
parseBool(const std::string &raw, const std::string &key, bool &out)
{
    std::string v = raw;
    std::transform(v.begin(), v.end(), v.begin(), ::tolower);
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
        out = true;
        return true;
    }
    if (v == "false" || v == "0" || v == "no" || v == "off") {
        out = false;
        return true;
    }
    fatal("config key '%s': '%s' is not a boolean",
          key.c_str(), raw.c_str());
}

bool
parseInt(const std::string &raw, std::int64_t &out)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(raw.c_str(), &end, 0);
    if (errno != 0 || end == raw.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseDouble(const std::string &raw, double &out)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(raw.c_str(), &end);
    if (errno != 0 || end == raw.c_str() || *end != '\0' ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace

bool
Config::getBool(const std::string &key, bool dflt) const
{
    const std::string *raw = lookup(key);
    if (!raw)
        return dflt;
    bool out = dflt;
    parseBool(*raw, key, out);
    return out;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t dflt) const
{
    const std::string *raw = lookup(key);
    if (!raw)
        return dflt;
    std::int64_t out;
    if (!parseInt(*raw, out) || out < 0)
        fatal("config key '%s': '%s' is not a non-negative integer",
              key.c_str(), raw->c_str());
    return static_cast<std::uint64_t>(out);
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    const std::string *raw = lookup(key);
    if (!raw)
        return dflt;
    double out;
    if (!parseDouble(*raw, out))
        fatal("config key '%s': '%s' is not a finite number",
              key.c_str(), raw->c_str());
    return out;
}

std::uint64_t
Config::getCount(const std::string &key, std::uint64_t dflt,
                 std::uint64_t lo, std::uint64_t hi) const
{
    const std::string *raw = lookup(key);
    if (!raw)
        return dflt;
    std::int64_t out;
    if (!parseInt(*raw, out) || out < 0 ||
        static_cast<std::uint64_t>(out) < lo ||
        static_cast<std::uint64_t>(out) > hi)
        fatal("%s %s: must be an integer in [%llu, %llu]",
              flagName(key).c_str(), raw->c_str(),
              (unsigned long long)lo, (unsigned long long)hi);
    return static_cast<std::uint64_t>(out);
}

Tick
Config::getMsec(const std::string &key, std::uint64_t dflt_ms) const
{
    return getCount(key, dflt_ms, 0, kMaxTick / kMsec) * kMsec;
}

std::vector<std::string>
Config::parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string> positional;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string key, value;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            key = body.substr(0, eq);
            value = body.substr(eq + 1);
        } else {
            key = body;
            // "--key value" when the next token is not an option;
            // otherwise a bare flag.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        std::replace(key.begin(), key.end(), '-', '_');
        if (key.empty())
            fatal("malformed option '%s'", arg.c_str());
        values[key] = value;
    }
    positionalArgs.insert(positionalArgs.end(), positional.begin(),
                          positional.end());
    return positional;
}

std::vector<std::string>
Config::keysWithPrefix(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (auto it = values.lower_bound(prefix); it != values.end(); ++it) {
        if (it->first.rfind(prefix, 0) != 0)
            break;
        out.push_back(it->first);
    }
    return out;
}

std::vector<std::string>
Config::unreadKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values)
        if (readKeys.count(k) == 0)
            out.push_back(k);
    return out;
}

void
Config::rejectUnread(const std::string &program,
                     const std::vector<std::string> &unusable) const
{
    std::vector<std::string> keys = unreadKeys();
    keys.insert(keys.end(), unusable.begin(), unusable.end());
    std::sort(keys.begin(), keys.end());
    std::string names;
    for (const std::string &key : keys)
        names += (names.empty() ? "" : ", ") + flagName(key);
    for (const std::string &arg : positionalArgs)
        names += (names.empty() ? "'" : ", '") + arg + "'";
    if (!names.empty())
        fatal("%s does not act on %s", program.c_str(), names.c_str());
}

} // namespace afa::sim
