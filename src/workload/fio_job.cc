#include "workload/fio_job.hh"

#include <cctype>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/logging.hh"

namespace afa::workload {

RwMode
parseRwMode(const std::string &text)
{
    if (text == "read")
        return RwMode::Read;
    if (text == "write")
        return RwMode::Write;
    if (text == "randread")
        return RwMode::RandRead;
    if (text == "randwrite")
        return RwMode::RandWrite;
    if (text == "randrw")
        return RwMode::RandRw;
    afa::sim::fatal("fio: unknown rw mode '%s'", text.c_str());
}

const char *
rwModeName(RwMode mode)
{
    switch (mode) {
      case RwMode::Read:
        return "read";
      case RwMode::Write:
        return "write";
      case RwMode::RandRead:
        return "randread";
      case RwMode::RandWrite:
        return "randwrite";
      case RwMode::RandRw:
        return "randrw";
    }
    return "?";
}

namespace {

/** Parse fio size spellings: 4096, 4k, 128K, 1m, 2M. A sign (which
 *  stoull would wrap) and a suffix that overflows 64 bits fail. */
std::uint64_t
parseSize(const std::string &text, const char *key)
{
    if (text.empty())
        afa::sim::fatal("fio: empty value for %s", key);
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        afa::sim::fatal("fio: bad size '%s' for %s", text.c_str(), key);
    std::size_t idx = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &idx);
    } catch (const std::exception &) {
        afa::sim::fatal("fio: bad size '%s' for %s", text.c_str(), key);
    }
    std::uint64_t mult = 1;
    if (idx < text.size()) {
        char suffix = static_cast<char>(
            std::tolower(static_cast<unsigned char>(text[idx])));
        switch (suffix) {
          case 'k':
            mult = 1024;
            break;
          case 'm':
            mult = 1024ull * 1024;
            break;
          case 'g':
            mult = 1024ull * 1024 * 1024;
            break;
          default:
            afa::sim::fatal("fio: bad size suffix in '%s' for %s",
                            text.c_str(), key);
        }
        if (idx + 1 != text.size())
            afa::sim::fatal("fio: trailing junk in '%s' for %s",
                            text.c_str(), key);
    }
    if (v > std::numeric_limits<std::uint64_t>::max() / mult)
        afa::sim::fatal("fio: size '%s' for %s overflows 64 bits",
                        text.c_str(), key);
    return v * mult;
}

/** Parse fio duration spellings: 120 (seconds), 500ms, 30s, 2m. */
Tick
parseDuration(const std::string &text, const char *key)
{
    std::size_t idx = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &idx);
    } catch (const std::exception &) {
        afa::sim::fatal("fio: bad duration '%s' for %s", text.c_str(),
                        key);
    }
    std::string suffix = text.substr(idx);
    if (suffix.empty() || suffix == "s")
        return afa::sim::sec(v);
    if (suffix == "ms")
        return afa::sim::msec(v);
    if (suffix == "us")
        return afa::sim::usec(v);
    if (suffix == "m")
        return afa::sim::sec(v * 60.0);
    afa::sim::fatal("fio: bad duration suffix '%s' for %s",
                    suffix.c_str(), key);
}

} // namespace

FioJob
FioJob::parse(const std::string &spec)
{
    FioJob job;
    // Tokenize: options separate on whitespace or commas.
    std::vector<std::string> tokens;
    std::stringstream ws(spec);
    std::string word;
    while (ws >> word) {
        std::stringstream cs(word);
        std::string piece;
        while (std::getline(cs, piece, ','))
            if (!piece.empty())
                tokens.push_back(piece);
    }
    for (const std::string &token : tokens) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            afa::sim::fatal("fio: option '%s' is not key=value",
                            token.c_str());
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (key == "rw") {
            job.rw = parseRwMode(value);
        } else if (key == "bs") {
            const std::uint64_t size = parseSize(value, "bs");
            if (size == 0 || size % 4096 != 0)
                afa::sim::fatal("fio: bs must be a positive multiple "
                                "of 4k, got '%s'",
                                value.c_str());
            if (size > std::numeric_limits<std::uint32_t>::max())
                afa::sim::fatal("fio: bs '%s' exceeds a command's "
                                "32-bit byte count",
                                value.c_str());
            job.blockSize = static_cast<std::uint32_t>(size);
        } else if (key == "iodepth") {
            const std::uint64_t depth = parseSize(value, "iodepth");
            if (depth == 0 || depth > kMaxIoDepth)
                afa::sim::fatal("fio: iodepth must be in [1, %u], got "
                                "'%s'",
                                kMaxIoDepth, value.c_str());
            job.ioDepth = static_cast<unsigned>(depth);
        } else if (key == "rwmixread") {
            const std::uint64_t mix = parseSize(value, "rwmixread");
            if (mix > 100)
                afa::sim::fatal("fio: rwmixread must be 0..100, got "
                                "'%s'",
                                value.c_str());
            job.rwMixRead = static_cast<unsigned>(mix);
        } else if (key == "offset") {
            job.offsetBlocks = parseSize(value, "offset") / 4096;
        } else if (key == "size") {
            job.sizeBlocks = parseSize(value, "size") / 4096;
        } else if (key == "thinktime") {
            job.thinkTime = parseDuration(value, "thinktime");
        } else if (key == "direct" || key == "ioengine" ||
                   key == "group_reporting" ||
                   (key == "numjobs" && value == "1")) {
            // Accepted-and-ignored fio options: the model is always
            // direct async I/O on raw devices, one thread per device.
        } else {
            afa::sim::fatal("fio: unknown option '%s'", key.c_str());
        }
    }
    return job;
}

} // namespace afa::workload
