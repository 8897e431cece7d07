/**
 * @file
 * A small typed key-value configuration store.
 *
 * Keys are dotted paths ("ssd.nand.read_us"). Values are stored as
 * strings and converted on access; an absent key yields the default,
 * a malformed or out-of-range value calls fatal() (a user error, per
 * gem5 convention).
 *
 * The store also powers command-line parsing for benches and examples:
 * "--key=value" and "--key value" forms set entries; "--flag" sets the
 * entry to "true". Every getter remembers the key it looked up, so a
 * command line can fail on the flags no code read and on its
 * positional arguments (rejectUnread()); that bookkeeping makes
 * concurrent reads of one Config unsafe.
 */

#ifndef AFA_SIM_CONFIG_HH
#define AFA_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace afa::sim {

/** Typed view over a string-valued configuration tree. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** Get with default. */
    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;

    /**
     * Read a count flag: an integer in [@p lo, @p hi], else fatal()
     * naming the flag as typed ("--seeds 0: ...") and the range.
     */
    std::uint64_t getCount(const std::string &key, std::uint64_t dflt,
                           std::uint64_t lo, std::uint64_t hi) const;

    /**
     * Read a whole-millisecond flag as Ticks. A value that is not a
     * non-negative integer, or whose Ticks would pass kMaxTick, is
     * fatal(), named as getCount() names it.
     */
    Tick getMsec(const std::string &key, std::uint64_t dflt_ms) const;

    /**
     * Parse argv-style options into this config.
     *
     * Recognises "--key=value", "--key value", and bare "--flag"
     * (stored as "true"). Positional arguments are returned, and
     * kept for rejectUnread(). Dashes in key names are normalised to
     * underscores.
     */
    std::vector<std::string> parseArgs(int argc, const char *const *argv);

    /** All keys with the given dotted prefix ("ssd." -> ssd.*). */
    std::vector<std::string> keysWithPrefix(const std::string &prefix)
        const;

    /** Number of entries. */
    std::size_t size() const { return values.size(); }

    /** Set keys that no getter has looked up yet, in key order. */
    std::vector<std::string> unreadKeys() const;

    /**
     * Fail through fatal() on every set key no getter has read, every
     * given key in @p unusable and every positional argument
     * parseArgs() saw, naming each one ("--runtim-ms, 'extra'"). A
     * command-line program calls it once it has read all its flags,
     * before it starts any work; @p program heads the message.
     */
    void rejectUnread(const std::string &program,
                      const std::vector<std::string> &unusable = {})
        const;

  private:
    std::map<std::string, std::string> values;
    /** Keys a getter has looked up, present or not. */
    mutable std::set<std::string> readKeys;
    /** Every positional argument parseArgs() has seen. */
    std::vector<std::string> positionalArgs;

    /** The value of @p key (nullptr when absent); marks it read. */
    const std::string *lookup(const std::string &key) const;
};

} // namespace afa::sim

#endif // AFA_SIM_CONFIG_HH
