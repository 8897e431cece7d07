/**
 * @file
 * A small typed key-value configuration store.
 *
 * Keys are dotted paths ("ssd.nand.read_us"). Values are stored as
 * strings and converted on access; accessors with defaults never fail,
 * required accessors call fatal() on missing keys or bad conversions
 * (a user error, per gem5 convention).
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

namespace afa::sim {

/** Typed view over a string-valued configuration tree. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, bool value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, std::uint64_t value);
    void set(const std::string &key, int value);
    void set(const std::string &key, double value);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** Remove a key; returns true if it existed. */
    bool erase(const std::string &key);

    /** Get with default. */
    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;

    /** Get a required key; calls fatal() when missing or malformed. */
    std::string requireString(const std::string &key) const;
    std::int64_t requireInt(const std::string &key) const;
    double requireDouble(const std::string &key) const;

    /**
     * Parse argv-style options into this config.
     *
     * Recognises "--key=value", "--key value", and bare "--flag"
     * (stored as "true"). Positional arguments are returned, and
     * kept for rejectUnread(). Dashes in key names are normalised to
     * underscores.
     */
    std::vector<std::string> parseArgs(int argc, const char *const *argv);

    /**
     * Merge another config into this one; @p other wins on conflicts.
     */
    void merge(const Config &other);

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

    /** Render as sorted "key = value" lines (for logs and reports). */
    std::string toString() const;

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
