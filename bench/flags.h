/**
 * @file
 * The one command-line reader of every bench harness.
 *
 * `Flags flags(prog, usage, argc, argv)` answers `--help` with the usage
 * line (exit 0). Each query (`has`, `str`, `u64`, `real`) consumes the
 * flag it names; the last occurrence wins. `done()` then returns the
 * positional arguments in order and refuses anything left over. A number
 * must be the whole argument: a count is unsigned (decimal, `0x` hex or
 * `0` octal) and in range, a duration finite and non-negative. A refusal
 * names the flag and the value, prints the usage line and exits 2.
 */

#ifndef CHERIOT_BENCH_FLAGS_H
#define CHERIOT_BENCH_FLAGS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace cheriot::bench
{

class Flags
{
  public:
    Flags(const char *prog, const char *usage, int argc, char **argv)
        : prog_(prog), usage_(usage),
          args_(argc > 0 ? argv + 1 : argv, argv + argc),
          used_(args_.size(), false)
    {
        if (has("--help")) {
            std::printf("usage: %s %s\n", prog_, usage_);
            std::exit(0);
        }
    }

    /** True iff the switch @p name was given. */
    bool has(const char *name) { return take(name, false).has_value(); }

    /** The value after @p name, or @p fallback when it is absent. */
    std::string str(const char *name, std::string fallback = "")
    {
        return take(name, true).value_or(std::move(fallback));
    }

    /** The count after @p name, in [@p min, @p max]. */
    uint64_t u64(const char *name, uint64_t fallback, uint64_t min = 0,
                 uint64_t max = UINT64_MAX)
    {
        const std::optional<std::string> text = take(name, true);
        return text ? parse(*text, name, min, max) : fallback;
    }

    /** The duration after @p name. */
    double real(const char *name, double fallback)
    {
        const std::optional<std::string> text = take(name, true);
        return text ? parse<double>(*text, name) : fallback;
    }

    /** The positional arguments, in order. Refuses an unconsumed flag
     * and fewer than @p min or more than @p max positionals. */
    std::vector<std::string> done(size_t max = 0, size_t min = 0) const
    {
        std::vector<std::string> positional;
        for (size_t i = 0; i < args_.size(); ++i) {
            if (used_[i]) {
                continue;
            }
            if (args_[i].size() > 1 && args_[i][0] == '-') {
                refuse("unknown flag '" + args_[i] + "'");
            }
            if (positional.size() == max) {
                refuse("unexpected argument '" + args_[i] + "'");
            }
            positional.push_back(args_[i]);
        }
        if (positional.size() < min) {
            refuse("missing an argument");
        }
        return positional;
    }

    /** @p text, the value of @p what, as a T in [@p min, @p max]: an
     * unsigned integer, or a finite non-negative double. */
    template <class T = uint64_t>
    T parse(const std::string &text, const char *what,
            std::type_identity_t<T> min = 0,
            std::type_identity_t<T> max = std::numeric_limits<T>::max()) const
    {
        static_assert(std::is_same_v<T, uint64_t> || std::is_same_v<T, double>);
        char *end = nullptr;
        errno = 0;
        T number;
        if constexpr (std::is_floating_point_v<T>) {
            number = std::strtod(text.c_str(), &end);
        } else {
            number = std::strtoull(text.c_str(), &end, 0);
        }
        if (!(std::isdigit(static_cast<unsigned char>(text[0])) ||
              text[0] == '.') ||
            *end != '\0' || errno == ERANGE || !(number >= min) ||
            number > max) {
            std::string want = "a non-negative number";
            if constexpr (std::is_integral_v<T>) {
                want = "an integer in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]";
            }
            refuse("bad value for " + std::string(what) + ": '" + text +
                   "' (want " + want + ")");
        }
        return number;
    }

    /** Print @p why and the usage line to stderr, then exit 2. */
    [[noreturn]] void refuse(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\nusage: %s %s\n", prog_, why.c_str(),
                     prog_, usage_);
        std::exit(2);
    }

  private:
    /** Consume every occurrence of @p name (and, @p withValue, the
     * argument after it); the last value, or "" for a switch. */
    std::optional<std::string> take(const char *name, bool withValue)
    {
        std::optional<std::string> found;
        for (size_t i = 0; i < args_.size(); ++i) {
            if (used_[i] || args_[i] != name) {
                continue;
            }
            used_[i] = true;
            found = "";
            if (withValue) {
                if (i + 1 == args_.size()) {
                    refuse(std::string(name) + " needs a value");
                }
                used_[++i] = true;
                found = args_[i];
            }
        }
        return found;
    }

    const char *prog_;
    const char *usage_;
    std::vector<std::string> args_;
    std::vector<bool> used_;
};

} // namespace cheriot::bench

#endif // CHERIOT_BENCH_FLAGS_H
