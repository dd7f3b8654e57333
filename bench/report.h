/**
 * @file
 * The one writer of every bench harness's `BENCH_*.json` report and of
 * the golden record's per-row lines. A harness describes each row once,
 * in `describe(const XRow &, Fields &)` with one `put()` per field; a
 * field is deterministic unless put with `host()` (wall-clock time).
 * Only this header knows JSON syntax, escaping and number format.
 */

#ifndef CHERIOT_BENCH_REPORT_H
#define CHERIOT_BENCH_REPORT_H

#include "snapshot/serializer.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cheriot::bench
{

/** A `SimStats::snapshot()`: counter name to value. */
using StatsMap = std::map<std::string, uint64_t>;

/** Sum @p add into @p into (same-named counters accumulate). */
inline void
mergeStats(StatsMap &into, const StatsMap &add)
{
    for (const auto &entry : add) {
        into[entry.first] += entry.second;
    }
}

/** @p text as a JSON string literal. */
inline std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + '"';
}

/** One JSON object under construction: named fields in put order. */
class Fields
{
  public:
    /** A number, bool, string, StatsMap, Fields, described row or vector. */
    template <class T>
    Fields &put(const char *name, const T &value)
    {
        auto [json, det] = render(value);
        entries_.push_back({name, std::move(json), std::move(det), false});
        return *this;
    }

    /** A host wall-clock measurement: reported, never pinned. */
    Fields &host(const char *name, double value)
    {
        entries_.push_back({name, render(value).first, "", true});
        return *this;
    }

    /** The fields of @p row, by its `describe(row, fields)`. */
    template <class Row>
    static Fields of(const Row &row)
    {
        Fields fields;
        describe(row, fields);
        return fields;
    }

    /** The object as one line of JSON, optionally without host fields. */
    std::string json(bool deterministicOnly = false) const
    {
        std::string out;
        for (const Entry &e : entries_) {
            if (!(deterministicOnly && e.host)) {
                out += (out.empty() ? "" : ", ") + jsonString(e.name) +
                       ": " + (deterministicOnly ? e.det : e.json);
            }
        }
        return "{" + out + "}";
    }

    /** `name=value` for each deterministic field, as `golden_digests`
     * pins it; a nested value appears as the CRC-32 of its JSON. */
    std::string deterministicLine() const
    {
        std::string line;
        for (const Entry &e : entries_) {
            if (e.host) {
                continue;
            }
            std::string value = e.det;
            if (value[0] == '[' || value[0] == '{') {
                const auto *bytes =
                    reinterpret_cast<const uint8_t *>(value.data());
                char crc[24];
                std::snprintf(crc, sizeof(crc), "crc32:%08x",
                              snapshot::crc32(bytes, value.size()));
                value = crc;
            }
            line += (line.empty() ? "" : " ") + e.name + "=" + value;
        }
        return line;
    }

  private:
    struct Entry
    {
        std::string name;
        std::string json; ///< The value as JSON,
        std::string det;  ///< and with nested host fields left out.
        bool host;
    };

    /** @p value as JSON, in full and with host fields left out. Doubles
     * take their shortest round-trip form; NaN and infinity, which JSON
     * cannot spell, become null. */
    template <class T>
    static std::pair<std::string, std::string> render(const T &value)
    {
        std::string text;
        if constexpr (std::is_same_v<T, bool>) {
            text = value ? "true" : "false";
        } else if constexpr (std::is_arithmetic_v<T>) {
            char buffer[32];
            text = std::string(
                buffer, std::to_chars(buffer, buffer + 32, value).ptr);
            if constexpr (std::is_floating_point_v<T>) {
                text = std::isfinite(value) ? text : "null";
            }
        } else if constexpr (std::is_convertible_v<T, std::string_view>) {
            text = jsonString(value);
        } else if constexpr (std::is_same_v<T, Fields>) {
            return {value.json(), value.json(true)};
        } else if constexpr (std::is_same_v<T, StatsMap>) {
            Fields counters;
            for (const auto &[name, count] : value) {
                counters.put(name.c_str(), count);
            }
            return render(counters);
        } else if constexpr (requires { value.size(); value[0]; }) {
            std::string json, det;
            for (size_t i = 0; i < value.size(); ++i) {
                const auto [itemJson, itemDet] = render(value[i]);
                json += (i == 0 ? "" : ", ") + itemJson;
                det += (i == 0 ? "" : ", ") + itemDet;
            }
            return {"[" + json + "]", "[" + det + "]"};
        } else {
            return render(of(value));
        }
        return {text, text};
    }

    std::vector<Entry> entries_;
};

/** A harness's rows, written as one `BENCH_*.json` file. */
struct Report
{
    std::string bench;
    std::vector<Fields> rows = {};

    /** Write `{"bench", "ok", "rows"}` to @p path, one row per line;
     * false, naming the path on stderr, unless all of it was written. */
    bool write(const std::string &path, bool ok) const
    {
        std::string text = "{\n  \"bench\": " + jsonString(bench) +
                           ",\n  \"ok\": " + (ok ? "true" : "false") +
                           ",\n  \"rows\": [";
        for (size_t i = 0; i < rows.size(); ++i) {
            text += (i == 0 ? "\n    " : ",\n    ") + rows[i].json();
        }
        text += "\n  ]\n}\n";

        std::FILE *out = std::fopen(path.c_str(), "w");
        const bool full =
            out != nullptr &&
            std::fwrite(text.data(), 1, text.size(), out) == text.size();
        if (out == nullptr || std::fclose(out) != 0 || !full) {
            std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(),
                         path.c_str());
            return false;
        }
        return true;
    }
};

} // namespace cheriot::bench

#endif // CHERIOT_BENCH_REPORT_H
