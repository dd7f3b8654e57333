/**
 * @file
 * Tests for the bench report writer: JSON escaping and number format,
 * field order, nesting, the host/deterministic split that the golden
 * record relies on, and write failures.
 */

#include "report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

namespace cheriot::bench
{
namespace
{

struct Inner
{
    uint32_t id = 0;
    double seconds = 0.0;
};

void
describe(const Inner &inner, Fields &f)
{
    f.put("id", inner.id).host("host_seconds", inner.seconds);
}

struct Outer
{
    std::string name = "row";
    uint64_t count = 1;
    double hostRate = 0.5;
    std::vector<Inner> inner = {{1, 0.25}, {2, 0.75}};
    StatsMap stats = {{"a.x", 3}, {"a.y", 4}};
};

void
describe(const Outer &o, Fields &f)
{
    f.put("name", o.name)
        .put("count", o.count)
        .host("packets_per_sec", o.hostRate)
        .put("inner", o.inner)
        .put("stats", o.stats);
}

TEST(BenchReport, EscapesStrings)
{
    Fields f;
    f.put("s", std::string("q\"b\\n\nt\tc\x01"));
    EXPECT_EQ(f.json(), R"({"s": "q\"b\\n\u000at\u0009c\u0001"})");
}

TEST(BenchReport, NonFiniteDoublesAreNull)
{
    Fields f;
    f.put("nan", std::numeric_limits<double>::quiet_NaN())
        .put("inf", std::numeric_limits<double>::infinity())
        .put("ninf", -std::numeric_limits<double>::infinity());
    EXPECT_EQ(f.json(), R"({"nan": null, "inf": null, "ninf": null})");
}

TEST(BenchReport, NumbersAreExactAndShortest)
{
    Fields f;
    f.put("neg", int64_t{-16})
        .put("min", std::numeric_limits<int64_t>::min())
        .put("max", std::numeric_limits<uint64_t>::max())
        .put("tenth", 0.1)
        .put("whole", 64.0)
        .put("yes", true);
    EXPECT_EQ(f.json(),
              R"({"neg": -16, "min": -9223372036854775808, )"
              R"("max": 18446744073709551615, "tenth": 0.1, )"
              R"("whole": 64, "yes": true})");
}

TEST(BenchReport, FieldOrderAndNestedRows)
{
    EXPECT_EQ(Fields::of(Outer{}).json(),
              R"({"name": "row", "count": 1, "packets_per_sec": 0.5, )"
              R"("inner": [{"id": 1, "host_seconds": 0.25}, )"
              R"({"id": 2, "host_seconds": 0.75}], )"
              R"("stats": {"a.x": 3, "a.y": 4}})");
}

TEST(BenchReport, DeterministicLineOmitsHostFields)
{
    const std::string line = Fields::of(Outer{}).deterministicLine();
    EXPECT_EQ(line.rfind("name=\"row\" count=1 inner=crc32:", 0), 0u)
        << line;
    EXPECT_EQ(line.find("packets_per_sec"), std::string::npos) << line;

    // Host values, nested ones included, never move the line.
    Outer other;
    other.hostRate = 99.0;
    other.inner[1].seconds = 12.0;
    EXPECT_EQ(Fields::of(other).deterministicLine(), line);
}

TEST(BenchReport, DeterministicLineSeesEveryDeterministicField)
{
    const std::string base = Fields::of(Outer{}).deterministicLine();
    std::vector<Outer> variants(4);
    variants[0].name = "other";
    variants[1].count = 2;
    variants[2].inner[1].id = 3;
    variants[3].stats["a.y"] = 5;
    for (const Outer &variant : variants) {
        EXPECT_NE(Fields::of(variant).deterministicLine(), base);
    }
}

TEST(BenchReport, WritesRowsAndRefusesAnUnwritablePath)
{
    Report report{"unit"};
    report.rows.push_back(Fields::of(Inner{7, 1.5}));
    report.rows.emplace_back().put("k", "v");

    const std::string path =
        ::testing::TempDir() + "report_test_" +
        std::to_string(static_cast<int>(getpid())) + ".json";
    ASSERT_TRUE(report.write(path, true));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_EQ(text, "{\n  \"bench\": \"unit\",\n  \"ok\": true,\n"
                    "  \"rows\": [\n"
                    "    {\"id\": 7, \"host_seconds\": 1.5},\n"
                    "    {\"k\": \"v\"}\n  ]\n}\n");

    EXPECT_FALSE(report.write(
        ::testing::TempDir() + "no-such-dir/report.json", true));
}

} // namespace
} // namespace cheriot::bench
