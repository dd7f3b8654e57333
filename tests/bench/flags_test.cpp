/**
 * @file
 * Tests for the bench command-line reader: whole-argument numbers,
 * refusals with exit status 2, --help with exit status 0, and
 * positional arguments.
 */

#include "flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace cheriot::bench
{
namespace
{

/** Flags over `prog` followed by @p args. */
class Argv
{
  public:
    Argv(std::initializer_list<const char *> args) : storage_{"prog"}
    {
        storage_.insert(storage_.end(), args.begin(), args.end());
        for (std::string &arg : storage_) {
            pointers_.push_back(arg.data());
        }
    }

    Flags flags()
    {
        return Flags("prog", "[--n N] [--s S] [--on] [ARG...]",
                     static_cast<int>(pointers_.size()), pointers_.data());
    }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> pointers_;
};

TEST(BenchFlags, ReadsValuesSwitchesAndDefaults)
{
    Argv argv{"--n", "3", "--on", "--s", "text", "--t", "2.5",
              "--seed", "0x57d8a935b079de99", "--n", "0x10"};
    Flags flags = argv.flags();
    EXPECT_EQ(flags.u64("--n", 1), 16u);
    EXPECT_EQ(flags.u64("--seed", 0), 0x57d8a935b079de99u);
    EXPECT_EQ(flags.u64("--absent", 7), 7u);
    EXPECT_TRUE(flags.has("--on"));
    EXPECT_FALSE(flags.has("--off"));
    EXPECT_EQ(flags.str("--s"), "text");
    EXPECT_DOUBLE_EQ(flags.real("--t", 0.0), 2.5);
    EXPECT_TRUE(flags.done().empty());
}

TEST(BenchFlags, PositionalArgumentsComeBackInOrder)
{
    Argv argv{"first", "--n", "3", "second", "third"};
    Flags flags = argv.flags();
    EXPECT_EQ(flags.u64("--n", 0), 3u);
    EXPECT_EQ(flags.done(3),
              (std::vector<std::string>{"first", "second", "third"}));
}

TEST(BenchFlags, RefusesTrailingGarbage)
{
    Argv argv{"--n", "12x"};
    EXPECT_EXIT(argv.flags().u64("--n", 0),
                ::testing::ExitedWithCode(2), "bad value for --n: '12x'");
}

TEST(BenchFlags, RefusesANegativeCount)
{
    Argv argv{"--n", "-5"};
    EXPECT_EXIT(argv.flags().u64("--n", 0),
                ::testing::ExitedWithCode(2), "bad value for --n: '-5'");
}

TEST(BenchFlags, RefusesAMissingValue)
{
    Argv argv{"--n"};
    EXPECT_EXIT(argv.flags().u64("--n", 0),
                ::testing::ExitedWithCode(2), "--n needs a value");
}

TEST(BenchFlags, RefusesAnUnknownFlag)
{
    Argv argv{"--bogus"};
    EXPECT_EXIT(argv.flags().done(), ::testing::ExitedWithCode(2),
                "unknown flag '--bogus'");
}

TEST(BenchFlags, RefusesOutOfRangeAndSurplusArguments)
{
    Argv zero{"0"};
    EXPECT_EXIT(zero.flags().parse("0", "N", 1, 10),
                ::testing::ExitedWithCode(2), "bad value for N: '0'");
    Argv extra{"a", "b"};
    EXPECT_EXIT(extra.flags().done(1), ::testing::ExitedWithCode(2),
                "unexpected argument 'b'");
    Argv none{};
    EXPECT_EXIT(none.flags().done(1, 1), ::testing::ExitedWithCode(2),
                "missing an argument");
    Argv real{"--t", "nan"};
    EXPECT_EXIT(real.flags().real("--t", 0.0),
                ::testing::ExitedWithCode(2), "bad value for --t: 'nan'");
}

TEST(BenchFlags, HelpPrintsUsageAndExitsZero)
{
    Argv argv{"--n", "1", "--help"};
    EXPECT_EXIT(
        {
            argv.flags();
            std::exit(1);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace cheriot::bench
