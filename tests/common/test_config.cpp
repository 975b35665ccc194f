#include "common/config.hpp"

#include <gtest/gtest.h>

namespace ehpc {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValues) {
  Config c = parse({"repeats=20", "seed=7"});
  EXPECT_EQ(c.get_int("repeats", 0), 20);
  EXPECT_EQ(c.get_int("seed", 0), 7);
}

TEST(Config, PositionalArgsCollected) {
  Config c = parse({"elastic", "gap=90", "run"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "elastic");
  EXPECT_EQ(c.positional()[1], "run");
}

TEST(Config, FallbacksWhenMissing) {
  Config c = parse({});
  EXPECT_EQ(c.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("y", 1.5), 1.5);
  EXPECT_EQ(c.get_or("z", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("flag", true));
  EXPECT_FALSE(c.get("missing").has_value());
}

TEST(Config, BoolParsing) {
  Config c = parse({"a=true", "b=0", "c=YES", "d=off"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, BoolAcceptsEverySpelling) {
  Config c = parse({"a=1", "b=on", "c=Yes", "d=0", "e=no", "f=OFF", "--g"});
  for (const char* key : {"a", "b", "c", "g"}) {
    EXPECT_TRUE(c.get_bool(key, false)) << key;
  }
  for (const char* key : {"d", "e", "f"}) {
    EXPECT_FALSE(c.get_bool(key, true)) << key;
  }
}

TEST(Config, MalformedTypedValuesThrowNamingKeyAndValue) {
  Config c = parse({"i=16x", "j=", "k=99999999999", "x=abc", "y=", "z=2.5q",
                    "w=1e999", "b=maybe", "e="});
  auto expect_rejected = [&](const std::string& key, auto get) {
    try {
      get(key);
      ADD_FAILURE() << key << " was accepted";
    } catch (const ConfigError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + *c.get(key) + "'"), std::string::npos)
          << what;
    }
  };
  for (const char* key : {"i", "j", "k", "x", "y", "z", "b", "e"}) {
    expect_rejected(key, [&](const std::string& k) { c.get_int(k, 0); });
  }
  for (const char* key : {"x", "y", "z", "w", "b", "e"}) {
    expect_rejected(key, [&](const std::string& k) { c.get_double(k, 0.0); });
  }
  for (const char* key : {"b", "e", "i", "x"}) {
    expect_rejected(key, [&](const std::string& k) { c.get_bool(k, false); });
  }
}

TEST(Config, IntAcceptsTheFullIntRange) {
  Config c = parse({"lo=-2147483648", "hi=2147483647", "neg=-3"});
  EXPECT_EQ(c.get_int("lo", 0), -2147483647 - 1);
  EXPECT_EQ(c.get_int("hi", 0), 2147483647);
  EXPECT_EQ(c.get_int("neg", 0), -3);
  EXPECT_THROW(parse({"big=2147483648"}).get_int("big", 0), ConfigError);
}

TEST(Config, DoubleParsing) {
  Config c = parse({"rate=2.5"});
  EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0), 2.5);
}

TEST(Config, LastValueWins) {
  Config c = parse({"k=1", "k=2"});
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, SetOverrides) {
  Config c = parse({"k=1"});
  c.set("k", "9");
  EXPECT_EQ(c.get_int("k", 0), 9);
  EXPECT_TRUE(c.has("k"));
}

TEST(Config, ValueWithEqualsSign) {
  Config c = parse({"expr=a=b"});
  EXPECT_EQ(c.get_or("expr", ""), "a=b");
}

TEST(Config, DashedFlagsNormalised) {
  Config c = parse({"--quick", "--out-dir=/tmp/x", "--rel-tol=0.1"});
  EXPECT_TRUE(c.get_bool("quick", false));
  EXPECT_EQ(c.get_or("out_dir", ""), "/tmp/x");
  EXPECT_DOUBLE_EQ(c.get_double("rel_tol", 0.0), 0.1);
  EXPECT_TRUE(c.positional().empty());
}

TEST(Config, BareDoubleDashStaysPositional) {
  Config c = parse({"--", "-x"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "--");
  EXPECT_EQ(c.positional()[1], "-x");
}

TEST(Config, StrictParseRejectsUnknownKey) {
  std::vector<const char*> argv{"prog", "seed=7", "repeets=3"};
  EXPECT_THROW(Config::from_args(static_cast<int>(argv.size()), argv.data(),
                                 {"seed", "repeats"}),
               ConfigError);
  try {
    Config::from_args(static_cast<int>(argv.size()), argv.data(),
                      {"seed", "repeats"});
  } catch (const ConfigError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("repeets"), std::string::npos);
    EXPECT_NE(what.find("repeats"), std::string::npos);
  }
}

TEST(Config, StrictParseAcceptsKnownKeys) {
  std::vector<const char*> argv{"prog", "seed=7", "positional_ok"};
  const Config c = Config::from_args(static_cast<int>(argv.size()),
                                     argv.data(), {"seed"});
  EXPECT_EQ(c.get_int("seed", 0), 7);
  ASSERT_EQ(c.positional().size(), 1u);
}

TEST(Config, RequireKnownOnEmptyAllowedList) {
  Config c = parse({"k=1"});
  EXPECT_THROW(c.require_known({}), ConfigError);
  EXPECT_NO_THROW(parse({}).require_known({}));
}

TEST(Config, ValuesExposesOrderedMap) {
  Config c = parse({"b=2", "a=1"});
  ASSERT_EQ(c.values().size(), 2u);
  EXPECT_EQ(c.values().begin()->first, "a");
}

}  // namespace
}  // namespace ehpc
