/**
 * @file
 * Unit tests for the s-expression reader/printer (the EDIF substrate).
 */

#include <gtest/gtest.h>

#include "qac/sexpr/sexpr.h"
#include "qac/util/logging.h"

namespace qac::sexpr {
namespace {

TEST(SExpr, ParseAtom)
{
    Node n = parse("hello");
    EXPECT_TRUE(n.isAtom());
    EXPECT_EQ(n.text(), "hello");
}

TEST(SExpr, ParseFlatList)
{
    Node n = parse("(a b c)");
    ASSERT_TRUE(n.isList());
    ASSERT_EQ(n.size(), 3u);
    EXPECT_EQ(n[0].text(), "a");
    EXPECT_EQ(n[2].text(), "c");
    EXPECT_EQ(n.head(), "a");
}

TEST(SExpr, ParseNested)
{
    Node n = parse("(a (b (c d)) e)");
    ASSERT_EQ(n.size(), 3u);
    ASSERT_TRUE(n[1].isList());
    EXPECT_EQ(n[1][1][0].text(), "c");
}

TEST(SExpr, ParseString)
{
    Node n = parse(R"((name "hello world"))");
    ASSERT_EQ(n.size(), 2u);
    EXPECT_TRUE(n[1].isString());
    EXPECT_EQ(n[1].text(), "hello world");
}

TEST(SExpr, StringEscapes)
{
    Node n = parse(R"(("a\"b\\c"))");
    EXPECT_EQ(n[0].text(), "a\"b\\c");
}

TEST(SExpr, EmptyList)
{
    Node n = parse("()");
    EXPECT_TRUE(n.isList());
    EXPECT_EQ(n.size(), 0u);
    EXPECT_EQ(n.head(), "");
}

TEST(SExpr, ParseAllTopLevel)
{
    auto v = parseAll("(a) (b c) atom");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_TRUE(v[2].isAtom());
}

TEST(SExpr, RoundTripCompact)
{
    const std::string src = "(edif top (version 2 0 0) (cell X))";
    Node n = parse(src);
    Node n2 = parse(n.toString(false));
    EXPECT_EQ(n, n2);
}

TEST(SExpr, RoundTripPretty)
{
    Node n = parse("(a (b \"s with space\") (c (d e f g h i j k)))");
    Node n2 = parse(n.toString(true));
    EXPECT_EQ(n, n2);
}

TEST(SExpr, UnbalancedOpenFails)
{
    EXPECT_THROW(parse("(a (b)"), FatalError);
}

TEST(SExpr, UnbalancedCloseFails)
{
    EXPECT_THROW(parse(")"), FatalError);
}

TEST(SExpr, TrailingGarbageFails)
{
    EXPECT_THROW(parse("(a) junk"), FatalError);
}

TEST(SExpr, UnterminatedStringFails)
{
    EXPECT_THROW(parse("(\"abc)"), FatalError);
}

TEST(SExpr, ErrorsReportLineAndColumn)
{
    try {
        parseAll("(a\n  b))");
        FAIL() << "expected a parse error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2, column 5"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SExpr, NestingWithinTheLimitParses)
{
    const size_t depth = 500;
    Node n = parse(std::string(depth, '(') + "x" + std::string(depth, ')'));
    for (size_t i = 1; i < depth; ++i)
        n = Node(n[0]);
    EXPECT_EQ(n[0].text(), "x");
}

// Hostile input: one million open parens would overflow the stack of a
// recursive-descent reader with no depth bound.
TEST(SExpr, DeepNestingFailsInsteadOfOverflowingTheStack)
{
    for (const std::string &src :
         {std::string(1000000, '('),
          std::string(1000000, '(') + std::string(1000000, ')')}) {
        try {
            parse(src);
            FAIL() << "expected a parse error";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("nested deeper"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SExpr, BuilderApi)
{
    Node n = Node::list({Node::atom("cell"), Node::atom("AND")});
    n.append(Node::string("note"));
    EXPECT_EQ(n.toString(false), "(cell AND \"note\")");
}

TEST(SExpr, TextOnListPanicsViaDeathTest)
{
    Node n = Node::list();
    EXPECT_DEATH((void)n.text(), "text");
}

} // namespace
} // namespace qac::sexpr
