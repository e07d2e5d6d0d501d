// Parser robustness: malformed input must produce a ParseResult error —
// never a crash, hang, or silently wrong tree.  Includes a deterministic
// mutation fuzz over valid corpus strings.
#include <random>

#include <gtest/gtest.h>

#include "src/fixtures/paper_kbs.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"

namespace rwl::logic {
namespace {

TEST(ParserRobustness, MalformedInputsReportErrors) {
  const char* bad[] = {
      "",
      "(",
      ")",
      "Bird(",
      "Bird(x))",
      "Bird(x) &",
      "& Bird(x)",
      "forall",
      "forall x",
      "forall x.",
      "exists .",
      "#(Bird(x))",         // missing subscript
      "#(Bird(x))[",        // unclosed subscript
      "#(Bird(x))[x",       // unclosed subscript
      "#(Bird(x))[x] ~=",   // missing rhs
      "#(Bird(x))[x] ~=_0 1",  // bad tolerance index
      "#()[x] ~= 1",
      "#(Bird(x) ;)[x] ~= 1",
      "0.5",                // bare expression is not a formula
      "0.5 ~=",             // half a comparison
      "x",                  // variable as formula
      "x = ",               // half an equality
      "Bird(x) => ",        // dangling implication
      "!(",
      "Likes(x,)",
      "~= 0.5",
      "Bird(x) Bird(y)",    // missing connective
      "@#$%",
  };
  for (const char* text : bad) {
    ParseResult result = ParseFormula(text);
    EXPECT_FALSE(result.ok()) << "accepted: '" << text << "' as "
                              << (result.formula ? ToString(result.formula)
                                                 : "?");
    EXPECT_FALSE(result.error.empty());
  }
}

TEST(ParserRobustness, MutationFuzzNeverCrashes) {
  // Take the paper corpus, mutate characters and truncate randomly, and
  // require parse to terminate with either a tree or an error.
  std::mt19937 rng(20260613);
  std::vector<std::string> seeds;
  for (const auto& example : fixtures::AllPaperExamples()) {
    seeds.push_back(example.kb);
    seeds.push_back(example.query);
  }
  const char alphabet[] = "()[]#;.&|!=~<>xX0123456789 PQabz_";
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = seeds[rng() % seeds.size()];
    int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = rng() % text.size();
      switch (rng() % 3) {
        case 0:
          text[pos] = alphabet[rng() % (sizeof(alphabet) - 1)];
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, alphabet[rng() % (sizeof(alphabet) - 1)]);
          break;
      }
    }
    ParseResult result = ParseFormula(text);
    if (result.ok()) {
      ++parsed_ok;
      // Whatever parsed must round-trip through the printer.
      ParseResult again = ParseFormula(ToString(result.formula));
      EXPECT_TRUE(again.ok()) << ToString(result.formula);
    }
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 3000);
}

TEST(ParserRobustness, DeeplyNestedInputTerminates) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "!(";
  text += "Bird(x)";
  for (int i = 0; i < 200; ++i) text += ")";
  ParseResult result = ParseFormula(text);
  EXPECT_TRUE(result.ok());

  // 20,000 levels of any nesting construct (hostile input): a clean
  // error, not a stack overflow.
  for (const char* open :
       {"!", "(", "!(", "forall x. ", "F(", "P(x) => ", "(#(P(x) ; "}) {
    std::string deep;
    for (int i = 0; i < 20000; ++i) deep += open;
    ParseResult too_deep = ParseFormula(deep + "Jaun(Eric)");
    EXPECT_NE(too_deep.error.find("nests deeper"), std::string::npos)
        << open << ": " << too_deep.error;
  }
  // Each '(' is read as a formula, then as an expression: without a work
  // bound, 60 levels of "(#(" would take hours.
  std::string backtracking;
  for (int i = 0; i < 60; ++i) backtracking += "(#(";
  EXPECT_FALSE(ParseFormula(backtracking + "P(x)").ok());
  // Flat chains are loops, not nesting: 8,000 conjuncts still parse.
  std::string flat = "P(A0)";
  for (int i = 1; i < 8000; ++i) flat += " & P(A" + std::to_string(i) + ")";
  EXPECT_TRUE(ParseFormula(flat).ok());
}

TEST(ParserRobustness, OffsetsPointIntoTheInput) {
  ParseResult result = ParseFormula("Bird(x) & forall . Fly(x)");
  ASSERT_FALSE(result.ok());
  EXPECT_LE(result.error_offset, 25u);
}

}  // namespace
}  // namespace rwl::logic
