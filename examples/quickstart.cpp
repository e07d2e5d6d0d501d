// Quickstart: build a knowledge base, ask for degrees of belief.
//
//   $ example_quickstart
//
// Shows the two ways to construct a KB (textual syntax and the builder
// DSL) and the anatomy of an Answer.
#include <cstdio>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/logic/builder.h"

int main() {
  using namespace rwl;            // NOLINT(build/namespaces) — example code
  using namespace rwl::logic;     // NOLINT(build/namespaces)

  // --- 1. A knowledge base in the textual syntax -------------------------
  //
  // "80% of patients with jaundice have hepatitis; Eric has jaundice."
  KnowledgeBase kb;
  std::string error;
  if (!kb.AddParsed("Jaun(Eric)\n"
                    "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
                    &error)) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }

  Answer answer = DegreeOfBelief(kb, "Hep(Eric)");
  std::printf("Pr(Hep(Eric) | KB) = %.3f   (method: %s)\n", answer.value,
              answer.method.c_str());

  // --- 2. The same KB through the builder DSL ----------------------------
  KnowledgeBase kb2;
  kb2.Add(P("Jaun", C("Eric")));
  kb2.Add(ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                   0.8));
  Answer answer2 = DegreeOfBelief(kb2, P("Hep", C("Eric")));
  std::printf("same via DSL        = %.3f\n", answer2.value);

  // --- 3. Defaults: "birds typically fly" --------------------------------
  KnowledgeBase birds;
  birds.Add(Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}));
  birds.Add(P("Bird", C("Tweety")));
  Answer fly = DegreeOfBelief(birds, "Fly(Tweety)");
  std::printf("Pr(Fly(Tweety))     = %.3f   (defaults get degree 1)\n",
              fly.value);

  // --- 4. Answers can be intervals or fail gracefully --------------------
  KnowledgeBase chirps;
  chirps.AddParsed(
      "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
      "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
      "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
      "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
      "forall x. (Magpie(x) => Bird(x))\n"
      "Magpie(Tweety)\n");
  InferenceOptions symbolic_only;
  symbolic_only.strategies.Remove("profile").Remove("maxent").Remove("exact");
  Answer interval = DegreeOfBelief(chirps, "Chirps(Tweety)", symbolic_only);
  std::printf("Pr(Chirps(Tweety))  in [%.2f, %.2f]  (%s)\n", interval.lo,
              interval.hi, interval.method.c_str());
  return 0;
}
