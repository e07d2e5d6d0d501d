// The lottery paradox (Section 5.5): a probabilistic default reasoner can
// hold "this ticket will not win" for every ticket AND "some ticket wins"
// without contradiction.
#include <cstdio>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"

int main() {
  using namespace rwl::logic;  // NOLINT(build/namespaces) — example code

  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");

  // Exactly one winner; winners hold tickets; Eric holds a ticket.
  FormulaPtr kb = Formula::AndAll({
      ExistsUnique("w", P("Winner", V("w"))),
      Formula::ForAll("x", Formula::Implies(P("Winner", V("x")),
                                            P("Ticket", V("x")))),
      P("Ticket", C("Eric")),
  });

  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);

  std::printf("Known lottery size K (domain N = 8):\n");
  for (int k : {2, 3, 4, 5}) {
    FormulaPtr sized =
        Formula::And(kb, ExactlyN(k, "t", P("Ticket", V("t"))));
    rwl::QueryContext ctx(vocab, sized, /*caching_enabled=*/false);
    auto win = engine.DegreeAt(ctx, P("Winner", C("Eric")), 8, tol);
    std::printf("  K=%d: Pr(Eric wins) = %.4f  (= 1/K)\n", k,
                win.probability);
  }

  std::printf("\n\"Large\" lottery (no size information):\n");
  rwl::QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (int n : {8, 16, 32, 64}) {
    auto win = engine.DegreeAt(ctx, P("Winner", C("Eric")), n, tol);
    auto someone = engine.DegreeAt(
        ctx, Formula::Exists("x", P("Winner", V("x"))), n, tol);
    std::printf("  N=%-3d Pr(Eric wins) = %.4f   Pr(someone wins) = %.0f\n",
                n, win.probability, someone.probability);
  }
  std::printf(
      "\nThe default conclusion \"Eric will not win\" coexists with the\n"
      "certainty that someone wins — the paradox dissolves in degrees of\n"
      "belief (Section 5.5).\n");
  return 0;
}
