// Learning from samples (Section 7.3): the random-worlds prior cannot
// transfer a sample statistic to unsampled individuals; the
// random-propensities variant (BGHK92) can — and also overlearns.  This
// example contrasts the two priors side by side.
#include <cstdio>

#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

int main() {
  using namespace rwl::logic;  // NOLINT(build/namespaces) — example code

  Vocabulary vocab;
  vocab.AddPredicate("Fly", 1);
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("S", 1);  // membership in the observed sample
  vocab.AddConstant("Tweety");

  // A field study: 90% of the sampled birds fly; the sample is sizable.
  // Tweety is a bird that was not in the sample.
  FormulaPtr kb = Formula::AndAll({
      ApproxEq(CondProp(P("Fly", V("x")),
                        Formula::And(P("Bird", V("x")), P("S", V("x"))),
                        {"x"}),
               0.9, 1),
      ApproxGeq(Prop(Formula::And(P("Bird", V("x")), P("S", V("x"))), {"x"}),
                0.2, 2),
      P("Bird", C("Tweety")),
      Formula::Not(P("S", C("Tweety"))),
  });
  FormulaPtr query = P("Fly", C("Tweety"));
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);

  rwl::engines::ProfileEngine random_worlds;
  rwl::engines::ProfileEngine::Options prop_options;
  prop_options.prior = rwl::engines::Prior::kRandomPropensities;
  rwl::engines::ProfileEngine propensities(prop_options);

  std::printf("90%% of sampled birds fly; Tweety was not sampled.\n");
  std::printf("Pr(Fly(Tweety)) by prior and domain size:\n");
  std::printf("  %-6s %-16s %-18s\n", "N", "random worlds",
              "random propensities");
  rwl::QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (int n : {12, 16, 24, 32}) {
    auto rw = random_worlds.DegreeAt(ctx, query, n, tol);
    auto rp = propensities.DegreeAt(ctx, query, n, tol);
    std::printf("  %-6d %-16.4f %-18.4f\n", n, rw.probability,
                rp.probability);
  }
  std::printf(
      "\nRandom worlds treats unsampled birds as an unrelated population\n"
      "(stays at 1/2); random propensities learned the flying propensity\n"
      "from the sample (approaches 0.9).  The paper discusses why neither\n"
      "behavior is fully satisfactory (Section 7.3).\n");
  return 0;
}
