// Two cross-system property tests:
//
// 1. Vocabulary independence is EXACT at finite N when the subvocabularies
//    share nothing: worlds factor into independent interpretations, so
//    Pr_N(φ1 ∧ φ2 | KB1 ∧ KB2) = Pr_N(φ1|KB1) · Pr_N(φ2|KB2) identically
//    (Theorem 5.27's proof idea, before any limits).
//
// 2. Adams soundness through Theorem 6.1: every p-entailed propositional
//    rule is an ME-plausible consequence, hence its random-worlds
//    translation gets degree of belief ≈ 1 at large N and small τ.
#include <random>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/defaults/epsilon_semantics.h"
#include "src/defaults/gmp90.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwl {
namespace {

// Renames generator symbols P<i> → <prefix>P<i>, K<i> → <prefix>K<i> so two
// generated KBs occupy disjoint vocabularies.
logic::FormulaPtr PrefixSymbols(const logic::FormulaPtr& f,
                                const std::string& prefix);

logic::TermPtr PrefixTerm(const logic::TermPtr& t,
                          const std::string& prefix) {
  if (t->is_variable()) return t;
  std::vector<logic::TermPtr> args;
  for (const auto& a : t->args()) args.push_back(PrefixTerm(a, prefix));
  return logic::Term::Apply(prefix + t->name(), std::move(args));
}

logic::ExprPtr PrefixExpr(const logic::ExprPtr& e,
                          const std::string& prefix) {
  if (e == nullptr) return e;
  using logic::Expr;
  switch (e->kind()) {
    case Expr::Kind::kConstant:
      return e;
    case Expr::Kind::kProportion:
      return Expr::Proportion(PrefixSymbols(e->body(), prefix), e->vars());
    case Expr::Kind::kConditional:
      return Expr::Conditional(PrefixSymbols(e->body(), prefix),
                               PrefixSymbols(e->cond(), prefix), e->vars());
    case Expr::Kind::kAdd:
      return Expr::Add(PrefixExpr(e->lhs(), prefix),
                       PrefixExpr(e->rhs(), prefix));
    case Expr::Kind::kSub:
      return Expr::Sub(PrefixExpr(e->lhs(), prefix),
                       PrefixExpr(e->rhs(), prefix));
    case Expr::Kind::kMul:
      return Expr::Mul(PrefixExpr(e->lhs(), prefix),
                       PrefixExpr(e->rhs(), prefix));
  }
  return e;
}

logic::FormulaPtr PrefixSymbols(const logic::FormulaPtr& f,
                                const std::string& prefix) {
  using logic::Formula;
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return f;
    case Formula::Kind::kAtom: {
      std::vector<logic::TermPtr> args;
      for (const auto& t : f->terms()) args.push_back(PrefixTerm(t, prefix));
      return Formula::Atom(prefix + f->predicate(), std::move(args));
    }
    case Formula::Kind::kEqual:
      return Formula::Equal(PrefixTerm(f->terms()[0], prefix),
                            PrefixTerm(f->terms()[1], prefix));
    case Formula::Kind::kNot:
      return Formula::Not(PrefixSymbols(f->body(), prefix));
    case Formula::Kind::kAnd:
      return Formula::And(PrefixSymbols(f->left(), prefix),
                          PrefixSymbols(f->right(), prefix));
    case Formula::Kind::kOr:
      return Formula::Or(PrefixSymbols(f->left(), prefix),
                         PrefixSymbols(f->right(), prefix));
    case Formula::Kind::kImplies:
      return Formula::Implies(PrefixSymbols(f->left(), prefix),
                              PrefixSymbols(f->right(), prefix));
    case Formula::Kind::kIff:
      return Formula::Iff(PrefixSymbols(f->left(), prefix),
                          PrefixSymbols(f->right(), prefix));
    case Formula::Kind::kForAll:
      return Formula::ForAll(f->var(), PrefixSymbols(f->body(), prefix));
    case Formula::Kind::kExists:
      return Formula::Exists(f->var(), PrefixSymbols(f->body(), prefix));
    case Formula::Kind::kCompare:
      return Formula::Compare(PrefixExpr(f->expr_left(), prefix),
                              f->compare_op(),
                              PrefixExpr(f->expr_right(), prefix),
                              f->tolerance_index());
  }
  return f;
}

TEST(IndependenceProperty, ExactFactorizationAtFiniteN) {
  std::mt19937 rng(60601);
  engines::ProfileEngine engine;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.2);
  workload::UnaryKbParams params;
  params.num_predicates = 2;
  params.num_constants = 1;
  params.num_statements = 1;
  params.num_facts = 1;

  int compared = 0;
  for (int trial = 0; trial < 30; ++trial) {
    logic::FormulaPtr kb1 =
        PrefixSymbols(workload::RandomUnaryKb(params, &rng), "L");
    logic::FormulaPtr kb2 =
        PrefixSymbols(workload::RandomUnaryKb(params, &rng), "R");
    logic::FormulaPtr q1 =
        PrefixSymbols(workload::RandomQuery(params, &rng), "L");
    logic::FormulaPtr q2 =
        PrefixSymbols(workload::RandomQuery(params, &rng), "R");

    logic::Vocabulary joint;
    for (const auto& f : {kb1, kb2, q1, q2}) {
      logic::RegisterSymbols(f, &joint);
    }
    const int n = 5;
    QueryContext ctx(joint, logic::Formula::And(kb1, kb2),
                     /*caching_enabled=*/false);
    auto pr_joint = engine.DegreeAt(ctx, logic::Formula::And(q1, q2), n, tol);
    if (!pr_joint.well_defined) continue;

    // Marginals computed over the SAME joint vocabulary (the degree of
    // belief is unaffected by vocabulary expansion — footnote 8).
    auto pr1 = engine.DegreeAt(ctx, q1, n, tol);
    auto pr2 = engine.DegreeAt(ctx, q2, n, tol);
    ASSERT_TRUE(pr1.well_defined && pr2.well_defined);
    ++compared;
    EXPECT_NEAR(pr_joint.probability, pr1.probability * pr2.probability,
                1e-9)
        << "KB1: " << logic::ToString(kb1)
        << "\nKB2: " << logic::ToString(kb2)
        << "\nq1: " << logic::ToString(q1)
        << "\nq2: " << logic::ToString(q2);
  }
  EXPECT_GE(compared, 8);
}

TEST(AdamsSoundness, PEntailedRulesGetDegreeOne) {
  // p-entailment is the weakest of the probabilistic default systems; its
  // consequences must survive in random worlds (ε-entailment ⊆
  // ME-plausible = random worlds on the Theorem 6.1 translation).
  std::mt19937 rng(70707);
  engines::ProfileEngine engine;
  const int num_vars = 3;
  std::vector<std::string> names = {"Q0", "Q1", "Q2"};

  int checked = 0;
  for (int trial = 0; trial < 25 && checked < 8; ++trial) {
    std::vector<defaults::Rule> rules =
        workload::RandomRuleSet(num_vars, 2, &rng);
    if (!defaults::EpsilonConsistent(rules, num_vars)) continue;
    // Query each rule itself: trivially p-entailed.
    for (const auto& rule : rules) {
      if (!defaults::PEntails(rules, rule, num_vars)) continue;
      defaults::Gmp90System system(num_vars, rules);
      defaults::RwEmbedding embedding =
          defaults::TranslateQuery(system, rule, names);
      logic::Vocabulary vocab = embedding.kb.vocabulary();
      logic::RegisterSymbols(embedding.query, &vocab);
      QueryContext ctx(vocab, embedding.kb.AsFormula(),
                       /*caching_enabled=*/false);
      auto r = engine.DegreeAt(ctx, embedding.query, 16,
                               semantics::ToleranceVector::Uniform(0.04));
      if (!r.well_defined) continue;
      ++checked;
      EXPECT_GT(r.probability, 0.85)
          << "rule with antecedent "
          << defaults::PropToString(rule.antecedent, names);
    }
  }
  EXPECT_GE(checked, 5);
}

}  // namespace
}  // namespace rwl
