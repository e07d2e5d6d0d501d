#include "src/engines/symbolic_engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "src/core/query_context.h"
#include "src/evidence/dempster.h"
#include "src/logic/classalg.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"

namespace rwl::engines {
namespace {

using logic::AtomSet;
using logic::ClassUniverse;
using logic::CompareOp;
using logic::Expr;
using logic::ExprPtr;
using logic::Formula;
using logic::FormulaPtr;
using logic::Term;
using logic::TermPtr;

// ---------------------------------------------------------------------------
// Statistical-conjunct parsing.
// ---------------------------------------------------------------------------

// One comparison conjunct normalized to bounds on a proportion expression.
struct RawBound {
  ExprPtr expr;
  bool has_lo = false;
  bool has_hi = false;
  double lo = 0.0;
  double hi = 1.0;
  int tolerance = 1;
};

std::optional<RawBound> ParseBound(const FormulaPtr& conjunct) {
  if (conjunct->kind() != Formula::Kind::kCompare) return std::nullopt;
  ExprPtr prop = conjunct->expr_left();
  ExprPtr constant = conjunct->expr_right();
  CompareOp op = conjunct->compare_op();
  bool flipped = false;
  if (prop->kind() == Expr::Kind::kConstant) {
    std::swap(prop, constant);
    flipped = true;
  }
  if (constant->kind() != Expr::Kind::kConstant) return std::nullopt;
  if (prop->kind() != Expr::Kind::kProportion &&
      prop->kind() != Expr::Kind::kConditional) {
    return std::nullopt;
  }
  RawBound out;
  out.expr = prop;
  out.tolerance = conjunct->tolerance_index();
  double v = constant->value();
  // Normalize "v op prop" to "prop op' v".
  if (flipped) {
    switch (op) {
      case CompareOp::kApproxLeq: op = CompareOp::kApproxGeq; break;
      case CompareOp::kApproxGeq: op = CompareOp::kApproxLeq; break;
      case CompareOp::kLeq: op = CompareOp::kGeq; break;
      case CompareOp::kGeq: op = CompareOp::kLeq; break;
      default: break;
    }
  }
  switch (op) {
    case CompareOp::kApproxEq:
    case CompareOp::kEq:
      out.has_lo = out.has_hi = true;
      out.lo = out.hi = v;
      break;
    case CompareOp::kApproxLeq:
    case CompareOp::kLeq:
      out.has_hi = true;
      out.hi = v;
      break;
    case CompareOp::kApproxGeq:
    case CompareOp::kGeq:
      out.has_lo = true;
      out.lo = v;
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pattern matching: formula-with-variables against a ground instance, where
// the designated variables must be matched by constant terms.
// ---------------------------------------------------------------------------

using VarBinding = std::map<std::string, TermPtr>;

bool MatchTerm(const TermPtr& pattern, const TermPtr& instance,
               const std::set<std::string>& wildcards, VarBinding* binding);
bool MatchFormula(const FormulaPtr& pattern, const FormulaPtr& instance,
                  std::set<std::string> wildcards, VarBinding* binding);

bool MatchTerm(const TermPtr& pattern, const TermPtr& instance,
               const std::set<std::string>& wildcards, VarBinding* binding) {
  if (pattern->is_variable() && wildcards.count(pattern->name()) > 0) {
    if (!instance->is_constant()) return false;
    auto it = binding->find(pattern->name());
    if (it != binding->end()) return Term::Equal(it->second, instance);
    (*binding)[pattern->name()] = instance;
    return true;
  }
  if (pattern->kind() != instance->kind()) return false;
  if (pattern->name() != instance->name()) return false;
  if (pattern->args().size() != instance->args().size()) return false;
  for (size_t i = 0; i < pattern->args().size(); ++i) {
    if (!MatchTerm(pattern->args()[i], instance->args()[i], wildcards,
                   binding)) {
      return false;
    }
  }
  return true;
}

bool MatchExpr(const ExprPtr& pattern, const ExprPtr& instance,
               std::set<std::string> wildcards, VarBinding* binding) {
  if ((pattern == nullptr) != (instance == nullptr)) return false;
  if (pattern == nullptr) return true;
  if (pattern->kind() != instance->kind()) return false;
  switch (pattern->kind()) {
    case Expr::Kind::kConstant:
      return pattern->value() == instance->value();
    case Expr::Kind::kProportion:
    case Expr::Kind::kConditional: {
      if (pattern->vars() != instance->vars()) return false;
      std::set<std::string> inner = wildcards;
      for (const auto& v : pattern->vars()) inner.erase(v);
      if (!MatchFormula(pattern->body(), instance->body(), inner, binding)) {
        return false;
      }
      if (pattern->kind() == Expr::Kind::kConditional) {
        return MatchFormula(pattern->cond(), instance->cond(), inner, binding);
      }
      return true;
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
      return MatchExpr(pattern->lhs(), instance->lhs(), wildcards, binding) &&
             MatchExpr(pattern->rhs(), instance->rhs(), wildcards, binding);
  }
  return false;
}

bool MatchFormula(const FormulaPtr& pattern, const FormulaPtr& instance,
                  std::set<std::string> wildcards, VarBinding* binding) {
  if (pattern->kind() != instance->kind()) return false;
  switch (pattern->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return true;
    case Formula::Kind::kAtom:
      if (pattern->predicate() != instance->predicate()) return false;
      if (pattern->terms().size() != instance->terms().size()) return false;
      for (size_t i = 0; i < pattern->terms().size(); ++i) {
        if (!MatchTerm(pattern->terms()[i], instance->terms()[i], wildcards,
                       binding)) {
          return false;
        }
      }
      return true;
    case Formula::Kind::kEqual:
      return MatchTerm(pattern->terms()[0], instance->terms()[0], wildcards,
                       binding) &&
             MatchTerm(pattern->terms()[1], instance->terms()[1], wildcards,
                       binding);
    case Formula::Kind::kNot:
      return MatchFormula(pattern->body(), instance->body(), wildcards,
                          binding);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff:
      return MatchFormula(pattern->left(), instance->left(), wildcards,
                          binding) &&
             MatchFormula(pattern->right(), instance->right(), wildcards,
                          binding);
    case Formula::Kind::kForAll:
    case Formula::Kind::kExists: {
      if (pattern->var() != instance->var()) return false;
      std::set<std::string> inner = wildcards;
      inner.erase(pattern->var());
      return MatchFormula(pattern->body(), instance->body(), inner, binding);
    }
    case Formula::Kind::kCompare:
      if (pattern->compare_op() != instance->compare_op()) return false;
      if (pattern->tolerance_index() != instance->tolerance_index()) {
        return false;
      }
      return MatchExpr(pattern->expr_left(), instance->expr_left(), wildcards,
                       binding) &&
             MatchExpr(pattern->expr_right(), instance->expr_right(),
                       wildcards, binding);
  }
  return false;
}

// Matches `pattern` (free vars `vars` standing for constants) against
// `instance`; all vars must end up bound.
std::optional<VarBinding> MatchToConstants(
    const FormulaPtr& pattern, const FormulaPtr& instance,
    const std::vector<std::string>& vars) {
  VarBinding binding;
  std::set<std::string> wildcards(vars.begin(), vars.end());
  if (!MatchFormula(pattern, instance, wildcards, &binding)) {
    return std::nullopt;
  }
  for (const auto& v : vars) {
    if (binding.find(v) == binding.end()) return std::nullopt;
  }
  return binding;
}

// Predicate name → arity for every atom occurring in f.
void CollectPredicateArities(const FormulaPtr& f,
                             std::map<std::string, int>* out) {
  if (f == nullptr) return;
  if (f->kind() == Formula::Kind::kAtom) {
    (*out)[f->predicate()] = static_cast<int>(f->terms().size());
  }
  CollectPredicateArities(f->left(), out);
  CollectPredicateArities(f->right(), out);
  for (const ExprPtr& e : {f->expr_left(), f->expr_right()}) {
    if (e == nullptr) continue;
    CollectPredicateArities(e->body(), out);
    CollectPredicateArities(e->cond(), out);
    if (e->lhs() != nullptr) {
      // Arithmetic nodes: recurse through nested proportions.
      std::vector<ExprPtr> stack = {e->lhs(), e->rhs()};
      while (!stack.empty()) {
        ExprPtr cur = stack.back();
        stack.pop_back();
        if (cur == nullptr) continue;
        CollectPredicateArities(cur->body(), out);
        CollectPredicateArities(cur->cond(), out);
        if (cur->lhs() != nullptr) stack.push_back(cur->lhs());
        if (cur->rhs() != nullptr) stack.push_back(cur->rhs());
      }
    }
  }
}

// Candidate reference-class statement for a query φ(c): a unary-variable
// stat whose instantiated target equals the query.
struct Candidate {
  const StatStatement* stat = nullptr;
  std::string constant;          // the matched c
  std::string var;               // the stat's variable
  AtomSet refclass_atoms;        // compiled refclass
};

struct ClassSetup {
  ClassUniverse universe{std::vector<std::string>{}};
  logic::Taxonomy taxonomy{universe};
  bool ok = false;

  explicit ClassSetup(std::vector<std::string> predicates)
      : universe(std::move(predicates)), taxonomy(universe) {}
};

std::vector<std::string> UnaryPredicates(const KbAnalysis& kb,
                                         const FormulaPtr& query) {
  std::map<std::string, int> arities;
  for (const auto& conjunct : kb.conjuncts) {
    CollectPredicateArities(conjunct, &arities);
  }
  CollectPredicateArities(query, &arities);
  std::vector<std::string> unary;
  for (const auto& [name, arity] : arities) {
    if (arity == 1) unary.push_back(name);
  }
  return unary;
}

// Facts about constant `c` as an atom set: the intersection of every KB
// conjunct that compiles as a class expression about c.  `consumed[i]`
// marks conjuncts to skip (statistical sources).
AtomSet FactsAbout(const ClassUniverse& universe, const KbAnalysis& kb,
                   const std::string& constant,
                   std::vector<size_t>* fact_indices) {
  AtomSet facts = AtomSet::All(universe);
  TermPtr subject = Term::Constant(constant);
  for (size_t i = 0; i < kb.conjuncts.size(); ++i) {
    if (kb.is_stat_conjunct[i]) continue;
    std::set<std::string> constants = logic::ConstantsOf(kb.conjuncts[i]);
    if (constants.size() != 1 || *constants.begin() != constant) continue;
    auto cls = CompileClass(universe, kb.conjuncts[i], subject);
    if (!cls.has_value()) continue;
    facts = facts.Intersect(*cls);
    if (fact_indices != nullptr) fact_indices->push_back(i);
  }
  return facts;
}

std::string IntervalString(double lo, double hi) {
  std::ostringstream out;
  if (lo == hi) {
    out << lo;
  } else {
    out << "[" << lo << ", " << hi << "]";
  }
  return out.str();
}

}  // namespace

std::optional<ExistsUniqueParts> MatchExistsUnique(const FormulaPtr& f) {
  // Shape: ∃x (body ∧ ∀y (body[x/y] ⇒ y = x)).
  if (f->kind() != Formula::Kind::kExists) return std::nullopt;
  const std::string& x = f->var();
  const FormulaPtr& conj = f->body();
  if (conj->kind() != Formula::Kind::kAnd) return std::nullopt;
  const FormulaPtr& body = conj->left();
  const FormulaPtr& unique = conj->right();
  if (unique->kind() != Formula::Kind::kForAll) return std::nullopt;
  const std::string& y = unique->var();
  const FormulaPtr& impl = unique->body();
  if (impl->kind() != Formula::Kind::kImplies) return std::nullopt;
  const FormulaPtr& eq = impl->right();
  if (eq->kind() != Formula::Kind::kEqual) return std::nullopt;
  // y = x in either order.
  auto is_var = [](const TermPtr& t, const std::string& name) {
    return t->is_variable() && t->name() == name;
  };
  bool eq_ok = (is_var(eq->terms()[0], y) && is_var(eq->terms()[1], x)) ||
               (is_var(eq->terms()[0], x) && is_var(eq->terms()[1], y));
  if (!eq_ok) return std::nullopt;
  FormulaPtr renamed = logic::SubstituteVariable(body, x, Term::Variable(y));
  if (!Formula::StructuralEqual(renamed, impl->left())) return std::nullopt;
  return ExistsUniqueParts{x, body};
}

KbAnalysis AnalyzeKb(const FormulaPtr& kb) {
  KbAnalysis out;
  out.conjuncts = logic::Conjuncts(kb);
  out.is_stat_conjunct.assign(out.conjuncts.size(), false);

  // Group bounds by structurally-equal proportion expression.
  struct Group {
    ExprPtr expr;
    double lo = 0.0;
    double hi = 1.0;
    bool has_lo = false;
    bool has_hi = false;
    int tol_lo = 1;
    int tol_hi = 1;
    std::vector<size_t> sources;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < out.conjuncts.size(); ++i) {
    auto bound = ParseBound(out.conjuncts[i]);
    if (!bound.has_value()) continue;
    Group* group = nullptr;
    for (auto& g : groups) {
      if (Expr::Equal(g.expr, bound->expr)) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{});
      group = &groups.back();
      group->expr = bound->expr;
    }
    if (bound->has_lo && (!group->has_lo || bound->lo > group->lo)) {
      group->has_lo = true;
      group->lo = bound->lo;
      group->tol_lo = bound->tolerance;
    }
    if (bound->has_hi && (!group->has_hi || bound->hi < group->hi)) {
      group->has_hi = true;
      group->hi = bound->hi;
      group->tol_hi = bound->tolerance;
    }
    group->sources.push_back(i);
    out.is_stat_conjunct[i] = true;
  }

  for (const auto& g : groups) {
    StatStatement stat;
    stat.target = g.expr->body();
    stat.refclass = g.expr->kind() == Expr::Kind::kConditional
                        ? g.expr->cond()
                        : Formula::True();
    stat.vars = g.expr->vars();
    stat.lo = g.has_lo ? g.lo : 0.0;
    stat.hi = g.has_hi ? g.hi : 1.0;
    stat.tolerance_lo = g.tol_lo;
    stat.tolerance_hi = g.tol_hi;
    stat.source_conjuncts = g.sources;
    out.stats.push_back(std::move(stat));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Theorem 5.6: direct inference.
// ---------------------------------------------------------------------------

std::optional<SymbolicAnswer> SymbolicEngine::TryDirectInference(
    const KbAnalysis& kb, const FormulaPtr& query) const {
  for (const auto& stat : kb.stats) {
    auto binding = MatchToConstants(stat.target, query, stat.vars);
    if (!binding.has_value()) continue;

    // The matched constants ⃗c, pairwise distinct.
    std::set<std::string> c_names;
    std::vector<std::pair<std::string, TermPtr>> subst;
    bool distinct = true;
    for (const auto& [var, term] : *binding) {
      if (!c_names.insert(term->name()).second) distinct = false;
      subst.emplace_back(var, term);
    }
    if (!distinct) continue;

    // ⃗c must not occur in φ(⃗x) or ψ(⃗x) themselves.
    bool clean = true;
    for (const auto& c : c_names) {
      if (logic::MentionsConstant(stat.target, c) ||
          logic::MentionsConstant(stat.refclass, c)) {
        clean = false;
      }
    }
    if (!clean) continue;

    // ψ(⃗c) must be asserted by the KB.  ψ may itself be a conjunction whose
    // parts appear as separate conjuncts (e.g. Elephant(Clyde) and
    // Zookeeper(Eric) for the pair class of Example 5.12), so each part of
    // the flattened fact must appear as a KB conjunct.
    FormulaPtr fact = logic::SubstituteVariables(stat.refclass, subst);
    std::set<size_t> excluded(stat.source_conjuncts.begin(),
                              stat.source_conjuncts.end());
    bool fact_found = true;
    for (const auto& part : logic::Conjuncts(fact)) {
      bool part_found = false;
      for (size_t i = 0; i < kb.conjuncts.size(); ++i) {
        if (Formula::StructuralEqual(kb.conjuncts[i], part)) {
          part_found = true;
          excluded.insert(i);
        }
      }
      if (!part_found) {
        fact_found = false;
        break;
      }
    }
    if (!fact_found) continue;

    // Everything else (KB′) must not mention any constant in ⃗c.
    bool rest_clean = true;
    for (size_t i = 0; i < kb.conjuncts.size() && rest_clean; ++i) {
      if (excluded.count(i) > 0) continue;
      for (const auto& c : c_names) {
        if (logic::MentionsConstant(kb.conjuncts[i], c)) {
          rest_clean = false;
          break;
        }
      }
    }
    if (!rest_clean) continue;

    SymbolicAnswer answer;
    answer.status = SymbolicAnswer::Status::kInterval;
    answer.lo = stat.lo;
    answer.hi = stat.hi;
    answer.rule = "Theorem 5.6 (direct inference)";
    answer.explanation = "reference class " + logic::ToString(stat.refclass) +
                         " gives " + IntervalString(stat.lo, stat.hi);
    return answer;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Theorem 5.16: minimal reference class, irrelevant information ignored.
// ---------------------------------------------------------------------------

namespace {

// Collects the unary-variable stats whose instantiated target equals the
// query, grouped implicitly by sharing the same target shape.
std::vector<Candidate> CandidatesFor(const KbAnalysis& kb,
                                     const FormulaPtr& query,
                                     const ClassUniverse& universe) {
  std::vector<Candidate> out;
  for (const auto& stat : kb.stats) {
    if (stat.vars.size() != 1) continue;
    auto binding = MatchToConstants(stat.target, query, stat.vars);
    if (!binding.has_value()) continue;
    const TermPtr& c = binding->begin()->second;
    auto atoms = CompileClass(universe, stat.refclass,
                              Term::Variable(stat.vars[0]));
    if (!atoms.has_value()) continue;
    Candidate cand;
    cand.stat = &stat;
    cand.constant = c->name();
    cand.var = stat.vars[0];
    cand.refclass_atoms = *atoms;
    out.push_back(cand);
  }
  return out;
}

// Condition (c) of Theorem 5.16 / the symbol condition of 5.23: the symbols
// of φ may appear only inside the candidate stats' targets.
bool PhiSymbolsConfined(const KbAnalysis& kb,
                        const std::vector<Candidate>& candidates,
                        const std::set<std::string>& phi_symbols) {
  std::set<size_t> stat_sources;
  for (const auto& cand : candidates) {
    for (size_t s : cand.stat->source_conjuncts) stat_sources.insert(s);
    // φ's symbols must not leak into the reference class itself.
    std::set<std::string> ref_syms = logic::SymbolsOf(cand.stat->refclass);
    for (const auto& sym : phi_symbols) {
      if (ref_syms.count(sym) > 0) return false;
    }
  }
  for (size_t i = 0; i < kb.conjuncts.size(); ++i) {
    if (stat_sources.count(i) > 0) continue;
    std::set<std::string> syms = logic::SymbolsOf(kb.conjuncts[i]);
    for (const auto& sym : phi_symbols) {
      if (syms.count(sym) > 0) return false;
    }
  }
  return true;
}

}  // namespace

std::optional<SymbolicAnswer> SymbolicEngine::TryMinimalReferenceClass(
    const KbAnalysis& kb, const FormulaPtr& query) const {
  ClassUniverse universe(UnaryPredicates(kb, query));
  if (universe.num_predicates() == 0 ||
      universe.num_predicates() > ClassUniverse::kMaxPredicates) {
    return std::nullopt;
  }
  std::vector<Candidate> candidates = CandidatesFor(kb, query, universe);
  if (candidates.empty()) return std::nullopt;

  // All candidates must concern the same constant.
  const std::string& c = candidates[0].constant;
  for (const auto& cand : candidates) {
    if (cand.constant != c) return std::nullopt;
  }
  // Condition (d): c must not occur in φ(x).
  if (logic::MentionsConstant(candidates[0].stat->target, c)) {
    return std::nullopt;
  }
  // Condition (c).
  std::set<std::string> phi_symbols =
      logic::SymbolsOf(candidates[0].stat->target);
  if (!PhiSymbolsConfined(kb, candidates, phi_symbols)) return std::nullopt;

  logic::Taxonomy taxonomy(universe);
  for (const auto& conjunct : kb.conjuncts) taxonomy.Absorb(conjunct);

  AtomSet facts = FactsAbout(universe, kb, c, nullptr);

  // Find ψ0: entailed about c, and minimal against every other candidate.
  std::optional<SymbolicAnswer> best;
  for (const auto& cand : candidates) {
    if (!taxonomy.Entails_Subset(facts, cand.refclass_atoms)) continue;
    bool minimal = true;
    for (const auto& other : candidates) {
      if (&other == &cand) continue;
      bool subset = taxonomy.Entails_Subset(cand.refclass_atoms,
                                            other.refclass_atoms);
      bool disjoint = taxonomy.Entails_Disjoint(cand.refclass_atoms,
                                                other.refclass_atoms);
      if (!subset && !disjoint) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;
    SymbolicAnswer answer;
    answer.status = SymbolicAnswer::Status::kInterval;
    answer.lo = cand.stat->lo;
    answer.hi = cand.stat->hi;
    answer.rule = "Theorem 5.16 (minimal reference class)";
    answer.explanation =
        "minimal class " + logic::ToString(cand.stat->refclass) + " gives " +
        IntervalString(answer.lo, answer.hi);
    // Prefer the tightest among equal minimal classes.
    if (!best.has_value() || answer.hi - answer.lo < best->hi - best->lo) {
      best = answer;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Theorem 5.23: chains of reference classes and the strength rule.
// ---------------------------------------------------------------------------

std::optional<SymbolicAnswer> SymbolicEngine::TryStrengthRule(
    const KbAnalysis& kb, const FormulaPtr& query) const {
  ClassUniverse universe(UnaryPredicates(kb, query));
  if (universe.num_predicates() == 0 ||
      universe.num_predicates() > ClassUniverse::kMaxPredicates) {
    return std::nullopt;
  }
  std::vector<Candidate> candidates = CandidatesFor(kb, query, universe);
  if (candidates.size() < 2) return std::nullopt;

  const std::string& c = candidates[0].constant;
  for (const auto& cand : candidates) {
    if (cand.constant != c) return std::nullopt;
  }
  if (logic::MentionsConstant(candidates[0].stat->target, c)) {
    return std::nullopt;
  }
  std::set<std::string> phi_symbols =
      logic::SymbolsOf(candidates[0].stat->target);
  if (!PhiSymbolsConfined(kb, candidates, phi_symbols)) return std::nullopt;

  logic::Taxonomy taxonomy(universe);
  for (const auto& conjunct : kb.conjuncts) taxonomy.Absorb(conjunct);

  // Sort into a chain ψ1 ⊆ ψ2 ⊆ ... (fails if incomparable).
  std::vector<const Candidate*> chain;
  for (const auto& cand : candidates) chain.push_back(&cand);
  std::sort(chain.begin(), chain.end(),
            [&](const Candidate* a, const Candidate* b) {
              return taxonomy.Entails_Subset(a->refclass_atoms,
                                             b->refclass_atoms) &&
                     !AtomSet::Equal(a->refclass_atoms, b->refclass_atoms);
            });
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    if (!taxonomy.Entails_Subset(chain[i]->refclass_atoms,
                                 chain[i + 1]->refclass_atoms)) {
      return std::nullopt;
    }
  }
  // ψ1(c) must be known.
  AtomSet facts = FactsAbout(universe, kb, c, nullptr);
  if (!taxonomy.Entails_Subset(facts, chain[0]->refclass_atoms)) {
    return std::nullopt;
  }
  // ¬(||ψ1||_x ≈ 0) required (or assumed; see Options).
  if (!options_.assume_reference_classes_nonempty) {
    bool found = false;
    for (const auto& conjunct : kb.conjuncts) {
      if (conjunct->kind() != Formula::Kind::kNot) continue;
      auto bound = ParseBound(conjunct->body());
      if (!bound.has_value() || !bound->has_hi || bound->hi != 0.0) continue;
      if (bound->expr->kind() != Expr::Kind::kProportion) continue;
      auto atoms = CompileClass(universe, bound->expr->body(),
                                Term::Variable(bound->expr->vars()[0]));
      if (atoms.has_value() &&
          AtomSet::Equal(*atoms, chain[0]->refclass_atoms)) {
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }

  // Strictly tightest interval [αj, βj]: for all i ≠ j, αi < αj < βj < βi.
  for (const Candidate* j : chain) {
    bool tightest = true;
    for (const Candidate* i : chain) {
      if (i == j) continue;
      if (!(i->stat->lo < j->stat->lo && j->stat->hi < i->stat->hi)) {
        tightest = false;
        break;
      }
    }
    if (!tightest) continue;
    SymbolicAnswer answer;
    answer.status = SymbolicAnswer::Status::kInterval;
    answer.lo = j->stat->lo;
    answer.hi = j->stat->hi;
    answer.rule = "Theorem 5.23 (strength rule)";
    answer.explanation =
        "tightest chain interval from " + logic::ToString(j->stat->refclass) +
        " gives " + IntervalString(answer.lo, answer.hi);
    return answer;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Theorem 5.26: essentially-disjoint competing classes (Dempster's rule).
// ---------------------------------------------------------------------------

std::optional<SymbolicAnswer> SymbolicEngine::TryDempster(
    const KbAnalysis& kb, const FormulaPtr& query) const {
  // Query must be P(c), P unary.
  if (query->kind() != Formula::Kind::kAtom || query->terms().size() != 1 ||
      !query->terms()[0]->is_constant()) {
    return std::nullopt;
  }
  const std::string& p_name = query->predicate();
  const std::string c = query->terms()[0]->name();

  ClassUniverse universe(UnaryPredicates(kb, query));
  if (universe.num_predicates() == 0) return std::nullopt;

  // Point-valued stats on P(x) with ψi(c) known.
  std::vector<Candidate> candidates = CandidatesFor(kb, query, universe);
  std::vector<const Candidate*> used;
  for (const auto& cand : candidates) {
    if (!cand.stat->is_point()) return std::nullopt;
    if (cand.constant != c) return std::nullopt;
    // P and c must not appear in ψi.
    std::set<std::string> ref_syms = logic::SymbolsOf(cand.stat->refclass);
    if (ref_syms.count(p_name) > 0 || ref_syms.count(c) > 0) {
      return std::nullopt;
    }
    used.push_back(&cand);
  }
  if (used.size() < 2) return std::nullopt;

  // Facts ψi(c) for each i, as explicit conjuncts.
  for (const Candidate* cand : used) {
    FormulaPtr fact = logic::SubstituteVariable(
        cand->stat->refclass, cand->var, Term::Constant(c));
    bool found = false;
    for (const auto& conjunct : kb.conjuncts) {
      if (Formula::StructuralEqual(conjunct, fact)) {
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }

  // Pairwise ∃!x (ψi(x) ∧ ψj(x)) conjuncts.
  for (size_t i = 0; i < used.size(); ++i) {
    for (size_t j = i + 1; j < used.size(); ++j) {
      AtomSet expected = used[i]->refclass_atoms.Intersect(
          used[j]->refclass_atoms);
      bool found = false;
      for (const auto& conjunct : kb.conjuncts) {
        auto parts = MatchExistsUnique(conjunct);
        if (!parts.has_value()) continue;
        auto atoms = CompileClass(universe, parts->body,
                                  Term::Variable(parts->var));
        if (atoms.has_value() && AtomSet::Equal(*atoms, expected)) {
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;
    }
  }

  // Collect the αi and combine.
  std::vector<double> alphas;
  std::vector<int> tolerance_indices;
  for (const Candidate* cand : used) {
    alphas.push_back(cand->stat->lo);
    tolerance_indices.push_back(cand->stat->tolerance_lo);
  }
  bool any_one = false;
  bool any_zero = false;
  for (double a : alphas) {
    any_one = any_one || a >= 1.0;
    any_zero = any_zero || a <= 0.0;
  }
  SymbolicAnswer answer;
  if (any_one && any_zero) {
    // Conflicting hard defaults.  Equal strength (identical tolerance
    // subscripts, exactly two classes) resolves to 1/2; otherwise the limit
    // does not exist (Section 5.3).
    if (alphas.size() == 2 && tolerance_indices[0] == tolerance_indices[1]) {
      answer.status = SymbolicAnswer::Status::kInterval;
      answer.lo = answer.hi = 0.5;
      answer.rule = "Theorem 5.26 (equal-strength conflicting defaults)";
      answer.explanation = "conflicting defaults with equal tolerances";
      return answer;
    }
    answer.status = SymbolicAnswer::Status::kNonexistent;
    answer.rule = "Theorem 5.26 (conflicting defaults)";
    answer.explanation =
        "conflicting extreme defaults with independent tolerances: "
        "the limit depends on how ⃗τ → 0";
    return answer;
  }
  double combined = rwl::evidence::DempsterCombine(alphas);
  answer.status = SymbolicAnswer::Status::kInterval;
  answer.lo = answer.hi = combined;
  answer.rule = "Theorem 5.26 (Dempster combination)";
  std::ostringstream explain;
  explain << "combined " << alphas.size() << " competing classes: δ = "
          << combined;
  answer.explanation = explain.str();
  return answer;
}

// ---------------------------------------------------------------------------
// Theorem 5.27: vocabulary independence.
// ---------------------------------------------------------------------------

std::optional<SymbolicAnswer> SymbolicEngine::TryIndependence(
    const KbAnalysis& kb, const FormulaPtr& query, int depth) const {
  if (depth >= options_.max_recursion) return std::nullopt;
  if (query->kind() != Formula::Kind::kAnd) return std::nullopt;
  FormulaPtr q1 = query->left();
  FormulaPtr q2 = query->right();

  // The subvocabularies may share at most one constant c.
  std::set<std::string> s1 = logic::SymbolsOf(q1);
  std::set<std::string> s2 = logic::SymbolsOf(q2);

  // Grow each side's symbol set with the conjuncts it touches, to a fixed
  // point.
  std::vector<FormulaPtr> side1, side2;
  std::vector<std::set<std::string>> conjunct_syms;
  for (const auto& conjunct : kb.conjuncts) {
    conjunct_syms.push_back(logic::SymbolsOf(conjunct));
  }
  std::set<std::string> shared_allowed;
  {
    std::set<std::string> q1_consts = logic::ConstantsOf(q1);
    std::set<std::string> q2_consts = logic::ConstantsOf(q2);
    for (const auto& c : q1_consts) {
      if (q2_consts.count(c) > 0) shared_allowed.insert(c);
    }
    if (shared_allowed.size() > 1) return std::nullopt;
  }
  auto overlaps = [&](const std::set<std::string>& a,
                      const std::set<std::string>& b) {
    for (const auto& sym : a) {
      if (shared_allowed.count(sym) > 0) continue;
      if (b.count(sym) > 0) return true;
    }
    return false;
  };

  std::vector<int> assignment(kb.conjuncts.size(), 0);  // 0=unassigned
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < kb.conjuncts.size(); ++i) {
      if (assignment[i] != 0) continue;
      bool in1 = overlaps(conjunct_syms[i], s1);
      bool in2 = overlaps(conjunct_syms[i], s2);
      if (in1 && in2) return std::nullopt;  // genuinely entangled
      if (in1 || in2) {
        assignment[i] = in1 ? 1 : 2;
        auto& target = in1 ? s1 : s2;
        for (const auto& sym : conjunct_syms[i]) {
          if (shared_allowed.count(sym) == 0) {
            if (target.insert(sym).second) changed = true;
          }
        }
      }
    }
  }
  // After the closure the two sides must still be disjoint (modulo c).
  if (overlaps(s1, s2)) return std::nullopt;

  for (size_t i = 0; i < kb.conjuncts.size(); ++i) {
    if (assignment[i] == 2) {
      side2.push_back(kb.conjuncts[i]);
    } else {
      side1.push_back(kb.conjuncts[i]);  // unassigned: harmless on side 1
    }
  }

  SymbolicAnswer a1 =
      InferAtDepth(Formula::AndAll(side1), q1, depth + 1);
  if (a1.status != SymbolicAnswer::Status::kInterval) return std::nullopt;
  SymbolicAnswer a2 =
      InferAtDepth(Formula::AndAll(side2), q2, depth + 1);
  if (a2.status != SymbolicAnswer::Status::kInterval) return std::nullopt;

  SymbolicAnswer answer;
  answer.status = SymbolicAnswer::Status::kInterval;
  answer.lo = a1.lo * a2.lo;
  answer.hi = a1.hi * a2.hi;
  answer.rule = "Theorem 5.27 (independence)";
  answer.explanation = "product of independent subqueries: [" +
                       IntervalString(a1.lo, a1.hi) + "] × [" +
                       IntervalString(a2.lo, a2.hi) + "]";
  return answer;
}

SymbolicAnswer SymbolicEngine::InferAtDepth(const FormulaPtr& kb,
                                            const FormulaPtr& query,
                                            int depth) const {
  return InferAnalyzed(AnalyzeKb(kb), query, depth);
}

SymbolicAnswer SymbolicEngine::InferAnalyzed(const KbAnalysis& analysis,
                                             const FormulaPtr& query,
                                             int depth) const {
  std::vector<SymbolicAnswer> answers;
  if (auto a = TryDirectInference(analysis, query)) answers.push_back(*a);
  if (auto a = TryMinimalReferenceClass(analysis, query)) {
    answers.push_back(*a);
  }
  if (auto a = TryStrengthRule(analysis, query)) answers.push_back(*a);
  if (auto a = TryDempster(analysis, query)) answers.push_back(*a);
  if (auto a = TryIndependence(analysis, query, depth)) answers.push_back(*a);

  for (const auto& a : answers) {
    if (a.status == SymbolicAnswer::Status::kNonexistent) return a;
  }
  SymbolicAnswer combined;
  bool first = true;
  for (const auto& a : answers) {
    if (a.status != SymbolicAnswer::Status::kInterval) continue;
    if (first) {
      combined = a;
      first = false;
      continue;
    }
    // Intersect the sound intervals; keep the rule names of both.
    double lo = std::max(combined.lo, a.lo);
    double hi = std::min(combined.hi, a.hi);
    if (lo <= hi) {
      combined.lo = lo;
      combined.hi = hi;
      combined.rule += " + " + a.rule;
      combined.explanation += "; " + a.explanation;
    }
  }
  if (first) {
    SymbolicAnswer none;
    none.status = SymbolicAnswer::Status::kInapplicable;
    none.explanation = "no theorem pattern matched";
    return none;
  }
  return combined;
}

SymbolicAnswer SymbolicEngine::Infer(QueryContext& ctx,
                                     const FormulaPtr& query) const {
  std::string key = "symbolic.answer|nonempty=";
  key += options_.assume_reference_classes_nonempty ? '1' : '0';
  key += ";rec=" + std::to_string(options_.max_recursion);
  key += '|';
  key += std::to_string(query == nullptr ? 0 : query->id());
  auto cached =
      std::static_pointer_cast<const SymbolicAnswer>(ctx.LookupBlob(key));
  if (cached != nullptr) return *cached;
  SymbolicAnswer answer = InferAnalyzed(ctx.kb_analysis(), query, 0);
  ctx.StoreBlob(key, std::make_shared<SymbolicAnswer>(answer));
  return answer;
}

Capability SymbolicEngine::Assess(const QueryContext& ctx,
                                  const FormulaPtr& query) const {
  Capability cap = DescribeInstance(ctx.vocabulary(), query);
  cap.applicable = true;
  cap.reason = "theorem matchers cover the full language; a theorem may "
               "still fail to match this (KB, query) pair";
  return cap;
}

CostEstimate SymbolicEngine::EstimateCost(const QueryContext& ctx,
                                          const FormulaPtr& query) const {
  (void)query;
  const KbAnalysis& analysis = ctx.kb_analysis();
  CostEstimate cost;
  // Matching is a syntactic pass over the conjunct list per theorem, plus
  // class-algebra checks per statistical statement pair.
  const double conjuncts = static_cast<double>(analysis.conjuncts.size());
  const double stats = static_cast<double>(analysis.stats.size());
  cost.work = 8.0 * (conjuncts + stats * stats + 1.0);
  cost.error = 0.0;  // closed-form theorem output
  cost.basis = std::to_string(analysis.conjuncts.size()) + " conjuncts, " +
               std::to_string(analysis.stats.size()) +
               " statistical statements";
  return cost;
}

}  // namespace rwl::engines
