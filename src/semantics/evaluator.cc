#include "src/semantics/evaluator.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

namespace rwl::semantics {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "rwl evaluator error: %s\n", message.c_str());
  std::abort();
}

// Counts tuples over `vars` satisfying body (and cond, when given).
// Returns {count_body_and_cond, count_cond}; for unconditional proportions
// cond is null and count_cond is N^k.
struct Counts {
  int64_t body = 0;
  int64_t cond = 0;
};

// Shadow-binding save/restore and odometer scratch, reused across
// CountTuples calls instead of per-call vector construction.  The buffers
// are used as stacks (base offsets captured per call) because nested
// proportions re-enter CountTuples through Evaluate; thread_local keeps the
// worker pools safe.  The saved names point into the interned Expr's vars
// list, which outlives the evaluation.
struct ShadowScratch {
  struct SavedBinding {
    const std::string* name;
    std::optional<int> old;
  };
  std::vector<SavedBinding> saved;
  std::vector<int> tuple;
};

thread_local ShadowScratch shadow_scratch;

Counts CountTuples(const logic::ExprPtr& e, const World& world,
                   const ToleranceVector& tolerances, Valuation* valuation) {
  const auto& vars = e->vars();
  const int n = world.domain_size();
  Counts counts;

  ShadowScratch& scratch = shadow_scratch;
  const size_t saved_base = scratch.saved.size();
  const size_t tuple_base = scratch.tuple.size();

  // Save shadowed bindings.
  for (const auto& v : vars) {
    auto it = valuation->find(v);
    scratch.saved.push_back({&v, it == valuation->end()
                                     ? std::nullopt
                                     : std::optional<int>(it->second)});
  }

  scratch.tuple.resize(tuple_base + vars.size(), 0);
  while (true) {
    for (size_t i = 0; i < vars.size(); ++i) {
      (*valuation)[vars[i]] = scratch.tuple[tuple_base + i];
    }
    bool cond_holds = true;
    if (e->cond() != nullptr) {
      cond_holds = Evaluate(e->cond(), world, tolerances, valuation);
    }
    if (cond_holds) {
      ++counts.cond;
      if (Evaluate(e->body(), world, tolerances, valuation)) ++counts.body;
    }
    // Odometer increment.
    size_t i = 0;
    for (; i < vars.size(); ++i) {
      if (++scratch.tuple[tuple_base + i] < n) break;
      scratch.tuple[tuple_base + i] = 0;
    }
    if (i == vars.size()) break;
  }

  // Restore shadowed bindings and release the scratch frames.
  for (size_t i = 0; i < vars.size(); ++i) {
    const ShadowScratch::SavedBinding& binding = scratch.saved[saved_base + i];
    if (binding.old.has_value()) {
      (*valuation)[*binding.name] = *binding.old;
    } else {
      valuation->erase(*binding.name);
    }
  }
  scratch.saved.resize(saved_base);
  scratch.tuple.resize(tuple_base);
  return counts;
}

}  // namespace

int EvaluateTerm(const logic::TermPtr& t, const World& world,
                 Valuation* valuation) {
  if (t->is_variable()) {
    auto it = valuation->find(t->name());
    if (it == valuation->end()) Die("unbound variable " + t->name());
    return it->second;
  }
  auto sym = world.vocabulary().FindFunction(t->name());
  if (!sym.has_value()) Die("unknown function symbol " + t->name());
  std::vector<int> args;
  args.reserve(t->args().size());
  for (const auto& a : t->args()) {
    args.push_back(EvaluateTerm(a, world, valuation));
  }
  return world.Apply(sym->id, args);
}

ExprValue EvaluateExpr(const logic::ExprPtr& e, const World& world,
                       const ToleranceVector& tolerances,
                       Valuation* valuation) {
  using logic::Expr;
  switch (e->kind()) {
    case Expr::Kind::kConstant:
      return {e->value(), true};
    case Expr::Kind::kProportion: {
      Counts c = CountTuples(e, world, tolerances, valuation);
      double total = 1.0;
      for (size_t i = 0; i < e->vars().size(); ++i) {
        total *= world.domain_size();
      }
      return {static_cast<double>(c.body) / total, true};
    }
    case Expr::Kind::kConditional: {
      Counts c = CountTuples(e, world, tolerances, valuation);
      if (c.cond == 0) return {0.0, false};
      return {static_cast<double>(c.body) / static_cast<double>(c.cond),
              true};
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul: {
      ExprValue lhs = EvaluateExpr(e->lhs(), world, tolerances, valuation);
      ExprValue rhs = EvaluateExpr(e->rhs(), world, tolerances, valuation);
      ExprValue out;
      out.defined = lhs.defined && rhs.defined;
      switch (e->kind()) {
        case Expr::Kind::kAdd:
          out.value = lhs.value + rhs.value;
          break;
        case Expr::Kind::kSub:
          out.value = lhs.value - rhs.value;
          break;
        default:
          out.value = lhs.value * rhs.value;
          break;
      }
      return out;
    }
  }
  Die("unreachable expression kind");
}

bool Evaluate(const logic::FormulaPtr& f, const World& world,
              const ToleranceVector& tolerances, Valuation* valuation) {
  using logic::Formula;
  switch (f->kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      auto sym = world.vocabulary().FindPredicate(f->predicate());
      if (!sym.has_value()) Die("unknown predicate " + f->predicate());
      std::vector<int> args;
      args.reserve(f->terms().size());
      for (const auto& t : f->terms()) {
        args.push_back(EvaluateTerm(t, world, valuation));
      }
      return world.Holds(sym->id, args);
    }
    case Formula::Kind::kEqual:
      return EvaluateTerm(f->terms()[0], world, valuation) ==
             EvaluateTerm(f->terms()[1], world, valuation);
    case Formula::Kind::kNot:
      return !Evaluate(f->body(), world, tolerances, valuation);
    case Formula::Kind::kAnd:
      return Evaluate(f->left(), world, tolerances, valuation) &&
             Evaluate(f->right(), world, tolerances, valuation);
    case Formula::Kind::kOr:
      return Evaluate(f->left(), world, tolerances, valuation) ||
             Evaluate(f->right(), world, tolerances, valuation);
    case Formula::Kind::kImplies:
      return !Evaluate(f->left(), world, tolerances, valuation) ||
             Evaluate(f->right(), world, tolerances, valuation);
    case Formula::Kind::kIff:
      return Evaluate(f->left(), world, tolerances, valuation) ==
             Evaluate(f->right(), world, tolerances, valuation);
    case Formula::Kind::kForAll:
    case Formula::Kind::kExists: {
      bool is_forall = f->kind() == Formula::Kind::kForAll;
      auto it = valuation->find(f->var());
      std::optional<int> saved = it == valuation->end()
                                     ? std::nullopt
                                     : std::optional<int>(it->second);
      bool result = is_forall;
      for (int d = 0; d < world.domain_size(); ++d) {
        (*valuation)[f->var()] = d;
        bool holds = Evaluate(f->body(), world, tolerances, valuation);
        if (is_forall && !holds) {
          result = false;
          break;
        }
        if (!is_forall && holds) {
          result = true;
          break;
        }
      }
      if (saved.has_value()) {
        (*valuation)[f->var()] = *saved;
      } else {
        valuation->erase(f->var());
      }
      return result;
    }
    case Formula::Kind::kCompare: {
      ExprValue lhs = EvaluateExpr(f->expr_left(), world, tolerances,
                                   valuation);
      ExprValue rhs = EvaluateExpr(f->expr_right(), world, tolerances,
                                   valuation);
      // 0/0 convention: the comparison holds (see header).
      if (!lhs.defined || !rhs.defined) return true;
      double tau = tolerances.Get(f->tolerance_index());
      return CompareValues(lhs.value, f->compare_op(), rhs.value, tau);
    }
  }
  Die("unreachable formula kind");
}

bool Evaluate(const logic::FormulaPtr& f, const World& world,
              const ToleranceVector& tolerances) {
  Valuation valuation;
  return Evaluate(f, world, tolerances, &valuation);
}

}  // namespace rwl::semantics
