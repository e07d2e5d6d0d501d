#include "src/logic/transform.h"

#include <algorithm>

#include "src/logic/vocabulary.h"

namespace rwl::logic {
namespace {

void CollectFreeVars(const FormulaPtr& f, std::set<std::string>* bound,
                     std::set<std::string>* out);

void CollectFreeVars(const ExprPtr& e, std::set<std::string>* bound,
                     std::set<std::string>* out) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case Expr::Kind::kConstant:
      return;
    case Expr::Kind::kProportion:
    case Expr::Kind::kConditional: {
      std::vector<std::string> newly_bound;
      for (const auto& v : e->vars()) {
        if (bound->insert(v).second) newly_bound.push_back(v);
      }
      CollectFreeVars(e->body(), bound, out);
      if (e->cond() != nullptr) CollectFreeVars(e->cond(), bound, out);
      for (const auto& v : newly_bound) bound->erase(v);
      return;
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
      CollectFreeVars(e->lhs(), bound, out);
      CollectFreeVars(e->rhs(), bound, out);
      return;
  }
}

void CollectTermFreeVars(const TermPtr& t, const std::set<std::string>& bound,
                         std::set<std::string>* out) {
  if (t->is_variable()) {
    if (bound.count(t->name()) == 0) out->insert(t->name());
    return;
  }
  for (const auto& a : t->args()) CollectTermFreeVars(a, bound, out);
}

void CollectFreeVars(const FormulaPtr& f, std::set<std::string>* bound,
                     std::set<std::string>* out) {
  if (f == nullptr) return;
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return;
    case Formula::Kind::kAtom:
    case Formula::Kind::kEqual:
      for (const auto& t : f->terms()) CollectTermFreeVars(t, *bound, out);
      return;
    case Formula::Kind::kNot:
      CollectFreeVars(f->left(), bound, out);
      return;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff:
      CollectFreeVars(f->left(), bound, out);
      CollectFreeVars(f->right(), bound, out);
      return;
    case Formula::Kind::kForAll:
    case Formula::Kind::kExists: {
      bool newly = bound->insert(f->var()).second;
      CollectFreeVars(f->body(), bound, out);
      if (newly) bound->erase(f->var());
      return;
    }
    case Formula::Kind::kCompare:
      CollectFreeVars(f->expr_left(), bound, out);
      CollectFreeVars(f->expr_right(), bound, out);
      return;
  }
}

enum class SymbolClass { kConstant, kPredicate, kFunction, kAll };

void CollectTermSymbols(const TermPtr& t, SymbolClass cls,
                        std::set<std::string>* out) {
  if (t->is_variable()) return;
  bool is_const = t->args().empty();
  if (cls == SymbolClass::kAll ||
      (cls == SymbolClass::kConstant && is_const) ||
      (cls == SymbolClass::kFunction)) {
    out->insert(t->name());
  }
  for (const auto& a : t->args()) CollectTermSymbols(a, cls, out);
}

void CollectSymbols(const FormulaPtr& f, SymbolClass cls,
                    std::set<std::string>* out);

void CollectSymbols(const ExprPtr& e, SymbolClass cls,
                    std::set<std::string>* out) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case Expr::Kind::kConstant:
      return;
    case Expr::Kind::kProportion:
    case Expr::Kind::kConditional:
      CollectSymbols(e->body(), cls, out);
      if (e->cond() != nullptr) CollectSymbols(e->cond(), cls, out);
      return;
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
      CollectSymbols(e->lhs(), cls, out);
      CollectSymbols(e->rhs(), cls, out);
      return;
  }
}

void CollectSymbols(const FormulaPtr& f, SymbolClass cls,
                    std::set<std::string>* out) {
  if (f == nullptr) return;
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return;
    case Formula::Kind::kAtom:
      if (cls == SymbolClass::kPredicate || cls == SymbolClass::kAll) {
        out->insert(f->predicate());
      }
      for (const auto& t : f->terms()) CollectTermSymbols(t, cls, out);
      return;
    case Formula::Kind::kEqual:
      for (const auto& t : f->terms()) CollectTermSymbols(t, cls, out);
      return;
    case Formula::Kind::kNot:
    case Formula::Kind::kForAll:
    case Formula::Kind::kExists:
      CollectSymbols(f->left(), cls, out);
      return;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff:
      CollectSymbols(f->left(), cls, out);
      CollectSymbols(f->right(), cls, out);
      return;
    case Formula::Kind::kCompare:
      CollectSymbols(f->expr_left(), cls, out);
      CollectSymbols(f->expr_right(), cls, out);
      return;
  }
}

void CollectAllVariables(const FormulaPtr& f, std::set<std::string>* out);

void CollectAllVariables(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  for (const auto& v : e->vars()) out->insert(v);
  CollectAllVariables(e->body(), out);
  CollectAllVariables(e->cond(), out);
  if (e->lhs() != nullptr) CollectAllVariables(e->lhs(), out);
  if (e->rhs() != nullptr) CollectAllVariables(e->rhs(), out);
}

void CollectTermVariables(const TermPtr& t, std::set<std::string>* out) {
  t->CollectVariables(out);
}

void CollectAllVariables(const FormulaPtr& f, std::set<std::string>* out) {
  if (f == nullptr) return;
  if (f->kind() == Formula::Kind::kForAll ||
      f->kind() == Formula::Kind::kExists) {
    out->insert(f->var());
  }
  for (const auto& t : f->terms()) CollectTermVariables(t, out);
  CollectAllVariables(f->left(), out);
  CollectAllVariables(f->right(), out);
  CollectAllVariables(f->expr_left(), out);
  CollectAllVariables(f->expr_right(), out);
}

}  // namespace

std::set<std::string> FreeVariables(const FormulaPtr& f) {
  std::set<std::string> bound, out;
  CollectFreeVars(f, &bound, &out);
  return out;
}

std::set<std::string> FreeVariables(const ExprPtr& e) {
  std::set<std::string> bound, out;
  CollectFreeVars(e, &bound, &out);
  return out;
}

std::set<std::string> ConstantsOf(const FormulaPtr& f) {
  std::set<std::string> out;
  CollectSymbols(f, SymbolClass::kConstant, &out);
  return out;
}

std::set<std::string> PredicatesOf(const FormulaPtr& f) {
  std::set<std::string> out;
  CollectSymbols(f, SymbolClass::kPredicate, &out);
  return out;
}

std::set<std::string> FunctionsOf(const FormulaPtr& f) {
  std::set<std::string> out;
  CollectSymbols(f, SymbolClass::kFunction, &out);
  return out;
}

std::set<std::string> SymbolsOf(const FormulaPtr& f) {
  std::set<std::string> out;
  CollectSymbols(f, SymbolClass::kAll, &out);
  return out;
}

bool MentionsConstant(const FormulaPtr& f, const std::string& constant) {
  return ConstantsOf(f).count(constant) > 0;
}

FormulaPtr SubstituteVariable(const FormulaPtr& f, const std::string& var,
                              const TermPtr& replacement) {
  return SubstituteVariables(f, {{var, replacement}});
}

namespace {

using Subst = std::vector<std::pair<std::string, TermPtr>>;

Subst Without(const Subst& subst, const std::vector<std::string>& shadowed) {
  Subst out;
  for (const auto& [var, term] : subst) {
    if (std::find(shadowed.begin(), shadowed.end(), var) == shadowed.end()) {
      out.emplace_back(var, term);
    }
  }
  return out;
}

FormulaPtr SubstImpl(const FormulaPtr& f, const Subst& subst);

ExprPtr SubstImpl(const ExprPtr& e, const Subst& subst) {
  if (e == nullptr || subst.empty()) return e;
  switch (e->kind()) {
    case Expr::Kind::kConstant:
      return e;
    case Expr::Kind::kProportion:
    case Expr::Kind::kConditional: {
      Subst inner = Without(subst, e->vars());
      if (inner.empty()) return e;
      FormulaPtr body = SubstImpl(e->body(), inner);
      if (e->kind() == Expr::Kind::kProportion) {
        return Expr::Proportion(body, e->vars());
      }
      return Expr::Conditional(body, SubstImpl(e->cond(), inner), e->vars());
    }
    case Expr::Kind::kAdd:
      return Expr::Add(SubstImpl(e->lhs(), subst), SubstImpl(e->rhs(), subst));
    case Expr::Kind::kSub:
      return Expr::Sub(SubstImpl(e->lhs(), subst), SubstImpl(e->rhs(), subst));
    case Expr::Kind::kMul:
      return Expr::Mul(SubstImpl(e->lhs(), subst), SubstImpl(e->rhs(), subst));
  }
  return e;
}

FormulaPtr SubstImpl(const FormulaPtr& f, const Subst& subst) {
  if (f == nullptr || subst.empty()) return f;
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return f;
    case Formula::Kind::kAtom: {
      std::vector<TermPtr> args;
      args.reserve(f->terms().size());
      for (const auto& t : f->terms()) args.push_back(Term::Substitute(t, subst));
      return Formula::Atom(f->predicate(), std::move(args));
    }
    case Formula::Kind::kEqual:
      return Formula::Equal(Term::Substitute(f->terms()[0], subst),
                            Term::Substitute(f->terms()[1], subst));
    case Formula::Kind::kNot:
      return Formula::Not(SubstImpl(f->left(), subst));
    case Formula::Kind::kAnd:
      return Formula::And(SubstImpl(f->left(), subst),
                          SubstImpl(f->right(), subst));
    case Formula::Kind::kOr:
      return Formula::Or(SubstImpl(f->left(), subst),
                         SubstImpl(f->right(), subst));
    case Formula::Kind::kImplies:
      return Formula::Implies(SubstImpl(f->left(), subst),
                              SubstImpl(f->right(), subst));
    case Formula::Kind::kIff:
      return Formula::Iff(SubstImpl(f->left(), subst),
                          SubstImpl(f->right(), subst));
    case Formula::Kind::kForAll:
    case Formula::Kind::kExists: {
      Subst inner = Without(subst, {f->var()});
      FormulaPtr body = SubstImpl(f->body(), inner);
      return f->kind() == Formula::Kind::kForAll
                 ? Formula::ForAll(f->var(), body)
                 : Formula::Exists(f->var(), body);
    }
    case Formula::Kind::kCompare:
      return Formula::Compare(SubstImpl(f->expr_left(), subst),
                              f->compare_op(),
                              SubstImpl(f->expr_right(), subst),
                              f->tolerance_index());
  }
  return f;
}

}  // namespace

ExprPtr SubstituteVariable(const ExprPtr& e, const std::string& var,
                           const TermPtr& replacement) {
  return SubstImpl(e, {{var, replacement}});
}

FormulaPtr SubstituteVariables(const FormulaPtr& f, const Subst& subst) {
  return SubstImpl(f, subst);
}

std::string FreshVariable(const FormulaPtr& f, const std::string& hint) {
  std::set<std::string> used;
  CollectAllVariables(f, &used);
  if (used.count(hint) == 0) return hint;
  for (int i = 1;; ++i) {
    std::string candidate = hint + std::to_string(i);
    if (used.count(candidate) == 0) return candidate;
  }
}

std::vector<FormulaPtr> Conjuncts(const FormulaPtr& f) {
  std::vector<FormulaPtr> out;
  std::vector<FormulaPtr> stack = {f};
  while (!stack.empty()) {
    FormulaPtr cur = stack.back();
    stack.pop_back();
    if (cur == nullptr) continue;
    if (cur->kind() == Formula::Kind::kAnd) {
      stack.push_back(cur->right());
      stack.push_back(cur->left());
    } else if (cur->kind() != Formula::Kind::kTrue) {
      out.push_back(cur);
    }
  }
  // Restore left-to-right order (stack reversed pushes keep order already).
  return out;
}

ConstantSplit SplitByConstants(const FormulaPtr& f) {
  std::vector<FormulaPtr> constant_free;
  std::vector<FormulaPtr> constant_dependent;
  for (const auto& conjunct : Conjuncts(f)) {
    if (ConstantsOf(conjunct).empty()) {
      constant_free.push_back(conjunct);
    } else {
      constant_dependent.push_back(conjunct);
    }
  }
  ConstantSplit split;
  split.constant_free = Formula::AndAll(constant_free);
  split.constant_dependent = Formula::AndAll(constant_dependent);
  return split;
}

namespace {

// Calls visit(is_predicate, name, arity) for every non-logical symbol
// occurrence of f, in RegisterSymbols' order.
template <typename Visit>
void VisitTermSymbols(const TermPtr& t, const Visit& visit) {
  if (t->kind() == Term::Kind::kApply) {
    visit(false, t->name(), static_cast<int>(t->args().size()));
    for (const auto& a : t->args()) VisitTermSymbols(a, visit);
  }
}

template <typename Visit>
void VisitSymbols(const FormulaPtr& f, const Visit& visit);

template <typename Visit>
void VisitExprSymbols(const ExprPtr& e, const Visit& visit) {
  if (e == nullptr) return;
  if (e->body() != nullptr) VisitSymbols(e->body(), visit);
  if (e->cond() != nullptr) VisitSymbols(e->cond(), visit);
  if (e->lhs() != nullptr) VisitExprSymbols(e->lhs(), visit);
  if (e->rhs() != nullptr) VisitExprSymbols(e->rhs(), visit);
}

template <typename Visit>
void VisitSymbols(const FormulaPtr& f, const Visit& visit) {
  if (f == nullptr) return;
  if (f->kind() == Formula::Kind::kAtom) {
    visit(true, f->predicate(), static_cast<int>(f->terms().size()));
  }
  for (const auto& t : f->terms()) VisitTermSymbols(t, visit);
  if (f->left() != nullptr) VisitSymbols(f->left(), visit);
  if (f->right() != nullptr) VisitSymbols(f->right(), visit);
  VisitExprSymbols(f->expr_left(), visit);
  VisitExprSymbols(f->expr_right(), visit);
}

// Registers f's symbols; a conflict stops registration with the error in
// *conflict, or aborts when `conflict` is null.
void Register(const FormulaPtr& f, Vocabulary* vocabulary,
              std::string* conflict) {
  VisitSymbols(f, [&](bool is_predicate, const std::string& name, int arity) {
    if (conflict != nullptr && !conflict->empty()) return;
    if (is_predicate) {
      vocabulary->AddPredicate(name, arity, conflict);
    } else {
      vocabulary->AddFunction(name, arity, conflict);
    }
  });
}

}  // namespace

void RegisterSymbols(const FormulaPtr& f, Vocabulary* vocabulary) {
  Register(f, vocabulary, nullptr);
}

std::string TryRegisterSymbols(const FormulaPtr& f, Vocabulary* vocabulary) {
  std::string conflict;
  Register(f, vocabulary, &conflict);
  return conflict;
}

std::string SymbolConflict(const FormulaPtr& f, const Vocabulary& vocabulary) {
  // Symbols new to `vocabulary` are checked against each other in `fresh`.
  Vocabulary fresh;
  std::string conflict;
  VisitSymbols(f, [&](bool is_predicate, const std::string& name, int arity) {
    if (!conflict.empty()) return;
    if (is_predicate) {
      conflict = vocabulary.PredicateConflict(name, arity);
      if (conflict.empty() && !vocabulary.FindPredicate(name).has_value()) {
        fresh.AddPredicate(name, arity, &conflict);
      }
    } else {
      conflict = vocabulary.FunctionConflict(name, arity);
      if (conflict.empty() && !vocabulary.FindFunction(name).has_value()) {
        fresh.AddFunction(name, arity, &conflict);
      }
    }
  });
  return conflict;
}

}  // namespace rwl::logic
