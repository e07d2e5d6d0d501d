// Structural transformations and queries over L≈ formulas: free variables,
// symbol collection, substitution, conjunct flattening.
//
// Note on binding: both quantifiers and proportion subscripts bind variables
// (the paper observes that ||·||_X is a new kind of quantification), so the
// free-variable and substitution routines treat proportion subscripts as
// binders.
#ifndef RWL_LOGIC_TRANSFORM_H_
#define RWL_LOGIC_TRANSFORM_H_

#include <set>
#include <string>
#include <vector>

#include "src/logic/formula.h"

namespace rwl::logic {

// Free variables of a formula / expression.
std::set<std::string> FreeVariables(const FormulaPtr& f);
std::set<std::string> FreeVariables(const ExprPtr& e);

// All constant symbols mentioned.
std::set<std::string> ConstantsOf(const FormulaPtr& f);
// All predicate symbols mentioned.
std::set<std::string> PredicatesOf(const FormulaPtr& f);
// All function symbols (including constants) mentioned.
std::set<std::string> FunctionsOf(const FormulaPtr& f);
// All non-logical symbols (predicates + functions + constants).
std::set<std::string> SymbolsOf(const FormulaPtr& f);

// True if the formula mentions the given constant anywhere.
bool MentionsConstant(const FormulaPtr& f, const std::string& constant);

// Substitutes the free occurrences of `var` by `replacement`.
// Quantifiers and proportion subscripts shadow: bound occurrences are left
// untouched.  The replacement term must not contain variables that would be
// captured; callers substituting ground terms (the common case: variables by
// constants, as in φ(⃗c) of Theorem 5.6) are always safe.
FormulaPtr SubstituteVariable(const FormulaPtr& f, const std::string& var,
                              const TermPtr& replacement);
ExprPtr SubstituteVariable(const ExprPtr& e, const std::string& var,
                           const TermPtr& replacement);

// Simultaneous substitution of several variables by terms.
FormulaPtr SubstituteVariables(
    const FormulaPtr& f,
    const std::vector<std::pair<std::string, TermPtr>>& subst);

// A variable name based on `hint` that does not occur (free or bound) in f.
std::string FreshVariable(const FormulaPtr& f, const std::string& hint);

// Splits nested conjunctions into a flat conjunct list (the "KB as a set of
// conjuncts" view used by the symbolic engine and the reference-class
// reasoner).
std::vector<FormulaPtr> Conjuncts(const FormulaPtr& f);

// Splits a KB into the conjunction of conjuncts mentioning no constant and
// the conjunction of the rest, preserving conjunct order.  The profile
// engine evaluates the first once per profile and the second once per
// constant placement; QueryContext::kb_split caches this same split, and
// the two call sites must agree for cached answers to be bit-identical to
// uncached ones — hence the single implementation.
struct ConstantSplit {
  FormulaPtr constant_free;       // True() when no such conjunct
  FormulaPtr constant_dependent;  // True() when no such conjunct
};
ConstantSplit SplitByConstants(const FormulaPtr& f);

// Registers every non-logical symbol of f into the vocabulary, inferring
// arities from use (atoms declare predicates, applications declare
// functions/constants).
class Vocabulary;
void RegisterSymbols(const FormulaPtr& f, Vocabulary* vocabulary);

// RegisterSymbols that stops at the first conflict — a symbol used at two
// arities or as two kinds, within f or against `vocabulary` — instead of
// aborting, and returns it, worded as Vocabulary::PredicateConflict /
// FunctionConflict word it ("" when every symbol registered).  Symbols
// registered before the conflict stay (Vocabulary::Truncate undoes them).
std::string TryRegisterSymbols(const FormulaPtr& f, Vocabulary* vocabulary);

// The conflict TryRegisterSymbols(f, copy of `vocabulary`) would stop at,
// without touching `vocabulary` ("" when none): the check the inference
// entry points run on an untrusted query against a KB's vocabulary.
std::string SymbolConflict(const FormulaPtr& f, const Vocabulary& vocabulary);

}  // namespace rwl::logic

#endif  // RWL_LOGIC_TRANSFORM_H_
