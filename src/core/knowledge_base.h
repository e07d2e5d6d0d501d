// KnowledgeBase: the public container for an agent's knowledge.
//
// Holds a vocabulary and a conjunction of L≈ sentences.  Formulas can be
// added programmatically (via the builder DSL) or parsed from the textual
// syntax; symbol registration (predicates, constants, functions, with
// arities inferred from use) is automatic.
//
// The conjunct list is a persistent (structurally shared) vector: copying
// a KnowledgeBase shares every stored formula chunk with the original, so
// the service catalog's copy-on-write mutation path costs O(delta), not
// O(KB).  The conjunction formula is maintained incrementally as the same
// left fold logic::Formula::AndAll performs, so AsFormula() is O(1) and
// hash-conses to the identical node.
#ifndef RWL_CORE_KNOWLEDGE_BASE_H_
#define RWL_CORE_KNOWLEDGE_BASE_H_

#include <string>
#include <string_view>

#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"
#include "src/util/persistent_vector.h"

namespace rwl {

class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  // Adds a sentence (conjunct).
  void Add(const logic::FormulaPtr& formula);

  // Parses and adds; returns false (with the message in *error) on a parse
  // error or a symbol-signature conflict (logic::TryRegisterSymbols),
  // leaving the KB unchanged.
  bool AddParsed(std::string_view text, std::string* error = nullptr);

  // Registers the symbols of a formula without asserting it (used for
  // queries, so that query-only symbols — e.g. a fresh constant — exist in
  // the vocabulary).
  void RegisterQuerySymbols(const logic::FormulaPtr& query);

  // The conjunction of everything added (logic::Formula::True() if empty).
  logic::FormulaPtr AsFormula() const;

  const util::PersistentVector<logic::FormulaPtr>& conjuncts() const {
    return conjuncts_;
  }
  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  logic::Vocabulary& mutable_vocabulary() { return vocabulary_; }

  // Human-readable dump, one conjunct per line.
  std::string ToString() const;

 private:
  logic::Vocabulary vocabulary_;
  util::PersistentVector<logic::FormulaPtr> conjuncts_;
  // Left fold of conjuncts_ (null when empty), kept in lockstep by Add so
  // AsFormula never re-folds the whole list.
  logic::FormulaPtr formula_;
};

}  // namespace rwl

#endif  // RWL_CORE_KNOWLEDGE_BASE_H_
