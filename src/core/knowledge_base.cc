#include "src/core/knowledge_base.h"

#include <sstream>
#include <utility>

#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"

namespace rwl {

void KnowledgeBase::Add(const logic::FormulaPtr& formula) {
  for (const auto& conjunct : logic::Conjuncts(formula)) {
    logic::RegisterSymbols(conjunct, &vocabulary_);
    // The same left fold as Formula::AndAll over the full list: the
    // incremental formula hash-conses to the identical node, so the KB
    // formula id (and every version salt derived from it) is independent
    // of how the conjuncts arrived.
    formula_ = conjuncts_.empty() ? conjunct
                                  : logic::Formula::And(formula_, conjunct);
    conjuncts_.push_back(conjunct);
  }
}

bool KnowledgeBase::AddParsed(std::string_view text, std::string* error) {
  logic::ParseResult result = logic::ParseKnowledgeBase(text);
  if (!result.ok()) {
    if (error != nullptr) {
      std::ostringstream message;
      message << result.error << " at offset " << result.error_offset;
      *error = message.str();
    }
    return false;
  }
  // Register first, so a conflict leaves the KB as it was.
  const int num_predicates = vocabulary_.num_predicates();
  const int num_functions = vocabulary_.num_functions();
  std::string conflict = logic::TryRegisterSymbols(result.formula, &vocabulary_);
  if (!conflict.empty()) {
    vocabulary_.Truncate(num_predicates, num_functions);
    if (error != nullptr) *error = std::move(conflict);
    return false;
  }
  Add(result.formula);
  return true;
}

void KnowledgeBase::RegisterQuerySymbols(const logic::FormulaPtr& query) {
  logic::RegisterSymbols(query, &vocabulary_);
}

logic::FormulaPtr KnowledgeBase::AsFormula() const {
  return conjuncts_.empty() ? logic::Formula::True() : formula_;
}

std::string KnowledgeBase::ToString() const {
  std::ostringstream out;
  for (const auto& conjunct : conjuncts_) {
    out << logic::ToString(conjunct) << "\n";
  }
  return out.str();
}

}  // namespace rwl
