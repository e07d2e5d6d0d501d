// Symbolic engine: closed-form Pr_∞ via the paper's theorems.
//
// This engine does what the paper itself does when it computes answers: it
// pattern-matches the KB against the hypotheses of
//
//   Theorem 5.6   — direct inference (the single "right" reference class),
//   Theorem 5.16  — minimal reference class with irrelevant extra facts,
//   Theorem 5.23  — competing chain classes / Kyburg's strength rule,
//   Theorem 5.26  — essentially-disjoint competing classes (Dempster's rule),
//   Theorem 5.27  — vocabulary independence (product rule),
//
// and, when the (decidable, syntactic + class-algebra) side conditions hold,
// returns the interval the theorem guarantees.  It works for the full
// language, including non-unary predicates — exactly the cases where
// finite-N enumeration is hopeless — and returns "inapplicable" otherwise,
// mirroring the paper's own observation (Section 7.4) that the general
// problem is undecidable.
#ifndef RWL_ENGINES_SYMBOLIC_ENGINE_H_
#define RWL_ENGINES_SYMBOLIC_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/engines/engine.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"

namespace rwl {
class QueryContext;
}  // namespace rwl

namespace rwl::engines {

// One statistical conjunct  ||target | refclass||_vars ∈ [lo, hi],
// assembled from one ≈ conjunct or a ⪰/⪯ pair over the same expression.
struct StatStatement {
  logic::FormulaPtr target;
  logic::FormulaPtr refclass;  // Formula::True() when unconditional
  std::vector<std::string> vars;
  double lo = 0.0;
  double hi = 1.0;
  int tolerance_lo = 1;
  int tolerance_hi = 1;
  // Indices into the KB conjunct list that this statement consumes.
  std::vector<size_t> source_conjuncts;

  bool is_point() const { return lo == hi; }
};

// A flattened view of the KB used by all matchers (and reused by the
// reference-class baseline in src/refclass).
struct KbAnalysis {
  std::vector<logic::FormulaPtr> conjuncts;
  std::vector<StatStatement> stats;
  // conjunct index → true when consumed by some StatStatement.
  std::vector<bool> is_stat_conjunct;
};

KbAnalysis AnalyzeKb(const logic::FormulaPtr& kb);

// Matches ∃!x φ(x) (the expansion produced by logic::ExistsUnique);
// returns the bound variable and φ.
struct ExistsUniqueParts {
  std::string var;
  logic::FormulaPtr body;
};
std::optional<ExistsUniqueParts> MatchExistsUnique(const logic::FormulaPtr& f);

struct SymbolicAnswer {
  enum class Status {
    kInterval,     // Pr_∞ ∈ [lo, hi]  (lo == hi: point value)
    kNonexistent,  // the limit provably does not exist (conflicting defaults)
    kInapplicable  // no theorem matched
  };
  Status status = Status::kInapplicable;
  double lo = 0.0;
  double hi = 1.0;
  std::string rule;
  std::string explanation;

  bool is_point() const {
    return status == Status::kInterval && lo == hi;
  }
};

class SymbolicEngine {
 public:
  struct Options {
    // Theorem 5.23 requires ¬(||ψ1(x)||_x ≈ 0) in the KB.  The paper notes
    // (footnote 15) that this follows by default via maximum entropy; with
    // this flag set the matcher assumes it instead of requiring the
    // conjunct.
    bool assume_reference_classes_nonempty = true;
    int max_recursion = 4;  // for the Theorem 5.27 product rule
  };

  SymbolicEngine() = default;
  explicit SymbolicEngine(const Options& options) : options_(options) {}

  // Answers through a context (core/query_context.h): reuses the context's
  // cached KbAnalysis (the flattening is per-KB, not per-query) and, when
  // caching is enabled, memoizes the answer under the query's node id.
  SymbolicAnswer Infer(QueryContext& ctx,
                       const logic::FormulaPtr& query) const;

  // Planner cost model: the (tiny) matcher pass over the KB's
  // statistical conjuncts.
  CostEstimate EstimateCost(const QueryContext& ctx,
                            const logic::FormulaPtr& query) const;

  // Individual theorem matchers, exposed for tests.
  std::optional<SymbolicAnswer> TryDirectInference(
      const KbAnalysis& kb, const logic::FormulaPtr& query) const;
  std::optional<SymbolicAnswer> TryMinimalReferenceClass(
      const KbAnalysis& kb, const logic::FormulaPtr& query) const;
  std::optional<SymbolicAnswer> TryStrengthRule(
      const KbAnalysis& kb, const logic::FormulaPtr& query) const;
  std::optional<SymbolicAnswer> TryDempster(
      const KbAnalysis& kb, const logic::FormulaPtr& query) const;
  std::optional<SymbolicAnswer> TryIndependence(
      const KbAnalysis& kb, const logic::FormulaPtr& query, int depth) const;

 private:
  SymbolicAnswer InferAtDepth(const logic::FormulaPtr& kb,
                              const logic::FormulaPtr& query,
                              int depth) const;
  SymbolicAnswer InferAnalyzed(const KbAnalysis& analysis,
                               const logic::FormulaPtr& query,
                               int depth) const;

  Options options_;
};

}  // namespace rwl::engines

#endif  // RWL_ENGINES_SYMBOLIC_ENGINE_H_
