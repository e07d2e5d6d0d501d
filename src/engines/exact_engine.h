// Exact engine: brute-force enumeration of W_N(Φ).
//
// Enumerates every world over the vocabulary — all 2^(predicate cells) ×
// N^(function cells) interpretations — evaluates KB and KB ∧ φ in each with
// compiled bytecode programs (semantics/compile.h + vm.h), and returns the
// ratio of counts.  The enumeration is sharded over contiguous world-index
// ranges on a worker pool with deterministic index-order merging.  This is
// the definitional computation of Pr_N^τ (Section 4.2) with no semantic
// shortcuts, usable only for tiny vocabularies and domain sizes; it serves
// as the ground-truth oracle that the profile, maximum-entropy and symbolic
// engines are validated against.
//
// One shortcut preserves bit-identity: when KB and query are both
// aggregate-only (compile.h AnalyzeAggregate — they observe a world only
// through unary predicate cardinalities), the enumeration collapses to a
// counting loop over compositions of N into the 2^m predicate classes,
// weighting each by its multinomial.  That is polynomial in N, so such
// instances are supported at domain sizes far beyond the enumeration cap.
#ifndef RWL_ENGINES_EXACT_ENGINE_H_
#define RWL_ENGINES_EXACT_ENGINE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/engines/engine.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"

namespace rwl::engines {

// Filter-patches one recorded exact world list (a type-erased context blob
// stored under an "exact.worlds|..." key) for a signature-preserving
// append mutation: each recorded world's cells are restored and run
// through the compiled conjunction of the appended formulas; survivors
// keep their recorded order, so replaying the patched list is
// bit-identical to a fresh odometer sweep under the new KB.  Returns the
// patched list with *bytes_out set to its ByteSize, or null when the blob
// is not a valid recorded list or the appended conjunction fails to
// compile — the caller then lets the point recompute lazily.
std::shared_ptr<const void> PatchExactWorlds(
    const std::shared_ptr<const void>& blob,
    const logic::Vocabulary& vocabulary,
    const std::vector<logic::FormulaPtr>& appended, size_t* bytes_out);

class ExactEngine : public FiniteEngine {
 public:
  // `max_log2_worlds` caps the enumeration: the engine refuses instances
  // with more than 2^max_log2_worlds worlds.  `num_threads` shards the
  // world odometer across a worker pool (0 = one per hardware thread);
  // shards cover contiguous index ranges and merge in index order, so
  // counts — and recorded world lists — are bit-identical at every thread
  // count.
  explicit ExactEngine(double max_log2_worlds = 26.0, int num_threads = 0)
      : max_log2_worlds_(max_log2_worlds), num_threads_(num_threads) {}

  std::string name() const override { return "exact"; }

  // Beyond the enumeration cap only aggregate-only instances qualify.
  // Deciding that compiles the KB and query locally, like AnalyzeCost:
  // filling the context's compiled cache during assessment would change
  // ApproximateProgramLength, and with it the planner's predicted work.
  bool Supports(const QueryContext& ctx, const logic::FormulaPtr& query,
                int domain_size) const override;

  std::string CacheSalt() const override;

  // Planner cost model: world-odometer size 2^(predicate cells) ×
  // N^(function cells), times the compiled KB+query program length.
  // Aggregate-only instances instead report the composition count of the
  // counting loop — near-free, so min-cost planning prefers this engine.
  CostEstimate EstimateCost(const QueryContext& ctx,
                            const logic::FormulaPtr& query,
                            int domain_size) const;

  // The N-independent half of EstimateCost: the KB + query program length
  // and, when both compile to aggregate-only programs over few enough
  // predicates, the counting loop's predicate count (else -1).  A sweep
  // analyzes once and prices each N with the overload below; the estimate
  // is the same as EstimateCost(ctx, query, N).
  struct CostInputs {
    double length = 0.0;
    int counting_predicates = -1;
  };
  CostInputs AnalyzeCost(const QueryContext& ctx,
                         const logic::FormulaPtr& query) const;
  CostEstimate EstimateCost(const QueryContext& ctx, const CostInputs& inputs,
                            int domain_size) const;

 protected:
  // The KB-satisfying worlds at one (N, ⃗τ) are query-independent, so with
  // caching on the first query records them (within a memory cap) and
  // later queries evaluate only against the recorded worlds instead of
  // enumerating all of W_N.  With caching off every call enumerates.
  FiniteResult DegreeAtInContext(QueryContext& ctx,
                                 const logic::FormulaPtr& query,
                                 int domain_size,
                                 const semantics::ToleranceVector& tolerances)
      const override;

 private:
  double max_log2_worlds_;
  int num_threads_;
};

}  // namespace rwl::engines

#endif  // RWL_ENGINES_EXACT_ENGINE_H_
