// Profile engine: exact Pr_N^τ for unary-relational vocabularies at
// realistic domain sizes.
//
// For a vocabulary of k unary predicates and m constants, a world is
// determined by (i) which of the 2^k atoms (Section 6) each domain element
// satisfies and (ii) the denotations of the constants.  Worlds therefore
// group into *profiles*: an atom-count vector ⃗n (Σ n_a = N) together with a
// placement of the constants (a coincidence pattern — which constants denote
// the same element — plus an atom per group).  The number of worlds in a
// profile is
//
//     multinomial(N; ⃗n) × Π_a falling(n_a, d_a)
//
// where d_a is the number of distinct constant-elements placed in atom a.
// Truth of any L≈ sentence is constant across a profile, so Pr_N^τ is
// computed exactly by a DFS over profiles with log-space weights.  Linear
// proportion constraints extracted from the KB prune the DFS; pruning is
// conservative (it never discards a satisfiable profile) and the leaf
// evaluation re-checks the KB semantically, so pruning affects speed only.
//
// Leaf evaluation runs a compiled *leaf program*: predicates are resolved
// to atom bits, variables to binder slots and constants to placement
// blocks once, before the DFS.  A single-variable proportion, conditional
// proportion or quantifier over a class (logic::CompileClass) is an atom
// list summed over ⃗n — the integer a per-element count would reach, since
// pool, pinned and named elements of atom a number n_a together — so the
// doubles are those of the definition.  Anything else (equality, several
// variables, nested quantifiers) runs on the same program's slot-indexed
// walker over element classes (named constant elements plus one anonymous
// pool per atom).  The KB's constant-free part (checked once per profile)
// and constant-dependent part (once per placement) are compiled once per
// QueryContext, together with the taxonomy and the pruning templates; the
// query is compiled once per call.  One program serves every evaluation
// site: the sweep, replay of a recorded world list, and patching a
// recorded list after an append.
//
// Emptiness certificate: before each sweep point's DFS, the engine looks
// for Farkas multipliers y ≥ 0 over the point's own pruning rows
// (lo·cond − body ≤ 1e-9, body − hi·cond ≤ 1e-9, restricted to the
// allowed atoms).  It skips the DFS only when a check in doubles proves
// that no count vector passes the leaf's constraint test: every combined
// allowed-atom coefficient is ≥ δ with δ·N − 1e-9·Σy > 1e-6·Σy·N, a margin
// that covers every rounding error of the check and of the leaf test.  A
// dense simplex proposes y, and soundness rests on that check alone.  A
// skipped point returns exactly what a DFS that finds no leaf returns: an
// undefined FiniteResult, and a valid, empty recorded world list.  The KB
// is then not eventually consistent at that point (S(KB) is empty,
// Section 6), and that is settled without a search.
#ifndef RWL_ENGINES_PROFILE_ENGINE_H_
#define RWL_ENGINES_PROFILE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/engines/engine.h"
#include "src/logic/classalg.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"

namespace rwl::engines {

// The compiled KB half of every profile evaluation (leaf programs for the
// constant-free and constant-dependent parts, taxonomy, pruning
// templates, placements).  Opaque; QueryContext::profile_kb_program()
// holds one per context.
struct ProfileKbProgram;

std::shared_ptr<const ProfileKbProgram> CompileProfileKb(
    const logic::Vocabulary& vocabulary,
    const logic::FormulaPtr& constant_free,
    const logic::FormulaPtr& constant_dependent);

// A linear bound the DFS prunes with, instantiated from a proportion
// conjunct of the KB at one (N, ⃗τ) point:
//   lo · Σ_{a∈cond} n_a  ≤  Σ_{a∈body} n_a  ≤  hi · Σ_{a∈cond} n_a
// where body ⊆ cond (cond is every atom for an unconditional proportion).
// The leaf's constraint test accepts a count vector ⃗n when, in doubles,
// lo·cond ≤ body + 1e-9 and body ≤ hi·cond + 1e-9 for every bound.
struct PruneConstraint {
  logic::AtomSet body;
  logic::AtomSet cond;
  double lo = 0.0;
  double hi = 1.0;
};

// The emptiness certificate: true when Farkas multipliers y ≥ 0 over the
// rows lo·cond − body ≤ 1e-9 and body − hi·cond ≤ 1e-9, restricted to the
// `allowed` atoms, prove that no count vector with Σ n_a = domain_size
// (n_a = 0 off `allowed`) passes the leaf's constraint test.  Any search
// may propose y; the verdict rests on a check in doubles alone: with every
// combined allowed-atom coefficient ≥ δ, δ·N − 1e-9·Σy > 1e-6·Σy·N.
bool CertifiesNoCountVector(const std::vector<PruneConstraint>& constraints,
                            const logic::AtomSet& allowed,
                            int64_t domain_size);

// Whether the sweep point (N, ⃗τ) of `kb` skips its DFS on a verified
// certificate: the KB's pruning rows instantiated at ⃗τ certify that no
// leaf can pass, over a vocabulary of more than one atom.
bool SweepPointCertifiedEmpty(const ProfileKbProgram& kb, int domain_size,
                              const semantics::ToleranceVector& tolerances);

// Filter-patches one recorded profile world list (a type-erased context
// blob stored under a "profile.worlds|..." key) for a signature-preserving
// append mutation: every recorded (profile, placement) world is re-checked
// against the appended conjuncts and survivors keep their order and
// log-weights, so replaying the patched list is bit-identical to a fresh
// DFS under the new KB (new worlds ⊆ old worlds, same enumeration order).
// Returns the patched list with *bytes_out set to its ByteSize, or null
// when the blob is not a valid recorded list (marker or tombstone) — the
// caller then lets the point recompute lazily under the new salt.
std::shared_ptr<const void> PatchProfileWorlds(
    const std::shared_ptr<const void>& blob,
    const logic::Vocabulary& vocabulary,
    const std::vector<logic::FormulaPtr>& appended, size_t* bytes_out);

// Prior over worlds (Section 7.3).
enum class Prior {
  // The random-worlds prior: every world equally likely (the paper's main
  // method).
  kUniformWorlds,
  // The random-propensities prior of [BGHK92]: each unary predicate P_i has
  // an unknown propensity p_i ~ Uniform[0,1]; domain elements satisfy P_i
  // independently with probability p_i, predicates independent.  Worlds
  // then weigh as Π_i c_i!(N-c_i)!/(N+1)! where c_i = |P_i|.  Unlike
  // random worlds, this prior *learns from samples* (and, as the paper
  // notes, sometimes overlearns); see tests/propensities_test.cc.
  kRandomPropensities,
};

class ProfileEngine : public FiniteEngine {
 public:
  struct Options {
    // Abort (FiniteResult::exhausted) after visiting this many DFS leaves.
    uint64_t max_leaves = 2'000'000;
    // Refuse vocabularies with more atoms than this.
    int max_atoms = 256;
    // Refuse KBs with more constants than this (placements grow as
    // Bell(m) · atoms^m).
    int max_constants = 6;
    Prior prior = Prior::kUniformWorlds;
  };

  ProfileEngine() = default;
  explicit ProfileEngine(const Options& options) : options_(options) {}

  std::string name() const override { return "profile"; }

  bool Supports(const QueryContext& ctx, const logic::FormulaPtr& query,
                int domain_size) const override;

  std::string CacheSalt() const override;

  // Planner cost model: raw profile count C(N+A-1, A-1) (capped at the
  // leaf budget — the DFS aborts there) × constant placements × the
  // compiled KB+query program length.
  CostEstimate EstimateCost(const QueryContext& ctx,
                            const logic::FormulaPtr& query,
                            int domain_size) const;

 protected:
  // The DFS over profiles is query-independent up to the leaf evaluation,
  // so with caching on the first query at each (N, ⃗τ) records the
  // satisfying (profile, placement) world list into the context and every
  // later query replays it — an evaluation per surviving world instead of a
  // DFS over all of them.  Replay accumulates the same log-weights in the
  // same order, so answers are bit-identical to the cache-free path, which
  // compiles the KB per call and runs the DFS.
  FiniteResult DegreeAtInContext(QueryContext& ctx,
                                 const logic::FormulaPtr& query,
                                 int domain_size,
                                 const semantics::ToleranceVector& tolerances)
      const override;

 private:
  Options options_;
};

}  // namespace rwl::engines

#endif  // RWL_ENGINES_PROFILE_ENGINE_H_
