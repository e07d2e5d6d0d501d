// The cross-engine differential oracle.
//
// The paper's central claim is that the degree of belief is ONE
// well-defined quantity however it is computed.  This oracle operationalizes
// that claim as executable checks over a Scenario:
//
//   finite    — every FiniteEngine that supports the instance computes the
//               same Pr_N^τ at each sampled (N, ⃗τ), compared through the
//               tolerance-aware ResultsEquivalent hook (deterministic
//               engines to 1e-9, statistical estimators within a z-score
//               sampling allowance);
//   context   — each engine's answer through a shared caching QueryContext
//               (mark → record → replay / memo) is bit-identical to its
//               answer through a cache-free context;
//   pipeline  — the full DegreeOfBelief pipeline with the symbolic theorem
//               engine enabled agrees with the numeric-only pipeline
//               whenever both converge (intervals must contain the numeric
//               point);
//   maxent    — the maximum-entropy limit agrees with the profile engine's
//               N-sweep estimate on unary scenarios when both converge;
//   batch     — DegreesOfBelief over the query batch equals the sequential
//               per-query answers exactly;
//   service   — after a deterministic pseudo-random ASSERT/RETRACT
//               sequence through the service catalog (copy-on-write
//               snapshots, version-salted cache adoption), the
//               incrementally-maintained head KB answers every query
//               bit-identically to a KB rebuilt from scratch — and so
//               does a version pinned mid-sequence (no cross-version
//               cache leaks);
//   replica   — the same kind of sequence shipped as WAL records through
//               the replication pipeline (hub -> subscription -> applier,
//               SNAPSHOT bootstrap first) leaves a replica catalog
//               answering bit-identically to the primary, head and
//               pinned-version alike;
//   defaults  — on propositional-defaults-fragment scenarios, the three
//               defaults strategies (epsilon_semantics, klm, gmp90) agree
//               with each other exactly and with the planner's numeric
//               answer within a loose limit epsilon;
//   evidence  — on Theorem 5.26 scenarios, the evidence strategy's
//               Dempster closed form matches the symbolic engine's
//               independent TryDempster to 1e-9;
//   coverage  — a calibrated-interval answer's empirical coverage of the
//               ground-truth enumeration sweep is at least
//               confidence - tolerance.
//
// Any violated check becomes a Disagreement; a scenario with at least one
// disagreement is a fuzzing failure, to be shrunk (shrinker.h) and checked
// into tests/corpus/.
#ifndef RWL_TESTING_DIFFERENTIAL_H_
#define RWL_TESTING_DIFFERENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/inference.h"
#include "src/engines/engine.h"
#include "src/semantics/tolerance.h"
#include "src/testing/scenario.h"

namespace rwl::testing {

struct DifferentialOptions {
  // Domain sizes for the finite-N oracle (small: the exact engine must
  // support them for the crisp comparisons to run).
  std::vector<int> domain_sizes = {2, 3, 4};
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.2);
  engines::ResultTolerance finite_tolerance;

  // vm — the compiled bytecode VM (semantics/compile.h + vm.h) must agree
  // with the tree-walking evaluator bit for bit on every formula of the
  // scenario, over `vm_worlds` pseudo-random worlds per domain size
  // (deterministically seeded).  Cheap, so on by default everywhere,
  // including corpus replay.
  bool check_vm = true;
  int vm_worlds = 8;
  // Extra vm-check domain sizes around the 64-bit word boundary of the
  // packed unary world representation (world.h): tail-word masking bugs in
  // the popcount kernels only show at N near multiples of 64.  Applied
  // only to unary-relational vocabularies — the tree-walking oracle is
  // O(N^depth) per world on relations of higher arity.
  std::vector<int> vm_extra_domain_sizes = {63, 64, 65, 127};

  // Limit-level checks (pipeline / maxent).  Numeric sweeps estimate the
  // N → ∞ limit from finite prefixes, so the epsilon is necessarily loose.
  bool check_pipeline = true;
  bool check_maxent = true;
  bool check_batch = true;
  double limit_epsilon = 0.15;

  // service — incremental maintenance through the service catalog: a
  // mutation sequence (retracts, re-asserts, a vocabulary-extending fresh
  // fact) derived deterministically from the scenario text must leave the
  // head — and a mid-sequence pinned version — answering bit-identically
  // to a from-scratch rebuild of the same conjuncts and vocabulary.
  bool check_service = true;
  // replica — a second mutation sequence shipped through the replication
  // pipeline (WAL record encode -> ReplicationHub -> ReplicaApplier, with
  // a SNAPSHOT bootstrap like rwld's TAIL handshake): the replica catalog
  // must answer bit-identically to the primary at the head AND at a
  // mid-sequence pin mapped through the primary->local version vector.
  bool check_replica = true;
  // Mutation steps (bounded by the conjunct count; 0 disables).
  int service_mutations = 6;
  // The check's own sweep schedule, deliberately shallow: a stale cache
  // replay shows up at any N, and every from-scratch rebuild pays a
  // cold full sweep — deep schedules would dominate fuzzing wall-clock
  // without adding discrimination.
  std::vector<int> service_domain_sizes = {4, 6};

  // planner — the cost-based planner's answer (core/planner.h) must be
  // differentially equivalent, via ResultsEquivalent at the limit level,
  // to the answer of every forced applicable strategy (rwlq --engine
  // semantics), and to its own cost-ordered mode; a repeated query through
  // one context (a plan-cache hit) must be bit-identical to the cold
  // plan's answer.
  bool check_planner = true;
  // Sweep schedule for the pipeline checks.  Kept small: the fuzzer runs
  // thousands of scenarios, and the profile DFS grows combinatorially in
  // (N, atoms) — at 8 atoms the leaf count at N=24 already exceeds the
  // engine's work budget, turning every check into a wasted 2M-leaf abort.
  std::vector<int> pipeline_domain_sizes = {8, 12, 16};
  std::vector<double> pipeline_tolerance_scales = {1.0, 0.5};

  // defaults — forced runs of the defaults family on propositional-
  // defaults-fragment scenarios: epsilon_semantics and klm decide the same
  // p-entailment relation by independent algorithms (greedy peel vs subset
  // enumeration — their points must match exactly); a p-entailed point
  // must also be the gmp90 point (p-entailment is a conservative part of
  // the maximum-entropy system); and the planner's own answer must agree
  // with any defaults point within defaults_epsilon.  Self-gating:
  // scenarios outside the fragment cost one analyzer call.
  bool check_defaults = true;
  // evidence — the forced `evidence` strategy vs the symbolic engine's
  // independent TryDempster matcher on Theorem 5.26 scenarios: closed-form
  // points must match to 1e-9, nonexistence verdicts must pair up, and the
  // planner must agree.  Self-gating like `defaults`.
  bool check_evidence = true;
  // Epsilon for defaults/evidence points vs numeric-sweep answers: the
  // closed forms sit at exactly 0/1 while finite prefixes approach them
  // slowly, so this is necessarily looser than limit_epsilon.
  double defaults_epsilon = 0.25;
  // coverage — calibrated-interval mode: answer the first queries with
  // interval_confidence = coverage_confidence, replay the same sweep
  // schedule on the ground-truth enumeration engine, and require the
  // empirical coverage of the well-defined ground-truth values to be
  // ≥ coverage_confidence - coverage_tolerance.  Costs a full enumeration
  // sweep per query, so off by default (the fuzzer turns it on for
  // calibrated profiles; rwlfuzz --checks coverage).
  bool check_coverage = false;
  double coverage_confidence = 0.9;
  double coverage_tolerance = 0.05;
};

struct Disagreement {
  std::string check;  // "vm", "finite", "context", "pipeline", "maxent",
                      // "batch", "planner", "plan-cache", "service",
                      // "replica"
  std::string lhs;    // engine / strategy names
  std::string rhs;
  logic::FormulaPtr query;
  int domain_size = 0;  // 0 for limit-level checks
  std::string detail;
};

struct DifferentialReport {
  int comparisons = 0;
  std::vector<Disagreement> disagreements;

  bool ok() const { return disagreements.empty(); }
  std::string Summary(const Scenario& scenario) const;
};

// An owning set of finite engines for the oracle.  The default set is
// exact + profile, plus Monte Carlo when `montecarlo_samples` > 0.
struct EngineSet {
  std::vector<std::unique_ptr<engines::FiniteEngine>> owned;

  std::vector<const engines::FiniteEngine*> pointers() const;
  void Add(std::unique_ptr<engines::FiniteEngine> engine);
};

EngineSet DefaultEngineSet(uint64_t montecarlo_samples = 0);

// Fraction of well-defined series points whose probability lies in
// [lo - 1e-9, hi + 1e-9] — the coverage check's scoring primitive,
// exposed for unit tests.  A series with no well-defined point scores 1.0
// (vacuous coverage).
double EmpiricalCoverage(const std::vector<engines::SeriesPoint>& series,
                         double lo, double hi);

// Runs every applicable check over the scenario with the given engine set.
DifferentialReport RunDifferential(
    const Scenario& scenario,
    const std::vector<const engines::FiniteEngine*>& engines,
    const DifferentialOptions& options);

// Convenience: default engine set.
DifferentialReport RunDifferential(const Scenario& scenario,
                                   const DifferentialOptions& options);

}  // namespace rwl::testing

#endif  // RWL_TESTING_DIFFERENTIAL_H_
