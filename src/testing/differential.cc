#include "src/testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

#include "src/core/planner.h"
#include "src/core/query_context.h"
#include "src/defaults/fragment.h"
#include "src/engines/exact_engine.h"
#include "src/evidence/combination.h"
#include "src/service/catalog.h"
#include "src/service/replica.h"
#include "src/service/wal.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/semantics/compile.h"
#include "src/semantics/evaluator.h"
#include "src/semantics/vm.h"
#include "src/testing/montecarlo_engine.h"

namespace rwl::testing {
namespace {

using engines::FiniteEngine;
using engines::FiniteResult;

// Bit-level equality: the caching path (memo / record-replay) is required
// to reproduce the cache-free computation exactly, not just approximately.
bool BitIdentical(const FiniteResult& a, const FiniteResult& b) {
  return a.well_defined == b.well_defined && a.exhausted == b.exhausted &&
         a.probability == b.probability &&
         a.log_numerator == b.log_numerator &&
         a.log_denominator == b.log_denominator;
}

std::string AnswerToString(const Answer& answer) {
  std::ostringstream out;
  out << StatusToString(answer.status);
  if (answer.status == Answer::Status::kPoint) {
    out << " " << answer.value;
  } else if (answer.status == Answer::Status::kInterval) {
    out << " [" << answer.lo << ", " << answer.hi << "]";
  }
  out << (answer.converged ? " (converged" : " (not converged");
  if (!answer.method.empty()) out << "; " << answer.method;
  out << ")";
  return out.str();
}

// Limit-level, tolerance-aware comparison of two pipeline answers for the
// same query.  kUnknown and kNonexistent are uninformative for a numeric
// cross-check (the sweep sees only a finite prefix of the limit), so those
// pairs are skipped.  Returns false with an explanation on disagreement;
// *compared reports whether the pair carried information.
bool PipelineAnswersAgree(const Answer& a, const Answer& b, double epsilon,
                          bool* compared, std::string* why) {
  *compared = false;
  auto skip = [&] { return true; };
  if (a.status == Answer::Status::kUnknown ||
      b.status == Answer::Status::kUnknown ||
      a.status == Answer::Status::kNonexistent ||
      b.status == Answer::Status::kNonexistent) {
    return skip();
  }
  auto fail = [&](const std::string& message) {
    *compared = true;
    if (why != nullptr) {
      *why = message + "  [" + AnswerToString(a) + " vs " +
             AnswerToString(b) + "]";
    }
    return false;
  };
  if (a.status == Answer::Status::kUndefined ||
      b.status == Answer::Status::kUndefined) {
    if (a.status == b.status) {
      *compared = true;
      return true;
    }
    // Mismatched undefinedness here always means a symbolic theorem
    // finalized while the numeric sweep saw no worlds in its finite
    // prefix (both pipelines share the numeric strategies, options and
    // caches).  Eventual consistency is exactly what a finite prefix
    // cannot decide, so this is uninformative, not a disagreement.
    return skip();
  }
  // Point / interval cases.  Unconverged numeric points are estimates
  // without error bars; skip them.
  if (!a.converged || !b.converged) return skip();
  double a_lo = a.status == Answer::Status::kPoint ? a.value : a.lo;
  double a_hi = a.status == Answer::Status::kPoint ? a.value : a.hi;
  double b_lo = b.status == Answer::Status::kPoint ? b.value : b.lo;
  double b_hi = b.status == Answer::Status::kPoint ? b.value : b.hi;
  if (a_lo - epsilon > b_hi || b_lo - epsilon > a_hi) {
    return fail("answers do not overlap within epsilon " +
                std::to_string(epsilon));
  }
  *compared = true;
  return true;
}

// Limit-level equivalence of two planner/forced-strategy answers.  Status
// handling (skips for unknown / nonexistent / unconverged answers,
// undefinedness pairing) mirrors PipelineAnswersAgree; interval answers
// compare by overlap, points to within epsilon, which absorbs
// finite-prefix extrapolation bias.
bool PlannerAnswersAgree(const Answer& a, const Answer& b, double epsilon,
                         bool* compared, std::string* why) {
  *compared = false;
  if (a.status == Answer::Status::kUnknown ||
      b.status == Answer::Status::kUnknown ||
      a.status == Answer::Status::kNonexistent ||
      b.status == Answer::Status::kNonexistent) {
    return true;
  }
  if (a.status == Answer::Status::kUndefined ||
      b.status == Answer::Status::kUndefined) {
    if (a.status == b.status) {
      *compared = true;
      return true;
    }
    // A symbolic theorem can finalize where a numeric strategy's finite
    // prefix sees no worlds; uninformative (as in the pipeline check).
    return true;
  }
  if (!a.converged || !b.converged) return true;
  if (a.status == Answer::Status::kInterval ||
      b.status == Answer::Status::kInterval) {
    double a_lo = a.status == Answer::Status::kPoint ? a.value : a.lo;
    double a_hi = a.status == Answer::Status::kPoint ? a.value : a.hi;
    double b_lo = b.status == Answer::Status::kPoint ? b.value : b.lo;
    double b_hi = b.status == Answer::Status::kPoint ? b.value : b.hi;
    *compared = true;
    if (a_lo - epsilon > b_hi || b_lo - epsilon > a_hi) {
      if (why != nullptr) {
        *why = "intervals do not overlap within epsilon " +
               std::to_string(epsilon) + "  [" + AnswerToString(a) +
               " vs " + AnswerToString(b) + "]";
      }
      return false;
    }
    return true;
  }
  *compared = true;
  const double gap = std::fabs(a.value - b.value);
  if (gap > epsilon) {
    if (why != nullptr) {
      *why = "points differ by " + std::to_string(gap) + " > epsilon " +
             std::to_string(epsilon) + "  [" + AnswerToString(a) + " vs " +
             AnswerToString(b) + "]";
    }
    return false;
  }
  return true;
}

// Exact equality of the documented batch invariant: every batch answer
// equals the sequential DegreeOfBelief call bit for bit.
bool SameAnswer(const Answer& a, const Answer& b, std::string* why) {
  if (a.status != b.status || a.value != b.value || a.lo != b.lo ||
      a.hi != b.hi || a.method != b.method || a.converged != b.converged) {
    if (why != nullptr) {
      *why = "batch answer diverged  [" + AnswerToString(a) + " vs " +
             AnswerToString(b) + "]";
    }
    return false;
  }
  return true;
}

// vm-vs-interp: the compiled VM must reproduce the tree-walking oracle bit
// for bit on every formula over pseudo-random worlds.  World seeds derive
// from the (formula position, N) pair alone, so a replay of the same case
// file exercises the same worlds.
void RunVmCheck(const Scenario& scenario, const DifferentialOptions& options,
                DifferentialReport* report) {
  std::vector<logic::FormulaPtr> formulas;
  formulas.push_back(scenario.kb);
  for (const auto& query : scenario.queries) formulas.push_back(query);

  for (size_t fi = 0; fi < formulas.size(); ++fi) {
    const logic::FormulaPtr& f = formulas[fi];
    semantics::CompiledFormula compiled =
        semantics::CompileFormula(f, scenario.vocabulary);
    if (!compiled.ok()) {
      report->disagreements.push_back(
          Disagreement{"vm", "compiler", "tree-walker", f, 0,
                       "compile failed: " + compiled.error});
      continue;
    }
    std::vector<int> domain_sizes = options.domain_sizes;
    if (scenario.vocabulary.IsUnaryRelational()) {
      // Word-boundary sizes exercise the packed columns' tail masks; the
      // tree-walker stays affordable on unary vocabularies.
      domain_sizes.insert(domain_sizes.end(),
                          options.vm_extra_domain_sizes.begin(),
                          options.vm_extra_domain_sizes.end());
    }
    for (int n : domain_sizes) {
      if (n <= 0) continue;
      std::mt19937_64 rng(0x5eed0000ull + static_cast<uint64_t>(n) * 1009 +
                          fi);
      semantics::World world(&scenario.vocabulary, n);
      semantics::EvalFrame frame;
      frame.Prepare(*compiled.program, options.tolerances);
      ++report->comparisons;
      for (int w = 0; w < options.vm_worlds; ++w) {
        // Per-cell draws (NOT word-wise) keep the RNG stream — and hence
        // the replayed corpus worlds — identical to the byte-table era.
        for (int p = 0; p < scenario.vocabulary.num_predicates(); ++p) {
          if (world.predicate_arity(p) == 1) {
            for (int d = 0; d < n; ++d) {
              world.SetUnaryBit(p, d, (rng() & 1) != 0);
            }
            continue;
          }
          for (auto& cell : world.predicate_table(p)) {
            cell = static_cast<uint8_t>(rng() & 1);
          }
        }
        std::uniform_int_distribution<int> element(0, n - 1);
        for (int fn = 0; fn < scenario.vocabulary.num_functions(); ++fn) {
          for (auto& cell : world.function_table(fn)) cell = element(rng);
        }
        const bool walked =
            semantics::Evaluate(f, world, options.tolerances);
        const bool compiled_result =
            semantics::RunProgram(*compiled.program, world, &frame);
        if (walked != compiled_result) {
          report->disagreements.push_back(Disagreement{
              "vm", "compiled-vm", "tree-walker", f, n,
              std::string("evaluations differ on world ") +
                  std::to_string(w) + ": vm=" +
                  (compiled_result ? "true" : "false") + " interp=" +
                  (walked ? "true" : "false")});
          break;
        }
      }
    }
  }
}

// service: incremental maintenance vs rebuild-from-scratch.
//
// Loads the scenario KB into a service catalog, applies a deterministic
// pseudo-random mutation sequence (retract a conjunct / re-assert a
// retracted one / assert a vocabulary-extending fresh fact), then checks
// that the incrementally-maintained head — whose QueryContext was seeded
// by AdoptCachesFrom across every version — answers each query
// BIT-IDENTICALLY to a KnowledgeBase rebuilt from scratch with the same
// conjuncts and vocabulary.  A version pinned mid-sequence is checked the
// same way: its caches must not have leaked entries from any other
// version.  The mutation RNG seeds from the scenario text, so a corpus
// replay exercises the same sequence forever.
void RunServiceCheck(const Scenario& scenario,
                     const DifferentialOptions& options,
                     DifferentialReport* report) {
  if (options.service_mutations <= 0) return;

  KnowledgeBase base = ToKnowledgeBase(scenario);
  service::KbCatalog catalog;
  catalog.Load("diff", base);

  InferenceOptions inference;
  inference.tolerances = options.tolerances;
  inference.limit.domain_sizes = options.service_domain_sizes;
  inference.limit.tolerance_scales = options.pipeline_tolerance_scales;

  // Scenario-text seed: stable across processes (formula ids are not).
  std::string text = Describe(scenario);
  std::mt19937_64 rng(std::hash<std::string>{}(text));

  // Each acked version is published before the head is read again, so
  // the sequence does not depend on the maintenance worker's timing.
  auto mutate =
      [&](const std::function<bool(KnowledgeBase*, std::string*)>& edit) {
        service::MutationTicket ticket = catalog.Mutate("diff", edit);
        if (ticket.ok) catalog.WaitForVersion("diff", ticket.version);
      };
  std::vector<logic::FormulaPtr> retracted;
  std::shared_ptr<const service::KbSnapshot> pinned;
  bool asserted_fresh = false;
  for (int step = 0; step < options.service_mutations; ++step) {
    std::shared_ptr<const service::KbSnapshot> head = catalog.Get("diff");
    const size_t num_conjuncts = head->kb.conjuncts().size();
    // Op choice: retract when possible, re-assert when possible, and one
    // vocabulary-extending fresh fact per sequence.
    int op = static_cast<int>(rng() % 3);
    if (op == 0 && num_conjuncts == 0) op = 1;
    if (op == 1 && retracted.empty()) op = 2;
    if (op == 2 && asserted_fresh) op = num_conjuncts > 0 ? 0 : 1;

    if (op == 0 && num_conjuncts > 0) {
      const size_t victim = rng() % num_conjuncts;
      logic::FormulaPtr formula = head->kb.conjuncts()[victim];
      mutate([&](KnowledgeBase* kb, std::string*) {
        // The service's RETRACT semantics (vocabulary preserved), through
        // the same shared helper KbService::Retract uses.
        service::RetractConjuncts(kb,
                                  [&](size_t i, const logic::FormulaPtr&) {
                                    return i == victim;
                                  });
        return true;
      });
      retracted.push_back(formula);
    } else if (op == 1 && !retracted.empty()) {
      const size_t index = rng() % retracted.size();
      logic::FormulaPtr formula = retracted[index];
      retracted.erase(retracted.begin() + static_cast<long>(index));
      mutate([&](KnowledgeBase* kb, std::string*) {
        kb->Add(formula);
        return true;
      });
    } else if (op == 2 && !asserted_fresh) {
      // A fact about a fresh CONSTANT over an existing unary predicate:
      // the successor vocabulary fingerprint changes, so compiled
      // programs must not be adopted across this step.  (A fresh
      // predicate would double the profile engine's atom classes and
      // blow up the from-scratch rebuilds; a constant grows placements
      // linearly.)  Scenarios with no unary predicate skip the op.
      asserted_fresh = true;
      std::string unary;
      for (const auto& predicate : head->kb.vocabulary().predicates()) {
        if (predicate.arity == 1) {
          unary = predicate.name;
          break;
        }
      }
      if (!unary.empty()) {
        mutate([&](KnowledgeBase* kb, std::string* edit_error) {
          return kb->AddParsed(unary + "(ZzSvcC)", edit_error);
        });
      }
    }
    if (step == 0) pinned = catalog.Get("diff");
  }

  auto compare_snapshot = [&](const service::KbSnapshot& snapshot,
                              const std::string& label) {
    // Rebuild from scratch: same conjuncts, same vocabulary (same symbol
    // ids), fresh caches.
    KnowledgeBase scratch;
    scratch.mutable_vocabulary() = snapshot.kb.vocabulary();
    for (const auto& conjunct : snapshot.kb.conjuncts()) {
      scratch.Add(conjunct);
    }
    // Bounded like the planner check: each query pays two full cold
    // pipelines per compared snapshot.
    const size_t num_queries = std::min<size_t>(scenario.queries.size(), 2);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const logic::FormulaPtr& query = scenario.queries[qi];
      Answer incremental =
          service::AnswerOnSnapshot(snapshot, query, inference);
      Answer rebuilt = DegreeOfBelief(scratch, query, inference);
      ++report->comparisons;
      std::string why;
      if (!SameAnswer(incremental, rebuilt, &why)) {
        report->disagreements.push_back(Disagreement{
            "service", label, "rebuilt-from-scratch", query, 0, why});
      }
    }
  };

  std::shared_ptr<const service::KbSnapshot> head = catalog.Get("diff");
  compare_snapshot(*head, "incremental-head@v" +
                              std::to_string(head->version));
  if (pinned != nullptr && pinned->version != head->version) {
    compare_snapshot(*pinned, "incremental-pinned@v" +
                                  std::to_string(pinned->version));
  }

  // Async publication window: with the maintenance worker paused, an
  // acked signature-preserving append must leave readers on the OLD
  // published head — still bit-identical to that KB's from-scratch
  // rebuild — and the successor, once published, must be bit-identical to
  // the new KB's rebuild (its caches were adopted AND delta-patched off
  // the request path).
  if (!base.conjuncts().empty()) {
    service::KbCatalog async_catalog;
    async_catalog.Load("diff", base);
    async_catalog.PauseMaintenance();
    std::shared_ptr<const service::KbSnapshot> loaded =
        async_catalog.Get("diff");
    service::MutationTicket ticket = async_catalog.Mutate(
        "diff", [&](KnowledgeBase* kb, std::string*) {
          kb->Add(base.conjuncts()[0]);  // signature-preserving append
          return true;
        });
    std::shared_ptr<const service::KbSnapshot> during =
        async_catalog.Get("diff");
    if (!ticket.ok || during->version != loaded->version) {
      report->disagreements.push_back(Disagreement{
          "service", "async-window", "published-head", nullptr, 0,
          "acked mutation visible before the maintenance worker published "
          "it (or ack failed)"});
    } else {
      compare_snapshot(*during, "async-window@v" +
                                    std::to_string(during->version));
    }
    async_catalog.ResumeMaintenance();
    async_catalog.WaitForVersion("diff", ticket.version);
    std::shared_ptr<const service::KbSnapshot> published =
        async_catalog.Get("diff");
    compare_snapshot(*published, "async-published@v" +
                                     std::to_string(published->version));
  }
}

// replica: log-shipping bit-identity.
//
// Ships a deterministic mutation sequence through the real replication
// pipeline in-process: every mutation is a WAL record applied to the
// PRIMARY catalog via ApplyWalRecord (the routing crash recovery and a
// live replica share), published to a ReplicationHub from where the
// record's version is known, consumed off the subscription queue, and
// applied to a REPLICA catalog by ReplicaApplier — after a SNAPSHOT
// bootstrap record exactly like rwld's TAIL handshake.  The replica head
// must answer every query BIT-IDENTICALLY to the primary head, and the
// primary->local version-vector handoff must map a version pinned
// mid-sequence to a replica snapshot that answers bit-identically to the
// primary's pin of the same primary version.  The record texts round-trip
// through the NDJSON encoding (encode -> line -> decode), so this also
// pins the wire format against semantic drift.
void RunReplicaCheck(const Scenario& scenario,
                     const DifferentialOptions& options,
                     DifferentialReport* report) {
  if (options.service_mutations <= 0) return;

  KnowledgeBase base = ToKnowledgeBase(scenario);
  service::KbCatalog primary;
  primary.Load("diff", base);

  service::ReplicationHub hub;
  service::KbCatalog replica_kbs;
  service::ReplicaApplier applier(&replica_kbs);
  std::shared_ptr<service::ReplicationSubscription> sub = hub.Subscribe();

  auto fail = [&](const std::string& stage, const std::string& why) {
    report->disagreements.push_back(
        Disagreement{"replica", stage, "primary", nullptr, 0, why});
  };

  // TAIL bootstrap: one SNAPSHOT record serialized from the primary head.
  {
    std::shared_ptr<const service::KbSnapshot> head = primary.Get("diff");
    std::string line = service::EncodeWalRecord(
        service::MakeSnapshotRecord("diff", head->version, head->kb));
    std::string apply_error;
    if (!applier.ApplyLine(line, &apply_error)) {
      fail("bootstrap", "snapshot record rejected: " + apply_error);
      return;
    }
  }

  // One mutation = one record: apply to the primary, stamp the
  // primary-assigned version, publish, pop off the subscription, apply to
  // the replica.  Same op mix as RunServiceCheck, but expressed as record
  // text (the only form replication can carry).
  std::string text = Describe(scenario);
  // Distinct stream from RunServiceCheck's so the two checks exercise
  // different sequences over the same scenario.
  std::mt19937_64 rng(std::hash<std::string>{}(text) ^ 0x5E971CA5ull);
  std::vector<std::string> retracted;
  uint64_t pinned_primary_version = 0;
  std::shared_ptr<const service::KbSnapshot> pinned_primary;
  std::shared_ptr<const service::KbSnapshot> pinned_replica;
  bool asserted_fresh = false;
  for (int step = 0; step < options.service_mutations; ++step) {
    std::shared_ptr<const service::KbSnapshot> head = primary.Get("diff");
    const size_t num_conjuncts = head->kb.conjuncts().size();
    int op = static_cast<int>(rng() % 3);
    if (op == 0 && num_conjuncts == 0) op = 1;
    if (op == 1 && retracted.empty()) op = 2;
    if (op == 2 && asserted_fresh) op = num_conjuncts > 0 ? 0 : 1;

    service::WalRecord record;
    record.kb = "diff";
    if (op == 0 && num_conjuncts > 0) {
      const size_t victim = rng() % num_conjuncts;
      record.op = service::WalRecord::Op::kRetract;
      record.text = logic::ToString(head->kb.conjuncts()[victim]);
      retracted.push_back(record.text);
    } else if (op == 1 && !retracted.empty()) {
      const size_t index = rng() % retracted.size();
      record.op = service::WalRecord::Op::kAssert;
      record.text = retracted[index];
      retracted.erase(retracted.begin() + static_cast<long>(index));
    } else {
      asserted_fresh = true;
      std::string unary;
      for (const auto& predicate : head->kb.vocabulary().predicates()) {
        if (predicate.arity == 1) {
          unary = predicate.name;
          break;
        }
      }
      if (unary.empty()) continue;  // no unary predicate: skip the op
      record.op = service::WalRecord::Op::kAssert;
      record.text = unary + "(ZzRepC)";
    }

    uint64_t primary_version = 0;
    std::string apply_error;
    if (!service::ApplyWalRecord(&primary, record, &primary_version,
                                 &apply_error)) {
      fail("primary-apply", "record {" + service::EncodeWalRecord(record) +
                                "} failed: " + apply_error);
      return;
    }
    // Both catalogs publish on their maintenance workers: wait for each
    // applied version before the next step reads a head.
    primary.WaitForVersion("diff", primary_version);
    record.version = primary_version;
    hub.Publish(service::EncodeWalRecord(record));

    std::string line;
    if (!sub->Next(&line, /*timeout_ms=*/1000.0)) {
      fail("ship", "published record never reached the subscription");
      return;
    }
    if (!applier.ApplyLine(line, &apply_error)) {
      fail("replica-apply", "shipped record {" + line +
                                "} rejected: " + apply_error);
      return;
    }
    // Version-vector handoff: a client that acked `primary_version` pins
    // the replica's mapped local version.
    uint64_t local_version = 0;
    if (!applier.WaitForPrimaryVersion("diff", primary_version,
                                       /*timeout_ms=*/1000.0,
                                       &local_version)) {
      fail("handoff", "WaitForPrimaryVersion timed out for an already "
                      "applied version");
      return;
    }
    replica_kbs.WaitForVersion("diff", local_version);

    if (step == 0) {
      pinned_primary_version = primary_version;
      pinned_primary = primary.Get("diff");
      pinned_replica = replica_kbs.GetVersion("diff", local_version);
    }
  }

  InferenceOptions inference;
  inference.tolerances = options.tolerances;
  inference.limit.domain_sizes = options.service_domain_sizes;
  inference.limit.tolerance_scales = options.pipeline_tolerance_scales;

  auto compare_pair = [&](const service::KbSnapshot& primary_snapshot,
                          const service::KbSnapshot& replica_snapshot,
                          const std::string& label) {
    const size_t num_queries = std::min<size_t>(scenario.queries.size(), 2);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const logic::FormulaPtr& query = scenario.queries[qi];
      Answer on_primary =
          service::AnswerOnSnapshot(primary_snapshot, query, inference);
      Answer on_replica =
          service::AnswerOnSnapshot(replica_snapshot, query, inference);
      ++report->comparisons;
      std::string why;
      if (!SameAnswer(on_primary, on_replica, &why)) {
        report->disagreements.push_back(Disagreement{
            "replica", label, "primary@v" +
                std::to_string(primary_snapshot.version), query, 0, why});
      }
    }
  };

  std::shared_ptr<const service::KbSnapshot> primary_head =
      primary.Get("diff");
  std::shared_ptr<const service::KbSnapshot> replica_head =
      replica_kbs.Get("diff");
  if (replica_head == nullptr) {
    fail("head", "replica catalog has no head after the sequence");
    return;
  }
  compare_pair(*primary_head, *replica_head,
               "replica-head@v" + std::to_string(replica_head->version));
  if (pinned_primary != nullptr && pinned_replica != nullptr &&
      pinned_primary_version != primary_head->version) {
    compare_pair(*pinned_primary, *pinned_replica,
                 "replica-pinned@primary-v" +
                     std::to_string(pinned_primary_version));
  }
}

// defaults: the defaults family against itself and the planner.
//
// Self-gating on the propositional-defaults fragment (the same analyzer
// the strategies' Capability hooks use, at the loosest caps in the
// family).  Three relations are pinned:
//
//   1. epsilon_semantics == klm exactly when both answer: the greedy
//      tolerance peel and the subset enumeration decide the same
//      p-entailment relation, so two points for the same query must be
//      identical (0/1 values — any mismatch is an implementation bug,
//      not numerics);
//   2. epsilon_semantics == gmp90 exactly when both answer: a p-entailed
//      conclusion is ME-plausible (conservativity), so gmp90 must land on
//      the same 0/1 point;
//   3. every defaults point agrees with the planner's own (numeric)
//      answer within defaults_epsilon when the numeric side converged —
//      the finite sweep approaches the 0/1 limit slowly, hence the loose
//      epsilon.
void RunDefaultsCheck(const Scenario& scenario,
                      const DifferentialOptions& options,
                      DifferentialReport* report) {
  std::vector<logic::FormulaPtr> conjuncts = logic::Conjuncts(scenario.kb);
  KnowledgeBase kb = ToKnowledgeBase(scenario);

  InferenceOptions base;
  base.tolerances = options.tolerances;
  base.limit.domain_sizes = options.pipeline_domain_sizes;
  base.limit.tolerance_scales = options.pipeline_tolerance_scales;
  base.work_budget = 3e7;

  const size_t num_queries = std::min<size_t>(scenario.queries.size(), 2);
  static const char* kDefaultsFamily[] = {"epsilon_semantics", "klm",
                                          "gmp90"};
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const logic::FormulaPtr& query = scenario.queries[qi];
    defaults::DefaultsInstance instance =
        defaults::AnalyzeDefaultsInstance(conjuncts, query);
    if (!instance.ok) continue;  // outside the fragment: one analyzer call

    struct Forced {
      const char* name;
      Answer answer;
    };
    std::vector<Forced> points;
    for (const char* name : kDefaultsFamily) {
      InferenceOptions forced = base;
      forced.strategies = StrategySet::Only(name);
      Answer answer = DegreeOfBelief(kb, query, forced);
      if (answer.status == Answer::Status::kPoint) {
        points.push_back(Forced{name, answer});
      }
    }
    // Pairwise exactness inside the family (relations 1 and 2).
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        ++report->comparisons;
        if (points[i].answer.value != points[j].answer.value) {
          report->disagreements.push_back(Disagreement{
              "defaults", std::string("forced:") + points[i].name,
              std::string("forced:") + points[j].name, query, 0,
              "defaults-family points differ  [" +
                  AnswerToString(points[i].answer) + " vs " +
                  AnswerToString(points[j].answer) + "]"});
        }
      }
    }
    if (points.empty()) continue;
    // Relation 3: the planner's own answer.
    Answer planned = DegreeOfBelief(kb, query, base);
    for (const Forced& point : points) {
      bool compared = false;
      std::string why;
      if (!PlannerAnswersAgree(planned, point.answer,
                               options.defaults_epsilon, &compared, &why)) {
        report->disagreements.push_back(
            Disagreement{"defaults", "planner",
                         std::string("forced:") + point.name, query, 0,
                         why});
      }
      if (compared) ++report->comparisons;
    }
  }
}

// evidence: Dempster combination against the symbolic engine's
// independent matcher, and against the planner.
//
// Self-gating on the Theorem 5.26 shape.  The evidence strategy and the
// symbolic TryDempster recognize the same fragment through two separate
// analyzers and compute the same closed form through two separate code
// paths — their points must match to 1e-9 and their nonexistence verdicts
// (conflicting hard defaults of differing strengths) must pair up.
void RunEvidenceCheck(const Scenario& scenario,
                      const DifferentialOptions& options,
                      DifferentialReport* report) {
  std::vector<logic::FormulaPtr> conjuncts = logic::Conjuncts(scenario.kb);
  KnowledgeBase kb = ToKnowledgeBase(scenario);

  InferenceOptions base;
  base.tolerances = options.tolerances;
  base.limit.domain_sizes = options.pipeline_domain_sizes;
  base.limit.tolerance_scales = options.pipeline_tolerance_scales;
  base.work_budget = 3e7;

  const size_t num_queries = std::min<size_t>(scenario.queries.size(), 2);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const logic::FormulaPtr& query = scenario.queries[qi];
    evidence::EvidenceInstance instance =
        evidence::AnalyzeEvidenceInstance(conjuncts, query);
    if (!instance.ok) continue;

    InferenceOptions forced_evidence = base;
    forced_evidence.strategies = StrategySet::Only("evidence");
    Answer combined = DegreeOfBelief(kb, query, forced_evidence);
    if (combined.status == Answer::Status::kUnknown) continue;

    InferenceOptions forced_symbolic = base;
    forced_symbolic.strategies = StrategySet::Only("symbolic");
    Answer symbolic = DegreeOfBelief(kb, query, forced_symbolic);
    if (symbolic.status != Answer::Status::kUnknown) {
      ++report->comparisons;
      const bool both_nonexistent =
          combined.status == Answer::Status::kNonexistent &&
          symbolic.status == Answer::Status::kNonexistent;
      const bool both_points =
          combined.status == Answer::Status::kPoint &&
          symbolic.status == Answer::Status::kPoint &&
          std::fabs(combined.value - symbolic.value) <= 1e-9;
      if (!both_nonexistent && !both_points) {
        report->disagreements.push_back(Disagreement{
            "evidence", "forced:evidence", "forced:symbolic", query, 0,
            "Dempster closed forms diverge  [" + AnswerToString(combined) +
                " vs " + AnswerToString(symbolic) + "]"});
      }
    }

    Answer planned = DegreeOfBelief(kb, query, base);
    bool compared = false;
    std::string why;
    if (!PlannerAnswersAgree(planned, combined, options.defaults_epsilon,
                             &compared, &why)) {
      report->disagreements.push_back(Disagreement{
          "evidence", "planner", "forced:evidence", query, 0, why});
    }
    if (compared) ++report->comparisons;
  }
}

// coverage: the calibrated-interval guarantee against ground truth.
//
// Answers the first queries with interval_confidence = coverage_confidence
// (routing through the preemptive calibrated strategy), then replays the
// SAME sweep schedule — the (domain_size, tolerance_scale) grid of the
// answer's own series — on the exact enumeration engine and scores the
// fraction of well-defined ground-truth values inside the interval.  A
// calibrated answer whose ground-truth coverage falls below
// confidence - tolerance is a disagreement.
void RunCoverageCheck(const Scenario& scenario,
                      const DifferentialOptions& options,
                      DifferentialReport* report) {
  KnowledgeBase kb = ToKnowledgeBase(scenario);
  QueryContext ctx(scenario.vocabulary, scenario.kb,
                   /*caching_enabled=*/true);
  engines::ExactEngine exact;

  InferenceOptions calibrated;
  calibrated.tolerances = options.tolerances;
  calibrated.limit.domain_sizes = options.pipeline_domain_sizes;
  calibrated.limit.tolerance_scales = options.pipeline_tolerance_scales;
  calibrated.interval_confidence = options.coverage_confidence;
  calibrated.work_budget = 3e7;

  const size_t num_queries = std::min<size_t>(scenario.queries.size(), 2);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const logic::FormulaPtr& query = scenario.queries[qi];
    Answer answer = DegreeOfBelief(kb, query, calibrated);
    if (answer.status != Answer::Status::kInterval ||
        answer.series.empty()) {
      // The calibrated strategy bowed out (no numeric engine, or no
      // well-defined sweep values) — nothing to verify.
      continue;
    }

    // Ground truth over the answer's own schedule.
    engines::LimitOptions schedule;
    schedule.domain_sizes.clear();
    for (const engines::SeriesPoint& point : answer.series) {
      if (std::find(schedule.domain_sizes.begin(),
                    schedule.domain_sizes.end(),
                    point.domain_size) == schedule.domain_sizes.end()) {
        schedule.domain_sizes.push_back(point.domain_size);
      }
    }
    schedule.tolerance_scales = calibrated.limit.tolerance_scales;
    engines::LimitResult truth = engines::EstimateLimit(
        exact, ctx, query, options.tolerances, schedule);

    // Score only the grid points the enumeration engine actually reached
    // (it may not support the sweep's largest N).
    std::vector<engines::SeriesPoint> matched;
    for (const engines::SeriesPoint& gt : truth.series) {
      for (const engines::SeriesPoint& swept : answer.series) {
        if (gt.domain_size == swept.domain_size &&
            gt.tolerance_scale == swept.tolerance_scale) {
          matched.push_back(gt);
          break;
        }
      }
    }
    bool any_defined = false;
    for (const engines::SeriesPoint& point : matched) {
      any_defined = any_defined || point.well_defined;
    }
    if (!any_defined) continue;

    ++report->comparisons;
    const double coverage = EmpiricalCoverage(matched, answer.lo,
                                              answer.hi);
    const double required =
        options.coverage_confidence - options.coverage_tolerance;
    if (coverage < required) {
      char detail[200];
      std::snprintf(detail, sizeof(detail),
                    "empirical coverage %.3f < required %.3f over %zu "
                    "ground-truth points  [interval [%g, %g]]",
                    coverage, required, matched.size(), answer.lo,
                    answer.hi);
      report->disagreements.push_back(Disagreement{
          "coverage", "calibrated interval", "exact enumeration", query, 0,
          detail});
    }
  }
}

}  // namespace

double EmpiricalCoverage(const std::vector<engines::SeriesPoint>& series,
                         double lo, double hi) {
  size_t defined = 0;
  size_t covered = 0;
  for (const engines::SeriesPoint& point : series) {
    if (!point.well_defined) continue;
    ++defined;
    if (point.probability >= lo - 1e-9 && point.probability <= hi + 1e-9) {
      ++covered;
    }
  }
  if (defined == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(defined);
}

std::vector<const FiniteEngine*> EngineSet::pointers() const {
  std::vector<const FiniteEngine*> out;
  out.reserve(owned.size());
  for (const auto& engine : owned) out.push_back(engine.get());
  return out;
}

void EngineSet::Add(std::unique_ptr<FiniteEngine> engine) {
  owned.push_back(std::move(engine));
}

EngineSet DefaultEngineSet(uint64_t montecarlo_samples) {
  EngineSet set;
  set.Add(std::make_unique<engines::ExactEngine>());
  set.Add(std::make_unique<engines::ProfileEngine>());
  if (montecarlo_samples > 0) {
    MonteCarloEngine::Options options;
    options.num_samples = montecarlo_samples;
    set.Add(std::make_unique<MonteCarloEngine>(options));
  }
  return set;
}

std::string DifferentialReport::Summary(const Scenario& scenario) const {
  std::ostringstream out;
  out << (scenario.provenance.empty() ? "scenario" : scenario.provenance)
      << ": " << comparisons << " comparisons, " << disagreements.size()
      << " disagreement(s)\n";
  for (const auto& d : disagreements) {
    out << "  [" << d.check << "] " << d.lhs << " vs " << d.rhs;
    if (d.domain_size > 0) out << " @ N=" << d.domain_size;
    if (d.query != nullptr) {
      out << " on " << logic::ToString(d.query);
    }
    out << ": " << d.detail << "\n";
  }
  if (!ok()) out << Describe(scenario);
  return out.str();
}

DifferentialReport RunDifferential(
    const Scenario& scenario,
    const std::vector<const FiniteEngine*>& engines,
    const DifferentialOptions& options) {
  DifferentialReport report;

  // ---- vm-vs-interp check (compiled pipeline vs. reference walker) ----
  if (options.check_vm) RunVmCheck(scenario, options, &report);

  // ---- finite + context checks ----
  // Every engine runs twice: through the cache-free reference context and
  // through the caching context the whole scenario shares.
  QueryContext reference(scenario.vocabulary, scenario.kb,
                         /*caching_enabled=*/false);
  QueryContext ctx(scenario.vocabulary, scenario.kb,
                   /*caching_enabled=*/true);
  for (const auto& query : scenario.queries) {
    for (int n : options.domain_sizes) {
      struct Run {
        const FiniteEngine* engine;
        FiniteResult cache_free;
      };
      std::vector<Run> runs;
      for (const FiniteEngine* engine : engines) {
        if (!engine->Supports(reference, query, n)) continue;
        FiniteResult cache_free =
            engine->DegreeAt(reference, query, n, options.tolerances);
        FiniteResult via_context =
            engine->DegreeAt(ctx, query, n, options.tolerances);
        ++report.comparisons;
        if (!BitIdentical(cache_free, via_context)) {
          report.disagreements.push_back(Disagreement{
              "context", engine->name(), engine->name() + "+ctx", query, n,
              "caching context diverged from the cache-free one  [" +
                  engines::ToString(cache_free) + " vs " +
                  engines::ToString(via_context) + "]"});
        }
        runs.push_back(Run{engine, cache_free});
      }
      for (size_t i = 0; i < runs.size(); ++i) {
        for (size_t j = i + 1; j < runs.size(); ++j) {
          ++report.comparisons;
          std::string why;
          if (!engines::ResultsEquivalent(
                  runs[i].cache_free, runs[i].engine->result_class(),
                  runs[j].cache_free, runs[j].engine->result_class(),
                  options.finite_tolerance, &why)) {
            report.disagreements.push_back(
                Disagreement{"finite", runs[i].engine->name(),
                             runs[j].engine->name(), query, n, why});
          }
        }
      }
    }
  }

  // ---- pipeline / batch checks (full DegreeOfBelief routing) ----
  KnowledgeBase kb = ToKnowledgeBase(scenario);
  InferenceOptions full;
  full.tolerances = options.tolerances;
  full.limit.domain_sizes = options.pipeline_domain_sizes;
  full.limit.tolerance_scales = options.pipeline_tolerance_scales;
  const bool batch_applicable =
      options.check_batch && scenario.queries.size() > 1;
  if (options.check_pipeline || batch_applicable) {
    std::vector<Answer> sequential;
    sequential.reserve(scenario.queries.size());
    for (const auto& query : scenario.queries) {
      sequential.push_back(DegreeOfBelief(kb, query, full));
    }
    if (options.check_pipeline) {
      InferenceOptions numeric = full;
      numeric.strategies.Remove("symbolic");
      for (size_t i = 0; i < scenario.queries.size(); ++i) {
        Answer numeric_answer =
            DegreeOfBelief(kb, scenario.queries[i], numeric);
        bool compared = false;
        std::string why;
        if (!PipelineAnswersAgree(sequential[i], numeric_answer,
                                  options.limit_epsilon, &compared, &why)) {
          report.disagreements.push_back(
              Disagreement{"pipeline", "symbolic+numeric", "numeric-only",
                           scenario.queries[i], 0, why});
        }
        if (compared) ++report.comparisons;
      }
    }
    if (batch_applicable) {
      std::vector<Answer> batch =
          DegreesOfBelief(kb, scenario.queries, full);
      for (size_t i = 0; i < scenario.queries.size(); ++i) {
        ++report.comparisons;
        std::string why;
        if (!SameAnswer(batch[i], sequential[i], &why)) {
          report.disagreements.push_back(
              Disagreement{"batch", "DegreesOfBelief", "DegreeOfBelief",
                           scenario.queries[i], 0, why});
        }
      }
    }
  }

  // ---- maxent vs profile sweep (unary scenarios) ----
  // Bounded to small vocabularies: the profile DFS is combinatorial in
  // (N, 2^predicates), and the deep sweep this check needs (the finite-N
  // bias must shrink below limit_epsilon) is only cheap up to 4 atoms.
  // Larger-vocabulary agreement is covered by the tier-1
  // maxent_profile_agreement_test.
  if (options.check_maxent && scenario.vocabulary.IsUnaryRelational() &&
      scenario.vocabulary.num_predicates() <= 2) {
    engines::MaxEntEngine maxent;
    engines::ProfileEngine profile;
    engines::LimitOptions sweep;
    sweep.domain_sizes = {8, 16, 32};
    sweep.tolerance_scales = options.pipeline_tolerance_scales;
    for (const auto& query : scenario.queries) {
      // Through the shared context: the entropy solve depends only on
      // (KB, ⃗τ) and the profile world lists only on (N, ⃗τ), so the whole
      // check is amortized across the query batch (and stays bit-identical
      // to a cache-free context).
      engines::MaxEntEngine::LimitResultME limit =
          maxent.InferLimit(ctx, query, options.tolerances);
      if (!limit.supported || !limit.converged) continue;
      engines::LimitResult swept = engines::EstimateLimit(
          profile, ctx, query, options.tolerances, sweep);
      if (!swept.converged || !swept.value.has_value()) continue;
      ++report.comparisons;
      if (std::fabs(limit.value - *swept.value) > options.limit_epsilon) {
        report.disagreements.push_back(Disagreement{
            "maxent", "maxent", "profile", query, 0,
            "limits differ: " + std::to_string(limit.value) + " vs " +
                std::to_string(*swept.value)});
      }
    }
  }

  // ---- defaults family / evidence combination / calibrated coverage ----
  if (options.check_defaults) RunDefaultsCheck(scenario, options, &report);
  if (options.check_evidence) RunEvidenceCheck(scenario, options, &report);
  if (options.check_coverage) RunCoverageCheck(scenario, options, &report);

  // ---- service: incremental maintenance vs rebuild-from-scratch ----
  if (options.check_service) RunServiceCheck(scenario, options, &report);

  // ---- replica: log-shipping bit-identity ----
  if (options.check_replica) RunReplicaCheck(scenario, options, &report);

  // ---- planner vs forced strategies / plan-cache bit-identity ----
  //
  // The cost-based planner must be equivalent to every strategy it could
  // have chosen: whatever engine the plan picks, the paper's claim is that
  // the degree of belief is one quantity.  Bounded to the first queries of
  // the batch — each comparison reruns the full routing several times.
  if (options.check_planner) {
    InferenceOptions planner_options;
    planner_options.tolerances = options.tolerances;
    planner_options.limit.domain_sizes = options.pipeline_domain_sizes;
    planner_options.limit.tolerance_scales =
        options.pipeline_tolerance_scales;
    // Keep fuzz loops affordable: candidates predicted over this budget
    // are skipped (yielding kUnknown, which the comparison treats as
    // uninformative) — the exact odometer at N=6 on a 4-predicate
    // vocabulary alone is ~2^24 worlds per point.
    planner_options.work_budget = 3e7;
    const size_t planner_queries =
        std::min<size_t>(scenario.queries.size(), 2);
    static const char* kForced[] = {"symbolic", "profile", "maxent",
                                    "exact"};
    KnowledgeBase planner_kb = ToKnowledgeBase(scenario);
    // One shared caching context for the planner and forced runs: the
    // finite-result memo dedups the sweeps across them (answers are
    // bit-identical either way — the context checks above pin that).
    QueryContext shared_ctx = MakeQueryContext(
        planner_kb,
        std::span<const logic::FormulaPtr>(scenario.queries.data(),
                                           planner_queries),
        planner_options);
    for (size_t qi = 0; qi < planner_queries; ++qi) {
      const logic::FormulaPtr& query = scenario.queries[qi];
      Answer planned = DegreeOfBelief(shared_ctx, query, planner_options);

      // The cost-ordered plan answers the same question.
      InferenceOptions cost_options = planner_options;
      cost_options.plan_mode = PlanMode::kMinCost;
      Answer cost_planned = DegreeOfBelief(shared_ctx, query, cost_options);
      bool compared = false;
      std::string why;
      if (!PlannerAnswersAgree(planned, cost_planned, options.limit_epsilon,
                               &compared, &why)) {
        report.disagreements.push_back(Disagreement{
            "planner", "planner:fidelity", "planner:cost", query, 0, why});
      }
      if (compared) ++report.comparisons;

      // A planned answer from one of the closed-form defaults/evidence
      // strategies is the full Pr_∞ = lim_{τ→0} lim_{N→∞} value; the
      // maxent engine computes the inner N→∞ limit at the FIXED base
      // tolerances and never takes the outer τ→0 limit.  On hard-default
      // instances with exceptional individuals (penguin chains) those two
      // genuinely differ at any positive τ, so the pair carries no
      // differential information.  The `defaults` check covers these
      // instances with the appropriate oracles instead.
      const bool planned_exact_limit =
          planned.method.find("p-entailment") != std::string::npos ||
          planned.method.find("gmp90") != std::string::npos ||
          planned.method.find("dempster") != std::string::npos;

      // Every forced applicable strategy.
      for (const char* forced_name : kForced) {
        if (planned_exact_limit && std::string(forced_name) == "maxent") {
          continue;
        }
        InferenceOptions forced_options = planner_options;
        forced_options.strategies = StrategySet::Only(forced_name);
        Answer forced =
            DegreeOfBelief(shared_ctx, query, forced_options);
        compared = false;
        why.clear();
        if (!PlannerAnswersAgree(planned, forced, options.limit_epsilon,
                                 &compared, &why)) {
          report.disagreements.push_back(
              Disagreement{"planner", "planner",
                           std::string("forced:") + forced_name, query, 0,
                           why});
        }
        if (compared) ++report.comparisons;
      }

      // Plan-cache hit ≡ cold plan, bit for bit: the second identical
      // query through one context executes the cached candidate order.
      QueryContext planner_ctx = MakeQueryContext(
          planner_kb, std::span<const logic::FormulaPtr>(&query, 1),
          planner_options);
      Answer cold = DegreeOfBelief(planner_ctx, query, planner_options);
      Answer warm = DegreeOfBelief(planner_ctx, query, planner_options);
      ++report.comparisons;
      why.clear();
      if (!SameAnswer(warm, cold, &why)) {
        report.disagreements.push_back(Disagreement{
            "plan-cache", "cached plan", "cold plan", query, 0, why});
      } else if (warm.plan == nullptr || !warm.plan->from_cache) {
        report.disagreements.push_back(Disagreement{
            "plan-cache", "cached plan", "cold plan", query, 0,
            "second identical query did not hit the plan cache"});
      }
    }
  }

  return report;
}

DifferentialReport RunDifferential(const Scenario& scenario,
                                   const DifferentialOptions& options) {
  EngineSet set = DefaultEngineSet();
  return RunDifferential(scenario, set.pointers(), options);
}

}  // namespace rwl::testing
