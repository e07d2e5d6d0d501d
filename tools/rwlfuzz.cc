// rwlfuzz — differential fuzzing of the inference engines.
//
// Generates random knowledge bases and query batches from the src/workload
// generators, runs every applicable engine on each scenario through the
// cross-engine differential oracle (src/testing/differential.h), and on any
// disagreement greedily shrinks the scenario (src/testing/shrinker.h) and
// writes a minimized reproducer — a plain .rwl KB with //! directives —
// ready to check into tests/corpus/ where the corpus replay test
// regression-gates it forever.
//
// Modes:
//   (default)        generate & check scenarios
//   --replay PATH    replay a corpus file or directory
//   --self-test      harness self-check: a clean run must report zero
//                    disagreements, and a deliberately injected engine bug
//                    must be caught and shrunk to a tiny reproducer
//
// Options:
//   --checks LIST    comma-separated subset of {finite,pipeline,maxent,
//                    batch,vm,planner,service,replica,defaults,evidence,
//                    coverage}; empty = profile defaults
//   --seed S         master seed (default 20260730); every case derives its
//                    own RNG from (seed, case index), so any single case
//                    reproduces from the pair alone
//   --cases N        scenarios to generate (default 1000)
//   --profile P      unary | defaults | chain | nonunary | mixed |
//                    exceptions | evidence | refclass | calibrated | all
//   --mc-samples K   Monte-Carlo samples for non-unary oracles
//                    (default 20000; 0 disables the MC engine)
//   --out DIR        where reproducers are written (default tests/corpus)
//   --max-failures K stop after K failing scenarios (default 5)
//   --no-shrink      emit unshrunk reproducers
//   --no-emit        report failures without writing files
//   --verbose        per-case progress
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/engines/exact_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/intern.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/testing/buggy_engine.h"
#include "src/testing/corpus.h"
#include "src/testing/differential.h"
#include "src/testing/shrinker.h"
#include "src/workload/generators.h"

namespace {

using rwl::testing::CorpusCase;
using rwl::testing::DifferentialOptions;
using rwl::testing::DifferentialReport;
using rwl::testing::EngineSet;
using rwl::testing::Scenario;

struct Config {
  uint64_t seed = 20260730;
  int cases = 1000;
  std::string profile = "all";
  uint64_t mc_samples = 20000;
  std::string out_dir = "tests/corpus";
  int max_failures = 5;
  bool shrink = true;
  bool emit = true;
  bool verbose = false;
  std::string replay_path;
  bool self_test = false;
  // Comma-separated subset of kCheckNames; empty = the per-profile
  // defaults.
  std::string checks;
};

// The full check vocabulary — single-sourced so the validator and the
// filter below cannot drift (a name the validator accepts but the filter
// ignores would be a silent coverage loss).
constexpr const char* kCheckNames[] = {
    "finite", "pipeline", "maxent",   "batch",    "vm",      "planner",
    "service", "replica", "defaults", "evidence", "coverage"};

// Validates the --checks list; unknown names are a usage error (matching
// the corpus format's strictness), not a silent coverage loss.
bool ValidCheckList(const std::string& checks) {
  if (checks.empty()) return true;
  std::string token;
  for (size_t i = 0; i <= checks.size(); ++i) {
    if (i < checks.size() && checks[i] != ',') {
      token += checks[i];
      continue;
    }
    bool known = false;
    for (const char* name : kCheckNames) known = known || token == name;
    if (!known) {
      std::fprintf(stderr, "rwlfuzz: unknown check '%s'\n", token.c_str());
      return false;
    }
    token.clear();
  }
  return true;
}

void ApplyCheckFilter(const std::string& checks,
                      DifferentialOptions* options) {
  if (checks.empty()) return;
  auto enabled = [&](const char* name) {
    return ("," + checks + ",").find("," + std::string(name) + ",") !=
           std::string::npos;
  };
  options->check_pipeline = options->check_pipeline && enabled("pipeline");
  options->check_maxent = options->check_maxent && enabled("maxent");
  options->check_batch = options->check_batch && enabled("batch");
  options->check_vm = options->check_vm && enabled("vm");
  options->check_planner = options->check_planner && enabled("planner");
  options->check_service = options->check_service && enabled("service");
  options->check_replica = options->check_replica && enabled("replica");
  options->check_defaults = options->check_defaults && enabled("defaults");
  options->check_evidence = options->check_evidence && enabled("evidence");
  // coverage defaults OFF (it pays a ground-truth enumeration sweep per
  // query), so an explicit filter listing it turns it ON for every case —
  // and, like the others, omitting it turns it off even for the calibrated
  // profile.
  options->check_coverage = enabled("coverage");
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed S] [--cases N] [--profile P] [--mc-samples K]\n"
      "          [--checks LIST] [--out DIR] [--max-failures K]\n"
      "          [--no-shrink] [--no-emit] [--replay PATH] [--self-test]\n"
      "          [--verbose]\n"
      "profiles: unary defaults chain nonunary mixed exceptions evidence\n"
      "          refclass calibrated all\n"
      "checks:   finite pipeline maxent batch vm planner service replica\n"
      "          defaults evidence coverage\n",
      argv0);
  return 2;
}

int UniformInt(std::mt19937* rng, int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(*rng);
}

// One scenario plus the oracle configuration it should run under.
struct GeneratedCase {
  Scenario scenario;
  DifferentialOptions options;
  uint64_t mc_samples = 0;  // 0 = deterministic engines only
};

// ---- scenario generators, one per profile ----

void RegisterUnaryVocabulary(int num_predicates, int num_constants,
                             Scenario* scenario) {
  // The full generator vocabulary, not just the mentioned symbols: unused
  // predicates/constants change the world space, and the engines must
  // agree on that too.
  for (const auto& p : rwl::workload::GeneratorPredicates(num_predicates)) {
    scenario->vocabulary.AddPredicate(p, 1);
  }
  for (const auto& c : rwl::workload::GeneratorConstants(num_constants)) {
    scenario->vocabulary.AddConstant(c);
  }
}

GeneratedCase GenerateUnary(std::mt19937* rng, bool defaults_heavy,
                            const Config& config) {
  rwl::workload::UnaryKbParams params;
  params.num_predicates = UniformInt(rng, 1, 3);
  params.num_constants = UniformInt(rng, 1, 2);
  params.num_statements = UniformInt(rng, 1, 3);
  params.num_facts = UniformInt(rng, 0, 2);
  params.default_fraction = defaults_heavy ? 0.8 : 0.3;
  params.max_depth = UniformInt(rng, 1, 2);
  // Proportion-heavy queries stress the popcount proportion kernels and
  // the counting-loop collapse; the vm check exercises their tail masks at
  // word-boundary domain sizes (DifferentialOptions.vm_extra_domain_sizes).
  params.proportion_query_bias = 0.6;

  GeneratedCase generated;
  generated.scenario.kb = rwl::workload::RandomUnaryKb(params, rng);
  generated.scenario.queries = rwl::workload::RandomQueryBatch(
      params, UniformInt(rng, 1, 4), rng);
  RegisterUnaryVocabulary(params.num_predicates, params.num_constants,
                          &generated.scenario);
  rwl::logic::RegisterSymbols(generated.scenario.kb,
                              &generated.scenario.vocabulary);
  for (const auto& query : generated.scenario.queries) {
    rwl::logic::RegisterSymbols(query, &generated.scenario.vocabulary);
  }

  const double tolerances[] = {0.1, 0.2, 0.3};
  generated.options.tolerances = rwl::semantics::ToleranceVector::Uniform(
      tolerances[UniformInt(rng, 0, 2)]);
  generated.options.domain_sizes = {2, 3, 4};
  // The profile DFS is combinatorial in (N, 2^predicates): shrink the
  // limit-level sweeps for the largest vocabularies so a fuzz case stays
  // in the tens of milliseconds.
  if (params.num_predicates >= 3) {
    generated.options.pipeline_domain_sizes = {6, 9, 12};
  }
  (void)config;
  return generated;
}

GeneratedCase GenerateChain(std::mt19937* rng, const Config& config) {
  rwl::workload::ChainKb chain =
      rwl::workload::RandomChainKb(UniformInt(rng, 2, 3), rng);
  GeneratedCase generated;
  generated.scenario.kb = chain.kb;
  generated.scenario.queries = {chain.query};
  rwl::logic::RegisterSymbols(chain.kb, &generated.scenario.vocabulary);
  rwl::logic::RegisterSymbols(chain.query, &generated.scenario.vocabulary);
  generated.options.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.15);
  generated.options.domain_sizes = {2, 3};
  // Chains declare depth+1 unary predicates (up to 16 atoms); keep the
  // limit-level sweeps shallow, like the large unary vocabularies.
  generated.options.pipeline_domain_sizes = {6, 9, 12};
  (void)config;
  return generated;
}

GeneratedCase GenerateNonUnary(std::mt19937* rng, bool mixed,
                               const Config& config) {
  rwl::workload::MixedKbParams params;
  params.num_unary = UniformInt(rng, 1, 2);
  params.num_binary = 1;
  params.num_constants = UniformInt(rng, 1, 2);
  params.num_facts = UniformInt(rng, 1, 2);
  params.num_axioms = mixed ? 0 : UniformInt(rng, 0, 2);
  params.num_statements = mixed ? UniformInt(rng, 1, 2) : UniformInt(rng, 0, 1);
  params.max_depth = 2;

  GeneratedCase generated;
  generated.scenario.kb = rwl::workload::RandomMixedKb(params, rng);
  int num_queries = UniformInt(rng, 1, 3);
  for (int i = 0; i < num_queries; ++i) {
    generated.scenario.queries.push_back(
        rwl::workload::RandomMixedQuery(params, rng));
  }
  RegisterUnaryVocabulary(params.num_unary, params.num_constants,
                          &generated.scenario);
  for (const auto& r :
       rwl::workload::GeneratorBinaryPredicates(params.num_binary)) {
    generated.scenario.vocabulary.AddPredicate(r, 2);
  }
  rwl::logic::RegisterSymbols(generated.scenario.kb,
                              &generated.scenario.vocabulary);
  for (const auto& query : generated.scenario.queries) {
    rwl::logic::RegisterSymbols(query, &generated.scenario.vocabulary);
  }

  generated.options.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.2);
  // Binary predicates: the exact engine only reaches tiny N, and the
  // limit-level pipeline checks would route through expensive exact
  // sweeps while the symbolic side rarely converges — the finite oracle
  // (exact vs Monte Carlo) is the signal here.
  generated.options.domain_sizes = {2, 3};
  generated.options.check_pipeline = false;
  generated.options.check_batch = false;
  generated.options.check_maxent = false;
  // Like the other limit-level checks: binary predicates route the
  // service rebuilds through expensive exact sweeps for little signal.
  generated.options.check_service = false;
  generated.options.check_replica = false;
  generated.mc_samples = config.mc_samples;
  return generated;
}

// Penguin-style exception chains: the defaults family applies, so the
// `defaults` differential check is the point of this profile.
GeneratedCase GenerateExceptions(std::mt19937* rng, const Config& config) {
  rwl::workload::ExceptionChainParams params;
  params.depth = UniformInt(rng, 2, 4);
  rwl::workload::ExceptionChainKb chain =
      rwl::workload::RandomExceptionChainKb(params, rng);

  GeneratedCase generated;
  generated.scenario.kb = chain.kb;
  generated.scenario.queries = chain.queries;
  rwl::logic::RegisterSymbols(chain.kb, &generated.scenario.vocabulary);
  for (const auto& query : chain.queries) {
    rwl::logic::RegisterSymbols(query, &generated.scenario.vocabulary);
  }
  generated.options.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.15);
  generated.options.domain_sizes = {2, 3};
  // depth+1 unary predicates: keep the limit-level sweeps shallow like the
  // other wide vocabularies.
  generated.options.pipeline_domain_sizes = {6, 9, 12};
  (void)config;
  return generated;
}

// Theorem 5.26 instances: multiple independent mass functions over a
// shared frame, with the essential-disjointness conjuncts emitted.  The
// `evidence` differential check pits the evidence strategy against the
// symbolic engine's independent Dempster matcher.
GeneratedCase GenerateEvidence(std::mt19937* rng, const Config& config) {
  rwl::workload::EvidenceKbParams params;
  params.num_sources = UniformInt(rng, 2, 3);
  rwl::workload::EvidenceKb kb = rwl::workload::RandomEvidenceKb(params, rng);

  GeneratedCase generated;
  generated.scenario.kb = kb.kb;
  generated.scenario.queries = {kb.query};
  rwl::logic::RegisterSymbols(kb.kb, &generated.scenario.vocabulary);
  rwl::logic::RegisterSymbols(kb.query, &generated.scenario.vocabulary);
  generated.options.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.15);
  generated.options.domain_sizes = {2, 3};
  generated.options.pipeline_domain_sizes = {6, 9, 12};
  (void)config;
  return generated;
}

// Competing reference classes WITHOUT the disjointness conjuncts —
// deliberately outside the Theorem 5.26 shape, exercising the evidence
// strategy's rejection path and the planner's fallback routing.
GeneratedCase GenerateRefClass(std::mt19937* rng, const Config& config) {
  rwl::workload::ReferenceClassKb kb =
      rwl::workload::RandomReferenceClassKb(rng);

  GeneratedCase generated;
  generated.scenario.kb = kb.kb;
  generated.scenario.queries = {kb.query};
  rwl::logic::RegisterSymbols(kb.kb, &generated.scenario.vocabulary);
  rwl::logic::RegisterSymbols(kb.query, &generated.scenario.vocabulary);
  generated.options.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.2);
  generated.options.domain_sizes = {2, 3, 4};
  (void)config;
  return generated;
}

// Calibrated-interval scenarios: ordinary unary KBs answered at a
// confidence level, with the coverage check verifying the interval
// against ground-truth enumeration over the same schedule.
GeneratedCase GenerateCalibrated(std::mt19937* rng, const Config& config) {
  GeneratedCase generated =
      GenerateUnary(rng, /*defaults_heavy=*/false, config);
  generated.options.check_coverage = true;
  // 0.80, 0.85, 0.90 or 0.95.
  generated.options.coverage_confidence =
      0.80 + 0.05 * UniformInt(rng, 0, 3);
  // The ground-truth side replays the schedule on the enumeration engine:
  // keep it within the exact odometer's reach.
  generated.options.pipeline_domain_sizes = {4, 6, 8};
  return generated;
}

GeneratedCase GenerateCase(const std::string& profile, uint64_t seed,
                           int index, const Config& config,
                           std::string* chosen_profile) {
  std::mt19937 rng(static_cast<uint32_t>(
      rwl::logic::HashMix(seed * 0x9e3779b97f4a7c15ull + index)));
  std::vector<std::string> pool;
  if (profile == "all") {
    pool = {"unary",      "defaults", "chain",    "nonunary", "mixed",
            "exceptions", "evidence", "refclass", "calibrated"};
  } else {
    pool = {profile};
  }
  *chosen_profile = pool[index % pool.size()];

  GeneratedCase generated;
  if (*chosen_profile == "unary") {
    generated = GenerateUnary(&rng, /*defaults_heavy=*/false, config);
  } else if (*chosen_profile == "defaults") {
    generated = GenerateUnary(&rng, /*defaults_heavy=*/true, config);
  } else if (*chosen_profile == "chain") {
    generated = GenerateChain(&rng, config);
  } else if (*chosen_profile == "nonunary") {
    generated = GenerateNonUnary(&rng, /*mixed=*/false, config);
  } else if (*chosen_profile == "exceptions") {
    generated = GenerateExceptions(&rng, config);
  } else if (*chosen_profile == "evidence") {
    generated = GenerateEvidence(&rng, config);
  } else if (*chosen_profile == "refclass") {
    generated = GenerateRefClass(&rng, config);
  } else if (*chosen_profile == "calibrated") {
    generated = GenerateCalibrated(&rng, config);
  } else {
    generated = GenerateNonUnary(&rng, /*mixed=*/true, config);
  }
  generated.scenario.provenance = "seed=" + std::to_string(seed) +
                                  " case=" + std::to_string(index) +
                                  " profile=" + *chosen_profile;
  ApplyCheckFilter(config.checks, &generated.options);
  return generated;
}

// ---- failure handling ----

std::string EmitReproducer(const Config& config, const GeneratedCase& failed,
                           int index, const std::string& summary_head) {
  CorpusCase corpus_case = rwl::testing::CaseFromScenario(
      failed.scenario, failed.options, failed.mc_samples);
  corpus_case.seed = config.seed;
  corpus_case.notes.insert(corpus_case.notes.begin(), summary_head);
  std::string path = config.out_dir + "/fuzz_s" +
                     std::to_string(config.seed) + "_c" +
                     std::to_string(index) + ".rwl";
  std::string error;
  if (!rwl::testing::WriteCaseFile(path, corpus_case, &error)) {
    std::fprintf(stderr, "rwlfuzz: %s\n", error.c_str());
    return "";
  }
  return path;
}

// Runs one generated case; returns true when it passed.
bool RunCase(const Config& config, GeneratedCase generated, int index) {
  EngineSet engines =
      rwl::testing::DefaultEngineSet(generated.mc_samples);
  DifferentialReport report = rwl::testing::RunDifferential(
      generated.scenario, engines.pointers(), generated.options);
  if (report.ok()) {
    if (config.verbose) {
      std::printf("ok    %s (%d comparisons)\n",
                  generated.scenario.provenance.c_str(),
                  report.comparisons);
    }
    return true;
  }

  std::printf("FAIL  %s\n%s", generated.scenario.provenance.c_str(),
              report.Summary(generated.scenario).c_str());

  if (config.shrink) {
    auto still_fails = [&](const Scenario& candidate) {
      return !rwl::testing::RunDifferential(candidate, engines.pointers(),
                                            generated.options)
                  .ok();
    };
    rwl::testing::ShrinkOutcome shrunk =
        rwl::testing::Shrink(generated.scenario, still_fails);
    std::printf("shrunk to %d conjunct(s), %zu query(ies) after %d predicate runs:\n%s",
                shrunk.kb_conjuncts, shrunk.scenario.queries.size(),
                shrunk.evaluations,
                rwl::testing::Describe(shrunk.scenario).c_str());
    generated.scenario = std::move(shrunk.scenario);
  }
  if (config.emit) {
    std::string head = report.disagreements.empty()
                           ? std::string("disagreement")
                           : "[" + report.disagreements[0].check + "] " +
                                 report.disagreements[0].lhs + " vs " +
                                 report.disagreements[0].rhs;
    std::string path = EmitReproducer(config, generated, index, head);
    if (!path.empty()) {
      std::printf("reproducer written to %s\n", path.c_str());
    }
  }
  return false;
}

int FuzzMain(const Config& config) {
  int failures = 0;
  int ran = 0;
  for (int index = 0; index < config.cases; ++index) {
    std::string chosen;
    GeneratedCase generated =
        GenerateCase(config.profile, config.seed, index, config, &chosen);
    ++ran;
    if (!RunCase(config, std::move(generated), index)) {
      if (++failures >= config.max_failures) {
        std::printf("stopping after %d failure(s)\n", failures);
        break;
      }
    }
  }
  std::printf("rwlfuzz: %d case(s), %d failure(s), seed %llu\n", ran,
              failures, static_cast<unsigned long long>(config.seed));
  return failures == 0 ? 0 : 1;
}

int ReplayMain(const Config& config) {
  std::vector<std::string> files;
  if (config.replay_path.size() > 4 &&
      config.replay_path.substr(config.replay_path.size() - 4) == ".rwl") {
    files = {config.replay_path};
  } else {
    files = rwl::testing::ListCorpusFiles(config.replay_path);
  }
  if (files.empty()) {
    std::fprintf(stderr, "rwlfuzz: no corpus files under '%s'\n",
                 config.replay_path.c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& path : files) {
    CorpusCase corpus_case;
    Scenario scenario;
    std::string error;
    if (!rwl::testing::LoadCaseFile(path, &corpus_case, &error) ||
        !rwl::testing::CaseToScenario(corpus_case, &scenario, &error)) {
      std::fprintf(stderr, "rwlfuzz: %s\n", error.c_str());
      ++failures;
      continue;
    }
    EngineSet engines =
        rwl::testing::DefaultEngineSet(corpus_case.montecarlo_samples);
    DifferentialReport report = rwl::testing::RunDifferential(
        scenario, engines.pointers(),
        rwl::testing::ReplayOptions(corpus_case));
    if (report.ok()) {
      std::printf("ok    %s (%d comparisons)\n", path.c_str(),
                  report.comparisons);
    } else {
      std::printf("FAIL  %s\n%s", path.c_str(),
                  report.Summary(scenario).c_str());
      ++failures;
    }
  }
  std::printf("rwlfuzz: replayed %zu case(s), %d failure(s)\n", files.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

// Harness self-check.  Phase 1: the real engines agree on a bounded clean
// run.  Phase 2: a deliberately skewed profile engine must be caught by
// the finite oracle and shrunk to a ≤5-conjunct reproducer.
int SelfTestMain(const Config& config) {
  // Phase 1: clean run.
  Config clean = config;
  clean.cases = 120;
  clean.emit = false;
  clean.shrink = false;
  clean.max_failures = 1;
  clean.profile = "all";
  std::printf("self-test phase 1: clean differential run...\n");
  if (FuzzMain(clean) != 0) {
    std::fprintf(stderr,
                 "self-test FAILED: real engines disagreed on a clean run\n");
    return 1;
  }

  // Phase 2: injected bug.
  std::printf("self-test phase 2: injected engine bug...\n");
  rwl::engines::ExactEngine exact;
  rwl::engines::ProfileEngine profile;
  rwl::testing::SkewOnOrEngine skewed(&profile);
  std::vector<const rwl::engines::FiniteEngine*> buggy = {&exact, &skewed};

  DifferentialOptions finite_only;
  finite_only.check_pipeline = false;
  finite_only.check_batch = false;
  finite_only.check_maxent = false;
  finite_only.check_service = false;
  finite_only.check_replica = false;

  for (int index = 0; index < 400; ++index) {
    std::string chosen;
    GeneratedCase generated = GenerateCase("unary", config.seed + 1, index,
                                           config, &chosen);
    DifferentialOptions options = finite_only;
    options.tolerances = generated.options.tolerances;
    options.domain_sizes = generated.options.domain_sizes;
    DifferentialReport report = rwl::testing::RunDifferential(
        generated.scenario, buggy, options);
    if (report.ok()) continue;

    std::printf("injected bug caught at case %d:\n%s", index,
                report.Summary(generated.scenario).c_str());
    auto still_fails = [&](const Scenario& candidate) {
      return !rwl::testing::RunDifferential(candidate, buggy, options).ok();
    };
    rwl::testing::ShrinkOutcome shrunk =
        rwl::testing::Shrink(generated.scenario, still_fails);
    std::printf("shrunk to %d conjunct(s) after %d predicate runs:\n%s",
                shrunk.kb_conjuncts, shrunk.evaluations,
                rwl::testing::Describe(shrunk.scenario).c_str());
    if (shrunk.kb_conjuncts > 5) {
      std::fprintf(stderr,
                   "self-test FAILED: reproducer has %d conjuncts (> 5)\n",
                   shrunk.kb_conjuncts);
      return 1;
    }
    std::printf("self-test passed\n");
    return 0;
  }
  std::fprintf(stderr,
               "self-test FAILED: injected bug never caught in 400 cases\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cases") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.cases = std::atoi(v);
    } else if (arg == "--profile") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.profile = v;
    } else if (arg == "--mc-samples") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.mc_samples = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.out_dir = v;
    } else if (arg == "--max-failures") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.max_failures = std::atoi(v);
    } else if (arg == "--checks") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.checks = v;
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--no-emit") {
      config.emit = false;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.replay_path = v;
    } else if (arg == "--self-test") {
      config.self_test = true;
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const std::string known[] = {"unary",      "defaults", "chain",
                               "nonunary",   "mixed",    "exceptions",
                               "evidence",   "refclass", "calibrated",
                               "all"};
  bool known_profile = false;
  for (const auto& p : known) known_profile = known_profile || p == config.profile;
  if (!known_profile) return Usage(argv[0]);
  if (!ValidCheckList(config.checks)) return Usage(argv[0]);

  if (config.self_test) return SelfTestMain(config);
  if (!config.replay_path.empty()) return ReplayMain(config);
  return FuzzMain(config);
}
