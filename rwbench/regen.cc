// Regenerates the checked-in benchmark data: the work-item catalogue (cut
// once from the paper corpus and the src/workload generators, so later
// generator changes do not change the benchmark's inputs) and the
// reference answers.
#include <cstdio>
#include <functional>
#include <random>
#include <set>
#include <utility>

#include "rwbench/driver.h"
#include "src/core/planner.h"
#include "src/fixtures/paper_kbs.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwbench {

using rwl::service::KbService;

namespace {

// cold_solve takes scenarios whose cold LOAD+QUERY+DROP cost lies in this
// band: cheap closed-form answers and sweeps both appear, and no single
// scenario can dominate a pass.
constexpr double kMaxColdMs = 4.0;
constexpr uint32_t kCatalogSeed = 20061;

// Cold cost of one item as `variant` loads it (the faster of two tries),
// or -1 when it fails or runs far past the band.  A first try under a
// deadline screens out the long sweeps cheaply (a deadline overshoots by at
// most one engine probe).  *strategy gets the strategy that answered.
double ColdCostMs(KbService* service, const Item& item, Variant variant,
                  std::string* strategy = nullptr) {
  auto solve = [&](double deadline_ms, bool* deadline_hit) {
    KbService::MutationResult load =
        service->Load("probe", item.kb, Declares(item, variant));
    rwl::service::RequestOptions request = item.request;
    request.deadline_ms = deadline_ms;
    if (load.ok && variant == Variant::kMixedMarked) {
      load = service->Assert("probe", item.marker);
      request.min_version = load.version;
    }
    KbService::QueryResult result =
        service->Query("probe", item.query, request);
    service->Drop("probe");
    *deadline_hit = result.answer.plan != nullptr &&
                    result.answer.plan->deadline_hit;
    if (strategy != nullptr) *strategy = FinalStrategy(result.answer);
    return load.ok && result.ok;
  };
  bool deadline_hit = false;
  if (!solve(4 * kMaxColdMs, &deadline_hit) || deadline_hit) return -1.0;
  double best = -1.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Clock::time_point t0 = Clock::now();
    if (!solve(0.0, &deadline_hit)) return -1.0;
    const double ms = UsBetween(t0, Clock::now()) / 1e3;
    best = best < 0 ? ms : std::min(best, ms);
  }
  return best;
}

bool InBand(double cold_ms) { return cold_ms >= 0 && cold_ms <= kMaxColdMs; }

// A generated scenario as LOAD text: one conjunct per line, the query, and
// the query's constants the KB does not mention (declared at LOAD).
bool ToItem(const rwl::logic::FormulaPtr& kb,
            const rwl::logic::FormulaPtr& query, Item* item) {
  for (const auto& conjunct : rwl::logic::Conjuncts(kb)) {
    item->kb += rwl::logic::ToString(conjunct) + "\n";
  }
  item->query = rwl::logic::ToString(query);
  if (!rwl::logic::ParseKnowledgeBase(item->kb).ok() ||
      !rwl::logic::ParseFormula(item->query).ok()) {
    return false;
  }
  rwl::logic::Vocabulary kb_symbols, query_symbols;
  rwl::logic::RegisterSymbols(kb, &kb_symbols);
  rwl::logic::RegisterSymbols(query, &query_symbols);
  for (const auto& constant : query_symbols.Constants()) {
    if (!kb_symbols.FindFunction(constant.name)) {
      item->declare.push_back(constant.name);
    }
  }
  return true;
}

using Generator = std::function<std::pair<rwl::logic::FormulaPtr,
                                          rwl::logic::FormulaPtr>(
    std::mt19937*)>;

// A scenario family: `quota` scenarios from `generate`, queried under
// `request`.  When `answered_by` is set, a scenario is kept only if that
// strategy gives its final answer.
struct Family {
  std::string name;
  int quota;
  Generator generate;
  rwl::service::RequestOptions request;
  std::string answered_by;
};

int Uniform(std::mt19937* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

rwl::service::RequestOptions Request(const std::string& plan,
                                     const std::string& engine,
                                     int fixed_n = 0, double interval = 0) {
  rwl::service::RequestOptions request;
  request.plan = plan;
  request.engine = engine;
  request.fixed_domain_size = fixed_n;
  request.interval_confidence = interval;
  return request;
}

std::vector<Family> Families() {
  namespace wl = rwl::workload;
  const Generator unary2 = [](std::mt19937* rng) {
    wl::UnaryKbParams params;
    params.num_predicates = 2;
    params.num_constants = Uniform(rng, 1, 2);
    params.num_statements = Uniform(rng, 1, 3);
    params.default_fraction = 0.3;
    auto kb = wl::RandomUnaryKb(params, rng);
    return std::make_pair(kb, wl::RandomQuery(params, rng));
  };
  const Generator unary3 = [](std::mt19937* rng) {
    wl::UnaryKbParams params;
    params.num_predicates = 3;
    params.num_constants = 1;
    params.num_statements = 2;
    auto kb = wl::RandomUnaryKb(params, rng);
    return std::make_pair(kb, wl::RandomQuery(params, rng));
  };
  const Generator chain = [](std::mt19937* rng) {
    wl::ExceptionChainParams params;
    params.depth = Uniform(rng, 2, 4);
    wl::ExceptionChainKb chain = wl::RandomExceptionChainKb(params, rng);
    return std::make_pair(
        chain.kb, chain.queries[Uniform(rng, 0, 1) % chain.queries.size()]);
  };
  const Generator evidence = [](std::mt19937* rng) {
    wl::EvidenceKbParams params;
    params.num_sources = Uniform(rng, 2, 3);
    wl::EvidenceKb kb = wl::RandomEvidenceKb(params, rng);
    return std::make_pair(kb.kb, kb.query);
  };
  const Generator refclass = [](std::mt19937* rng) {
    wl::ReferenceClassKb kb = wl::RandomReferenceClassKb(rng);
    return std::make_pair(kb.kb, kb.query);
  };
  // The planned families first, in their original order, so their
  // scenarios stay the ones drawn when the catalogue was first cut.  The
  // default fidelity plan answers all of them with symbolic or profile, so
  // the later families route scenarios to the other strategies: forced
  // (the QUERY "engine" field), the cost-ordered plan, a fixed domain size
  // and an interval confidence.  Monte Carlo is left out: its cold sweep
  // takes 80 ms and more, ten times the band.
  return {
      {"unary2", 16, unary2, {}, ""},
      {"unary3", 16, unary3, {}, ""},
      {"chain", 12, chain, {}, ""},
      {"evidence", 12, evidence, {}, ""},
      {"refclass", 12, refclass, {}, ""},
      {"chain-eps", 3, chain, Request("", "epsilon_semantics"),
       "epsilon_semantics"},
      {"chain-klm", 3, chain, Request("", "klm"), "klm"},
      {"chain-gmp90", 3, chain, Request("", "gmp90"), "gmp90"},
      {"evidence-cost", 4, evidence, Request("cost", ""), "evidence"},
      {"unary2-maxent", 4, unary2, Request("", "maxent"), "maxent"},
      {"unary2-exact", 2, unary2, Request("", "exact"), "exact"},
      {"unary2-fixedn", 3, unary2, Request("", "", 16), "fixed-n"},
      {"unary2-calibrated", 3, unary2, Request("", "", 0, 0.9), "calibrated"},
  };
}

}  // namespace

int RegenerateCatalog(const std::string& data_dir) {
  KbService service(BenchServiceOptions());
  std::vector<Item> items;
  for (const auto& example : rwl::fixtures::AllPaperExamples()) {
    Item item;
    item.id = "corpus/" + example.id;
    item.family = "corpus";
    item.kb = example.kb;
    item.query = example.query;
    item.declare = example.extra_constants;
    item.cold_ms = ColdCostMs(&service, item, Variant::kPlain);
    item.workloads = {"warm_read", "mixed_tcp"};
    if (InBand(item.cold_ms)) item.workloads.push_back("cold_solve");
    // The marker: the first unary predicate whose fact about a fresh
    // constant still leaves the tenant cheap to answer cold.  A toggle that
    // turned a closed-form answer into a sweep would make the writer's next
    // read of the tenant wait out the publication grace period and sweep on
    // a cold staged snapshot, as often as the background mint happens to
    // lose that race: a wall-clock-dependent count of very slow ops.
    // Tenants without such a predicate are only read.
    rwl::KnowledgeBase probe;
    if (InBand(item.cold_ms) && probe.AddParsed(example.kb)) {
      for (const auto& predicate : probe.vocabulary().predicates()) {
        if (predicate.arity != 1) continue;
        item.marker = predicate.name + "(" + kMarkerConstant + ")";
        if (InBand(ColdCostMs(&service, item, Variant::kMixedMarked))) break;
        item.marker.clear();
      }
    }
    items.push_back(std::move(item));
  }
  std::mt19937 rng(kCatalogSeed);
  std::set<std::string> seen;
  for (const Family& family : Families()) {
    int kept = 0;
    for (int attempt = 0; attempt < 400 && kept < family.quota; ++attempt) {
      auto [kb, query] = family.generate(&rng);
      Item item;
      item.family = family.name;
      item.request = family.request;
      if (!ToItem(kb, query, &item) ||
          !seen.insert(item.kb + "?" + item.query).second) {
        continue;
      }
      std::string strategy;
      item.cold_ms = ColdCostMs(&service, item, Variant::kPlain, &strategy);
      if (!InBand(item.cold_ms) ||
          (!family.answered_by.empty() && strategy != family.answered_by)) {
        continue;
      }
      char id[64];
      std::snprintf(id, sizeof(id), "gen/%s-%02d", family.name.c_str(), kept);
      item.id = id;
      item.workloads = {"cold_solve"};
      items.push_back(std::move(item));
      ++kept;
    }
    std::fprintf(stderr, "rwbench: %s: %d of %d scenarios kept\n",
                 family.name.c_str(), kept, family.quota);
  }
  std::string text;
  for (const Item& item : items) text += ItemJson(item) + "\n";
  const std::string path = data_dir + "/catalog.jsonl";
  if (!WriteFile(path, text)) {
    std::fprintf(stderr, "rwbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "rwbench: wrote %zu items to %s\n", items.size(),
               path.c_str());
  return 0;
}

int RegenerateReferences(const std::string& data_dir) {
  std::vector<Item> items;
  std::string error;
  if (!LoadCatalog(data_dir + "/catalog.jsonl", &items, &error)) {
    std::fprintf(stderr, "rwbench: %s\n", error.c_str());
    return 1;
  }
  KbService service(BenchServiceOptions());
  std::string text;
  for (const Item& item : items) {
    std::vector<Variant> variants;
    if (item.In("warm_read") || item.In("cold_solve")) {
      variants.push_back(Variant::kPlain);
    }
    if (item.In("mixed_tcp")) {
      variants.push_back(Variant::kMixed);
      if (!item.marker.empty()) variants.push_back(Variant::kMixedMarked);
    }
    for (Variant variant : variants) {
      KbService::MutationResult load =
          service.Load("ref", item.kb, Declares(item, variant));
      rwl::service::RequestOptions request = item.request;
      if (load.ok && variant == Variant::kMixedMarked) {
        load = service.Assert("ref", item.marker);
        request.min_version = load.version;
      }
      KbService::QueryResult result =
          service.Query("ref", item.query, request);
      service.Drop("ref");
      if (!load.ok || !result.ok) {
        std::fprintf(stderr, "rwbench: %s does not answer: %s%s\n",
                     ReferenceKey(item, variant).c_str(), load.error.c_str(),
                     result.error.c_str());
        return 1;
      }
      text += ReferenceJson(ReferenceKey(item, variant),
                            ReferenceOf(result.answer, Digest(item, variant))) +
              "\n";
    }
  }
  const std::string path = data_dir + "/references.jsonl";
  if (!WriteFile(path, text)) {
    std::fprintf(stderr, "rwbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "rwbench: wrote references for %zu items to %s\n",
               items.size(), path.c_str());
  return 0;
}

}  // namespace rwbench
