// The in-process workloads: warm_read and cold_solve, both against a
// KbService in this process.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>

#include "rwbench/driver.h"
#include "src/logic/parser.h"
#include "src/semantics/compile.h"

namespace rwbench {

using rwl::service::KbService;

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::fprintf(stderr, "rwbench: FAILED %s\n", what.c_str());
}

const Reference& RequireReference(const References& refs, const Item& item,
                                  Variant variant) {
  const std::string key = ReferenceKey(item, variant);
  auto it = refs.find(key);
  if (it == refs.end() || it->second.digest != Digest(item, variant)) {
    std::fprintf(stderr,
                 "rwbench: stale reference for %s (%s); regenerate with "
                 "`python3 rwbench/run.py --regen-refs`\n",
                 key.c_str(), it == refs.end() ? "missing" : "inputs changed");
    std::exit(3);
  }
  return it->second;
}

void Outcome::Combine(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  query_us.Merge(other.query_us);
  mutation_us.Merge(other.mutation_us);
  ops += other.ops;
  span_s = std::max(span_s, other.span_s);
  if (other.windows.size() > windows.size()) windows.resize(other.windows.size());
  for (size_t w = 0; w < other.windows.size(); ++w) windows[w] += other.windows[w];
}

void Outcome::Absorb(const Outcome& segment, size_t whole) {
  const size_t base = windows.size();
  windows.resize(base + whole + 1, 0);
  partial.resize(base + whole + 1, false);
  partial[base + whole] = true;
  for (size_t w = 0; w < segment.windows.size(); ++w) {
    windows[base + std::min(w, whole)] += segment.windows[w];
  }
  query_us.Merge(segment.query_us, base, whole);
  mutation_us.Merge(segment.mutation_us, base, whole);
  attempted += segment.attempted;
  failed += segment.failed;
  ops += segment.ops;
  span_s += segment.span_s;
}

size_t SlowestWindow(const Outcome& out) {
  size_t slowest = WindowedSamples::kAllWindows;
  size_t whole = 0;
  for (size_t w = 0; w < out.windows.size(); ++w) {
    if (out.partial[w]) continue;
    ++whole;
    if (slowest == WindowedSamples::kAllWindows ||
        out.windows[w] < out.windows[slowest]) {
      slowest = w;
    }
  }
  return whole < 2 ? WindowedSamples::kAllWindows : slowest;
}

void FinishTrace(const Config& config, const Layers& layers,
                 const Tracer& tracer, uint64_t ops,
                 const std::map<std::string, double>& extra, Outcome* out) {
  out->layers = LayerMetrics(layers, ops, extra);
  const std::string path = config.state_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".tsv";
  WriteSpans(path, tracer.spans());
  out->env["spans"] = path;
  PrintSelfTimes(tracer.spans());
}

namespace {

std::vector<const Item*> ItemsOf(const std::vector<Item>& items,
                                 const std::string& workload) {
  std::vector<const Item*> out;
  for (const Item& item : items) {
    if (item.In(workload)) out.push_back(&item);
  }
  return out;
}

// Times one isolated call into a layer as a child span of `parent` and
// samples its duration under `metric`.
template <typename Call>
void TimeLayer(Tracer* tracer, Layers* layers, const char* span,
               const char* metric, uint64_t request, int parent, Call&& call) {
  const int id = tracer->Open(span, request, parent);
  call();
  tracer->Close(id);
  layers->Sample(metric, tracer->DurationUs(id));
}

// Times the isolated parse and compile of each item's query: the parse the
// service repeats per query, and the compile a cold context pays once per
// formula.  It runs in passes of its own after the traced half, for an
// eighth of the run's seconds, so trace.overhead_frac (the halves'
// throughput ratio) does not include this added work.  answer(i) returns a
// fresh answer to item i, whose snapshot holds the vocabulary to compile
// against.
template <typename Answer>
void TimeParseAndCompile(const Config& config,
                         const std::vector<const Item*>& items,
                         Tracer* tracer, Layers* layers, Answer&& answer) {
  RunPasses(Clock::now(), items.size(), config.seconds / 8, nullptr,
            [&](size_t i, uint64_t r, size_t) {
              const KbService::QueryResult result = answer(i);
              const uint64_t request = r + (uint64_t{1} << 41);
              const int root = tracer->Open("isolated", request);
              rwl::logic::ParseResult parsed;
              TimeLayer(tracer, layers, "logic.parse", "logic.parse_us",
                        request, root, [&] {
                          parsed = rwl::logic::ParseFormula(items[i]->query);
                        });
              if (parsed.ok() && result.snapshot != nullptr) {
                TimeLayer(tracer, layers, "semantics.compile",
                          "semantics.compile_us", request, root, [&] {
                            rwl::semantics::CompileFormula(
                                parsed.formula,
                                result.snapshot->context->vocabulary());
                          });
              }
              tracer->Close(root);
            });
}

// The timed phase of an in-process workload.  setup(first) rebuilds the
// service, loads it and answers every item once, recording the set-up time
// (from process start for the first).  Untraced, the phase is cut into one segment per set-up and
// the service is rebuilt before each later segment, so the set-ups sample
// the host at times spread over the run.  Traced, every set-up comes first,
// then an untraced half and a traced half whose spans and layer sums are
// kept; the throughput ratio of the halves is the tracing overhead, and
// before_traced() runs between them.  op(item_index, request, window,
// tracer, layers, segment) runs one op (null tracer and layers untraced).
template <typename Setup, typename Op>
void TimedPhase(const Config& config, size_t n, Outcome* out, Layers* layers,
                Tracer* tracer, std::map<std::string, double>* extra,
                Setup&& setup, const std::function<void()>& before_traced,
                Op&& op) {
  const std::vector<size_t> order = Shuffled(n, config.seed);
  auto phase = [&](double seconds, Tracer* t, Layers* l, Outcome* segment) {
    const Clock::time_point start = Clock::now();
    segment->ops = RunPasses(start, n, seconds, &segment->windows,
                             [&](size_t i, uint64_t r, size_t w) {
                               op(order[i], r, w, t, l, segment);
                             });
    segment->span_s = SecondsSince(start);
  };
  setup(true);
  if (!config.trace) {
    const double seconds = config.seconds / config.setup_reps;
    for (int rep = 0; rep < config.setup_reps; ++rep) {
      if (rep > 0) setup(false);
      Outcome segment;
      phase(seconds, nullptr, nullptr, &segment);
      out->Absorb(segment, static_cast<size_t>(seconds));
    }
    return;
  }
  for (int rep = 1; rep < config.setup_reps; ++rep) setup(false);
  Outcome base, traced;
  phase(config.seconds / 2, nullptr, nullptr, &base);
  before_traced();
  phase(config.seconds / 2, tracer, layers, &traced);
  (*extra)["trace.overhead_frac"] =
      (static_cast<double>(base.ops) / base.span_s) /
          (static_cast<double>(traced.ops) / traced.span_s) -
      1.0;
  out->Absorb(base, 0);
  out->Absorb(traced, 0);
  out->ops = traced.ops;
  out->span_s = traced.span_s;
}

}  // namespace

Outcome RunWarmRead(const Config& config, const std::vector<Item>& all,
                    const References& refs) {
  const std::vector<const Item*> items = ItemsOf(all, "warm_read");
  std::vector<const Reference*> expected;
  for (const Item* item : items) {
    expected.push_back(&RequireReference(refs, *item, Variant::kPlain));
  }
  Outcome out;
  std::unique_ptr<KbService> service;
  auto setup = [&](bool first) {
    service.reset();
    const Clock::time_point start =
        first ? config.process_start : Clock::now();
    service = std::make_unique<KbService>(BenchServiceOptions());
    for (const Item* item : items) {
      const Clock::time_point t0 = Clock::now();
      KbService::MutationResult load =
          service->Load(item->id, item->kb, Declares(*item, Variant::kPlain));
      out.mutation_us.Add(0, UsBetween(t0, Clock::now()));
      out.Check(load.ok, "LOAD " + item->id + ": " + load.error);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      KbService::QueryResult result =
          service->Query(items[i]->id, items[i]->query, items[i]->request);
      out.Check(result.ok && Matches(result.answer, *expected[i]),
                "QUERY " + items[i]->id);
    }
    out.setup_s.push_back(SecondsSince(start));
  };

  Layers layers;
  Tracer tracer(true);
  std::map<std::string, double> extra;
  rwl::QueryContext::CacheStats cache_before;
  uint64_t rejected_before = 0;
  TimedPhase(
      config, items.size(), &out, &layers, &tracer, &extra, setup,
      [&] {
        cache_before = HeadCacheStats(*service);
        rejected_before = service->scheduler_stats().rejected;
      },
      [&](size_t i, uint64_t request, size_t window, Tracer* t, Layers* l,
          Outcome* o) {
        const Item& item = *items[i];
        const int root = t != nullptr ? t->Open("op", request) : -1;
        const int call =
            t != nullptr ? t->Open("service.query", request, root) : -1;
        const Clock::time_point t0 = Clock::now();
        KbService::QueryResult result =
            service->Query(item.id, item.query, item.request);
        const double us = UsBetween(t0, Clock::now());
        o->query_us.Add(window, us);
        o->Check(result.ok && Matches(result.answer, *expected[i]), item.id);
        if (t == nullptr) return;
        t->Close(call);
        l->AddAnswer(result, us, t, call, request, t->spans()[call].end_ns);
        t->Close(root);
      });
  if (config.trace) {
    layers.AddCacheStats(cache_before, HeadCacheStats(*service));
    extra["service.rejected"] = static_cast<double>(
        service->scheduler_stats().rejected - rejected_before);
    TimeParseAndCompile(config, items, &tracer, &layers, [&](size_t i) {
      return service->Query(items[i]->id, items[i]->query, items[i]->request);
    });
    FinishTrace(config, layers, tracer, out.ops, extra, &out);
  }
  out.peak_rss_mib = PeakRssMib(0);
  out.env["client_cpus"] = CpusAllowed(0);
  return out;
}

Outcome RunColdSolve(const Config& config, const std::vector<Item>& all,
                     const References& refs) {
  const std::vector<const Item*> items = ItemsOf(all, "cold_solve");
  std::vector<const Reference*> expected;
  for (const Item* item : items) {
    expected.push_back(&RequireReference(refs, *item, Variant::kPlain));
  }
  Outcome out;
  std::unique_ptr<KbService> service;
  // The mix audit: run time per item and ops per answering strategy.
  std::vector<double> item_us(items.size(), 0.0);
  std::vector<uint64_t> item_ops(items.size(), 0);
  std::map<std::string, uint64_t> by_strategy;

  // One op: LOAD a fresh tenant, answer its query, DROP it, all timed
  // together, so work moved into LOAD cannot pass for a faster query.
  // Set-up ops (null `o`) are checked but not timed.
  auto solve = [&](size_t i, uint64_t request, size_t window, Tracer* t,
                   Layers* l, Outcome* o) {
    const Item& item = *items[i];
    const int root = t != nullptr ? t->Open("op", request) : -1;
    const int load_span =
        t != nullptr ? t->Open("catalog.load", request, root) : -1;
    const Clock::time_point t0 = Clock::now();
    KbService::MutationResult load =
        service->Load(item.id, item.kb, Declares(item, Variant::kPlain));
    const Clock::time_point loaded = Clock::now();
    const int call =
        t != nullptr ? (t->Close(load_span),
                        t->Open("service.query", request, root))
                     : -1;
    KbService::QueryResult result =
        service->Query(item.id, item.query, item.request);
    const Clock::time_point answered = Clock::now();
    const bool ok = load.ok && result.ok && Matches(result.answer, *expected[i]);
    if (o != nullptr) ++by_strategy[FinalStrategy(result.answer)];
    if (t != nullptr) {
      t->Close(call);
      l->Sample("catalog.load_us", UsBetween(t0, loaded));
      l->AddAnswer(result, UsBetween(loaded, answered), t, call, request,
                   t->spans()[call].end_ns);
      if (result.snapshot != nullptr) {
        l->AddCacheStats({}, result.snapshot->context->cache_stats());
      }
    }
    const int drop_span =
        t != nullptr ? t->Open("catalog.drop", request, root) : -1;
    const bool dropped = service->Drop(item.id);
    result = KbService::QueryResult{};
    const double us = UsBetween(t0, Clock::now());
    if (t != nullptr) {
      t->Close(drop_span);
      t->Close(root);
    }
    if (o == nullptr) {
      out.Check(ok && dropped, item.id);
      return;
    }
    o->Check(ok && dropped, item.id);
    o->query_us.Add(window, us);
    o->mutation_us.Add(window, UsBetween(t0, loaded));
    item_us[i] += us;
    ++item_ops[i];
  };
  auto setup = [&](bool first) {
    service.reset();
    const Clock::time_point start =
        first ? config.process_start : Clock::now();
    service = std::make_unique<KbService>(BenchServiceOptions());
    for (size_t i = 0; i < items.size(); ++i) {
      solve(i, i, 0, nullptr, nullptr, nullptr);
    }
    out.setup_s.push_back(SecondsSince(start));
  };

  Layers layers;
  Tracer tracer(true);
  std::map<std::string, double> extra;
  uint64_t rejected_before = 0;
  TimedPhase(
      config, items.size(), &out, &layers, &tracer, &extra, setup,
      [&] { rejected_before = service->scheduler_stats().rejected; }, solve);
  if (config.trace) {
    extra["service.rejected"] = static_cast<double>(
        service->scheduler_stats().rejected - rejected_before);
    TimeParseAndCompile(config, items, &tracer, &layers, [&](size_t i) {
      const Item& item = *items[i];
      service->Load(item.id, item.kb, Declares(item, Variant::kPlain));
      KbService::QueryResult result =
          service->Query(item.id, item.query, item.request);
      service->Drop(item.id);
      return result;
    });
    FinishTrace(config, layers, tracer, out.ops, extra, &out);
  }
  if (config.audit) {
    double total_us = 0.0;
    for (double us : item_us) total_us += us;
    std::fprintf(stderr, "cold_solve mix audit: %zu items\n", items.size());
    std::fprintf(stderr, "%-28s %-10s %8s %10s %7s\n", "item", "family",
                 "ops", "mean_ms", "share");
    for (size_t i = 0; i < items.size(); ++i) {
      std::fprintf(stderr, "%-28s %-10s %8llu %10.3f %6.2f%%\n",
                   items[i]->id.c_str(), items[i]->family.c_str(),
                   static_cast<unsigned long long>(item_ops[i]),
                   item_ops[i] == 0 ? 0.0 : item_us[i] / 1e3 / item_ops[i],
                   total_us > 0 ? 100.0 * item_us[i] / total_us : 0.0);
    }
    std::fprintf(stderr, "ops by answering strategy:\n");
    for (const auto& [strategy, count] : by_strategy) {
      std::fprintf(stderr, "  %-20s %llu\n", strategy.c_str(),
                   static_cast<unsigned long long>(count));
    }
  }
  out.peak_rss_mib = PeakRssMib(0);
  out.env["client_cpus"] = CpusAllowed(0);
  return out;
}

}  // namespace rwbench
