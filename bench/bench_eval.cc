// Evaluator microbenchmark: compiled bytecode VM vs. the tree-walking
// interpreter, world-loop thread scaling of the sharded exact engine, and
// the profile engine's kernel (ns per DFS leaf, and one whole sweep).
//
// Emits one BENCH_JSON line per row (grep into BENCH_eval.json — see
// bench_util.h) so the perf trajectory of the evaluation hot path is
// tracked across PRs:
//
//   bench_eval | grep '^BENCH_JSON ' | sed 's/^BENCH_JSON //' > BENCH_eval.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <random>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"
#include "src/semantics/compile.h"
#include "src/semantics/evaluator.h"
#include "src/semantics/vm.h"

namespace {

using rwl::QueryContext;
using rwl::logic::FormulaPtr;
using rwl::semantics::CompiledFormula;
using rwl::semantics::EvalFrame;
using rwl::semantics::World;

struct Fixture {
  rwl::logic::Vocabulary vocab;
  FormulaPtr formula;
};

// A representative mixed-fragment sentence: quantifiers over a binary
// relation, a conditional proportion, and arithmetic on proportion terms.
Fixture MakeFixture() {
  Fixture f;
  f.vocab.AddPredicate("P", 1);
  f.vocab.AddPredicate("Q", 1);
  f.vocab.AddPredicate("R", 2);
  f.vocab.AddConstant("K");
  auto parsed = rwl::logic::ParseFormula(
      "(forall x. (R(x, x) => P(x))) & "
      "#(P(x) ; Q(x))[x] <~ #(Q(x))[x] + 0.5 & "
      "(exists x. R(K, x))");
  f.formula = parsed.formula;
  return f;
}

void RandomizeWorld(World* world, std::mt19937_64* rng) {
  const auto& vocab = world->vocabulary();
  for (int p = 0; p < vocab.num_predicates(); ++p) {
    if (world->predicate_arity(p) == 1) {
      for (int d = 0; d < world->domain_size(); ++d) {
        world->SetUnaryBit(p, d, ((*rng)() & 1) != 0);
      }
      continue;
    }
    for (auto& cell : world->predicate_table(p)) {
      cell = static_cast<uint8_t>((*rng)() & 1);
    }
  }
  std::uniform_int_distribution<int> element(0, world->domain_size() - 1);
  for (int fn = 0; fn < vocab.num_functions(); ++fn) {
    for (auto& cell : world->function_table(fn)) cell = element(*rng);
  }
}

// ---- manual compile-vs-interpret report (one JSON row per N) ----

void ReportCompileVsInterpret() {
  rwl::bench::PrintHeader("Evaluator: compiled VM vs tree-walker");
  Fixture f = MakeFixture();
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  CompiledFormula compiled =
      rwl::semantics::CompileFormula(f.formula, f.vocab);
  if (!compiled.ok()) {
    std::printf("compile failed: %s\n", compiled.error.c_str());
    return;
  }

  for (int n : {4, 6, 8}) {
    World world(&f.vocab, n);
    std::mt19937_64 rng(99);
    RandomizeWorld(&world, &rng);
    EvalFrame frame;
    frame.Prepare(*compiled.program, tol);

    // Calibrate the iteration count on the VM so each side runs ~0.2s max.
    const int iters = n <= 4 ? 20000 : n <= 6 ? 4000 : 1000;
    using Clock = std::chrono::steady_clock;

    bool sink = false;
    auto walk_start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      sink ^= rwl::semantics::Evaluate(f.formula, world, tol);
    }
    double walk_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - walk_start)
                         .count() /
                     iters;

    auto vm_start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      sink ^= rwl::semantics::RunProgram(*compiled.program, world, &frame);
    }
    double vm_ns = std::chrono::duration<double, std::nano>(
                       Clock::now() - vm_start)
                       .count() /
                   iters;
    benchmark::DoNotOptimize(sink);

    double speedup = vm_ns > 0 ? walk_ns / vm_ns : 0.0;
    std::printf("  [eval-N%-2d] walker=%10.0f ns/eval  vm=%10.0f ns/eval  "
                "speedup=%.2fx\n",
                n, walk_ns, vm_ns, speedup);
    rwl::bench::JsonLine line("eval");
    line.Field("id", "vm_vs_interp_N" + std::to_string(n))
        .Field("domain_size", n)
        .Field("walker_ns_per_eval", walk_ns)
        .Field("vm_ns_per_eval", vm_ns)
        .Field("speedup", speedup);
    line.Emit();
  }
}

// ---- proportion-heavy rows: popcount kernels at large N ----

// Every proportion is a fused kPropUnary, so the VM side runs pure
// popcount-over-words kernels while the walker scans element by element.
void ReportProportionHeavy() {
  rwl::bench::PrintHeader(
      "Evaluator: proportion-heavy formula (popcount kernels)");
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("P0", 1);
  vocab.AddPredicate("P1", 1);
  vocab.AddPredicate("P2", 1);
  FormulaPtr formula = rwl::logic::ParseFormula(
                           "#(P0(x))[x] <~ 0.7 & "
                           "#(P0(x) ; P1(x))[x] <~ 0.6 & "
                           "#(P2(x) ; P0(x))[x] <~ 0.4")
                           .formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  CompiledFormula compiled = rwl::semantics::CompileFormula(formula, vocab);
  if (!compiled.ok()) {
    std::printf("compile failed: %s\n", compiled.error.c_str());
    return;
  }

  for (int n : {32, 64, 127}) {
    World world(&vocab, n);
    std::mt19937_64 rng(101);
    RandomizeWorld(&world, &rng);
    EvalFrame frame;
    frame.Prepare(*compiled.program, tol);
    using Clock = std::chrono::steady_clock;

    const int walk_iters = 2000;
    bool sink = false;
    auto walk_start = Clock::now();
    for (int i = 0; i < walk_iters; ++i) {
      sink ^= rwl::semantics::Evaluate(formula, world, tol);
    }
    double walk_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - walk_start)
                         .count() /
                     walk_iters;

    const int vm_iters = 200000;
    auto vm_start = Clock::now();
    for (int i = 0; i < vm_iters; ++i) {
      sink ^= rwl::semantics::RunProgram(*compiled.program, world, &frame);
    }
    double vm_ns = std::chrono::duration<double, std::nano>(
                       Clock::now() - vm_start)
                       .count() /
                   vm_iters;
    benchmark::DoNotOptimize(sink);

    double speedup = vm_ns > 0 ? walk_ns / vm_ns : 0.0;
    std::printf("  [prop-N%-3d] walker=%10.0f ns/eval  vm=%8.1f ns/eval  "
                "speedup=%.1fx\n",
                n, walk_ns, vm_ns, speedup);
    rwl::bench::JsonLine line("eval");
    line.Field("id", "prop_vm_N" + std::to_string(n))
        .Field("domain_size", n)
        .Field("walker_ns_per_eval", walk_ns)
        .Field("vm_ns_per_eval", vm_ns)
        .Field("speedup", speedup);
    line.Emit();
  }
}

// ---- counting-loop collapse vs forced enumeration (one JSON row) ----

// Aggregate-only KB and query: the engine takes the counting loop over
// compositions of N.  Conjoining a quantified tautology to the KB changes
// no world but forces the odometer enumeration, so the same answer is
// timed both ways (bit-identity is asserted — it is the tentpole claim).
void ReportCountingCollapse() {
  rwl::bench::PrintHeader("Exact engine: counting-loop collapse");
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("P0", 1);
  vocab.AddPredicate("P1", 1);
  FormulaPtr kb =
      rwl::logic::ParseFormula("#(P0(x))[x] <~ 0.6").formula;
  FormulaPtr kb_enum = rwl::logic::ParseFormula(
                           "#(P0(x))[x] <~ 0.6 & "
                           "(forall x. (P0(x) | !P0(x)))")
                           .formula;
  FormulaPtr query =
      rwl::logic::ParseFormula("#(P1(x) ; P0(x))[x] <~ 0.5").formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  const int n = 11;  // 2^22 worlds enumerated vs C(14,3) = 364 compositions
  rwl::engines::ExactEngine engine;
  using Clock = std::chrono::steady_clock;

  QueryContext enum_ctx(vocab, kb_enum, /*caching_enabled=*/false);
  auto enum_start = Clock::now();
  auto enumerated = engine.DegreeAt(enum_ctx, query, n, tol);
  double enum_s =
      std::chrono::duration<double>(Clock::now() - enum_start).count();

  // The counting loop is microseconds; repeat it to get a stable timing.
  const int count_iters = 200;
  QueryContext count_ctx(vocab, kb, /*caching_enabled=*/false);
  auto count_start = Clock::now();
  rwl::engines::FiniteResult counted;
  for (int i = 0; i < count_iters; ++i) {
    counted = engine.DegreeAt(count_ctx, query, n, tol);
    benchmark::DoNotOptimize(counted);
  }
  double count_s =
      std::chrono::duration<double>(Clock::now() - count_start).count() /
      count_iters;

  if (counted.probability != enumerated.probability ||
      counted.log_numerator != enumerated.log_numerator ||
      counted.log_denominator != enumerated.log_denominator) {
    std::printf("  BIT-IDENTITY VIOLATION: counting %-.17g vs enumeration "
                "%-.17g\n",
                counted.probability, enumerated.probability);
  }
  double speedup = count_s > 0 ? enum_s / count_s : 0.0;
  std::printf("  [counting-N%d] enumeration=%.3fs  counting=%.6fs  "
              "speedup=%.0fx\n",
              n, enum_s, count_s, speedup);
  rwl::bench::JsonLine line("eval");
  line.Field("id", "exact_counting_collapse_N" + std::to_string(n))
      .Field("domain_size", n)
      .Field("enumeration_seconds", enum_s)
      .Field("counting_seconds", count_s)
      .Field("speedup", speedup);
  line.Emit();
}

// ---- exact-engine world-loop thread scaling (one JSON row) ----

void ReportThreadScaling() {
  rwl::bench::PrintHeader("Exact engine: world-loop thread scaling");
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("P", 1);
  vocab.AddPredicate("R", 2);
  FormulaPtr kb = rwl::logic::ParseFormula(
                      "(forall x. (R(x, x) => P(x)))")
                      .formula;
  FormulaPtr query =
      rwl::logic::ParseFormula("(exists x. R(x, x))").formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  const int n = 4;  // 2^(4 + 16) ≈ 1M worlds

  using Clock = std::chrono::steady_clock;
  auto time_with = [&](int threads) {
    rwl::engines::ExactEngine engine(26.0, threads);
    QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
    auto start = Clock::now();
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  time_with(1);  // warm-up
  double serial_s = time_with(1);
  double pooled_s = time_with(8);
  double scaling = pooled_s > 0 ? serial_s / pooled_s : 0.0;
  const double total_worlds = std::exp2(4 + 16);  // P: 4 cells, R: 16
  const double serial_ns_per_world = serial_s / total_worlds * 1e9;
  const double pooled_ns_per_world = pooled_s / total_worlds * 1e9;

  // Block VM vs per-world scalar loop over the same enumeration: the
  // scalar side clears the frame binding each world, costing the per-world
  // pointer rebinding the byte-table representation used to pay.
  CompiledFormula ckb = rwl::semantics::CompileFormula(kb, vocab);
  CompiledFormula cq = rwl::semantics::CompileFormula(query, vocab);
  EvalFrame kb_frame;
  EvalFrame q_frame;
  kb_frame.Prepare(*ckb.program, tol);
  q_frame.Prepare(*cq.program, tol);
  const int64_t count = int64_t{1} << 20;

  World scalar_world(&vocab, n);
  auto scalar_start = Clock::now();
  rwl::semantics::BlockCounts scalar_counts;
  for (int64_t w = 0; w < count; ++w) {
    kb_frame.bound_world = nullptr;
    q_frame.bound_world = nullptr;
    if (rwl::semantics::RunProgram(*ckb.program, scalar_world, &kb_frame)) {
      ++scalar_counts.first;
      if (rwl::semantics::RunProgram(*cq.program, scalar_world, &q_frame)) {
        ++scalar_counts.both;
      }
    }
    scalar_world.AdvanceOdometer();
  }
  double scalar_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - scalar_start)
                         .count() /
                     count;

  World block_world(&vocab, n);
  auto block_start = Clock::now();
  rwl::semantics::BlockCounts block_counts = rwl::semantics::RunProgramBlock(
      *ckb.program, cq.program.get(), &block_world, &kb_frame, &q_frame,
      count);
  double block_ns = std::chrono::duration<double, std::nano>(
                        Clock::now() - block_start)
                        .count() /
                    count;
  if (block_counts.first != scalar_counts.first ||
      block_counts.both != scalar_counts.both) {
    std::printf("  BLOCK/SCALAR COUNT MISMATCH: %lld/%lld vs %lld/%lld\n",
                static_cast<long long>(block_counts.first),
                static_cast<long long>(block_counts.both),
                static_cast<long long>(scalar_counts.first),
                static_cast<long long>(scalar_counts.both));
  }
  double block_speedup = block_ns > 0 ? scalar_ns / block_ns : 0.0;

  std::printf("  [world-loop] 1 thread=%.3fs (%.0f ns/world)  "
              "8 threads=%.3fs (%.0f ns/world)  scaling=%.2fx"
              "  (hardware threads: %u)\n",
              serial_s, serial_ns_per_world, pooled_s, pooled_ns_per_world,
              scaling, std::thread::hardware_concurrency());
  std::printf("  [world-loop] scalar=%.0f ns/world  block=%.0f ns/world  "
              "block-vs-scalar=%.2fx\n",
              scalar_ns, block_ns, block_speedup);
  rwl::bench::JsonLine line("eval");
  line.Field("id", "exact_world_loop_threads")
      .Field("domain_size", n)
      .Field("serial_seconds", serial_s)
      .Field("serial_ns_per_world", serial_ns_per_world)
      .Field("threads8_seconds", pooled_s)
      .Field("threads8_ns_per_world", pooled_ns_per_world)
      .Field("scaling_8_threads", scaling)
      .Field("scalar_ns_per_world", scalar_ns)
      .Field("block_ns_per_world", block_ns)
      .Field("block_vs_scalar_speedup", block_speedup)
      .Field("hardware_threads",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  line.Emit();
}

// ---- profile-engine kernel (one JSON row per case) ----

// A fixed in-process workload that the profile rows are divided by, so
// their gate compares the code, not the host.  It is written apart from
// the engine but has the kernel's shape — a pruned depth-first walk over
// the compositions of 26 into 6 parts, with a log-factorial table and one
// exp per accepted leaf — because host load slows that shape (deep
// recursion, data-dependent branches) far more than a straight-line loop:
// on a shared 4-vCPU host a process's profile rows ran up to 1.6x slower
// while an xorshift-and-add loop beside them did not move, and this walk
// moved with them.  Its functions are 64-byte aligned, as the profile
// kernel's are, so a change elsewhere in the binary cannot move its
// branches across fetch boundaries.  About a millisecond.
struct CalibrationWalk {
  static constexpr int kParts = 6;
  static constexpr int kTotal = 26;
  double log_factorial[kTotal + 1];
  int parts[kParts] = {};
  double sum = 0.0;
  int64_t accepted = 0;
};

[[gnu::noinline, gnu::aligned(64)]] void Walk(CalibrationWalk& w, int i,
                                              int left, double log_weight) {
  if (i == CalibrationWalk::kParts - 1) {
    w.parts[i] = left;
    const int mix = w.parts[0] + 2 * w.parts[1] - w.parts[2];
    if ((mix & 3) != 1 && w.parts[3] <= w.parts[4] + 3) {
      w.sum += std::exp(log_weight - w.log_factorial[left] - 40.0);
      ++w.accepted;
    }
    return;
  }
  for (int v = 0; v <= left; ++v) {
    w.parts[i] = v;
    if (i >= 2 && w.parts[0] + w.parts[1] > 3 * w.parts[2] + 8) continue;
    Walk(w, i + 1, left - v, log_weight - w.log_factorial[v]);
  }
}

[[gnu::noinline, gnu::aligned(64)]] double RunCalibrationKernel() {
  CalibrationWalk w;
  for (int n = 0; n <= CalibrationWalk::kTotal; ++n) {
    w.log_factorial[n] = std::lgamma(static_cast<double>(n) + 1.0);
  }
  Walk(w, 0, CalibrationWalk::kTotal,
       w.log_factorial[CalibrationWalk::kTotal]);
  return w.sum + static_cast<double>(w.accepted);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// The profile rows, each interleaved with the calibration kernel over five
// repetitions: a row reports its median time, the median time of the
// calibration runs beside it, and their ratio (`profile_vs_calibration`,
// the gated field).
//
// A leaf row times one profile sweep point cut at a leaf budget below the
// point's leaf count, so exactly `leaves` leaves are evaluated (the engine
// reports exhaustion on the next one); the time includes the DFS walk
// between them, and the row also reports ns per leaf.  A recording row
// runs on a caching context in eager mode, as the service's snapshot
// contexts do, so the time includes appending the leaves and entries of
// the world list (a fresh context per run: the cut point is never
// stored).  A sweep row times one whole EstimateLimit over its domain
// sizes and τ scales on a fresh recording context, and reports the bytes
// of the world lists it recorded.
void ReportProfileKernel() {
  rwl::bench::PrintHeader("Profile engine: leaf kernel and sweep");
  struct Case {
    const char* id;
    const char* kb;
    const char* query;
    int n;
    // Leaf rows: the leaf budget; 0 for a sweep row.
    uint64_t leaves;
    bool recording;
  };
  // Corpus E5.24: class-counted conditional proportions, a taxonomy and
  // one constant (8 placements per leaf).
  const char* const kE524 =
      "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
      "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
      "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
      "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
      "forall x. (Magpie(x) => Bird(x))\n"
      "Magpie(Tweety)\n";
  const Case cases[] = {
      {"profile_leaf_E5.24_N32", kE524, "Chirps(Tweety)", 32, 80000, false},
      {"profile_leaf_E5.24_N32_recording", kE524, "Chirps(Tweety)", 32,
       80000, true},
      // Four constants over four atoms: 756 placements per leaf, each
      // checked against the constant-dependent KB and the query.
      {"profile_leaf_placements_N32",
       "#(A(x) ; B(x))[x] ~= 0.6\n"
       "A(C1) | B(C2)\n"
       "!(C3 = C4) & B(C3)\n",
       "A(C1) & !A(C4)", 32, 500, false},
      // The service's cold E5.24 sweep at its largest N: every τ scale.
      {"profile_sweep_E5.24_N32_3scales", kE524, "Chirps(Tweety)", 32, 0,
       true},
  };
  const auto tol = rwl::semantics::ToleranceVector::Uniform(0.04);
  struct Row {
    const Case* c;
    rwl::KnowledgeBase kb;
    FormulaPtr query;
    std::vector<double> ns;
    std::vector<double> calibration_ns;
    bool ok = true;
    uint64_t recorded_bytes = 0;
  };
  std::vector<Row> rows(std::size(cases));
  for (size_t i = 0; i < rows.size(); ++i) {
    Row& row = rows[i];
    row.c = &cases[i];
    std::string error;
    if (!row.kb.AddParsed(row.c->kb, &error)) {
      std::printf("  %s: bad KB: %s\n", row.c->id, error.c_str());
      row.ok = false;
      continue;
    }
    row.query = rwl::logic::ParseFormula(row.c->query).formula;
    row.kb.RegisterQuerySymbols(row.query);
  }
  using Clock = std::chrono::steady_clock;
  auto elapsed_ns = [](Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    for (Row& row : rows) {
      if (!row.ok) continue;
      const Case& c = *row.c;
      auto start = Clock::now();
      sink = sink + RunCalibrationKernel();
      row.calibration_ns.push_back(elapsed_ns(start));

      rwl::engines::ProfileEngine::Options options;
      if (c.leaves > 0) options.max_leaves = c.leaves;
      rwl::engines::ProfileEngine engine(options);
      QueryContext ctx(row.kb.vocabulary(), row.kb.AsFormula(),
                       /*caching_enabled=*/c.recording);
      ctx.set_eager_world_recording(c.recording);
      start = Clock::now();
      if (c.leaves > 0) {
        auto r = engine.DegreeAt(ctx, row.query, c.n, tol);
        row.ns.push_back(elapsed_ns(start));
        if (!r.exhausted) {
          std::printf("  %s: the point has fewer than %llu leaves\n", c.id,
                      static_cast<unsigned long long>(c.leaves));
          row.ok = false;
        }
      } else {
        rwl::engines::LimitOptions limit;
        limit.domain_sizes = {c.n};
        limit.tolerance_scales = {1.0, 0.5, 0.25};
        auto r = rwl::engines::EstimateLimit(engine, ctx, row.query, tol,
                                             limit);
        row.ns.push_back(elapsed_ns(start));
        row.recorded_bytes = ctx.cache_stats().blob_bytes;
        if (r.exhausted || r.series.size() != 3) row.ok = false;
      }
    }
  }
  for (const Row& row : rows) {
    if (!row.ok) continue;
    const Case& c = *row.c;
    const double ns = Median(row.ns);
    const double calibration_ns = Median(row.calibration_ns);
    const double ratio = ns / calibration_ns;
    rwl::bench::JsonLine line("eval");
    line.Field("id", c.id).Field("domain_size", c.n);
    if (c.leaves > 0) {
      const double ns_per_leaf = ns / static_cast<double>(c.leaves);
      std::printf("  [%s] %llu leaves  %.0f ns/leaf  %.3fx calibration\n",
                  c.id, static_cast<unsigned long long>(c.leaves),
                  ns_per_leaf, ratio);
      line.Field("leaves", static_cast<int64_t>(c.leaves))
          .Field("profile_ns_per_leaf", ns_per_leaf);
    } else {
      std::printf("  [%s] %.2f ms  %llu recorded bytes  %.3fx calibration\n",
                  c.id, ns * 1e-6,
                  static_cast<unsigned long long>(row.recorded_bytes), ratio);
      line.Field("sweep_ms", ns * 1e-6)
          .Field("recorded_bytes", static_cast<int64_t>(row.recorded_bytes));
    }
    line.Field("calibration_ns", calibration_ns)
        .Field("profile_vs_calibration", ratio);
    line.Emit();
  }
}

// ---- google-benchmark timings ----

void BM_TreeWalkerEval(benchmark::State& state) {
  Fixture f = MakeFixture();
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  World world(&f.vocab, static_cast<int>(state.range(0)));
  std::mt19937_64 rng(7);
  RandomizeWorld(&world, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rwl::semantics::Evaluate(f.formula, world, tol));
  }
}
BENCHMARK(BM_TreeWalkerEval)->Arg(4)->Arg(6)->Arg(8);

void BM_CompiledVmEval(benchmark::State& state) {
  Fixture f = MakeFixture();
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  CompiledFormula compiled =
      rwl::semantics::CompileFormula(f.formula, f.vocab);
  World world(&f.vocab, static_cast<int>(state.range(0)));
  std::mt19937_64 rng(7);
  RandomizeWorld(&world, &rng);
  EvalFrame frame;
  frame.Prepare(*compiled.program, tol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rwl::semantics::RunProgram(*compiled.program, world, &frame));
  }
}
BENCHMARK(BM_CompiledVmEval)->Arg(4)->Arg(6)->Arg(8);

void BM_CompileFormula(benchmark::State& state) {
  Fixture f = MakeFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rwl::semantics::CompileFormula(f.formula, f.vocab));
  }
}
BENCHMARK(BM_CompileFormula);

void BM_ExactEngineSharded(benchmark::State& state) {
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("P", 1);
  vocab.AddConstant("K");
  FormulaPtr kb =
      rwl::logic::ParseFormula("#(P(x))[x] <~ 0.8 & P(K)").formula;
  FormulaPtr query = rwl::logic::ParseFormula("P(K)").formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  rwl::engines::ExactEngine engine(26.0,
                                   static_cast<int>(state.range(1)));
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
}
BENCHMARK(BM_ExactEngineSharded)
    ->Args({8, 1})
    ->Args({8, 8})
    ->Args({16, 1})
    ->Args({16, 8});

}  // namespace

int main(int argc, char** argv) {
  ReportCompileVsInterpret();
  ReportProportionHeavy();
  ReportCountingCollapse();
  ReportThreadScaling();
  ReportProfileKernel();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
