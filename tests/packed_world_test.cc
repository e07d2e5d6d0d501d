// Edge cases of the packed structure-of-arrays world representation
// (semantics/world.h): tail-word masking at word-boundary domain sizes,
// odometer equivalence across the packed columns, frame rebinding across
// worlds of different domain sizes, block evaluation, and the exact
// engine's counting-loop collapse vs a forced enumeration.
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/logic/builder.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"
#include "src/semantics/compile.h"
#include "src/semantics/evaluator.h"
#include "src/semantics/tolerance.h"
#include "src/semantics/vm.h"
#include "src/semantics/world.h"

namespace rwl::semantics {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

ToleranceVector Tol(double v) { return ToleranceVector::Uniform(v); }

logic::Vocabulary UnaryVocab(int num_predicates) {
  logic::Vocabulary vocab;
  for (int p = 0; p < num_predicates; ++p) {
    vocab.AddPredicate("P" + std::to_string(p), 1);
  }
  return vocab;
}

int PopcountColumn(const World& world, int pred) {
  int count = 0;
  for (int d = 0; d < world.domain_size(); ++d) {
    count += world.GetUnaryBit(pred, d) ? 1 : 0;
  }
  return count;
}

TEST(PackedWorld, TailMaskInvariantAtWordBoundaries) {
  for (int n : {1, 63, 64, 65, 127, 128}) {
    logic::Vocabulary vocab = UnaryVocab(2);
    World world(&vocab, n);
    EXPECT_EQ(world.unary_words(), (n + 63) / 64) << "n=" << n;
    const uint64_t tail = world.unary_tail_mask();
    if (n % 64 == 0) {
      EXPECT_EQ(tail, ~uint64_t{0}) << "n=" << n;
    } else {
      EXPECT_EQ(tail, (uint64_t{1} << (n % 64)) - 1) << "n=" << n;
    }
    // All-true column: every word full, tail word exactly the mask — no
    // bits above the domain size (the popcount kernels rely on this).
    for (int d = 0; d < n; ++d) world.SetUnaryBit(0, d, true);
    const uint64_t* col = world.unary_column(0);
    for (int w = 0; w < world.unary_words() - 1; ++w) {
      EXPECT_EQ(col[w], ~uint64_t{0}) << "n=" << n << " word=" << w;
    }
    EXPECT_EQ(col[world.unary_words() - 1], tail) << "n=" << n;
    EXPECT_EQ(PopcountColumn(world, 0), n);
    // All-false second column stays untouched.
    for (int w = 0; w < world.unary_words(); ++w) {
      EXPECT_EQ(world.unary_column(1)[w], uint64_t{0});
    }
    // Clearing restores all-zero including the tail.
    for (int d = 0; d < n; ++d) world.SetUnaryBit(0, d, false);
    for (int w = 0; w < world.unary_words(); ++w) {
      EXPECT_EQ(col[w], uint64_t{0});
    }
  }
}

TEST(PackedWorld, ByteViewRoundTrip) {
  logic::Vocabulary vocab = UnaryVocab(1);
  World world(&vocab, 65);
  std::mt19937_64 rng(11);
  for (int d = 0; d < 65; ++d) world.SetUnaryBit(0, d, (rng() & 1) != 0);
  std::vector<uint8_t> bytes(65);
  world.CopyUnaryColumnToBytes(0, bytes.data());
  World copy(&vocab, 65);
  copy.LoadUnaryColumnFromBytes(0, bytes.data());
  for (int d = 0; d < 65; ++d) {
    EXPECT_EQ(copy.GetUnaryBit(0, d), world.GetUnaryBit(0, d)) << d;
  }
  EXPECT_EQ(copy.unary_column(0)[0], world.unary_column(0)[0]);
  EXPECT_EQ(copy.unary_column(0)[1], world.unary_column(0)[1]);
}

TEST(PackedWorld, OdometerMatchesSeekOnMixedVocabulary) {
  // One unary predicate (packed), one binary predicate (byte table), one
  // constant (function cell): 2^(3 + 9) * 3 worlds at N = 3.  Advancing
  // must visit exactly the SeekToIndex worlds, in order.
  logic::Vocabulary vocab;
  vocab.AddPredicate("P0", 1);
  vocab.AddPredicate("R", 2);
  vocab.AddConstant("K");
  const int n = 3;
  World advancing(&vocab, n);
  const int64_t total = int64_t{3} << 12;
  for (int64_t index = 0; index < total; ++index) {
    World sought(&vocab, n);
    sought.SeekToIndex(index);
    for (int d = 0; d < n; ++d) {
      ASSERT_EQ(advancing.GetUnaryBit(0, d), sought.GetUnaryBit(0, d))
          << "index=" << index << " d=" << d;
    }
    ASSERT_EQ(advancing.predicate_table(1), sought.predicate_table(1))
        << "index=" << index;
    ASSERT_EQ(advancing.function_table(0), sought.function_table(0))
        << "index=" << index;
    const bool wrapped = !advancing.AdvanceOdometer();
    ASSERT_EQ(wrapped, index == total - 1) << "index=" << index;
  }
}

TEST(PackedWorld, MultiWordOdometerCarry) {
  // N = 65: columns span two words; the packed increment must carry across
  // the word boundary and wrap off the tail bit.
  logic::Vocabulary vocab = UnaryVocab(1);
  World world(&vocab, 65);
  const int64_t max = std::numeric_limits<int64_t>::max();
  world.SeekToIndex(max);  // bits 0..62 set
  EXPECT_EQ(world.unary_column(0)[0], uint64_t{max});
  EXPECT_EQ(world.unary_column(0)[1], uint64_t{0});
  ASSERT_TRUE(world.AdvanceOdometer());  // -> bit 63 only
  EXPECT_EQ(world.unary_column(0)[0], uint64_t{1} << 63);
  EXPECT_EQ(world.unary_column(0)[1], uint64_t{0});
  // Fill word 0 and advance: the carry reaches the second word.
  for (int d = 0; d < 64; ++d) world.SetUnaryBit(0, d, true);
  world.SetUnaryBit(0, 64, false);
  ASSERT_TRUE(world.AdvanceOdometer());
  EXPECT_EQ(world.unary_column(0)[0], uint64_t{0});
  EXPECT_EQ(world.unary_column(0)[1], uint64_t{1});
  // All 65 bits set: the odometer wraps to the all-zero world.
  for (int d = 0; d < 65; ++d) world.SetUnaryBit(0, d, true);
  ASSERT_FALSE(world.AdvanceOdometer());
  EXPECT_EQ(world.unary_column(0)[0], uint64_t{0});
  EXPECT_EQ(world.unary_column(0)[1], uint64_t{0});
}

TEST(PackedVm, AllTrueAndAllFalseColumns) {
  logic::Vocabulary vocab = UnaryVocab(2);
  FormulaPtr all = logic::ApproxGeq(logic::Prop(P("P0", V("x")), {"x"}),
                                    1.0, 1);
  FormulaPtr none = logic::ApproxLeq(logic::Prop(P("P0", V("x")), {"x"}),
                                     0.0, 1);
  auto tol = Tol(1e-12);
  for (int n : {63, 64, 65}) {
    World world(&vocab, n);
    CompiledFormula call = CompileFormula(all, vocab);
    CompiledFormula cnone = CompileFormula(none, vocab);
    ASSERT_TRUE(call.ok() && cnone.ok());
    EvalFrame frame_all;
    EvalFrame frame_none;
    frame_all.Prepare(*call.program, tol);
    frame_none.Prepare(*cnone.program, tol);
    EXPECT_FALSE(RunProgram(*call.program, world, &frame_all)) << n;
    EXPECT_TRUE(RunProgram(*cnone.program, world, &frame_none)) << n;
    for (int d = 0; d < n; ++d) world.SetUnaryBit(0, d, true);
    EXPECT_TRUE(RunProgram(*call.program, world, &frame_all)) << n;
    EXPECT_FALSE(RunProgram(*cnone.program, world, &frame_none)) << n;
  }
}

TEST(PackedVm, FrameRebindsAcrossDomainSizes) {
  // One frame, one program, worlds of different word counts: the VM must
  // rebind its cached column pointers (and word count) per world, agreeing
  // with the tree-walker on each.
  logic::Vocabulary vocab = UnaryVocab(2);
  FormulaPtr f = logic::ApproxLeq(
      logic::CondProp(P("P0", V("x")), P("P1", V("x")), {"x"}), 0.5, 1);
  CompiledFormula compiled = CompileFormula(f, vocab);
  ASSERT_TRUE(compiled.ok());
  auto tol = Tol(0.1);
  EvalFrame frame;
  frame.Prepare(*compiled.program, tol);
  std::mt19937_64 rng(23);
  World small(&vocab, 63);
  World large(&vocab, 65);
  for (int round = 0; round < 20; ++round) {
    World* world = (round % 2 == 0) ? &small : &large;
    for (int p = 0; p < 2; ++p) {
      for (int d = 0; d < world->domain_size(); ++d) {
        world->SetUnaryBit(p, d, (rng() & 1) != 0);
      }
    }
    EXPECT_EQ(RunProgram(*compiled.program, *world, &frame),
              Evaluate(f, *world, tol))
        << "round " << round;
  }
}

TEST(PackedVm, BlockCountsMatchPerWorldLoop) {
  // RunProgramBlock over a span of odometer worlds must count exactly what
  // the per-world RunProgram / AdvanceOdometer loop counts.
  logic::Vocabulary vocab = UnaryVocab(2);
  FormulaPtr kb =
      logic::ApproxLeq(logic::Prop(P("P0", V("x")), {"x"}), 0.7, 1);
  FormulaPtr query = logic::ApproxLeq(
      logic::CondProp(P("P1", V("x")), P("P0", V("x")), {"x"}), 0.5, 1);
  CompiledFormula ckb = CompileFormula(kb, vocab);
  CompiledFormula cq = CompileFormula(query, vocab);
  ASSERT_TRUE(ckb.ok() && cq.ok());
  auto tol = Tol(0.1);
  const int n = 6;  // 2^12 worlds
  const int64_t total = int64_t{1} << 12;

  BlockCounts manual;
  {
    World world(&vocab, n);
    EvalFrame kb_frame;
    EvalFrame q_frame;
    kb_frame.Prepare(*ckb.program, tol);
    q_frame.Prepare(*cq.program, tol);
    for (int64_t w = 0; w < total; ++w) {
      if (RunProgram(*ckb.program, world, &kb_frame)) {
        ++manual.first;
        if (RunProgram(*cq.program, world, &q_frame)) ++manual.both;
      }
      world.AdvanceOdometer();
    }
  }

  // Whole range in one block, and split at an arbitrary boundary: the world
  // is left positioned after each block, so blocks compose.
  for (int64_t split : {total, int64_t{1}, int64_t{1000}, total - 1}) {
    World world(&vocab, n);
    EvalFrame kb_frame;
    EvalFrame q_frame;
    kb_frame.Prepare(*ckb.program, tol);
    q_frame.Prepare(*cq.program, tol);
    BlockCounts a = RunProgramBlock(*ckb.program, cq.program.get(), &world,
                                    &kb_frame, &q_frame, split);
    BlockCounts b = RunProgramBlock(*ckb.program, cq.program.get(), &world,
                                    &kb_frame, &q_frame, total - split);
    EXPECT_EQ(a.first + b.first, manual.first) << "split=" << split;
    EXPECT_EQ(a.both + b.both, manual.both) << "split=" << split;
  }
}

TEST(PackedVm, CountingLoopBitIdenticalToEnumeration) {
  // The exact engine's counting-loop collapse must reproduce the full
  // enumeration bit for bit.  Conjoining a quantified tautology to the KB
  // changes no world yet makes the program non-aggregate, forcing the
  // engine back onto the world odometer — so both paths are observable
  // through the public API.
  logic::Vocabulary vocab = UnaryVocab(2);
  FormulaPtr kb =
      logic::ApproxLeq(logic::Prop(P("P0", V("x")), {"x"}), 0.6, 1);
  FormulaPtr taut = Formula::ForAll(
      "x", Formula::Or(P("P0", V("x")), Formula::Not(P("P0", V("x")))));
  FormulaPtr kb_enum = Formula::And(kb, taut);
  const std::vector<FormulaPtr> queries = {
      logic::ApproxLeq(logic::Prop(P("P1", V("x")), {"x"}), 0.4, 1),
      logic::ApproxLeq(
          logic::CondProp(P("P1", V("x")), P("P0", V("x")), {"x"}), 0.5, 1),
      Formula::True(),
  };
  engines::ExactEngine engine;
  QueryContext counting(vocab, kb, /*caching_enabled=*/false);
  QueryContext enumerating(vocab, kb_enum, /*caching_enabled=*/false);
  for (const FormulaPtr& query : queries) {
    for (int n : {5, 10}) {
      engines::FiniteResult counted =
          engine.DegreeAt(counting, query, n, Tol(0.1));
      engines::FiniteResult enumerated =
          engine.DegreeAt(enumerating, query, n, Tol(0.1));
      ASSERT_EQ(counted.well_defined, enumerated.well_defined);
      EXPECT_EQ(counted.probability, enumerated.probability) << "n=" << n;
      EXPECT_EQ(counted.log_numerator, enumerated.log_numerator) << "n=" << n;
      EXPECT_EQ(counted.log_denominator, enumerated.log_denominator)
          << "n=" << n;
      EXPECT_EQ(counted.exhausted, enumerated.exhausted);
    }
  }
}

TEST(PackedVm, CountsViewMatchesWorldEvaluation) {
  // RunProgramOnCounts on the cardinalities of a concrete world must equal
  // RunProgram in that world, for an aggregate-only program.
  logic::Vocabulary vocab = UnaryVocab(2);
  FormulaPtr f = logic::ApproxLeq(
      logic::CondProp(P("P1", V("x")), P("P0", V("x")), {"x"}), 0.5, 1);
  CompiledFormula compiled = CompileFormula(f, vocab);
  ASSERT_TRUE(compiled.ok());
  AggregateAnalysis analysis = AnalyzeAggregate(*compiled.program);
  ASSERT_TRUE(analysis.aggregate_only);
  EXPECT_EQ(analysis.predicates, (std::vector<int>{0, 1}));

  auto tol = Tol(0.1);
  const int n = 65;
  std::mt19937_64 rng(31);
  World world(&vocab, n);
  EvalFrame world_frame;
  EvalFrame counts_frame;
  world_frame.Prepare(*compiled.program, tol);
  counts_frame.Prepare(*compiled.program, tol);
  for (int round = 0; round < 50; ++round) {
    std::vector<int64_t> single(2, 0);
    std::vector<int64_t> pair(4, 0);
    for (int p = 0; p < 2; ++p) {
      for (int d = 0; d < n; ++d) {
        world.SetUnaryBit(p, d, (rng() & 1) != 0);
      }
    }
    for (int d = 0; d < n; ++d) {
      for (int a = 0; a < 2; ++a) {
        if (!world.GetUnaryBit(a, d)) continue;
        ++single[a];
        for (int b = 0; b < 2; ++b) {
          if (world.GetUnaryBit(b, d)) ++pair[a * 2 + b];
        }
      }
    }
    UnaryCountsView view{n, 2, single.data(), pair.data()};
    EXPECT_EQ(RunProgramOnCounts(*compiled.program, view, &counts_frame),
              RunProgram(*compiled.program, world, &world_frame))
        << "round " << round;
  }
}

}  // namespace
}  // namespace rwl::semantics
