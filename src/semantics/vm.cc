#include "src/semantics/vm.h"

#include <bit>

#include "src/semantics/tolerance.h"

namespace rwl::semantics {

void EvalFrame::Prepare(const Program& program,
                        const ToleranceVector& tolerances) {
  slots.assign(program.num_slots, 0);
  ints.resize(program.max_ints);
  vals.resize(program.max_values);
  counts.resize(program.max_counts);
  taus.resize(program.tolerance_indices.size());
  for (size_t i = 0; i < taus.size(); ++i) {
    taus[i] = tolerances.Get(program.tolerance_indices[i]);
  }
  bound_world = nullptr;
}

namespace {

void BindWorld(const World& world, EvalFrame* frame) {
  const auto& vocabulary = world.vocabulary();
  frame->packed_tables.resize(vocabulary.num_predicates());
  frame->pred_tables.resize(vocabulary.num_predicates());
  for (int p = 0; p < vocabulary.num_predicates(); ++p) {
    frame->packed_tables[p] = world.unary_column(p);
    frame->pred_tables[p] = world.predicate_table(p).data();
  }
  frame->func_tables.resize(vocabulary.num_functions());
  for (int f = 0; f < vocabulary.num_functions(); ++f) {
    frame->func_tables[f] = world.function_table(f).data();
  }
  frame->bound_world = &world;
}

}  // namespace

bool RunProgram(const Program& program, const World& world, EvalFrame* frame) {
  if (frame->bound_world != &world) BindWorld(world, frame);
  const Instruction* code = program.code.data();
  const double* consts = program.constants.data();
  const double* taus = frame->taus.data();
  const uint64_t* const* packed_tables = frame->packed_tables.data();
  const uint8_t* const* pred_tables = frame->pred_tables.data();
  const int* const* func_tables = frame->func_tables.data();
  const int n = world.domain_size();
  const int words = world.unary_words();

  int* slots = frame->slots.data();
  int* ints = frame->ints.data();
  Value* vals = frame->vals.data();
  EvalFrame::Counts* counts = frame->counts.data();
  int it = 0;  // term-stack top
  int vt = 0;  // value-stack top
  int ct = 0;  // counts-stack top

  for (int pc = 0;; ++pc) {
    const Instruction& ins = code[pc];
    switch (ins.op) {
      case Op::kLoadSlot:
        ints[it++] = slots[ins.a];
        break;
      case Op::kApplyFunc: {
        it -= ins.b;
        int64_t index = 0;
        for (int j = 0; j < ins.b; ++j) index = index * n + ints[it + j];
        ints[it++] = func_tables[ins.a][index];
        break;
      }
      case Op::kPushBool:
        vals[vt++] = {static_cast<double>(ins.a), true};
        break;
      case Op::kPred: {
        it -= ins.b;
        if (ins.b == 1) {
          // Arity-1 predicates live in the packed columns.
          const int d = ints[it];
          vals[vt++] = {(packed_tables[ins.a][d >> 6] >> (d & 63)) & 1
                            ? 1.0
                            : 0.0,
                        true};
          break;
        }
        int64_t index = 0;
        for (int j = 0; j < ins.b; ++j) index = index * n + ints[it + j];
        vals[vt++] = {pred_tables[ins.a][index] != 0 ? 1.0 : 0.0, true};
        break;
      }
      case Op::kPred1: {
        const int d = slots[ins.b];
        vals[vt++] = {(packed_tables[ins.a][d >> 6] >> (d & 63)) & 1 ? 1.0
                                                                     : 0.0,
                      true};
        break;
      }
      case Op::kPred2:
        vals[vt++] = {pred_tables[ins.a][static_cast<int64_t>(slots[ins.b]) *
                                             n +
                                         slots[ins.c]] != 0
                          ? 1.0
                          : 0.0,
                      true};
        break;
      case Op::kTermEq:
        it -= 2;
        vals[vt++] = {ints[it] == ints[it + 1] ? 1.0 : 0.0, true};
        break;
      case Op::kBoolEq:
        vt -= 2;
        vals[vt] = {(vals[vt].v != 0.0) == (vals[vt + 1].v != 0.0) ? 1.0 : 0.0,
                    true};
        ++vt;
        break;
      case Op::kNot:
        vals[vt - 1].v = vals[vt - 1].v != 0.0 ? 0.0 : 1.0;
        break;
      case Op::kJump:
        pc = ins.a - 1;
        break;
      case Op::kJumpIfFalse:
        if (vals[--vt].v == 0.0) pc = ins.a - 1;
        break;
      case Op::kJumpIfTrue:
        if (vals[--vt].v != 0.0) pc = ins.a - 1;
        break;
      case Op::kQuantInit:
        slots[ins.a] = 0;
        if (n == 0) {
          vals[vt++] = {ins.c != 0 ? 1.0 : 0.0, true};
          pc = ins.b - 1;
        }
        break;
      case Op::kQuantStep: {
        const bool holds = vals[--vt].v != 0.0;
        if (ins.c != 0 ? !holds : holds) {
          // Short-circuit: a counterexample (∀) or witness (∃).
          vals[vt++] = {holds ? 1.0 : 0.0, true};
        } else if (++slots[ins.a] < n) {
          pc = ins.b - 1;
        } else {
          vals[vt++] = {ins.c != 0 ? 1.0 : 0.0, true};
        }
        break;
      }
      case Op::kPropInit:
        for (int j = 0; j < ins.b; ++j) slots[ins.a + j] = 0;
        counts[ct++] = {0, 0};
        break;
      case Op::kCondTrue:
        ++counts[ct - 1].cond;
        break;
      case Op::kCondCheck:
        if (vals[--vt].v == 0.0) {
          pc = ins.a - 1;
        } else {
          ++counts[ct - 1].cond;
        }
        break;
      case Op::kBodyCount:
        if (vals[--vt].v != 0.0) ++counts[ct - 1].body;
        break;
      case Op::kPropStep: {
        int j = 0;
        for (; j < ins.b; ++j) {
          if (++slots[ins.a + j] < n) break;
          slots[ins.a + j] = 0;
        }
        if (j < ins.b) pc = ins.c - 1;  // not wrapped: next tuple
        break;
      }
      case Op::kPropEndTotal: {
        const EvalFrame::Counts c = counts[--ct];
        double total = 1.0;
        for (int j = 0; j < ins.a; ++j) total *= n;
        vals[vt++] = {static_cast<double>(c.body) / total, true};
        break;
      }
      case Op::kPropEndCond: {
        const EvalFrame::Counts c = counts[--ct];
        if (c.cond == 0) {
          vals[vt++] = {0.0, false};
        } else {
          vals[vt++] = {static_cast<double>(c.body) /
                            static_cast<double>(c.cond),
                        true};
        }
        break;
      }
      case Op::kPropUnary: {
        // Fused single-variable proportion over unary atoms: popcount over
        // the packed columns.  Tail bits above the domain are zero by the
        // World invariant, so no re-masking is needed, and the counts — and
        // hence the resulting doubles — are identical to the generic loop.
        const uint64_t* body = packed_tables[ins.a];
        int64_t body_count = 0;
        if (ins.b < 0) {
          for (int i = 0; i < words; ++i) {
            body_count += std::popcount(body[i]);
          }
          double total = 1.0;
          total *= n;
          vals[vt++] = {static_cast<double>(body_count) / total, true};
        } else {
          const uint64_t* cond = packed_tables[ins.b];
          int64_t cond_count = 0;
          for (int i = 0; i < words; ++i) {
            cond_count += std::popcount(cond[i]);
            body_count += std::popcount(cond[i] & body[i]);
          }
          if (cond_count == 0) {
            vals[vt++] = {0.0, false};
          } else {
            vals[vt++] = {static_cast<double>(body_count) /
                              static_cast<double>(cond_count),
                          true};
          }
        }
        break;
      }
      case Op::kPushConst:
        vals[vt++] = {consts[ins.a], true};
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul: {
        vt -= 2;
        const Value lhs = vals[vt];
        const Value rhs = vals[vt + 1];
        double v = ins.op == Op::kAdd   ? lhs.v + rhs.v
                   : ins.op == Op::kSub ? lhs.v - rhs.v
                                        : lhs.v * rhs.v;
        vals[vt++] = {v, lhs.defined && rhs.defined};
        break;
      }
      case Op::kCompare: {
        vt -= 2;
        const Value lhs = vals[vt];
        const Value rhs = vals[vt + 1];
        // 0/0 convention: an undefined side makes the comparison hold.
        bool result = true;
        if (lhs.defined && rhs.defined) {
          result = CompareValues(lhs.v, static_cast<logic::CompareOp>(ins.a),
                                 rhs.v, taus[ins.b]);
        }
        vals[vt++] = {result ? 1.0 : 0.0, true};
        break;
      }
      case Op::kHalt:
        return vals[vt - 1].v != 0.0;
    }
  }
}

BlockCounts RunProgramBlock(const Program& first, const Program* second,
                            World* world, EvalFrame* first_frame,
                            EvalFrame* second_frame, int64_t count) {
  BlockCounts out;
  for (int64_t w = 0; count < 0 || w < count; ++w) {
    if (RunProgram(first, *world, first_frame)) {
      ++out.first;
      if (second != nullptr &&
          RunProgram(*second, *world, second_frame)) {
        ++out.both;
      }
    }
    if (!world->AdvanceOdometer() && count < 0) break;
  }
  return out;
}

bool RunProgramOnCounts(const Program& program, const UnaryCountsView& counts,
                        EvalFrame* frame) {
  const Instruction* code = program.code.data();
  const double* consts = program.constants.data();
  const double* taus = frame->taus.data();
  const int n = counts.domain_size;
  const int np = counts.num_predicates;

  Value* vals = frame->vals.data();
  int vt = 0;

  for (int pc = 0;; ++pc) {
    const Instruction& ins = code[pc];
    switch (ins.op) {
      case Op::kPushBool:
        vals[vt++] = {static_cast<double>(ins.a), true};
        break;
      case Op::kBoolEq:
        vt -= 2;
        vals[vt] = {(vals[vt].v != 0.0) == (vals[vt + 1].v != 0.0) ? 1.0 : 0.0,
                    true};
        ++vt;
        break;
      case Op::kNot:
        vals[vt - 1].v = vals[vt - 1].v != 0.0 ? 0.0 : 1.0;
        break;
      case Op::kJump:
        pc = ins.a - 1;
        break;
      case Op::kJumpIfFalse:
        if (vals[--vt].v == 0.0) pc = ins.a - 1;
        break;
      case Op::kJumpIfTrue:
        if (vals[--vt].v != 0.0) pc = ins.a - 1;
        break;
      case Op::kPropUnary: {
        // Same division (and 0-denominator convention) as the world kernel,
        // with the counts read from the cardinality view instead of being
        // popcounted: bit-identical doubles for every world in the class.
        if (ins.b < 0) {
          const int64_t body_count = counts.single[ins.a];
          double total = 1.0;
          total *= n;
          vals[vt++] = {static_cast<double>(body_count) / total, true};
        } else {
          const int64_t cond_count = counts.single[ins.b];
          const int64_t body_count = counts.pair[ins.a * np + ins.b];
          if (cond_count == 0) {
            vals[vt++] = {0.0, false};
          } else {
            vals[vt++] = {static_cast<double>(body_count) /
                              static_cast<double>(cond_count),
                          true};
          }
        }
        break;
      }
      case Op::kPushConst:
        vals[vt++] = {consts[ins.a], true};
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul: {
        vt -= 2;
        const Value lhs = vals[vt];
        const Value rhs = vals[vt + 1];
        double v = ins.op == Op::kAdd   ? lhs.v + rhs.v
                   : ins.op == Op::kSub ? lhs.v - rhs.v
                                        : lhs.v * rhs.v;
        vals[vt++] = {v, lhs.defined && rhs.defined};
        break;
      }
      case Op::kCompare: {
        vt -= 2;
        const Value lhs = vals[vt];
        const Value rhs = vals[vt + 1];
        bool result = true;
        if (lhs.defined && rhs.defined) {
          result = CompareValues(lhs.v, static_cast<logic::CompareOp>(ins.a),
                                 rhs.v, taus[ins.b]);
        }
        vals[vt++] = {result ? 1.0 : 0.0, true};
        break;
      }
      case Op::kHalt:
        return vals[vt - 1].v != 0.0;
      default:
        // Not an aggregate-only op: AnalyzeAggregate gates callers, so this
        // is unreachable; refuse instead of reading world state.
        return false;
    }
  }
}

}  // namespace rwl::semantics
