#include "src/engines/profile_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/combinatorics/logmath.h"
#include "src/core/query_context.h"
#include "src/engines/world_cache.h"
#include "src/logic/classalg.h"
#include "src/logic/transform.h"
#include "src/semantics/tolerance.h"

namespace rwl::engines {
namespace {

using logic::AtomSet;
using logic::ClassUniverse;
using logic::CompareOp;
using logic::Expr;
using logic::ExprPtr;
using logic::Formula;
using logic::FormulaPtr;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "rwl profile engine error: %s\n", message.c_str());
  std::abort();
}

// ---------------------------------------------------------------------------
// Constant placements.
// ---------------------------------------------------------------------------

// A placement: constants grouped into blocks of coinciding denotations, with
// an atom per block.
struct Placement {
  std::vector<int> constant_block;  // index: position in constants list
  std::vector<int> block_atom;      // per block
  std::vector<int> blocks_in_atom;  // d_a, per atom
  std::vector<int> occupied_atoms;  // atoms with d_a > 0, ascending
  int num_blocks = 0;
};

// All set partitions of {0..m-1} as restricted-growth strings.
void EnumeratePartitions(int m, std::vector<std::vector<int>>* out) {
  std::vector<int> rgs(m, 0);
  // Standard RGS enumeration.
  std::vector<int> max_prefix(m, 0);
  int i = 0;
  if (m == 0) {
    out->push_back({});
    return;
  }
  while (true) {
    if (i == m) {
      out->push_back(rgs);
      --i;
      while (i >= 0) {
        int limit = (i == 0) ? 0 : max_prefix[i - 1] + 1;
        if (rgs[i] < limit) {
          ++rgs[i];
          max_prefix[i] = std::max(i == 0 ? 0 : max_prefix[i - 1], rgs[i]);
          ++i;
          break;
        }
        --i;
      }
      if (i < 0) break;
      continue;
    }
    rgs[i] = 0;
    max_prefix[i] = i == 0 ? 0 : max_prefix[i - 1];
    ++i;
  }
}

std::vector<Placement> EnumeratePlacements(int num_constants, int num_atoms) {
  std::vector<Placement> placements;
  std::vector<std::vector<int>> partitions;
  EnumeratePartitions(num_constants, &partitions);
  for (const auto& rgs : partitions) {
    int num_blocks = 0;
    for (int b : rgs) num_blocks = std::max(num_blocks, b + 1);
    if (num_constants == 0) num_blocks = 0;
    // All atom assignments for the blocks.
    std::vector<int> atom(num_blocks, 0);
    while (true) {
      Placement p;
      p.constant_block = rgs;
      p.block_atom = atom;
      p.blocks_in_atom.assign(num_atoms, 0);
      p.num_blocks = num_blocks;
      for (int a : atom) ++p.blocks_in_atom[a];
      for (int a = 0; a < num_atoms; ++a) {
        if (p.blocks_in_atom[a] > 0) p.occupied_atoms.push_back(a);
      }
      placements.push_back(p);
      int j = 0;
      for (; j < num_blocks; ++j) {
        if (++atom[j] < num_atoms) break;
        atom[j] = 0;
      }
      if (j == num_blocks) break;
    }
    if (num_blocks == 0) break;  // single empty placement already emitted
  }
  return placements;
}

// ---------------------------------------------------------------------------
// Compiled leaf programs.
// ---------------------------------------------------------------------------

// A term resolved at compile time: the slot of its binder, a constant's
// position in the vocabulary's constant list, or an error message (raised
// only if evaluation reaches the term, as a tree walk would).
struct TermRef {
  enum class Kind : uint8_t { kSlot, kConstant, kError };
  Kind kind = Kind::kError;
  int index = 0;  // slot, constant position, or message index
};

// A contiguous range of LeafProgram::atoms.
struct AtomRange {
  int begin = 0;
  int end = 0;
};

struct FormulaNode {
  enum class Op : uint8_t {
    kTrue, kFalse, kAtom, kEqual, kNot, kAnd, kOr, kImplies, kIff,
    kForAll, kExists,
    kNoneIn,  // ∀x φ, φ a class: every atom outside the class is empty
    kAnyIn,   // ∃x φ, φ a class: some atom of the class is nonempty
    kCompare, kError,
  };
  Op op = Op::kTrue;
  int a = -1;  // child formula (or left expression for kCompare)
  int b = -1;  // right child formula (or right expression for kCompare)
  // kAtom: predicate bit; kForAll/kExists: binder slot; kError: message.
  int index = 0;
  TermRef t0, t1;
  AtomRange atoms;
  CompareOp compare_op = CompareOp::kEq;
  int tolerance_index = 1;
};

struct ExprNode {
  enum class Op : uint8_t {
    kConstant,
    kClassProportion,  // Σ_{a∈body} n_a / N
    kClassConditional,  // Σ_{a∈body∩cond} n_a / Σ_{a∈cond} n_a
    kProportion, kConditional,  // tuple counting over binder slots
    kAdd, kSub, kMul,
  };
  Op op = Op::kConstant;
  double value = 0.0;
  int a = -1;  // body formula, or left child expression
  int b = -1;  // condition formula, or right child expression
  int first_slot = 0;  // kProportion/kConditional: slots first..first+k-1
  int num_vars = 0;
  AtomRange body, cond;
};

// One formula, with predicates resolved to atom bits, variables to binder
// slots and constants to positions.  Single-variable proportions and
// quantifiers over a class (logic::CompileClass) become atom-index lists
// summed over the leaf's counts; everything else keeps the tree shape and
// runs on LeafEvaluator's slot-indexed walker.
struct LeafProgram {
  std::vector<FormulaNode> formulas;
  std::vector<ExprNode> exprs;
  std::vector<int> atoms;
  std::vector<std::string> errors;
  int root = -1;
  int num_slots = 0;
  // Only atoms and equalities over constants under connectives: the
  // verdict depends on the placement alone, never on the leaf's counts.
  bool is_static = false;
};

bool IsStatic(const LeafProgram& program) {
  if (!program.exprs.empty()) return false;
  using Op = FormulaNode::Op;
  const auto constant = [](const TermRef& t) {
    return t.kind == TermRef::Kind::kConstant;
  };
  for (const FormulaNode& node : program.formulas) {
    switch (node.op) {
      case Op::kTrue: case Op::kFalse: case Op::kNot: case Op::kAnd:
      case Op::kOr: case Op::kImplies: case Op::kIff:
        break;
      case Op::kAtom:
        if (!constant(node.t0)) return false;
        break;
      case Op::kEqual:
        if (!constant(node.t0) || !constant(node.t1)) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

// Compiles formulas against one vocabulary: atom bits are predicate ids
// (positions in `universe`), constants resolve through `constant_index`.
class LeafCompiler {
 public:
  LeafCompiler(const ClassUniverse& universe,
               const std::map<std::string, int>& constant_index)
      : universe_(universe), constant_index_(constant_index) {}

  LeafProgram Compile(const FormulaPtr& f) {
    program_ = LeafProgram();
    scope_.clear();
    program_.root = CompileFormula(f);
    program_.is_static = IsStatic(program_);
    return std::move(program_);
  }

 private:
  int Error(std::string message) {
    program_.errors.push_back(std::move(message));
    return static_cast<int>(program_.errors.size()) - 1;
  }

  AtomRange Atoms(const AtomSet& set, bool members) {
    AtomRange range;
    range.begin = static_cast<int>(program_.atoms.size());
    for (int a = 0; a < set.num_atoms(); ++a) {
      if (set.Get(a) == members) program_.atoms.push_back(a);
    }
    range.end = static_cast<int>(program_.atoms.size());
    return range;
  }

  std::optional<AtomSet> Class(const FormulaPtr& f, const std::string& var) {
    return logic::CompileClass(universe_, f, logic::Term::Variable(var));
  }

  int Bind(const std::string& var) {
    scope_.push_back(var);
    program_.num_slots =
        std::max(program_.num_slots, static_cast<int>(scope_.size()));
    return static_cast<int>(scope_.size()) - 1;
  }

  TermRef Resolve(const logic::TermPtr& t) {
    TermRef ref;
    if (t->is_variable()) {
      for (int s = static_cast<int>(scope_.size()) - 1; s >= 0; --s) {
        if (scope_[s] == t->name()) {
          ref.kind = TermRef::Kind::kSlot;
          ref.index = s;
          return ref;
        }
      }
      ref.index = Error("unbound variable " + t->name());
      return ref;
    }
    if (!t->is_constant()) {
      ref.index = Error("non-constant function in unary profile evaluation");
      return ref;
    }
    auto it = constant_index_.find(t->name());
    if (it == constant_index_.end()) {
      ref.index = Error("unknown constant " + t->name());
      return ref;
    }
    ref.kind = TermRef::Kind::kConstant;
    ref.index = it->second;
    return ref;
  }

  int Push(FormulaNode node) {
    program_.formulas.push_back(node);
    return static_cast<int>(program_.formulas.size()) - 1;
  }

  int CompileFormula(const FormulaPtr& f) {
    FormulaNode node;
    using Op = FormulaNode::Op;
    switch (f->kind()) {
      case Formula::Kind::kTrue:
        node.op = Op::kTrue;
        return Push(node);
      case Formula::Kind::kFalse:
        node.op = Op::kFalse;
        return Push(node);
      case Formula::Kind::kAtom: {
        if (f->terms().size() != 1) {
          node.op = Op::kError;
          node.index =
              Error("non-unary atom in profile evaluation: " + f->predicate());
          return Push(node);
        }
        const int bit = universe_.PredicateIndex(f->predicate());
        if (bit < 0) {
          node.op = Op::kError;
          node.index = Error("unknown predicate " + f->predicate());
          return Push(node);
        }
        node.op = Op::kAtom;
        node.index = bit;
        node.t0 = Resolve(f->terms()[0]);
        return Push(node);
      }
      case Formula::Kind::kEqual:
        node.op = Op::kEqual;
        node.t0 = Resolve(f->terms()[0]);
        node.t1 = Resolve(f->terms()[1]);
        return Push(node);
      case Formula::Kind::kNot:
        node.op = Op::kNot;
        node.a = CompileFormula(f->body());
        return Push(node);
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
      case Formula::Kind::kImplies:
      case Formula::Kind::kIff:
        node.op = f->kind() == Formula::Kind::kAnd       ? Op::kAnd
                  : f->kind() == Formula::Kind::kOr      ? Op::kOr
                  : f->kind() == Formula::Kind::kImplies ? Op::kImplies
                                                         : Op::kIff;
        node.a = CompileFormula(f->left());
        node.b = CompileFormula(f->right());
        return Push(node);
      case Formula::Kind::kForAll:
      case Formula::Kind::kExists: {
        const bool is_forall = f->kind() == Formula::Kind::kForAll;
        if (auto cls = Class(f->body(), f->var())) {
          // The candidates of a quantifier cover exactly the nonempty atoms.
          node.op = is_forall ? Op::kNoneIn : Op::kAnyIn;
          node.atoms = Atoms(*cls, /*members=*/!is_forall);
          return Push(node);
        }
        node.op = is_forall ? Op::kForAll : Op::kExists;
        node.index = Bind(f->var());
        node.a = CompileFormula(f->body());
        scope_.pop_back();
        return Push(node);
      }
      case Formula::Kind::kCompare:
        node.op = Op::kCompare;
        node.a = CompileExpr(f->expr_left());
        node.b = CompileExpr(f->expr_right());
        node.compare_op = f->compare_op();
        node.tolerance_index = f->tolerance_index();
        return Push(node);
    }
    Die("unreachable formula kind");
  }

  int PushExpr(ExprNode node) {
    program_.exprs.push_back(node);
    return static_cast<int>(program_.exprs.size()) - 1;
  }

  int CompileExpr(const ExprPtr& e) {
    ExprNode node;
    using Op = ExprNode::Op;
    switch (e->kind()) {
      case Expr::Kind::kConstant:
        node.op = Op::kConstant;
        node.value = e->value();
        return PushExpr(node);
      case Expr::Kind::kProportion:
      case Expr::Kind::kConditional: {
        const bool conditional = e->kind() == Expr::Kind::kConditional;
        if (e->vars().size() == 1) {
          // Over a profile the tuple count of a class is Σ n_a: pool,
          // pinned and named elements of atom a together number n_a.
          auto body = Class(e->body(), e->vars()[0]);
          auto cond = conditional ? Class(e->cond(), e->vars()[0])
                                  : std::optional<AtomSet>(
                                        AtomSet::All(universe_));
          if (body && cond) {
            node.op = conditional ? Op::kClassConditional
                                  : Op::kClassProportion;
            node.body = Atoms(body->Intersect(*cond), /*members=*/true);
            node.cond = Atoms(*cond, /*members=*/true);
            return PushExpr(node);
          }
        }
        node.op = conditional ? Op::kConditional : Op::kProportion;
        node.num_vars = static_cast<int>(e->vars().size());
        node.first_slot = static_cast<int>(scope_.size());
        for (const auto& var : e->vars()) Bind(var);
        node.a = CompileFormula(e->body());
        if (conditional) node.b = CompileFormula(e->cond());
        scope_.resize(node.first_slot);
        return PushExpr(node);
      }
      case Expr::Kind::kAdd:
      case Expr::Kind::kSub:
      case Expr::Kind::kMul:
        node.op = e->kind() == Expr::Kind::kAdd   ? Op::kAdd
                  : e->kind() == Expr::Kind::kSub ? Op::kSub
                                                  : Op::kMul;
        node.a = CompileExpr(e->lhs());
        node.b = CompileExpr(e->rhs());
        return PushExpr(node);
    }
    Die("unreachable expr kind");
  }

  const ClassUniverse& universe_;
  const std::map<std::string, int>& constant_index_;
  LeafProgram program_;
  std::vector<std::string> scope_;  // variable name per binder slot
};

// The scales of one column (one DFS at one N) are addressed by bit: scale s
// of the column is bit s of a mask.
using ScaleMask = uint32_t;

template <typename Fn>
void ForEachScale(ScaleMask mask, const Fn& fn) {
  for (; mask != 0; mask &= mask - 1) fn(std::countr_zero(mask));
}

// A bound element: its atom and a unique identity.  Identities 0..B-1 are
// the constant blocks; identities >= B are pinned anonymous elements.
struct Elem {
  int atom = 0;
  int id = 0;
};

// Evaluates leaf programs over one profile (and optionally one placement).
// One evaluator serves a whole sweep: its scratch state is balanced after
// every evaluation, so switching leaves and placements allocates nothing.
class LeafEvaluator {
 public:
  explicit LeafEvaluator(int num_atoms) : fresh_in_atom_(num_atoms, 0) {}

  void SetLeaf(const int64_t* counts) {
    counts_ = counts;
    n_ = 0;
    for (size_t a = 0; a < fresh_in_atom_.size(); ++a) n_ += counts[a];
  }

  // nullptr: a constant-free evaluation.
  void SetPlacement(const Placement* placement) { placement_ = placement; }

  bool Eval(const LeafProgram& program,
            const semantics::ToleranceVector& tolerances) {
    Begin(program, tolerances, nullptr, 0);
    return EvalFormula(program.root);
  }

  // The verdict at scales[first].  Every comparison the walk reaches is
  // also decided at each scale of `others`, and *uniform is cleared when
  // one of them decides differently.  The compared values do not depend on
  // τ, so when every comparison decides alike, the walk at each other
  // scale would take the same path to the same verdict.
  bool EvalAcross(const LeafProgram& program,
                  const semantics::ToleranceVector* scales, int first,
                  ScaleMask others, bool* uniform) {
    Begin(program, scales[first], scales, others);
    const bool holds = EvalFormula(program.root);
    *uniform = uniform_;
    return holds;
  }

 private:
  void Begin(const LeafProgram& program,
             const semantics::ToleranceVector& tolerances,
             const semantics::ToleranceVector* scales, ScaleMask others) {
    program_ = &program;
    tolerances_ = &tolerances;
    scales_ = scales;
    others_ = others;
    uniform_ = true;
    if (slots_.size() < static_cast<size_t>(program.num_slots)) {
      slots_.resize(program.num_slots);
    }
    next_fresh_id_ = placement_ != nullptr ? placement_->num_blocks : 0;
  }

  struct ExprValue {
    double value = 0.0;
    bool defined = true;
  };
  struct Counts {
    int64_t body = 0;
    int64_t cond = 0;
  };

  [[noreturn]] void Fail(int message) const {
    Die(program_->errors[message]);
  }

  int64_t Sum(const AtomRange& range) const {
    int64_t sum = 0;
    for (int i = range.begin; i < range.end; ++i) {
      sum += counts_[program_->atoms[i]];
    }
    return sum;
  }

  int64_t PoolSize(int atom) const {
    int64_t named = placement_ != nullptr ? placement_->blocks_in_atom[atom] : 0;
    return counts_[atom] - named;
  }

  Elem ElemOf(const TermRef& t) const {
    switch (t.kind) {
      case TermRef::Kind::kSlot:
        return slots_[t.index];
      case TermRef::Kind::kConstant: {
        if (placement_ == nullptr) {
          Die("constant #" + std::to_string(t.index) +
              " in a constant-free evaluation");
        }
        int block = placement_->constant_block[t.index];
        return Elem{placement_->block_atom[block], block};
      }
      case TermRef::Kind::kError:
        break;
    }
    Fail(t.index);
  }

  // Enumerates candidate bindings for a variable: named blocks, pinned
  // anonymous elements, then a fresh element from each nonempty pool.  The
  // callback receives the element, the number of concrete domain elements
  // it represents and whether it is fresh; it returns false to stop.
  template <typename Callback>
  void ForEachCandidate(const Callback& cb) {
    if (placement_ != nullptr) {
      for (int b = 0; b < placement_->num_blocks; ++b) {
        if (!cb(Elem{placement_->block_atom[b], b}, int64_t{1}, false)) return;
      }
    }
    for (const Elem& e : fresh_stack_) {
      if (!cb(e, int64_t{1}, false)) return;
    }
    const int num_atoms = static_cast<int>(fresh_in_atom_.size());
    for (int a = 0; a < num_atoms; ++a) {
      int64_t remaining = PoolSize(a) - fresh_in_atom_[a];
      if (remaining > 0) {
        if (!cb(Elem{a, -1}, remaining, true)) return;
      }
    }
  }

  // Binds `slot` to a candidate for the duration of `body`.  Slots are
  // lexical, so a binder never needs to restore what it overwrote.
  template <typename Body>
  auto WithBinding(int slot, const Elem& elem, bool is_fresh,
                   const Body& body) {
    Elem bound = elem;
    if (is_fresh) {
      bound.id = next_fresh_id_++;
      fresh_stack_.push_back(bound);
      ++fresh_in_atom_[bound.atom];
    }
    slots_[slot] = bound;
    auto result = body();
    if (is_fresh) {
      --fresh_in_atom_[bound.atom];
      fresh_stack_.pop_back();
      --next_fresh_id_;
    }
    return result;
  }

  bool EvalQuantifier(const FormulaNode& node, bool is_forall) {
    bool result = is_forall;
    ForEachCandidate([&](const Elem& e, int64_t /*ways*/, bool fresh) {
      bool holds = WithBinding(node.index, e, fresh,
                               [&] { return EvalFormula(node.a); });
      if (is_forall && !holds) {
        result = false;
        return false;
      }
      if (!is_forall && holds) {
        result = true;
        return false;
      }
      return true;
    });
    return result;
  }

  // Counts assignments of slots [slot, end) satisfying cond (or all, when
  // cond < 0), and those satisfying body ∧ cond.
  Counts CountTuples(int slot, int end, int body, int cond) {
    if (slot == end) {
      Counts c;
      bool cond_holds = cond < 0 || EvalFormula(cond);
      if (!cond_holds) return c;
      c.cond = 1;
      if (EvalFormula(body)) c.body = 1;
      return c;
    }
    Counts total;
    ForEachCandidate([&](const Elem& e, int64_t ways, bool fresh) {
      Counts sub = WithBinding(slot, e, fresh, [&] {
        return CountTuples(slot + 1, end, body, cond);
      });
      total.body += ways * sub.body;
      total.cond += ways * sub.cond;
      return true;
    });
    return total;
  }

  ExprValue EvalExpr(int index) {
    const ExprNode& e = program_->exprs[index];
    switch (e.op) {
      case ExprNode::Op::kConstant:
        return {e.value, true};
      case ExprNode::Op::kClassProportion:
        return {static_cast<double>(Sum(e.body)) / static_cast<double>(n_),
                true};
      case ExprNode::Op::kClassConditional: {
        int64_t cond = Sum(e.cond);
        if (cond == 0) return {0.0, false};
        return {static_cast<double>(Sum(e.body)) / static_cast<double>(cond),
                true};
      }
      case ExprNode::Op::kProportion: {
        Counts c = CountTuples(e.first_slot, e.first_slot + e.num_vars, e.a,
                               -1);
        double total = 1.0;
        for (int i = 0; i < e.num_vars; ++i) {
          total *= static_cast<double>(n_);
        }
        return {static_cast<double>(c.body) / total, true};
      }
      case ExprNode::Op::kConditional: {
        Counts c = CountTuples(e.first_slot, e.first_slot + e.num_vars, e.a,
                               e.b);
        if (c.cond == 0) return {0.0, false};
        return {static_cast<double>(c.body) / static_cast<double>(c.cond),
                true};
      }
      case ExprNode::Op::kAdd:
      case ExprNode::Op::kSub:
      case ExprNode::Op::kMul: {
        ExprValue lhs = EvalExpr(e.a);
        ExprValue rhs = EvalExpr(e.b);
        ExprValue out;
        out.defined = lhs.defined && rhs.defined;
        switch (e.op) {
          case ExprNode::Op::kAdd:
            out.value = lhs.value + rhs.value;
            break;
          case ExprNode::Op::kSub:
            out.value = lhs.value - rhs.value;
            break;
          default:
            out.value = lhs.value * rhs.value;
            break;
        }
        return out;
      }
    }
    Die("unreachable expr op");
  }

  bool EvalFormula(int index) {
    const FormulaNode& f = program_->formulas[index];
    using Op = FormulaNode::Op;
    switch (f.op) {
      case Op::kTrue:
        return true;
      case Op::kFalse:
        return false;
      case Op::kAtom:
        return (ElemOf(f.t0).atom >> f.index) & 1;
      case Op::kEqual:
        return ElemOf(f.t0).id == ElemOf(f.t1).id;
      case Op::kNot:
        return !EvalFormula(f.a);
      case Op::kAnd:
        return EvalFormula(f.a) && EvalFormula(f.b);
      case Op::kOr:
        return EvalFormula(f.a) || EvalFormula(f.b);
      case Op::kImplies:
        return !EvalFormula(f.a) || EvalFormula(f.b);
      case Op::kIff:
        return EvalFormula(f.a) == EvalFormula(f.b);
      case Op::kForAll:
        return EvalQuantifier(f, /*is_forall=*/true);
      case Op::kExists:
        return EvalQuantifier(f, /*is_forall=*/false);
      case Op::kNoneIn:
        for (int i = f.atoms.begin; i < f.atoms.end; ++i) {
          if (counts_[program_->atoms[i]] > 0) return false;
        }
        return true;
      case Op::kAnyIn:
        for (int i = f.atoms.begin; i < f.atoms.end; ++i) {
          if (counts_[program_->atoms[i]] > 0) return true;
        }
        return false;
      case Op::kCompare: {
        ExprValue lhs = EvalExpr(f.a);
        ExprValue rhs = EvalExpr(f.b);
        if (!lhs.defined || !rhs.defined) return true;  // 0/0 convention
        double tau = tolerances_->Get(f.tolerance_index);
        const bool holds = semantics::CompareValues(lhs.value, f.compare_op,
                                                    rhs.value, tau);
        if (others_ != 0 && uniform_) {
          ForEachScale(others_, [&](int s) {
            uniform_ = uniform_ &&
                       semantics::CompareValues(
                           lhs.value, f.compare_op, rhs.value,
                           scales_[s].Get(f.tolerance_index)) == holds;
          });
        }
        return holds;
      }
      case Op::kError:
        Fail(f.index);
    }
    Die("unreachable formula op");
  }

  const LeafProgram* program_ = nullptr;
  const semantics::ToleranceVector* tolerances_ = nullptr;
  // EvalAcross: the column's scales and the ones decided beside
  // tolerances_, and whether every comparison so far decided alike.
  const semantics::ToleranceVector* scales_ = nullptr;
  ScaleMask others_ = 0;
  bool uniform_ = true;
  const int64_t* counts_ = nullptr;
  int64_t n_ = 0;
  const Placement* placement_ = nullptr;

  std::vector<Elem> slots_;
  std::vector<Elem> fresh_stack_;
  std::vector<int> fresh_in_atom_;
  int next_fresh_id_ = 0;
};

// The scales of `mask` at which `program` holds on the evaluator's leaf
// and placement: one walk at the lowest scale, re-walked at the others only
// when some comparison decided differently there.
ScaleMask EvalScales(LeafEvaluator& eval, const LeafProgram& program,
                     const semantics::ToleranceVector* scales,
                     ScaleMask mask) {
  const int first = std::countr_zero(mask);
  const ScaleMask others = mask & (mask - 1);
  bool uniform = true;
  const bool holds = eval.EvalAcross(program, scales, first, others, &uniform);
  if (uniform) return holds ? mask : 0;
  ScaleMask out = holds ? ScaleMask{1} << first : 0;
  ForEachScale(others, [&](int s) {
    if (eval.Eval(program, scales[s])) out |= ScaleMask{1} << s;
  });
  return out;
}

// One program's verdicts at the placements of a leaf.  A static program's
// verdict is memoized per placement at its first use (its evaluation reads
// neither counts, slots nor τ, so later leaves and other scales would
// repeat it); any other program is evaluated at every call.
class PlacementVerdicts {
 public:
  PlacementVerdicts(const LeafProgram& program, size_t num_placements)
      : program_(program),
        memo_(program.is_static ? num_placements : 0, kUnknown) {}

  // False once the program is known to fail at `placement` on every leaf.
  bool MayHold(size_t placement) const {
    return memo_.empty() || memo_[placement] != 0;
  }

  // The verdict at `placement`, which `eval` must be set to.
  bool Eval(LeafEvaluator& eval, size_t placement,
            const semantics::ToleranceVector& tolerances) {
    if (memo_.empty()) return eval.Eval(program_, tolerances);
    int8_t& verdict = memo_[placement];
    if (verdict == kUnknown) verdict = eval.Eval(program_, tolerances);
    return verdict != 0;
  }

  // The scales of `mask` (nonzero) at which the program holds.
  ScaleMask Scales(LeafEvaluator& eval, size_t placement,
                   const semantics::ToleranceVector* scales, ScaleMask mask) {
    if (memo_.empty()) return EvalScales(eval, program_, scales, mask);
    return Eval(eval, placement, scales[std::countr_zero(mask)]) ? mask : 0;
  }

 private:
  static constexpr int8_t kUnknown = -1;
  const LeafProgram& program_;
  std::vector<int8_t> memo_;
};

// ---------------------------------------------------------------------------
// DFS pruning constraints.
// ---------------------------------------------------------------------------

// The τ-independent part of a PruneConstraint: a conjunct
// `proportion op constant` (or `constant op proportion`) over one class.
struct PruneTemplate {
  AtomSet body;  // body ∩ cond
  AtomSet cond;
  double value = 0.0;
  CompareOp op = CompareOp::kEq;
  bool flipped = false;
  int tolerance_index = 1;
};

std::optional<PruneTemplate> ExtractTemplate(const ClassUniverse& universe,
                                             const FormulaPtr& conjunct) {
  if (conjunct->kind() != Formula::Kind::kCompare) return std::nullopt;
  ExprPtr prop = conjunct->expr_left();
  ExprPtr constant = conjunct->expr_right();
  PruneTemplate out;
  if (prop->kind() == Expr::Kind::kConstant) {
    std::swap(prop, constant);
    out.flipped = true;
  }
  if (constant->kind() != Expr::Kind::kConstant) return std::nullopt;
  if (prop->kind() != Expr::Kind::kProportion &&
      prop->kind() != Expr::Kind::kConditional) {
    return std::nullopt;
  }
  if (prop->vars().size() != 1) return std::nullopt;
  logic::TermPtr subject = logic::Term::Variable(prop->vars()[0]);
  auto body = CompileClass(universe, prop->body(), subject);
  if (!body) return std::nullopt;
  AtomSet cond = AtomSet::All(universe);
  if (prop->kind() == Expr::Kind::kConditional) {
    auto compiled = CompileClass(universe, prop->cond(), subject);
    if (!compiled) return std::nullopt;
    cond = *compiled;
  }
  out.body = body->Intersect(cond);
  out.cond = cond;
  out.value = constant->value();
  out.op = conjunct->compare_op();
  out.tolerance_index = conjunct->tolerance_index();
  return out;
}

PruneConstraint Instantiate(const PruneTemplate& t,
                            const semantics::ToleranceVector& tolerances) {
  const double v = t.value;
  const double tau =
      logic::IsApproximate(t.op) ? tolerances.Get(t.tolerance_index) : 0.0;
  PruneConstraint out;
  out.body = t.body;
  out.cond = t.cond;
  switch (t.op) {
    case CompareOp::kApproxEq:
    case CompareOp::kEq:
      out.lo = v - tau;
      out.hi = v + tau;
      break;
    case CompareOp::kApproxLeq:
    case CompareOp::kLeq:
      // prop ≤ v (+τ); flipped: v ≤ prop (+τ).
      if (!t.flipped) {
        out.lo = 0.0;
        out.hi = v + tau;
      } else {
        out.lo = v - tau;
        out.hi = 1.0;
      }
      break;
    case CompareOp::kApproxGeq:
    case CompareOp::kGeq:
      if (!t.flipped) {
        out.lo = v - tau;
        out.hi = 1.0;
      } else {
        out.lo = 0.0;
        out.hi = v + tau;
      }
      break;
  }
  out.lo = std::max(0.0, out.lo);
  out.hi = std::min(1.0, out.hi);
  return out;
}

}  // namespace

// The KB half of every profile evaluation, compiled once per (vocabulary,
// KB): the names leaf programs resolve against (atom bits are predicate
// ids, constants are positions in declaration order), the placements,
// leaf programs for the constant-free and constant-dependent parts, the
// taxonomy's allowed atoms and the τ-independent pruning templates.
struct ProfileKbProgram {
  explicit ProfileKbProgram(const logic::Vocabulary& vocabulary)
      : universe([&] {
          std::vector<std::string> names;
          for (const auto& p : vocabulary.predicates()) names.push_back(p.name);
          return names;
        }()),
        num_atoms(universe.num_atoms()),
        allowed(AtomSet::All(universe)) {
    int i = 0;
    for (const auto& c : vocabulary.Constants()) constant_index[c.name] = i++;
    placements = EnumeratePlacements(i, num_atoms);
  }

  LeafProgram Compile(const FormulaPtr& f) const {
    return LeafCompiler(universe, constant_index).Compile(f);
  }

  ClassUniverse universe;
  int num_atoms;
  std::map<std::string, int> constant_index;
  std::vector<Placement> placements;
  LeafProgram constant_free;
  LeafProgram constant_dependent;
  AtomSet allowed;
  std::vector<PruneTemplate> prune;
};

std::shared_ptr<const ProfileKbProgram> CompileProfileKb(
    const logic::Vocabulary& vocabulary, const logic::FormulaPtr& constant_free,
    const logic::FormulaPtr& constant_dependent) {
  auto kb = std::make_shared<ProfileKbProgram>(vocabulary);
  kb->constant_free = kb->Compile(constant_free);
  kb->constant_dependent = kb->Compile(constant_dependent);
  // Pruning constraints (from constant-free conjuncts only) and taxonomy
  // zero-atoms.
  logic::Taxonomy taxonomy(kb->universe);
  for (const auto& conjunct : logic::Conjuncts(constant_free)) {
    if (taxonomy.Absorb(conjunct)) continue;
    auto t = ExtractTemplate(kb->universe, conjunct);
    if (t.has_value()) kb->prune.push_back(std::move(*t));
  }
  kb->allowed = taxonomy.allowed();
  return kb;
}

// ---------------------------------------------------------------------------
// Emptiness certificate.
// ---------------------------------------------------------------------------

namespace {

// The row player's optimal strategy y ≥ 0 of the matrix game `rows` (rows
// k, columns a): it maximizes min_a Σ_k y_k rows[k][a].  With every entry
// shifted positive, y is the dual solution of
//   max Σ_a w_a  s.t.  Σ_a (rows[k][a] + shift) w_a ≤ 1 for all k,  w ≥ 0,
// read off the slack columns of the final tableau (dense simplex, Bland's
// rule, a pivot cap).  Empty when the search gives up.  Nothing here needs
// to be exact: the caller verifies whatever y comes back.
std::vector<double> GameMultipliers(
    const std::vector<std::vector<double>>& rows) {
  const int m = static_cast<int>(rows.size());
  const int n = static_cast<int>(rows[0].size());
  double min_entry = 0.0;
  for (const auto& row : rows) {
    for (double v : row) min_entry = std::min(min_entry, v);
  }
  const double shift = 1.0 - min_entry;
  // Columns: w (n), slacks (m), right-hand side.  Row m is the objective.
  const int width = n + m + 1;
  const int rhs = width - 1;
  std::vector<double> tableau(static_cast<size_t>(m + 1) * width, 0.0);
  auto at = [&](int r, int c) -> double& {
    return tableau[static_cast<size_t>(r) * width + c];
  };
  std::vector<int> basis(m);
  for (int k = 0; k < m; ++k) {
    for (int a = 0; a < n; ++a) at(k, a) = rows[k][a] + shift;
    at(k, n + k) = 1.0;
    at(k, rhs) = 1.0;
    basis[k] = n + k;
  }
  for (int a = 0; a < n; ++a) at(m, a) = -1.0;
  constexpr double kTiny = 1e-12;
  const int max_pivots = 8 * (n + m) + 32;
  for (int pivots = 0;; ++pivots) {
    int enter = -1;
    for (int c = 0; c < n + m && enter < 0; ++c) {
      if (at(m, c) < -kTiny) enter = c;
    }
    if (enter < 0) break;  // optimal
    if (pivots == max_pivots) return {};
    int leave = -1;
    double best = 0.0;
    for (int k = 0; k < m; ++k) {
      if (at(k, enter) <= kTiny) continue;
      const double ratio = at(k, rhs) / at(k, enter);
      if (leave < 0 || ratio < best ||
          (ratio == best && basis[k] < basis[leave])) {
        leave = k;
        best = ratio;
      }
    }
    if (leave < 0) return {};  // unbounded: cannot happen, entries > 0
    const double pivot = at(leave, enter);
    for (int c = 0; c < width; ++c) at(leave, c) /= pivot;
    for (int r = 0; r <= m; ++r) {
      const double factor = at(r, enter);
      if (r == leave || factor == 0.0) continue;
      for (int c = 0; c < width; ++c) at(r, c) -= factor * at(leave, c);
    }
    basis[leave] = enter;
  }
  std::vector<double> y(m);
  for (int k = 0; k < m; ++k) y[k] = std::max(0.0, at(m, n + k));
  return y;
}

}  // namespace

bool CertifiesNoCountVector(const std::vector<PruneConstraint>& constraints,
                            const AtomSet& allowed, int64_t domain_size) {
  if (domain_size <= 0) return false;
  std::vector<int> atoms;
  for (int a = 0; a < allowed.num_atoms(); ++a) {
    if (allowed.Get(a)) atoms.push_back(a);
  }
  if (atoms.empty()) return false;
  // Rows over the allowed atoms: lo·cond − body and body − hi·cond.  A
  // row without a positive coefficient cannot help and is left out (its
  // multiplier is 0).
  std::vector<std::vector<double>> rows;
  for (const PruneConstraint& c : constraints) {
    if (!std::isfinite(c.lo) || !std::isfinite(c.hi)) return false;
    std::vector<double> lower(atoms.size());
    std::vector<double> upper(atoms.size());
    bool lower_useful = false;
    bool upper_useful = false;
    for (size_t i = 0; i < atoms.size(); ++i) {
      const double body = c.body.Get(atoms[i]) ? 1.0 : 0.0;
      const double cond = c.cond.Get(atoms[i]) ? 1.0 : 0.0;
      lower[i] = c.lo * cond - body;
      upper[i] = body - c.hi * cond;
      lower_useful = lower_useful || lower[i] > 0.0;
      upper_useful = upper_useful || upper[i] > 0.0;
    }
    if (lower_useful) rows.push_back(std::move(lower));
    if (upper_useful) rows.push_back(std::move(upper));
  }
  if (rows.empty()) return false;
  const std::vector<double> y = GameMultipliers(rows);
  if (y.empty()) return false;
  // Verification.  A passing leaf has every row ≤ 1e-9 up to rounding,
  // so Σ_k y_k row_k(n) ≤ Σy·(1e-9 + 3·2⁻⁵³·N); but Σ_k y_k row_k(n) =
  // Σ_a n_a·c_a ≥ δ·N with c_a the combined coefficients.  δ·N − 1e-9·Σy
  // above 1e-6·Σy·N leaves room for every rounding error here and in the
  // leaf test, so no count vector can pass.
  double sum_y = 0.0;
  for (double v : y) sum_y += v;
  if (!(sum_y > 0.0)) return false;
  double delta = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < atoms.size(); ++i) {
    double combined = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) combined += y[k] * rows[k][i];
    delta = std::min(delta, combined);
  }
  const double n = static_cast<double>(domain_size);
  return delta * n - 1e-9 * sum_y > 1e-6 * sum_y * n;
}

namespace {

std::vector<PruneConstraint> InstantiateAll(
    const ProfileKbProgram& kb, const semantics::ToleranceVector& tolerances) {
  std::vector<PruneConstraint> constraints;
  constraints.reserve(kb.prune.size());
  for (const auto& t : kb.prune) {
    constraints.push_back(Instantiate(t, tolerances));
  }
  return constraints;
}

}  // namespace

bool SweepPointCertifiedEmpty(const ProfileKbProgram& kb, int domain_size,
                              const semantics::ToleranceVector& tolerances) {
  // The DFS runs over several atoms only; a single-atom vocabulary has one
  // leaf and no constraint test.
  return kb.num_atoms > 1 &&
         CertifiesNoCountVector(InstantiateAll(kb, tolerances), kb.allowed,
                                domain_size);
}

namespace {

// ---------------------------------------------------------------------------
// Cached world lists (context path).
// ---------------------------------------------------------------------------

// Memory caps for one recorded column (entries dominate).
constexpr size_t kMaxRecordedEntries = 1u << 20;
constexpr int kLeafBits = 19;
constexpr size_t kMaxRecordedLeaves = size_t{1} << kLeafBits;
// A recorded entry keeps its leaf index and its scale mask in one 32-bit
// word, so a column has at most this many scales; a longer schedule is
// split into several columns.
constexpr int kMaxColumnScales = 32 - kLeafBits;

// Append-only storage in blocks of a fixed power-of-two item count: an
// append never moves what is stored, so a recording pays no reallocation
// copies, and only the last block is trimmed when recording ends.  A block
// holds whole runs of `run` items (a power of two), so a run appended at a
// run boundary is contiguous.
template <typename T>
class BlockArray {
 public:
  explicit BlockArray(size_t run = 1) {
    while ((size_t{1} << shift_) < run) ++shift_;
  }

  size_t size() const { return size_; }
  const T& operator[](size_t i) const {
    return blocks_[i >> shift_][i & ((size_t{1} << shift_) - 1)];
  }

  void Append(const T* items, size_t n) {
    if (blocks_.empty() || blocks_.back().size() == size_t{1} << shift_) {
      blocks_.emplace_back().reserve(size_t{1} << shift_);
    }
    blocks_.back().insert(blocks_.back().end(), items, items + n);
    size_ += n;
  }
  void push_back(const T& item) { Append(&item, 1); }

  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const std::vector<T>& block : blocks_) {
      for (const T& item : block) fn(item);
    }
  }

  // Frees the unused tail of the last block.
  void TrimLast() {
    if (!blocks_.empty()) blocks_.back().shrink_to_fit();
  }

  size_t ByteSize() const {
    size_t bytes = blocks_.capacity() * sizeof(std::vector<T>);
    for (const std::vector<T>& block : blocks_) {
      bytes += block.capacity() * sizeof(T);
    }
    return bytes;
  }

 private:
  // 64 KiB blocks, or one run when a run is larger.
  int shift_ = std::countr_zero(std::bit_floor(65536 / sizeof(T)));
  size_t size_ = 0;
  std::vector<std::vector<T>> blocks_;
};

// The satisfying worlds of one column (one N, up to kMaxColumnScales ⃗τ),
// grouped as the DFS emits them: a leaf is an atom-count vector that
// passed the constant-free KB at some scale, an entry is a (leaf,
// placement) pair that also passed the constant-dependent KB, carrying the
// world-count log-weight and the mask of the scales whose denominator it
// entered.  Entries are stored in DFS emission order, so a replay
// accumulates each scale's identical LogSumExp sequence.  Placements index
// the vocabulary's enumeration (ProfileKbProgram), which every context of
// one signature shares.  A leaf takes 4 bytes per atom (a count is at most
// the int domain size), an entry 16 bytes: the leaf index in the low
// kLeafBits bits of a 32-bit word with the scale mask above it, a 32-bit
// placement index and a double log-weight.
struct ProfileWorldList {
  // Record-and-replay protocol state (see engines/world_cache.h).
  internal::WorldCacheState state = internal::WorldCacheState::kSeenOnce;
  // False: recording overflowed the size cap (maps to kTooBig).
  bool valid = false;
  int num_atoms = 0;
  // Leaf i's counts are leaf_counts[i·num_atoms, (i+1)·num_atoms).
  BlockArray<int32_t> leaf_counts;
  struct Entry {
    uint32_t leaf_and_scales = 0;
    int32_t placement = 0;
    double log_weight = 0.0;

    int32_t leaf() const {
      return static_cast<int32_t>(leaf_and_scales &
                                  ((uint32_t{1} << kLeafBits) - 1));
    }
    ScaleMask scales() const { return leaf_and_scales >> kLeafBits; }
    void set_scales(ScaleMask mask) {
      leaf_and_scales = static_cast<uint32_t>(leaf()) | (mask << kLeafBits);
    }
  };
  BlockArray<Entry> entries;
  // The column's ⃗τ, scale s at bit s of an entry's mask (part of the blob
  // key, but carried here too so PatchProfileWorlds can re-run the leaf
  // evaluator without parsing the key back).
  std::vector<semantics::ToleranceVector> scales;

  size_t num_leaves() const {
    return num_atoms == 0 ? 0 : leaf_counts.size() / num_atoms;
  }
  // Widens leaf i's counts into out[0, num_atoms).
  void WidenLeaf(int32_t i, int64_t* out) const {
    const int32_t* counts =
        &leaf_counts[static_cast<size_t>(i) * num_atoms];
    std::copy(counts, counts + num_atoms, out);
  }

  // What the list occupies, allocation slack included: this is what the
  // context's blob budget is charged.
  size_t ByteSize() const {
    return sizeof(*this) + entries.ByteSize() + leaf_counts.ByteSize() +
           scales.capacity() * sizeof(semantics::ToleranceVector);
  }
};
static_assert(sizeof(ProfileWorldList::Entry) == 16);

FiniteResult Finish(const LogSumExp& numerator,
                    const LogSumExp& denominator) {
  FiniteResult result;
  if (denominator.IsZero()) return result;
  result.well_defined = true;
  result.log_numerator = numerator.Value();
  result.log_denominator = denominator.Value();
  result.probability =
      numerator.IsZero()
          ? 0.0
          : std::exp(numerator.Value() - denominator.Value());
  return result;
}

// Pr_N^τ at every ⃗τ of one column (at most kMaxColumnScales), from one
// DFS, with an optional recording sink: when `record` is non-null, every
// world that enters some scale's denominator is appended with the mask of
// those scales.  Recording never changes the result.
//
// The DFS prunes with each constraint's loosest bounds over the scales
// (min lo, max hi), which cut no leaf that passes any scale's own test,
// so each scale's leaves are a subsequence of the one DFS order, in the
// order its own DFS would visit them.  Each leaf runs each scale's own
// constraint test, and each scale keeps its own leaf counter for
// max_leaves and its own sums, so every result and log-weight is the
// one-scale column's bit for bit.  When scale s exhausts it drops itself
// and every later scale: the column returns one result per scale up to
// and including the first exhausted one.  kMultiScale = false is the
// one-scale column, with the mask work compiled out.
template <bool kMultiScale>
std::vector<FiniteResult> SweepColumn(
    const ProfileEngine::Options& options, const ProfileKbProgram& kb,
    const LeafProgram& query, int domain_size,
    std::span<const semantics::ToleranceVector> scales,
    ProfileWorldList* record) {
  const int num_atoms = kb.num_atoms;
  const int num_scales = static_cast<int>(scales.size());
  const int64_t n_total = domain_size;
  const std::vector<Placement>& placements = kb.placements;
  const ScaleMask all_scales = (ScaleMask{1} << num_scales) - 1;

  // A scale certified empty would reach no leaf; it takes no part in the
  // DFS (nor in its pruning bounds) and returns the empty result.
  ScaleMask active = all_scales;
  for (int s = 0; s < num_scales; ++s) {
    if (SweepPointCertifiedEmpty(kb, domain_size, scales[s])) {
      active &= ~(ScaleMask{1} << s);
    }
  }

  // Each scale's bounds (lo and hi of constraint j at scale s at
  // [j·num_scales + s]), and the loosest over the active scales.
  const int num_constraints = static_cast<int>(kb.prune.size());
  std::vector<PruneConstraint> constraints = InstantiateAll(
      kb, scales[active != 0 ? std::countr_zero(active) : 0]);
  std::vector<double> scale_lo(static_cast<size_t>(num_constraints) *
                               num_scales);
  std::vector<double> scale_hi(scale_lo.size());
  for (int s = 0; s < num_scales; ++s) {
    const std::vector<PruneConstraint> at_s = InstantiateAll(kb, scales[s]);
    for (int j = 0; j < num_constraints; ++j) {
      scale_lo[j * num_scales + s] = at_s[j].lo;
      scale_hi[j * num_scales + s] = at_s[j].hi;
    }
  }
  for (int j = 0; j < num_constraints; ++j) {
    ForEachScale(active, [&](int s) {
      constraints[j].lo = std::min(constraints[j].lo,
                                   scale_lo[j * num_scales + s]);
      constraints[j].hi = std::max(constraints[j].hi,
                                   scale_hi[j * num_scales + s]);
    });
  }

  // DFS over atom-count vectors.
  std::vector<int64_t> counts(num_atoms, 0);
  std::vector<LogSumExp> denominator(num_scales);
  std::vector<LogSumExp> numerator(num_scales);
  std::vector<uint64_t> leaves(num_scales, 0);
  // The first exhausted scale (num_scales: none).
  int first_exhausted = num_scales;
  bool record_overflow = false;
  if (record != nullptr) {
    record->num_atoms = num_atoms;
    record->leaf_counts = BlockArray<int32_t>(num_atoms);
  }
  std::vector<int32_t> narrow_counts(num_atoms);

  // Per atom: the constraints whose body or cond contains it, as the 0/1
  // amounts a unit of n_a adds to their partial sums.
  struct Touch {
    int constraint;
    int64_t body;
    int64_t cond;
  };
  std::vector<Touch> touches;
  std::vector<int> touch_begin(num_atoms + 1, 0);
  std::vector<uint8_t> allowed(num_atoms);
  for (int a = 0; a < num_atoms; ++a) {
    allowed[a] = kb.allowed.Get(a);
    touch_begin[a] = static_cast<int>(touches.size());
    for (int j = 0; j < num_constraints; ++j) {
      const bool in_body = constraints[j].body.Get(a);
      const bool in_cond = constraints[j].cond.Get(a);
      if (in_body || in_cond) touches.push_back({j, in_body, in_cond});
    }
  }
  touch_begin[num_atoms] = static_cast<int>(touches.size());

  // Partial sums per constraint: body and cond over assigned atoms.
  std::vector<int64_t> sum_body(num_constraints, 0);
  std::vector<int64_t> sum_cond(num_constraints, 0);
  auto add = [&](int atom, int64_t amount) {
    for (int t = touch_begin[atom]; t < touch_begin[atom + 1]; ++t) {
      sum_body[touches[t].constraint] += touches[t].body * amount;
      sum_cond[touches[t].constraint] += touches[t].cond * amount;
    }
  };

  // Safe feasibility bounds: given assigned partial sums and remaining
  // capacity, constraint j is provably violated when
  //   lo · cond_min > body_max   or   body_min > hi · cond_max.
  // The per-suffix structure (which open atoms lie in body/cond) depends
  // only on the atom index, so it is precomputed by a backward scan.
  struct SuffixInfo {
    bool any_open = false;       // some allowed atom at index ≥ a
    bool body_open = false;      // some allowed atom ≥ a lies in body
    bool cond_open = false;
    bool all_in_body = true;     // every allowed atom ≥ a lies in body
    bool all_in_cond = true;
  };
  // suffix[a·num_constraints + j] summarizes atoms a..num_atoms-1 for
  // constraint j.
  std::vector<SuffixInfo> suffix(
      static_cast<size_t>(num_atoms + 1) * num_constraints);
  for (int j = 0; j < num_constraints; ++j) {
    const PruneConstraint& c = constraints[j];
    for (int a = num_atoms - 1; a >= 0; --a) {
      SuffixInfo info = suffix[(a + 1) * num_constraints + j];
      if (allowed[a]) {
        bool in_body = c.body.Get(a);
        bool in_cond = c.cond.Get(a);
        info.any_open = true;
        info.body_open = info.body_open || in_body;
        info.cond_open = info.cond_open || in_cond;
        info.all_in_body = info.all_in_body && in_body;
        info.all_in_cond = info.all_in_cond && in_cond;
      }
      suffix[a * num_constraints + j] = info;
    }
  }

  auto infeasible = [&](int next_atom, int64_t remaining) {
    const SuffixInfo* row = suffix.data() + next_atom * num_constraints;
    for (int j = 0; j < num_constraints; ++j) {
      const PruneConstraint& c = constraints[j];
      const SuffixInfo& info = row[j];
      int64_t body_max = sum_body[j] + (info.body_open ? remaining : 0);
      int64_t body_min =
          sum_body[j] +
          ((info.any_open && info.all_in_body) ? remaining : 0);
      int64_t cond_max = sum_cond[j] + (info.cond_open ? remaining : 0);
      int64_t cond_min =
          sum_cond[j] +
          ((info.any_open && info.all_in_cond) ? remaining : 0);
      if (c.lo * static_cast<double>(cond_min) >
          static_cast<double>(body_max) + 1e-9) {
        return true;
      }
      if (static_cast<double>(body_min) >
          c.hi * static_cast<double>(cond_max) + 1e-9) {
        return true;
      }
    }
    return false;
  };

  // The leaf's constraint test: the active scales whose bounds the full
  // count vector meets.
  auto leaf_scales = [&]() -> ScaleMask {
    if constexpr (!kMultiScale) {
      for (int j = 0; j < num_constraints; ++j) {
        const PruneConstraint& c = constraints[j];
        double body = static_cast<double>(sum_body[j]);
        double cond = static_cast<double>(sum_cond[j]);
        if (c.lo * cond > body + 1e-9 || body > c.hi * cond + 1e-9) return 0;
      }
      return active;
    } else {
      ScaleMask mask = active;
      for (int j = 0; j < num_constraints && mask != 0; ++j) {
        const double body = static_cast<double>(sum_body[j]);
        const double cond = static_cast<double>(sum_cond[j]);
        ForEachScale(mask, [&](int s) {
          if (scale_lo[j * num_scales + s] * cond > body + 1e-9 ||
              body > scale_hi[j * num_scales + s] * cond + 1e-9) {
            mask &= ~(ScaleMask{1} << s);
          }
        });
      }
      return mask;
    }
  };

  // The scales of `mask` at which a program holds: one walk for a
  // one-scale column.
  auto holds_at = [&](PlacementVerdicts& verdicts, LeafEvaluator& eval,
                      size_t placement, ScaleMask mask) -> ScaleMask {
    if constexpr (!kMultiScale) {
      return verdicts.Eval(eval, placement, scales[0]) ? mask : 0;
    } else {
      return verdicts.Scales(eval, placement, scales.data(), mask);
    }
  };

  LeafEvaluator eval(num_atoms);
  PlacementVerdicts kb_verdicts(kb.constant_dependent, placements.size());
  PlacementVerdicts query_verdicts(query, placements.size());
  const int num_predicates = kb.universe.num_predicates();
  auto process_leaf = [&](double log_multinomial, ScaleMask live) {
    // Each scale counts its own leaves; an exhausted scale drops itself
    // and every later scale.
    ForEachScale(live, [&](int s) {
      if (++leaves[s] > options.max_leaves && s < first_exhausted) {
        first_exhausted = s;
        active &= (ScaleMask{1} << s) - 1;
      }
    });
    live &= active;
    if (live == 0) return;
    if (options.prior == Prior::kRandomPropensities) {
      // Marginal probability of a world under per-predicate uniform
      // propensities: Π_i c_i!(N-c_i)!/(N+1)!, constant across the worlds
      // of one profile (c_i depends only on ⃗n).
      for (int i = 0; i < num_predicates; ++i) {
        int64_t c_i = 0;
        for (int a = 0; a < num_atoms; ++a) {
          if ((a >> i) & 1) c_i += counts[a];
        }
        log_multinomial += LogFactorial(c_i) + LogFactorial(n_total - c_i) -
                           LogFactorial(n_total + 1);
      }
    }

    // Constant-free part: once per profile.
    eval.SetLeaf(counts.data());
    eval.SetPlacement(nullptr);
    if constexpr (kMultiScale) {
      live = EvalScales(eval, kb.constant_free, scales.data(), live);
    } else if (!eval.Eval(kb.constant_free, scales[0])) {
      live = 0;
    }
    if (live == 0) return;
    int32_t recorded_leaf = -1;
    for (size_t pi = 0; pi < placements.size(); ++pi) {
      if (!kb_verdicts.MayHold(pi)) continue;
      const Placement& placement = placements[pi];
      // Block feasibility: enough elements in each atom.
      bool feasible = true;
      for (int a : placement.occupied_atoms) {
        if (counts[a] < placement.blocks_in_atom[a]) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;

      eval.SetPlacement(&placement);
      const ScaleMask in_kb = holds_at(kb_verdicts, eval, pi, live);
      if (in_kb == 0) continue;
      double log_falling = 0.0;
      for (int a : placement.occupied_atoms) {
        log_falling +=
            LogFallingFactorial(counts[a], placement.blocks_in_atom[a]);
      }
      double log_weight = log_multinomial + log_falling;
      ForEachScale(in_kb, [&](int s) { denominator[s].Add(log_weight); });
      if (record != nullptr && !record_overflow) {
        if (recorded_leaf < 0) {
          if (record->num_leaves() >= kMaxRecordedLeaves) {
            record_overflow = true;
          } else {
            recorded_leaf = static_cast<int32_t>(record->num_leaves());
            std::copy(counts.begin(), counts.end(), narrow_counts.begin());
            record->leaf_counts.Append(narrow_counts.data(), num_atoms);
          }
        }
        if (!record_overflow) {
          if (record->entries.size() >= kMaxRecordedEntries) {
            record_overflow = true;
          } else {
            record->entries.push_back(ProfileWorldList::Entry{
                static_cast<uint32_t>(recorded_leaf) | (in_kb << kLeafBits),
                static_cast<int32_t>(pi), log_weight});
          }
        }
      }
      ForEachScale(holds_at(query_verdicts, eval, pi, in_kb),
                   [&](int s) { numerator[s].Add(log_weight); });
    }
  };

  // log_prefix[a] = log N! − Σ_{b<a} log n_b!: the multinomial's
  // subtractions in LogMultinomial's (atom) order, one per value step.
  std::vector<double> log_prefix(num_atoms + 1);
  log_prefix[0] = LogFactorial(n_total);
  const int last = num_atoms - 1;
  auto dfs = [&](auto& self, int atom, int64_t remaining) -> void {
    if (active == 0) return;
    if (atom == last) {
      // Last atom takes the remainder.
      if (!allowed[atom] && remaining > 0) return;
      counts[atom] = remaining;
      add(atom, remaining);
      const ScaleMask live = leaf_scales();
      if (live != 0) {
        process_leaf(log_prefix[atom] - LogFactorial(remaining), live);
      }
      add(atom, -remaining);
      counts[atom] = 0;
      return;
    }
    const int64_t max_here = allowed[atom] ? remaining : 0;
    int64_t value = 0;
    for (;; ++value) {
      if (value > 0) add(atom, 1);
      counts[atom] = value;
      log_prefix[atom + 1] = log_prefix[atom] - LogFactorial(value);
      if (!infeasible(atom + 1, remaining - value)) {
        self(self, atom + 1, remaining - value);
      }
      if (active == 0 || value == max_here) break;
    }
    add(atom, -value);
    counts[atom] = 0;
  };

  if (num_atoms == 1) {
    // One leaf, and no constraint test.
    counts[0] = n_total;
    if (allowed[0] || n_total == 0) {
      process_leaf(log_prefix[0] - LogFactorial(n_total), active);
    }
  } else if (active != 0) {
    dfs(dfs, 0, n_total);
  }

  if (record != nullptr) {
    record->valid = !record_overflow && first_exhausted == num_scales;
    if (record->valid) {
      record->scales.assign(scales.begin(), scales.end());
      record->leaf_counts.TrimLast();
      record->entries.TrimLast();
    } else {
      record->leaf_counts = BlockArray<int32_t>();
      record->entries = BlockArray<ProfileWorldList::Entry>();
    }
  }

  std::vector<FiniteResult> column;
  column.reserve(std::min(first_exhausted + 1, num_scales));
  for (int s = 0; s < first_exhausted; ++s) {
    column.push_back(Finish(numerator[s], denominator[s]));
  }
  if (first_exhausted < num_scales) {
    FiniteResult result;
    result.exhausted = true;
    column.push_back(result);
  }
  return column;
}

std::vector<FiniteResult> SweepColumn(
    const ProfileEngine::Options& options, const ProfileKbProgram& kb,
    const LeafProgram& query, int domain_size,
    std::span<const semantics::ToleranceVector> scales,
    ProfileWorldList* record) {
  return scales.size() == 1
             ? SweepColumn<false>(options, kb, query, domain_size, scales,
                                  record)
             : SweepColumn<true>(options, kb, query, domain_size, scales,
                                 record);
}

// Replays a recorded column for a new query: one evaluation per surviving
// world, each log-weight accumulated into the scales of its mask in
// recorded (= DFS) order.
std::vector<FiniteResult> ReplayWorldList(const ProfileKbProgram& kb,
                                          const ProfileWorldList& worlds,
                                          const LeafProgram& query) {
  const size_t num_scales = worlds.scales.size();
  std::vector<LogSumExp> denominator(num_scales);
  std::vector<LogSumExp> numerator(num_scales);
  LeafEvaluator eval(worlds.num_atoms);
  PlacementVerdicts query_verdicts(query, kb.placements.size());
  std::vector<int64_t> counts(worlds.num_atoms);
  int32_t leaf = -1;
  worlds.entries.ForEach([&](const ProfileWorldList::Entry& entry) {
    const ScaleMask mask = entry.scales();
    ForEachScale(mask, [&](int s) { denominator[s].Add(entry.log_weight); });
    if (entry.leaf() != leaf) {
      leaf = entry.leaf();
      worlds.WidenLeaf(leaf, counts.data());
      eval.SetLeaf(counts.data());
    }
    eval.SetPlacement(&kb.placements[entry.placement]);
    ForEachScale(query_verdicts.Scales(eval, entry.placement,
                                       worlds.scales.data(), mask),
                 [&](int s) { numerator[s].Add(entry.log_weight); });
  });
  std::vector<FiniteResult> column;
  column.reserve(num_scales);
  for (size_t s = 0; s < num_scales; ++s) {
    column.push_back(Finish(numerator[s], denominator[s]));
  }
  return column;
}

}  // namespace

std::shared_ptr<const void> PatchProfileWorlds(
    const std::shared_ptr<const void>& blob,
    const logic::Vocabulary& vocabulary,
    const std::vector<logic::FormulaPtr>& appended, size_t* bytes_out) {
  auto worlds = std::static_pointer_cast<const ProfileWorldList>(blob);
  if (worlds == nullptr ||
      worlds->state != internal::WorldCacheState::kRecorded ||
      !worlds->valid) {
    return nullptr;
  }
  // Split the appended conjuncts the way the KB split does: constant-free
  // conjuncts gate a whole leaf (evaluated placement-free),
  // constant-dependent ones gate each (leaf, placement) entry.  The
  // evaluations are exactly the ones a fresh sweep of the new KB would
  // run, scale by scale, so each entry keeps the scales whose verdicts all
  // pass; survivors — in unchanged order, with unchanged log-weights —
  // replay bit-identically to a fresh recording.
  std::vector<FormulaPtr> appended_free;
  std::vector<FormulaPtr> appended_dep;
  for (const auto& conjunct : appended) {
    (logic::ConstantsOf(conjunct).empty() ? appended_free : appended_dep)
        .push_back(conjunct);
  }
  auto delta = CompileProfileKb(vocabulary, Formula::AndAll(appended_free),
                                Formula::AndAll(appended_dep));
  const semantics::ToleranceVector* scales = worlds->scales.data();
  const ScaleMask all_scales =
      (ScaleMask{1} << worlds->scales.size()) - 1;
  auto patched = std::make_shared<ProfileWorldList>();
  patched->state = internal::WorldCacheState::kRecorded;
  patched->valid = true;
  patched->num_atoms = worlds->num_atoms;
  patched->leaf_counts = worlds->leaf_counts;
  patched->scales = worlds->scales;
  // The constant-free verdicts are taken once per leaf (consecutive
  // entries share leaves, and the fresh sweep, too, evaluates the
  // constant-free part once per leaf).
  LeafEvaluator eval(worlds->num_atoms);
  PlacementVerdicts dep_verdicts(delta->constant_dependent,
                                 delta->placements.size());
  std::vector<int64_t> counts(worlds->num_atoms);
  int32_t leaf = -1;
  ScaleMask leaf_passes = all_scales;
  worlds->entries.ForEach([&](const ProfileWorldList::Entry& entry) {
    if (entry.leaf() != leaf) {
      leaf = entry.leaf();
      worlds->WidenLeaf(leaf, counts.data());
      eval.SetLeaf(counts.data());
      if (!appended_free.empty()) {
        eval.SetPlacement(nullptr);
        leaf_passes =
            EvalScales(eval, delta->constant_free, scales, all_scales);
      }
    }
    ScaleMask mask = entry.scales() & leaf_passes;
    if (mask != 0 && !appended_dep.empty()) {
      eval.SetPlacement(&delta->placements[entry.placement]);
      mask = dep_verdicts.Scales(eval, entry.placement, scales, mask);
    }
    if (mask == 0) return;
    ProfileWorldList::Entry kept = entry;
    kept.set_scales(mask);
    patched->entries.push_back(kept);
  });
  patched->entries.TrimLast();
  if (bytes_out != nullptr) *bytes_out = patched->ByteSize();
  return patched;
}

bool ProfileEngine::Supports(const QueryContext& ctx,
                             const logic::FormulaPtr& /*query*/,
                             int domain_size) const {
  if (domain_size <= 0) return false;
  const logic::Vocabulary& vocabulary = ctx.vocabulary();
  if (!vocabulary.IsUnaryRelational()) return false;
  int k = vocabulary.num_predicates();
  if (k > 30 || (1 << k) > options_.max_atoms) return false;
  if (static_cast<int>(vocabulary.Constants().size()) >
      options_.max_constants) {
    return false;
  }
  // Cost heuristic: the raw profile count C(N+A-1, A-1) bounds the DFS;
  // constraint pruning typically buys two to three orders of magnitude, so
  // refuse instances more than ~1000× over the leaf budget rather than
  // burn the budget discovering they are hopeless.
  double log_raw = LogBinomial(domain_size + (1 << k) - 1, (1 << k) - 1);
  double log_cap = std::log(static_cast<double>(options_.max_leaves)) +
                   std::log(1000.0);
  return log_raw <= log_cap;
}

CostEstimate ProfileEngine::EstimateCost(const QueryContext& ctx,
                                         const logic::FormulaPtr& query,
                                         int domain_size) const {
  CostEstimate cost;
  const logic::Vocabulary& vocabulary = ctx.vocabulary();
  const int k = std::min(vocabulary.num_predicates(), 30);
  const double atoms = std::exp2(static_cast<double>(k));
  const double log_raw = LogBinomial(
      domain_size + (1 << k) - 1, (1 << k) - 1);
  // The DFS aborts at the leaf budget, so predicted leaves are capped
  // there; constraint pruning typically lands well below the raw count,
  // making this a (useful) overestimate.
  const double leaves =
      std::min(std::exp(std::min(log_raw, 60.0 * 0.6931471805599453)),
               static_cast<double>(options_.max_leaves));
  const double num_constants =
      static_cast<double>(vocabulary.Constants().size());
  const double placements =
      std::min(std::pow(atoms, num_constants), 1e6);
  const double length = ApproximateProgramLength(ctx, ctx.kb()) +
                        ApproximateProgramLength(ctx, query);
  // Profile-leaf evaluation works over element classes, not N elements —
  // per-leaf cost scales with the program length alone.
  cost.work = leaves * std::max(placements, 1.0) * length * 0.25;
  cost.error = 0.0;  // exact at each (N, τ) point
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%.3g profile leaves x %.0f placements x length %.0f",
                leaves, std::max(placements, 1.0), length);
  cost.basis = buf;
  return cost;
}

std::string ProfileEngine::CacheSalt() const {
  std::string salt = "leaves=" + std::to_string(options_.max_leaves);
  salt += ";atoms=" + std::to_string(options_.max_atoms);
  salt += ";consts=" + std::to_string(options_.max_constants);
  salt += ";prior=";
  salt += options_.prior == Prior::kUniformWorlds ? "worlds" : "propensities";
  return salt;
}

namespace {

// One column through the context: recorded, replayed or swept plainly
// under the record-and-replay protocol, keyed by N and the column's ⃗τ.
std::vector<FiniteResult> ComputeColumn(
    const ProfileEngine::Options& options, const std::string& salt,
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    std::span<const semantics::ToleranceVector> scales) {
  if (!ctx.caching_enabled()) {
    // Compile per call.  Constant-free conjuncts evaluate once per
    // profile, the rest once per placement; the same SplitByConstants
    // feeds QueryContext::kb_split.
    logic::ConstantSplit split = logic::SplitByConstants(ctx.kb());
    auto program = CompileProfileKb(ctx.vocabulary(), split.constant_free,
                                    split.constant_dependent);
    LeafProgram query_program = program->Compile(query);
    return SweepColumn(options, *program, query_program, domain_size,
                       scales, nullptr);
  }
  std::shared_ptr<const ProfileKbProgram> program = ctx.profile_kb_program();
  LeafProgram query_program = program->Compile(query);
  std::string blob_key = "profile.worlds|" + salt + "|" +
                         std::to_string(domain_size) + "|";
  for (size_t s = 0; s < scales.size(); ++s) {
    if (s > 0) blob_key += '/';
    blob_key += scales[s].CacheKey();
  }
  return internal::LazyRecordReplay<ProfileWorldList>(
      ctx, blob_key,
      [&](ProfileWorldList* record) {
        return SweepColumn(options, *program, query_program, domain_size,
                           scales, record);
      },
      [&](const ProfileWorldList& worlds) {
        return ReplayWorldList(*program, worlds, query_program);
      });
}

}  // namespace

FiniteResult ProfileEngine::DegreeAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  return DegreesAtInContext(ctx, query, domain_size, {tolerances}).front();
}

std::vector<FiniteResult> ProfileEngine::DegreesAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const std::vector<semantics::ToleranceVector>& scales) const {
  // A column holds at most kMaxColumnScales scales; a longer schedule runs
  // as several columns, and stops after the one that exhausts.
  std::vector<FiniteResult> results;
  for (size_t begin = 0; begin < scales.size();
       begin += kMaxColumnScales) {
    const std::span<const semantics::ToleranceVector> part(
        scales.data() + begin,
        std::min<size_t>(kMaxColumnScales, scales.size() - begin));
    std::vector<FiniteResult> column =
        ComputeColumn(options_, CacheSalt(), ctx, query, domain_size, part);
    results.insert(results.end(), column.begin(), column.end());
    if (internal::Exhausted(column)) break;
  }
  return results;
}

}  // namespace rwl::engines
