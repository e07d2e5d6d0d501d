// Non-recursive stack VM for compiled L≈ programs (bytecode.h).
//
// One RunProgram call evaluates a program in one world.  All scratch state
// lives in an EvalFrame whose vectors are sized once by Prepare from the
// program's compile-time bounds — the inner world loops of the engines run
// with zero allocations.  Frames are not shared between threads; each
// worker prepares its own.
//
// RunProgram is bit-identical to semantics::Evaluate on every world (the
// tree-walker is kept as the reference oracle; compiled_vm_test and the
// fuzzer's vm check enforce the equivalence).  Precondition: the world's
// domain is non-empty, as for the tree-walker.
//
// Unary predicates are read from the world's packed bitset columns
// (world.h): fused unary atoms test single bits and the fused kPropUnary
// proportion scans run as popcount-over-words kernels (std::popcount,
// an exact bit count on every platform).
#ifndef RWL_SEMANTICS_VM_H_
#define RWL_SEMANTICS_VM_H_

#include <cstdint>
#include <vector>

#include "src/semantics/bytecode.h"
#include "src/semantics/tolerance.h"
#include "src/semantics/world.h"

namespace rwl::semantics {

struct EvalFrame {
  struct Counts {
    int64_t body = 0;
    int64_t cond = 0;
  };

  std::vector<int> slots;    // variable frame (dense, compile-time indexed)
  std::vector<int> ints;     // term stack
  std::vector<Value> vals;   // formula / expression stack
  std::vector<Counts> counts;  // in-flight proportion counters
  std::vector<double> taus;  // pre-resolved tolerances, one per tau slot

  // Cached raw table pointers for the world most recently run against.
  // Cell values mutate between runs (odometer / sampling), but the tables
  // never resize, so the pointers stay valid for the lifetime of the World
  // object; Run rebinds automatically when it sees a different world.
  const World* bound_world = nullptr;
  std::vector<const uint64_t*> packed_tables;  // unary predicate columns
  std::vector<const uint8_t*> pred_tables;     // arity != 1 byte tables
  std::vector<const int*> func_tables;

  // Sizes the frame for `program` and resolves its tolerance slots.  Call
  // once per (program, tolerance vector); Run may then be called for any
  // number of worlds without allocating.
  void Prepare(const Program& program, const ToleranceVector& tolerances);
};

// Executes the program in `world`; returns the root formula's truth value.
// The frame must have been Prepared for this program.
bool RunProgram(const Program& program, const World& world, EvalFrame* frame);

// ---- batch evaluation over a block of odometer worlds ----

struct BlockCounts {
  int64_t first = 0;  // worlds where `first` held
  int64_t both = 0;   // worlds where `first` and `second` both held
};

// Evaluates `first` (and, in the worlds where it holds, `second`) across
// `count` consecutive enumeration worlds starting at the world's current
// cells, advancing the odometer's packed columns in place between worlds
// (no per-world pointer rebinding).  `second` may be null (only `first` is
// counted).  `count < 0` runs until the odometer wraps.  The world is left
// positioned after the block, and the counts are exactly those of the
// equivalent per-world RunProgram / AdvanceOdometer loop.
BlockCounts RunProgramBlock(const Program& first, const Program* second,
                            World* world, EvalFrame* first_frame,
                            EvalFrame* second_frame, int64_t count);

// ---- counting-loop collapse (aggregate-only programs) ----

// Predicate-cardinality view of a class of worlds: how many domain
// elements satisfy each unary predicate, and each pairwise conjunction.
// Programs that pass AnalyzeAggregate (compile.h) only observe a world
// through these statistics, so the exact engine can run them over counts
// directly — never materializing the worlds.
struct UnaryCountsView {
  int domain_size = 0;
  int num_predicates = 0;
  const int64_t* single = nullptr;  // [num_predicates]
  // [num_predicates * num_predicates]: pair[a * num_predicates + b] is the
  // number of elements satisfying both a and b (symmetric).
  const int64_t* pair = nullptr;
};

// Executes an aggregate-only program against predicate cardinalities;
// kPropUnary reads the counts and every other instruction behaves exactly
// as in RunProgram, so the result is bit-identical to running the program
// in any world realizing those counts.  Precondition: the program passed
// AnalyzeAggregate (a non-aggregate op returns false defensively).
bool RunProgramOnCounts(const Program& program, const UnaryCountsView& counts,
                        EvalFrame* frame);

}  // namespace rwl::semantics

#endif  // RWL_SEMANTICS_VM_H_
