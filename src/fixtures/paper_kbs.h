// The paper's worked examples and claims as a data table.
//
// Each row carries the KB in textual L≈ syntax, the query, the options it
// is answered with, and the paper's reported answer.  The table is the
// checked record of the paper's claims: tests/fixtures_test.cc replays
// every row through the public inference facade and asserts it.
#ifndef RWL_FIXTURES_PAPER_KBS_H_
#define RWL_FIXTURES_PAPER_KBS_H_

#include <string>
#include <vector>

#include "src/core/inference.h"

namespace rwl::fixtures {

struct PaperExample {
  enum class Expect {
    kPoint,        // Pr_∞ = value (± tolerance), answered as a point
    kInterval,     // Pr_∞ ∈ [lo, hi] (numeric estimates inside; symbolic
                   // answers equal to the interval)
    kNonexistent,  // the limit does not exist
    kUndefined,    // the KB is not eventually consistent
  };

  std::string id;           // e.g. "E5.8"
  std::string description;  // one line, the paper's claim
  std::string kb;           // textual L≈, one sentence per line
  std::string query;
  Expect expect = Expect::kPoint;
  double value = 0.0;       // kPoint
  double lo = 0.0;          // kInterval
  double hi = 1.0;
  double tolerance = 0.03;  // numeric slack for sweep-based answers
  // Constants the query mentions but the KB does not (they must exist in
  // the vocabulary as fresh individuals).
  std::vector<std::string> extra_constants;
  // How the row is answered.  The default is the corpus schedule: base
  // τ 0.04, N ∈ {16, 32, 48}, τ-scales {1, 0.5}, every default strategy.
  InferenceOptions options = [] {
    InferenceOptions options;
    options.tolerances = semantics::ToleranceVector::Uniform(0.04);
    options.limit.domain_sizes = {16, 32, 48};
    options.limit.tolerance_scales = {1.0, 0.5};
    return options;
  }();
};

// The worked-example corpus, in paper order: the KBs the load generator,
// the benchmark catalog and the parser fuzz seeds are built from.
const std::vector<PaperExample>& AllPaperExamples();

// Every checked claim: AllPaperExamples() followed by the rows that only
// the claims table needs (variants, sweeps and numeric confirmations).
const std::vector<PaperExample>& AllPaperClaims();

// Lookup by id among AllPaperClaims(); aborts if absent (programming error
// in the caller).
const PaperExample& ExampleById(const std::string& id);

}  // namespace rwl::fixtures

#endif  // RWL_FIXTURES_PAPER_KBS_H_
