// Golden-bits problems for maxent::Solve (tests/maxent_test.cc).
//
// GoldenProblems() is a fixed list: 200 seeded random problems over 1-3
// predicates (2, 4 or 8 atoms) with partial supports, class-mass bounds,
// conditional rows, paired equality rows (τ = 0) and gmp90-style ε rows,
// then the four unary2-maxent catalog KBs of rwbench at τ-scales
// {1, .3, .1} of the default base τ = 0.05.  GoldenRow() prints a
// solution's p, entropy, max_violation and iterations as exact bit
// patterns.  tests/data/maxent_golden.txt holds one row per problem,
// recorded from the plain penalty / mirror-descent loop the current solver
// replaced; the solver must reproduce every row bit for bit.
//
// The generator draws from its own splitmix64 stream (no <random>
// distributions), so the problem list is the same on every platform.
#ifndef RWL_TESTS_MAXENT_GOLDEN_H_
#define RWL_TESTS_MAXENT_GOLDEN_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/maxent/constraints.h"
#include "src/maxent/solver.h"
#include "src/semantics/tolerance.h"

namespace rwl::maxent_golden {

struct GoldenProblem {
  std::string name;
  maxent::Problem problem;
};

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  // Uniform in [0, 1) on the 53-bit grid.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// A random non-empty, non-full atom subset as a bitmask over `dim` atoms.
inline uint32_t RandomClass(SplitMix64& rng, int dim) {
  const uint32_t full = (dim >= 32) ? ~0u : ((1u << dim) - 1);
  uint32_t mask = 0;
  while (mask == 0 || mask == full) mask = static_cast<uint32_t>(rng.Next()) & full;
  return mask;
}

inline maxent::Problem RandomProblem(uint64_t seed) {
  SplitMix64 rng(seed);
  maxent::Problem problem;
  const int k = 1 + rng.Below(3);
  const int dim = 1 << k;
  problem.dim = dim;
  if (rng.Below(3) == 0) {
    problem.support.assign(dim, false);
    for (int i = 0; i < dim; ++i) problem.support[i] = rng.Below(4) != 0;
    problem.support[rng.Below(dim)] = true;
  }
  const double tau = rng.Below(4) == 0 ? 0.0 : 0.2 * rng.Unit();
  const int rows = rng.Below(5);
  for (int r = 0; r < rows; ++r) {
    const double v = rng.Unit();
    const uint32_t body = RandomClass(rng, dim);
    switch (rng.Below(4)) {
      case 0: {  // S_E ≤ v + τ  or  S_E ≥ v - τ
        maxent::LinearConstraint c;
        c.coef.assign(dim, 0.0);
        const bool upper = rng.Below(2) == 0;
        for (int i = 0; i < dim; ++i) {
          if ((body >> i) & 1) c.coef[i] = upper ? 1.0 : -1.0;
        }
        c.bound = upper ? v + tau : -(v - tau);
        problem.constraints.push_back(std::move(c));
        break;
      }
      case 1: {  // |S_{B∩C} - v·S_C| ≤ τ·S_C as two rows
        const uint32_t cond = body | RandomClass(rng, dim);
        maxent::LinearConstraint upper;
        maxent::LinearConstraint lower;
        upper.coef.assign(dim, 0.0);
        lower.coef.assign(dim, 0.0);
        for (int i = 0; i < dim; ++i) {
          if (!((cond >> i) & 1)) continue;
          const double in_body = ((body >> i) & 1) ? 1.0 : 0.0;
          upper.coef[i] = in_body - (v + tau);
          lower.coef[i] = (v - tau) - in_body;
        }
        problem.constraints.push_back(std::move(upper));
        problem.constraints.push_back(std::move(lower));
        break;
      }
      case 2: {  // S_E = v exactly: paired rows with τ = 0
        maxent::LinearConstraint upper;
        maxent::LinearConstraint lower;
        upper.coef.assign(dim, 0.0);
        lower.coef.assign(dim, 0.0);
        for (int i = 0; i < dim; ++i) {
          if ((body >> i) & 1) {
            upper.coef[i] = 1.0;
            lower.coef[i] = -1.0;
          }
        }
        upper.bound = v;
        lower.bound = -v;
        problem.constraints.push_back(std::move(upper));
        problem.constraints.push_back(std::move(lower));
        break;
      }
      default: {  // gmp90: µ(C|B) ≥ 1 - ε, coef_w = (1-ε) - [w ⊨ C] on B
        static const double kEpsilons[] = {0.1, 0.01, 0.001};
        const double eps = kEpsilons[rng.Below(3)];
        const uint32_t consequent = RandomClass(rng, dim);
        maxent::LinearConstraint c;
        c.coef.assign(dim, 0.0);
        for (int i = 0; i < dim; ++i) {
          if (!((body >> i) & 1)) continue;
          c.coef[i] = (1.0 - eps) - (((consequent >> i) & 1) ? 1.0 : 0.0);
        }
        problem.constraints.push_back(std::move(c));
        break;
      }
    }
  }
  return problem;
}

// rwbench's unary2-maxent catalog items (the KB half; the maxent solve
// does not see the query).
struct CatalogKb {
  const char* name;
  const char* text;
};

inline const std::vector<CatalogKb>& MaxEntCatalogKbs() {
  static const std::vector<CatalogKb> kbs = {
      {"unary2-maxent-00",
       "(#((!P0(x) & !P1(x)) ; (!P0(x) & !P0(x)))[x] ~= 0.2578762394603526)\n"
       "(P0(K1) | !P1(K1))\n"},
      {"unary2-maxent-01",
       "(#((P0(x) | !P0(x)) ; (P0(x) | P1(x)))[x] ~= 1)\n"
       "!P1(K0)\n"
       "!P1(K0)\n"},
      {"unary2-maxent-02",
       "(#(!P1(x) ; (P1(x) | !P0(x)))[x] ~= 0.52558532431845328)\n"
       "(P0(K0) | P0(K0))\n"},
      {"unary2-maxent-03",
       "(#((!P1(x) & P0(x)) ; (!P0(x) & !P1(x)))[x] ~= 0.43566389000958816)\n"
       "(#((P0(x) & P0(x)))[x] ~=_2 0.56251415193272047)\n"
       "(#(P1(x) ; !P1(x))[x] ~=_3 0.29946210437329507)\n"
       "!P0(K0)\n"},
  };
  return kbs;
}

inline maxent::Problem CatalogProblem(const CatalogKb& item, double scale) {
  KnowledgeBase kb;
  kb.AddParsed(item.text);
  auto extracted = maxent::ExtractUnaryKb(
      kb.vocabulary(), kb.AsFormula(),
      semantics::ToleranceVector{0.05}.Scaled(scale));
  return extracted.problem;
}

inline std::vector<GoldenProblem> GoldenProblems() {
  std::vector<GoldenProblem> out;
  for (int i = 0; i < 200; ++i) {
    out.push_back({"random-" + std::to_string(i),
                   RandomProblem(20260736ULL * 1000 + i)});
  }
  for (const CatalogKb& item : MaxEntCatalogKbs()) {
    for (double scale : {1.0, 0.3, 0.1}) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s@%g", item.name, scale);
      out.push_back({name, CatalogProblem(item, scale)});
    }
  }
  return out;
}

inline std::string Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

// "<name> p=<bits>,... H=<bits> viol=<bits> it=<iterations>".
inline std::string GoldenRow(const std::string& name,
                             const maxent::Solution& s) {
  std::string row = name + " p=";
  for (size_t i = 0; i < s.p.size(); ++i) {
    if (i > 0) row += ',';
    row += Bits(s.p[i]);
  }
  row += " H=" + Bits(s.entropy);
  row += " viol=" + Bits(s.max_violation);
  row += " it=" + std::to_string(s.iterations);
  return row;
}

}  // namespace rwl::maxent_golden

#endif  // RWL_TESTS_MAXENT_GOLDEN_H_
