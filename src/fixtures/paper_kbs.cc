#include "src/fixtures/paper_kbs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rwl::fixtures {
namespace {

// Appends a kPoint row and returns it for further settings.
PaperExample* Point(std::vector<PaperExample>& rows, std::string id,
                    std::string description, std::string kb,
                    std::string query, double value,
                    double tolerance = 0.03) {
  PaperExample e;
  e.id = std::move(id);
  e.description = std::move(description);
  e.kb = std::move(kb);
  e.query = std::move(query);
  e.expect = PaperExample::Expect::kPoint;
  e.value = value;
  e.tolerance = tolerance;
  rows.push_back(std::move(e));
  return &rows.back();
}

// The corpus options with the symbolic engine left out and the sweep set
// to `domain_sizes` × `tolerance_scales`: a numeric answer where a theorem
// would otherwise answer first.
InferenceOptions Sweep(std::vector<int> domain_sizes,
                       std::vector<double> tolerance_scales) {
  InferenceOptions options = PaperExample().options;
  options.strategies.Remove("symbolic");
  options.limit.domain_sizes = std::move(domain_sizes);
  options.limit.tolerance_scales = std::move(tolerance_scales);
  return options;
}

// The Nixon diamond with Pr(Pacifist | Quaker) ≈ α and
// Pr(Pacifist | Republican) ≈ β under independent tolerances.
std::string NixonKb(double alpha, double beta) {
  char kb[256];
  std::snprintf(kb, sizeof(kb),
                "#(Pacifist(x) ; Quaker(x))[x] ~=_1 %g\n"
                "#(Pacifist(x) ; Republican(x))[x] ~=_2 %g\n"
                "Quaker(Nixon)\n"
                "Republican(Nixon)\n"
                "exists! x. (Quaker(x) & Republican(x))\n",
                alpha, beta);
  return kb;
}

std::vector<PaperExample> BuildCorpus() {
  std::vector<PaperExample> corpus;

  Point(corpus, "E5.8",
        "direct inference: the jaundice statistics fix Pr(Hep(Eric))",
        "Jaun(Eric)\n"
        "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
        "Hep(Eric)", 0.8);

  Point(corpus, "E5.8b", "statistics for other classes are ignored",
        "Jaun(Eric)\n"
        "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
        "#(Hep(x))[x] <~_2 0.05\n"
        "#(Hep(x) ; Jaun(x) & Fever(x))[x] ~=_3 1\n",
        "Hep(Eric)", 0.8);

  Point(corpus, "E5.8c", "facts about other individuals are ignored",
        "Jaun(Eric)\n"
        "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
        "Hep(Tom)\n",
        "Hep(Eric)", 0.8);

  Point(corpus, "E5.10", "specificity: Tweety the penguin does not fly",
        "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
        "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "Penguin(Tweety)\n",
        "Fly(Tweety)", 0.0);

  Point(corpus, "E5.13", "quantified default: a tall parent makes Alice tall",
        "#(Tall(x) ; exists y. (Child(x, y) & Tall(y)))[x] ~=_1 1\n"
        "exists y. (Child(Alice, y) & Tall(y))\n",
        "Tall(Alice)", 1.0);

  Point(corpus, "E5.15", "taxonomy: Opus inherits swimming from penguins",
        "#(Swims(x) ; Penguin(x))[x] ~=_1 0.9\n"
        "#(Swims(x) ; Sparrow(x))[x] ~=_2 0.01\n"
        "#(Swims(x) ; Bird(x))[x] ~=_3 0.05\n"
        "#(Swims(x) ; Animal(x))[x] ~=_4 0.3\n"
        "#(Swims(x) ; Fish(x))[x] ~=_5 1\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "forall x. (Sparrow(x) => Bird(x))\n"
        "forall x. (Bird(x) => Animal(x))\n"
        "forall x. (Fish(x) => Animal(x))\n"
        "forall x. (Penguin(x) => !Sparrow(x))\n"
        "forall x. (Bird(x) => !Fish(x))\n"
        "Penguin(Opus)\n"
        "Black(Opus)\n"
        "LargeNose(Opus)\n",
        "Swims(Opus)", 0.9);

  Point(corpus, "E5.18", "irrelevant chart entries ignored",
        "Jaun(Eric)\n"
        "Fever(Eric)\n"
        "Tall(Eric)\n"
        "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
        "Hep(Eric)", 0.8);

  Point(corpus, "E5.19", "irrelevance: the yellow penguin still does not fly",
        "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
        "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "Penguin(Tweety)\n"
        "Yellow(Tweety)\n",
        "Fly(Tweety)", 0.0);

  Point(corpus, "E5.20", "exceptional subclass inherits warm-bloodedness",
        "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
        "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
        "#(WarmBlooded(x) ; Bird(x))[x] ~=_3 1\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "Penguin(Tweety)\n",
        "WarmBlooded(Tweety)", 1.0);

  Point(corpus, "E5.21", "drowning problem: the yellow penguin is easy to see",
        "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
        "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
        "#(EasyToSee(x) ; Yellow(x))[x] ~=_3 1\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "Penguin(Tweety)\n"
        "Yellow(Tweety)\n",
        "EasyToSee(Tweety)", 1.0);

  Point(corpus, "E5.22", "Tay-Sachs through a disjunctive reference class",
        "#(TS(x) ; EEJ(x) | FC(x))[x] ~= 0.02\n"
        "EEJ(Eric)\n",
        "TS(Eric)", 0.02, 0.02);

  {
    PaperExample e;
    e.id = "E5.24";
    e.description = "strength rule: birds' tighter interval beats magpies";
    e.kb =
        "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
        "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
        "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
        "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
        "forall x. (Magpie(x) => Bird(x))\n"
        "Magpie(Tweety)\n";
    e.query = "Chirps(Tweety)";
    e.expect = PaperExample::Expect::kInterval;
    e.lo = 0.7;
    e.hi = 0.8;
    e.tolerance = 0.05;
    corpus.push_back(e);
  }

  Point(corpus, "T5.26", "Nixon diamond: δ(0.8, 0.8) = 0.9412",
        "#(Pacifist(x) ; Quaker(x))[x] ~=_1 0.8\n"
        "#(Pacifist(x) ; Republican(x))[x] ~=_2 0.8\n"
        "Quaker(Nixon)\n"
        "Republican(Nixon)\n"
        "exists! x. (Quaker(x) & Republican(x))\n",
        "Pacifist(Nixon)", 0.64 / 0.68, 0.01);

  {
    PaperExample e;
    e.id = "T5.26-conflict";
    e.description =
        "conflicting hard defaults with independent strengths: no limit";
    e.kb =
        "#(Pacifist(x) ; Quaker(x))[x] ~=_1 1\n"
        "#(Pacifist(x) ; Republican(x))[x] ~=_2 0\n"
        "Quaker(Nixon)\n"
        "Republican(Nixon)\n"
        "exists! x. (Quaker(x) & Republican(x))\n";
    e.query = "Pacifist(Nixon)";
    e.expect = PaperExample::Expect::kNonexistent;
    corpus.push_back(e);
  }

  Point(corpus, "E5.28", "independence: Pr(Hep ∧ Over60) = 0.8 × 0.4",
        "#(Hep(x) ; Jaun(x))[x] ~=_1 0.8\n"
        "Jaun(Eric)\n"
        "#(Over60(x) ; Patient(x))[x] ~=_5 0.4\n"
        "Patient(Eric)\n",
        "Hep(Eric) & Over60(Eric)", 0.32, 0.02);

  {
    PaperExample e = PaperExample();
    e.id = "E5.29";
    e.description = "no spurious independence: Pr(Black(Clyde)) = 0.47";
    e.kb =
        "#(Black(x) ; Bird(x))[x] ~=_1 0.2\n"
        "#(Bird(x))[x] ~=_2 0.1\n";
    e.query = "Black(Clyde)";
    e.expect = PaperExample::Expect::kPoint;
    e.value = 0.47;
    e.tolerance = 0.03;
    e.extra_constants = {"Clyde"};
    corpus.push_back(e);
  }

  Point(corpus, "E4.4a",
        "elephants typically like zookeepers: Clyde likes Eric",
        "#(Likes(x, y) ; Elephant(x) & Zookeeper(y))[x,y] ~=_1 1\n"
        "#(Likes(x, Fred) ; Elephant(x))[x] ~=_2 0\n"
        "Zookeeper(Fred)\n"
        "Elephant(Clyde)\n"
        "Zookeeper(Eric)\n",
        "Likes(Clyde, Eric)", 1.0, 1e-9);

  Point(corpus, "E4.4b", "but Clyde does not like Fred",
        "#(Likes(x, y) ; Elephant(x) & Zookeeper(y))[x,y] ~=_1 1\n"
        "#(Likes(x, Fred) ; Elephant(x))[x] ~=_2 0\n"
        "Zookeeper(Fred)\n"
        "Elephant(Clyde)\n"
        "Zookeeper(Eric)\n",
        "Likes(Clyde, Fred)", 0.0, 1e-9);

  Point(corpus, "E4.6", "nested default: Alice normally rises late",
        "#(#(RisesLate(x, y) ; Day(y))[y] ~=_1 1 ; "
        "#(ToBedLate(x, y2) ; Day(y2))[y2] ~=_2 1)[x] ~=_3 1\n"
        "#(ToBedLate(Alice, y2) ; Day(y2))[y2] ~=_2 1\n",
        "#(RisesLate(Alice, y) ; Day(y))[y] ~=_1 1", 1.0, 1e-9);

  {
    PaperExample e;
    e.id = "S5.5-poole";
    e.description =
        "Poole's all-exceptional partition of birds is inconsistent";
    e.kb =
        "forall x. (Bird(x) <=> (Emu(x) | Penguin(x)))\n"
        "forall x. !(Emu(x) & Penguin(x))\n"
        "#(Emu(x) ; Bird(x))[x] ~=_1 0\n"
        "#(Penguin(x) ; Bird(x))[x] ~=_2 0\n"
        "0.2 <~_3 #(Bird(x))[x]\n";
    e.query = "Bird(Tweety)";
    e.expect = PaperExample::Expect::kUndefined;
    e.extra_constants = {"Tweety"};
    e.options = Sweep({32, 64, 128}, {1.0});
    e.options.strategies.Remove("maxent").Remove("exact");
    corpus.push_back(e);
  }

  {
    PaperExample e;
    e.id = "S5.5-names";
    e.description = "unique names: Ray ≠ Drew (Lifschitz C1)";
    e.kb = "Ray = Reiter\nDrew = McDermott\n";
    e.query = "Ray != Drew";
    e.expect = PaperExample::Expect::kPoint;
    e.value = 1.0;
    e.tolerance = 0.02;
    e.options = Sweep({32, 64, 128}, {1.0});
    e.options.strategies.Remove("maxent").Remove("exact");
    corpus.push_back(e);
  }

  Point(corpus, "S7.2", "representation dependence: the refined prior is 1/3",
        "forall x. (!White(x) <=> (Red(x) | Blue(x)))\n"
        "forall x. !(Red(x) & Blue(x))\n",
        "White(B)", 1.0 / 3.0, 0.01)
      ->extra_constants = {"B"};

  return corpus;
}

// The claims beyond the corpus: variants of its KBs, the Theorem 5.26
// grid, and numeric confirmations of symbolic answers.
std::vector<PaperExample> BuildClaims() {
  std::vector<PaperExample> claims = BuildCorpus();
  auto kb_of = [&claims](const std::string& id) {
    return std::find_if(claims.begin(), claims.end(),
                        [&](const PaperExample& e) { return e.id == id; })
        ->kb;
  };
  const std::string hepatitis =
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n";

  Point(claims, "E5.11-numeric",
        "a spurious disjunctive class cannot shift the profile sweep",
        hepatitis, "Hep(Eric)", 0.8, 0.05)
      ->options = Sweep({24, 48}, {1.0, 0.5});

  Point(claims, "E5.18-specific",
        "statistics for Jaun ∧ Fever take over from Jaun",
        hepatitis +
            "#(Hep(x))[x] <~_2 0.05\n"
            "#(Hep(x) ; Jaun(x) & Fever(x))[x] ~=_3 1\n"
            "Fever(Eric)\n"
            "Tall(Eric)\n",
        "Hep(Eric)", 1.0);

  // A point inside [0.7, 0.8]: status kPoint, value 0.75 ± 0.05.
  Point(claims, "E5.24-numeric",
        "the numeric estimate falls inside the strength-rule interval",
        kb_of("E5.24"), "Chirps(Tweety)", 0.75, 0.05)
      ->options = Sweep({16, 24}, {1.0});

  // Strictly below 0.9 (and above 0.5): a point in [0.51, 0.89].
  Point(claims, "E5.25",
        "moody magpies are not ignored: Pr(Chirps) is pulled below 0.9",
        "#(Chirps(x) ; Bird(x))[x] ~=_1 0.9\n"
        "#(Chirps(x) ; Magpie(x) & Moody(x))[x] ~=_2 0.2\n"
        "forall x. (Magpie(x) => Bird(x))\n"
        "Magpie(Tweety)\n",
        "Chirps(Tweety)", 0.7, 0.19)
      ->options = Sweep({10, 12}, {1.0});

  {
    // Section 2.3: the reference-class baselines go vacuous on competing
    // classes (tests/refclass_test.cc); random worlds still commits.
    PaperExample e;
    e.id = "S2.3-heart";
    e.description = "heart disease: Pr(Heart(Fred)) is below both marginals";
    e.kb =
        "#(Heart(x) ; Chol(x))[x] ~=_1 0.15\n"
        "#(Heart(x) ; Smoker(x))[x] ~=_2 0.09\n"
        "Chol(Fred)\n"
        "Smoker(Fred)\n";
    e.query = "Heart(Fred)";
    e.expect = PaperExample::Expect::kInterval;
    e.lo = 0.0;
    e.hi = 0.09;
    e.tolerance = 0.0;
    e.options.limit.domain_sizes = {16, 32};
    claims.push_back(e);
  }

  // δ(α, β) = αβ / (αβ + (1 − α)(1 − β)); T5.26 is the (0.8, 0.8) cell.
  for (double alpha : {0.8, 0.7, 0.6}) {
    for (double beta : {0.8, 0.5, 0.3}) {
      if (alpha == 0.8 && beta == 0.8) continue;
      char id[32];
      std::snprintf(id, sizeof(id), "T5.26-%g-%g", alpha, beta);
      const double delta =
          alpha * beta / (alpha * beta + (1 - alpha) * (1 - beta));
      Point(claims, id, "Nixon diamond: Pr(Pacifist) = δ(α, β)",
            NixonKb(alpha, beta), "Pacifist(Nixon)", delta, 0.01);
    }
  }
  Point(claims, "T5.26-fn14",
        "footnote 14: two 0.2 classes reinforce to δ = 0.059 < 0.2",
        NixonKb(0.2, 0.2), "Pacifist(Nixon)", 0.04 / 0.68, 0.01);

  const std::string joint = kb_of("E5.28");
  Point(claims, "E5.28-left", "independence: the Hep marginal is 0.8", joint,
        "Hep(Eric)", 0.8, 0.02);
  Point(claims, "E5.28-right", "independence: the Over60 marginal is 0.4",
        joint, "Over60(Eric)", 0.4, 0.02);
  Point(claims, "E5.28-numeric", "the product 0.32 without Theorem 5.27",
        joint, "Hep(Eric) & Over60(Eric)", 0.32, 0.02)
      ->options = Sweep({16, 24}, {1.0, 0.5});

  Point(claims, "S7.2-white", "representation dependence: Pr(White(B)) = 1/2",
        "", "White(B)", 0.5, 0.01);
  const std::string fly =
      "#(Fly(x) ; Bird(x))[x] ~= 0.5\n"
      "Bird(Tweety)\n";
  const std::string flying_bird =
      "#(FlyingBird(x) ; Bird(x))[x] ~= 0.5\n"
      "Bird(Tweety)\n"
      "forall x. (FlyingBird(x) => Bird(x))\n";
  Point(claims, "S7.2-fly-direct", "Fly/Bird encoding: Pr(Fly(Tweety)) = 1/2",
        fly, "Fly(Tweety)", 0.5, 0.02)
      ->extra_constants = {"Opus"};
  // Conditioning on Bird(Tweety) size-biases the bird class at finite N,
  // so Pr(Bird(Opus)) converges slowly: larger domains, a wider band.
  PaperExample* bird = Point(claims, "S7.2-bird-direct",
                             "Fly/Bird encoding: Pr(Bird(Opus)) = 1/2", fly,
                             "Bird(Opus)", 0.5, 0.05);
  bird->extra_constants = {"Opus"};
  bird->options.limit.domain_sizes = {64, 96, 128};
  bird->options.limit.tolerance_scales = {1.0};
  Point(claims, "S7.2-fly-fb",
        "FlyingBird encoding: Pr(FlyingBird(Tweety)) = 1/2", flying_bird,
        "FlyingBird(Tweety)", 0.5, 0.02)
      ->extra_constants = {"Opus"};
  Point(claims, "S7.2-bird-fb",
        "FlyingBird encoding: Pr(Bird(Opus)) moves to 2/3", flying_bird,
        "Bird(Opus)", 2.0 / 3.0, 0.02)
      ->extra_constants = {"Opus"};

  return claims;
}

}  // namespace

const std::vector<PaperExample>& AllPaperExamples() {
  static const std::vector<PaperExample>* corpus =
      new std::vector<PaperExample>(BuildCorpus());
  return *corpus;
}

const std::vector<PaperExample>& AllPaperClaims() {
  static const std::vector<PaperExample>* claims =
      new std::vector<PaperExample>(BuildClaims());
  return *claims;
}

const PaperExample& ExampleById(const std::string& id) {
  for (const auto& example : AllPaperClaims()) {
    if (example.id == id) return example;
  }
  std::fprintf(stderr, "rwl fixtures: unknown example id '%s'\n",
               id.c_str());
  std::abort();
}

}  // namespace rwl::fixtures
