#include <gtest/gtest.h>

#include "chase/match.h"
#include "chase/soft_match.h"
#include "common/timer.h"
#include "datagen/ecommerce.h"
#include "datagen/paper_example.h"
#include "obs/json.h"
#include "rules/parser.h"
#include "service/resolver.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// Incremental ER over data updates ΔD (Sec. V-A Remark), via the Resolver
// facade (the old IncrementalMatcher shim is gone).

TEST(IncrementalTest, BatchAppendsEqualFromScratchChase) {
  // Build the paper example incrementally, a few tuples at a time, in a
  // fresh resolver; after each batch Γ must equal a from-scratch chase over
  // the grown prefix.
  auto full = MakePaperExample();

  Dataset& src = full->dataset;
  Dataset dst;
  for (size_t r = 0; r < src.num_relations(); ++r) {
    dst.AddRelation(src.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(full->rules.ToString(src), dst, full->registry,
                           &rules)
                  .ok());

  auto resolver = Resolver::Open(std::move(dst), rules, &full->registry);
  EXPECT_EQ(resolver->Snapshot()->num_matched_pairs(), 0u);  // empty dataset

  // Append tuples in the paper's order, in batches of three.
  TupleBatch batch;
  for (Gid g = 0; g < src.num_tuples(); ++g) {
    TupleLoc loc = src.loc(g);
    batch.Add(loc.relation, src.relation(loc.relation).row(loc.row));
    if (batch.size() == 3 || g + 1 == src.num_tuples()) {
      resolver->Append(std::move(batch));
      batch = TupleBatch{};
      // Cross-check against a from-scratch chase of the prefix.
      const Dataset& grown = resolver->dataset();
      MatchContext scratch(grown);
      engine::Match(DatasetView::Full(grown), rules, full->registry, {},
                    &scratch);
      EXPECT_EQ(resolver->Snapshot()->MatchedPairs(), scratch.MatchedPairs())
          << "after " << grown.num_tuples() << " tuples";
      EXPECT_EQ(resolver->Snapshot()->num_validated_ml(),
                scratch.num_validated_ml());
    }
  }
  // The final fixpoint is the paper's Γ: 6 matched pairs.
  EXPECT_EQ(resolver->Snapshot()->num_matched_pairs(), 6u);
}

TEST(IncrementalTest, LateTupleTriggersRecursiveCascade) {
  // Withhold the orders that certify the deep match (t1 ~ t3): appending
  // them later must fire the recursive chain incrementally.
  auto full = MakePaperExample();
  Dataset& src = full->dataset;
  Dataset dst;
  for (size_t r = 0; r < src.num_relations(); ++r) {
    dst.AddRelation(src.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(full->rules.ToString(src), dst, full->registry,
                           &rules)
                  .ok());
  // Everything except the two same-IP orders t16 (gid 15) and t17 (gid 16).
  std::vector<std::pair<uint32_t, Row>> held_back;
  std::vector<Gid> mapping(src.num_tuples());
  for (Gid g = 0; g < src.num_tuples(); ++g) {
    TupleLoc loc = src.loc(g);
    Row row = src.relation(loc.relation).row(loc.row);
    if (g == full->t[16] || g == full->t[17]) {
      held_back.push_back({loc.relation, row});
      continue;
    }
    mapping[g] = dst.AppendTuple(loc.relation, row);
  }
  auto resolver = Resolver::Open(std::move(dst), rules, &full->registry);
  // Without those orders, phi4 cannot fire: t1 !~ t3 (and hence t1 !~ t2).
  EXPECT_FALSE(resolver->SameEntity(mapping[full->t[1]],
                                    mapping[full->t[3]]));

  TupleBatch batch;
  for (auto& [rel, row] : held_back) batch.Add(rel, row);
  AppendOutcome outcome = resolver->Append(std::move(batch));
  EXPECT_TRUE(resolver->SameEntity(mapping[full->t[1]],
                                   mapping[full->t[3]]));
  EXPECT_TRUE(resolver->SameEntity(mapping[full->t[1]],
                                   mapping[full->t[2]]));
  EXPECT_GT(outcome.report.chase.seeded_joins, 0u);
}

TEST(IncrementalTest, UpdateDrivenCostIsBelowRechaseCost) {
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  // Hold back the last 10 tuples.
  Dataset dst;
  for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
    dst.AddRelation(gd->dataset.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(gd->rules.ToString(gd->dataset), dst,
                           gd->registry, &rules)
                  .ok());
  size_t cut = gd->dataset.num_tuples() - 10;
  for (Gid g = 0; g < cut; ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    dst.AppendTuple(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
  }
  auto resolver = Resolver::Open(std::move(dst), rules, &gd->registry);
  ASSERT_NE(resolver->match_report(), nullptr);
  const MatchReport init = *resolver->match_report();
  TupleBatch batch;
  for (Gid g = static_cast<Gid>(cut); g < gd->dataset.num_tuples(); ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    batch.Add(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
  }
  AppendOutcome delta = resolver->Append(std::move(batch));
  // The batch inspects far fewer valuations than the initial chase.
  EXPECT_LT(delta.report.chase.valuations, init.chase.valuations / 4);
}

// Per-call reports: the open is timed from its Deduce on, ML counters are
// the registry's differences over the call, and every chase counter is a
// difference against the previous call — so an empty append reports all
// zeros even after an open that dropped dependencies and built indices. A
// DMatch open builds its chase engine on the first append, and that
// append's report covers the full Deduce it runs.
TEST(IncrementalTest, PerCallReportsCoverExactlyTheirCall) {
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  const size_t cut = gd->dataset.num_tuples() - 10;
  auto open = [&](size_t capacity, int workers = 0) {
    Dataset dst;
    for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
      dst.AddRelation(gd->dataset.relation(r).schema());
    }
    RuleSet rules;
    EXPECT_TRUE(ParseRuleSet(gd->rules.ToString(gd->dataset), dst,
                             gd->registry, &rules)
                    .ok());
    for (Gid g = 0; g < cut; ++g) {
      TupleLoc loc = gd->dataset.loc(g);
      dst.AppendTuple(loc.relation,
                      gd->dataset.relation(loc.relation).row(loc.row));
    }
    gd->registry.ClearCache();
    ResolverOptions ro;
    ro.dependency_capacity = capacity;
    ro.num_workers = workers;
    return Resolver::Open(std::move(dst), std::move(rules), &gd->registry,
                          ro);
  };
  auto held_back = [&] {
    TupleBatch batch;
    for (Gid g = static_cast<Gid>(cut); g < gd->dataset.num_tuples(); ++g) {
      TupleLoc loc = gd->dataset.loc(g);
      batch.Add(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
    }
    return batch;
  };
  const MlRegistry& registry = gd->registry;

  // Default capacity: H never drops, so IncDeduce returns at once and the
  // open's time is the Deduce pass itself.
  uint64_t preds = registry.num_predictions();
  uint64_t hits = registry.num_cache_hits();
  Timer wall;
  auto resolver = open(size_t{1} << 20);
  const double open_wall = wall.ElapsedSeconds();
  const MatchReport& init = *resolver->match_report();
  const uint64_t open_valuations = init.chase.valuations;
  EXPECT_GE(init.seconds, 0.5 * open_wall);
  EXPECT_GT(init.ml_predictions, 0u);
  EXPECT_EQ(init.ml_predictions, registry.num_predictions() - preds);
  EXPECT_EQ(init.ml_cache_hits, registry.num_cache_hits() - hits);
  preds = registry.num_predictions();
  hits = registry.num_cache_hits();
  AppendOutcome grown = resolver->Append(held_back());
  const auto grown_gamma = resolver->Snapshot();
  EXPECT_GT(grown.report.seconds, 0.0);
  EXPECT_EQ(grown.report.ml_predictions, registry.num_predictions() - preds);
  EXPECT_EQ(grown.report.ml_cache_hits, registry.num_cache_hits() - hits);

  // A tiny H drops dependencies during the open.
  resolver = open(64);
  EXPECT_GT(resolver->match_report()->chase.deps_dropped, 0u);
  EXPECT_GT(resolver->match_report()->chase.indices_built, 0u);
  resolver->Append(held_back());
  AppendOutcome empty = resolver->Append(TupleBatch{});
  JsonWriter got;
  empty.report.chase.AppendJson(&got);
  JsonWriter zero;
  ChaseStats{}.AppendJson(&zero);
  EXPECT_EQ(got.str(), zero.str());
  EXPECT_EQ(empty.report.ml_predictions, 0u);
  EXPECT_EQ(empty.report.ml_cache_hits, 0u);

  // The DMatch open's first append enumerates at least every valuation a
  // sequential open of the same prefix does, and reaches the same Γ.
  resolver = open(size_t{1} << 20, /*workers=*/4);
  EXPECT_GE(resolver->Append(held_back()).report.chase.valuations,
            open_valuations);
  EXPECT_EQ(resolver->Snapshot()->MatchedPairs(), grown_gamma->MatchedPairs());
  EXPECT_EQ(resolver->Snapshot()->ValidatedMlKeys(),
            grown_gamma->ValidatedMlKeys());
}

// ---------------------------------------------------------------------------
// Soft rules (probabilistic ER, the paper's future-work extension).

TEST(SoftMatchTest, HardChaseIsTheBooleanSpecialCase) {
  // With weight-1 rules and no ML predicates, soft matching at threshold
  // 0.5 reproduces the hard chase exactly.
  Dataset d;
  size_t rel = d.AddRelation(Schema("R", {{"a", ValueType::kString},
                                          {"b", ValueType::kString}}));
  Gid x = d.AppendTuple(rel, {Value("k"), Value("u")});
  Gid y = d.AppendTuple(rel, {Value("k"), Value("v")});
  Gid z = d.AppendTuple(rel, {Value("q"), Value("v")});
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "r1: R(t) ^ R(s) ^ t.a = s.a -> t.id = s.id\n"
                  "r2: R(t) ^ R(s) ^ t.b = s.b -> t.id = s.id\n",
                  d, registry, &rules)
                  .ok());
  DatasetView view = DatasetView::Full(d);
  SoftMatcher soft(&view, &rules, {}, &registry);
  soft.Run();
  EXPECT_DOUBLE_EQ(soft.Probability(x, y), 1.0);
  EXPECT_DOUBLE_EQ(soft.Probability(y, z), 1.0);
  EXPECT_DOUBLE_EQ(soft.Probability(x, x), 1.0);
  // Transitive pair x ~ z via soft transitivity (damped).
  EXPECT_GE(soft.Probability(x, z), 0.9 * 1.0 * 1.0 - 1e-9);
  MatchContext hard(d);
  engine::Match(view, rules, registry, {}, &hard);
  for (auto [a, b] : hard.MatchedPairs()) {
    EXPECT_GE(soft.Probability(a, b), 0.5) << a << "," << b;
  }
}

TEST(SoftMatchTest, WeightsScaleProbabilities) {
  Dataset d;
  size_t rel = d.AddRelation(Schema("R", {{"a", ValueType::kString}}));
  Gid x = d.AppendTuple(rel, {Value("k")});
  Gid y = d.AppendTuple(rel, {Value("k")});
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet("r1: R(t) ^ R(s) ^ t.a = s.a -> t.id = s.id\n", d,
                           registry, &rules)
                  .ok());
  DatasetView view = DatasetView::Full(d);
  SoftMatcher weak(&view, &rules, {0.3}, &registry);
  weak.Run();
  // Two orientations of the symmetric valuation accumulate by noisy-or:
  // 1 - (1-0.3)^2 = 0.51.
  EXPECT_NEAR(weak.Probability(x, y), 0.51, 1e-9);

  SoftMatcher strong(&view, &rules, {0.9}, &registry);
  strong.Run();
  EXPECT_GT(strong.Probability(x, y), weak.Probability(x, y));
}

TEST(SoftMatchTest, MlScoresEnterMultiplicatively) {
  Dataset d;
  size_t rel = d.AddRelation(Schema("P", {{"name", ValueType::kString},
                                          {"desc", ValueType::kString}}));
  Gid a = d.AppendTuple(rel, {Value("k"), Value("alpha beta gamma")});
  Gid b = d.AppendTuple(rel, {Value("k"), Value("alpha beta delta")});
  Gid c = d.AppendTuple(rel, {Value("k"), Value("zzz yyy xxx")});
  MlRegistry registry;
  registry.Register(std::make_unique<TokenJaccardClassifier>("MJ", 0.3));
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet("r1: P(t) ^ P(s) ^ t.name = s.name ^ "
                           "MJ(t.desc, s.desc) -> t.id = s.id\n",
                           d, registry, &rules)
                  .ok());
  DatasetView view = DatasetView::Full(d);
  SoftMatcher soft(&view, &rules, {1.0}, &registry);
  soft.Run();
  // (a,b) share 2/4 tokens (score 0.5) -> P = 1-(1-0.5)^2 = 0.75;
  // (a,c) share none -> contributes nothing.
  EXPECT_NEAR(soft.Probability(a, b), 0.75, 1e-9);
  EXPECT_LT(soft.Probability(a, c), 0.05);
  // Matches() is sorted by probability and respects the floor.
  auto top = soft.Matches(0.5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(std::get<0>(top[0]), std::min(a, b));
}

TEST(SoftMatchTest, RecursiveRulesPropagateBeliief) {
  // Chain: level-0 pair matched softly; the step rule multiplies by the
  // parent's probability, so belief decays along the chain but stays above
  // the threshold for a few hops.
  Dataset d;
  size_t rel = d.AddRelation(Schema("Node", {{"tag", ValueType::kString},
                                             {"lvl", ValueType::kInt},
                                             {"key", ValueType::kString},
                                             {"pkey", ValueType::kString}}));
  std::vector<Gid> a, b;
  constexpr int kDepth = 3;
  for (int side = 0; side < 2; ++side) {
    std::string prefix = side == 0 ? "a" : "b";
    for (int i = 0; i < kDepth; ++i) {
      Gid g = d.AppendTuple(
          rel, {Value("tag" + std::to_string(i)), Value(int64_t{i}),
                Value(prefix + std::to_string(i)),
                i == 0 ? Value::Null() : Value(prefix + std::to_string(i - 1))});
      (side == 0 ? a : b).push_back(g);
    }
  }
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "base: Node(t) ^ Node(s) ^ t.lvl = 0 ^ s.lvl = 0 ^ "
                  "t.tag = s.tag -> t.id = s.id\n"
                  "step: Node(t) ^ Node(s) ^ Node(pt) ^ Node(ps) ^ "
                  "t.pkey = pt.key ^ s.pkey = ps.key ^ t.tag = s.tag ^ "
                  "pt.id = ps.id -> t.id = s.id\n",
                  d, registry, &rules)
                  .ok());
  DatasetView view = DatasetView::Full(d);
  SoftMatcher soft(&view, &rules, {0.9, 0.9}, &registry);
  int passes = soft.Run();
  EXPECT_GT(passes, 1);
  double p0 = soft.Probability(a[0], b[0]);
  double p1 = soft.Probability(a[1], b[1]);
  double p2 = soft.Probability(a[2], b[2]);
  EXPECT_GT(p0, 0.9);
  EXPECT_GT(p1, 0.5);
  EXPECT_GT(p2, 0.4);
  EXPECT_GE(p0, p1);
  EXPECT_GE(p1, p2);  // belief decays along the recursion
}

TEST(SoftMatchTest, ConvergesWithinMaxPasses) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  std::vector<double> weights(ex->rules.size(), 0.85);
  SoftMatchOptions options;
  options.max_passes = 30;
  SoftMatcher soft(&view, &ex->rules, weights, &ex->registry, options);
  int passes = soft.Run();
  EXPECT_LT(passes, 30);
  // The hard matches of Example 3 all receive non-trivial probability.
  MatchContext hard(ex->dataset);
  engine::Match(view, ex->rules, ex->registry, {}, &hard);
  for (auto [a, b] : hard.MatchedPairs()) {
    EXPECT_GT(soft.Probability(a, b), 0.4) << "t" << a + 1 << "~t" << b + 1;
  }
}

}  // namespace
}  // namespace dcer
