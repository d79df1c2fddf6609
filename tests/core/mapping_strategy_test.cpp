#include "core/mapping_strategy.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/mapper.hpp"
#include "util/rng.hpp"

namespace spcd::core {
namespace {

arch::Topology xeon() {
  return arch::Topology(arch::TopologySpec{.sockets = 2,
                                           .cores_per_socket = 8,
                                           .smt_per_core = 2});
}

CommMatrix random_matrix(std::uint32_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  CommMatrix m(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const auto w = rng.below(100);
      if (w > 0) m.add(i, j, w);
    }
  }
  return m;
}

TEST(MappingStrategyTest, RegistryAgreesWithNameList) {
  const auto names = mapping_strategy_names();
  const auto registry = mapping_registry();
  ASSERT_EQ(registry.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(registry[i].name, names[i]);
    EXPECT_FALSE(registry[i].summary.empty()) << names[i];
    EXPECT_NE(registry[i].make, nullptr) << names[i];
  }
}

TEST(MappingStrategyTest, ParseAcceptsEveryRegisteredName) {
  for (const auto name : mapping_strategy_names()) {
    const auto entry = parse_mapping_strategy(name);
    ASSERT_TRUE(entry.has_value()) << name;
    EXPECT_EQ(entry->name, name);
  }
}

TEST(MappingStrategyTest, ParseRejectsUnknownNames) {
  EXPECT_FALSE(parse_mapping_strategy("").has_value());
  EXPECT_FALSE(parse_mapping_strategy("bogus").has_value());
  EXPECT_FALSE(parse_mapping_strategy("Blossom").has_value());  // case-exact
}

TEST(MappingStrategyTest, ListJoinsRegistryNames) {
  EXPECT_EQ(mapping_strategy_list(), "blossom|greedy|hierarchical");
}

TEST(MappingStrategyTest, FactoryBuildsEachStrategyUnderItsName) {
  for (const auto name : mapping_strategy_names()) {
    MappingConfig config;
    config.strategy = std::string(name);
    const auto strategy = make_mapping_strategy(config);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(MappingStrategyTest, FactoryThrowsConfigErrorOnBadConfig) {
  MappingConfig unknown;
  unknown.strategy = "bogus";
  EXPECT_THROW(make_mapping_strategy(unknown), ConfigError);

  MappingConfig bad_cutoff;
  bad_cutoff.strategy = "hierarchical";
  bad_cutoff.blossom_cutoff = 1;
  EXPECT_THROW(make_mapping_strategy(bad_cutoff), ConfigError);

  MappingConfig bad_passes;
  bad_passes.strategy = "hierarchical";
  bad_passes.refine_passes = 65;
  EXPECT_THROW(make_mapping_strategy(bad_passes), ConfigError);
}

TEST(MappingStrategyTest, SpcdConfigValidateFoldsMappingKnobs) {
  SpcdConfig config;
  EXPECT_EQ(config.validate(), "");
  config.mapping.strategy = "bogus";
  EXPECT_NE(config.validate(), "");
  config.mapping.strategy = "hierarchical";
  EXPECT_EQ(config.validate(), "");
  config.mapping.refine_jobs = 1025;
  EXPECT_NE(config.validate(), "");
}

TEST(MappingStrategyTest, EveryStrategyProducesAnInjectivePlacement) {
  const auto topo = xeon();
  const auto m = random_matrix(32, 23);
  for (const auto name : mapping_strategy_names()) {
    MappingConfig config;
    config.strategy = std::string(name);
    const auto placement =
        make_mapping_strategy(config)->map(m, topo).placement;
    ASSERT_EQ(placement.size(), 32u) << name;
    std::set<arch::ContextId> used;
    for (const auto ctx : placement) {
      EXPECT_LT(ctx, topo.num_contexts()) << name;
      EXPECT_TRUE(used.insert(ctx).second) << name;
    }
  }
}

TEST(MappingStrategyTest, HierarchicalDecisionCostIsFarBelowBlossomAtScale) {
  const SpcdConfig config;
  const auto blossom = make_mapping_strategy({});
  MappingConfig hier_cfg;
  hier_cfg.strategy = "hierarchical";
  const auto hier = make_mapping_strategy(hier_cfg);
  // At the paper's 32 threads the models may be comparable; at 1024 the
  // cubic Edmonds model must dwarf the near-linear multilevel one.
  EXPECT_LT(hier->decision_cost(1024, config),
            blossom->decision_cost(1024, config) / 10);
}

}  // namespace
}  // namespace spcd::core
