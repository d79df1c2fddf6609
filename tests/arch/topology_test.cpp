#include "arch/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "arch/machine_spec.hpp"

namespace spcd::arch {
namespace {

Topology xeon() {
  return Topology(TopologySpec{.sockets = 2, .cores_per_socket = 8,
                               .smt_per_core = 2});
}

TEST(TopologyTest, CountsMatchSpec) {
  const auto t = xeon();
  EXPECT_EQ(t.num_sockets(), 2u);
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.num_contexts(), 32u);
}

TEST(TopologyTest, ContextLayoutIsSocketMajor) {
  const auto t = xeon();
  // ctx 0/1 = socket 0 core 0; ctx 16 starts socket 1.
  EXPECT_EQ(t.socket_of(0), 0u);
  EXPECT_EQ(t.socket_of(15), 0u);
  EXPECT_EQ(t.socket_of(16), 1u);
  EXPECT_EQ(t.socket_of(31), 1u);
  EXPECT_EQ(t.core_of(0), 0u);
  EXPECT_EQ(t.core_of(1), 0u);
  EXPECT_EQ(t.core_of(2), 1u);
  EXPECT_EQ(t.core_of(31), 15u);
  EXPECT_EQ(t.smt_slot_of(0), 0u);
  EXPECT_EQ(t.smt_slot_of(1), 1u);
}

TEST(TopologyTest, SocketOfCore) {
  const auto t = xeon();
  EXPECT_EQ(t.socket_of_core(0), 0u);
  EXPECT_EQ(t.socket_of_core(7), 0u);
  EXPECT_EQ(t.socket_of_core(8), 1u);
}

TEST(TopologyTest, ContextsOfCoreAreSiblings) {
  const auto t = xeon();
  const auto sibs = t.contexts_of_core(5);
  ASSERT_EQ(sibs.size(), 2u);
  EXPECT_EQ(sibs[0], 10u);
  EXPECT_EQ(sibs[1], 11u);
  EXPECT_EQ(t.core_of(sibs[0]), t.core_of(sibs[1]));
}

TEST(TopologyTest, CoresOfSocket) {
  const auto t = xeon();
  const auto cores = t.cores_of_socket(1);
  ASSERT_EQ(cores.size(), 8u);
  EXPECT_EQ(cores.front(), 8u);
  EXPECT_EQ(cores.back(), 15u);
}

TEST(TopologyTest, ProximityClassification) {
  const auto t = xeon();
  EXPECT_EQ(t.proximity(3, 3), Proximity::kSameContext);
  EXPECT_EQ(t.proximity(0, 1), Proximity::kSameCore);
  EXPECT_EQ(t.proximity(0, 2), Proximity::kSameSocket);
  EXPECT_EQ(t.proximity(0, 16), Proximity::kCrossSocket);
  EXPECT_EQ(t.proximity(16, 0), Proximity::kCrossSocket);
}

TEST(TopologyTest, ProximityIsSymmetric) {
  const auto t = xeon();
  for (ContextId a = 0; a < t.num_contexts(); ++a) {
    for (ContextId b = 0; b < t.num_contexts(); ++b) {
      EXPECT_EQ(t.proximity(a, b), t.proximity(b, a));
    }
  }
}

TEST(TopologyTest, ArityPathMultipliesToContexts) {
  const auto t = xeon();
  const auto path = t.arity_path();
  std::uint64_t product = 1;
  for (auto a : path) product *= a;
  EXPECT_EQ(product, t.num_contexts());
}

TEST(TopologyTest, AllContextsPartitionIntoCores) {
  const auto t = xeon();
  std::set<ContextId> seen;
  for (CoreId c = 0; c < t.num_cores(); ++c) {
    for (auto ctx : t.contexts_of_core(c)) {
      EXPECT_TRUE(seen.insert(ctx).second) << "duplicate ctx " << ctx;
    }
  }
  EXPECT_EQ(seen.size(), t.num_contexts());
}

TEST(TopologyTest, SingleSocketNoSmt) {
  Topology t(TopologySpec{.sockets = 1, .cores_per_socket = 4,
                          .smt_per_core = 1});
  EXPECT_EQ(t.num_contexts(), 4u);
  EXPECT_EQ(t.proximity(0, 1), Proximity::kSameSocket);
  EXPECT_EQ(t.core_of(3), 3u);
}

TEST(TopologyTest, DescribeMentionsAllCoordinates) {
  const auto t = xeon();
  const auto s = t.describe(17);
  EXPECT_NE(s.find("ctx 17"), std::string::npos);
  EXPECT_NE(s.find("socket 1"), std::string::npos);
  EXPECT_NE(s.find("core 8"), std::string::npos);
  EXPECT_NE(s.find("smt 1"), std::string::npos);
}

TEST(TopologyDeathTest, OutOfRangeContextAborts) {
  const auto t = xeon();
  EXPECT_DEATH((void)t.socket_of(32), "Precondition");
  EXPECT_DEATH((void)t.core_of(32), "Precondition");
  EXPECT_DEATH((void)t.smt_slot_of(32), "Precondition");
  EXPECT_DEATH((void)t.socket_of_core(16), "Precondition");  // core 16
}

/// Every lookup of every context against the socket-major layout formula.
void expect_socket_major(const TopologySpec& spec) {
  const Topology t(spec);
  const std::uint32_t per_socket = spec.cores_per_socket * spec.smt_per_core;
  for (ContextId ctx = 0; ctx < t.num_contexts(); ++ctx) {
    ASSERT_EQ(t.core_of(ctx), ctx / spec.smt_per_core) << "ctx " << ctx;
    ASSERT_EQ(t.socket_of(ctx), ctx / per_socket) << "ctx " << ctx;
    ASSERT_EQ(t.smt_slot_of(ctx), ctx % spec.smt_per_core) << "ctx " << ctx;
  }
  for (CoreId core = 0; core < t.num_cores(); ++core) {
    ASSERT_EQ(t.socket_of_core(core), core / spec.cores_per_socket)
        << "core " << core;
  }
}

TEST(TopologyTest, LookupsFollowTheLayoutOnEveryShape) {
  // Every preset, up to 2,048 contexts, and a shape with no power-of-two
  // dimension.
  MachineSpec odd = tiny_test_machine();
  odd.name = "3 x 6 x 3";
  odd.topology = TopologySpec{.sockets = 3, .cores_per_socket = 6,
                              .smt_per_core = 3};
  const MachineSpec shapes[] = {
      dual_xeon_e5_2650(), tiny_test_machine(), single_socket_machine(),
      quad_socket_numa(),  octo_socket_numa(),  octo_socket_numa_smt4(),
      odd};
  for (const MachineSpec& m : shapes) {
    SCOPED_TRACE(m.name);
    expect_socket_major(m.topology);
  }
  EXPECT_EQ(Topology(octo_socket_numa_smt4().topology).num_contexts(), 2048u);
}

TEST(TopologyTest, NumaHopsIsRingDistance) {
  Topology t(TopologySpec{.sockets = 8, .cores_per_socket = 64,
                          .smt_per_core = 2});
  EXPECT_EQ(t.numa_hops(3, 3), 0u);
  EXPECT_EQ(t.numa_hops(0, 1), 1u);
  EXPECT_EQ(t.numa_hops(0, 7), 1u);  // the ring wraps
  EXPECT_EQ(t.numa_hops(1, 3), 2u);
  EXPECT_EQ(t.numa_hops(0, 4), 4u);  // opposite corner: sockets/2
  for (SocketId a = 0; a < 8; ++a) {
    for (SocketId b = 0; b < 8; ++b) {
      EXPECT_EQ(t.numa_hops(a, b), t.numa_hops(b, a));
      EXPECT_LE(t.numa_hops(a, b), 4u);
    }
  }
}

TEST(TopologyTest, TwoSocketMachinesNeverExceedOneHop) {
  const auto t = xeon();
  EXPECT_EQ(t.numa_hops(0, 0), 0u);
  EXPECT_EQ(t.numa_hops(0, 1), 1u);
  EXPECT_EQ(t.numa_hops(1, 0), 1u);
}

TEST(TopologyTest, DeepNumaLayoutStaysConsistentAt1024Contexts) {
  Topology t(TopologySpec{.sockets = 8, .cores_per_socket = 64,
                          .smt_per_core = 2});
  EXPECT_EQ(t.num_contexts(), 1024u);
  EXPECT_EQ(t.socket_of(0), 0u);
  EXPECT_EQ(t.socket_of(1023), 7u);
  EXPECT_EQ(t.proximity(0, 1), Proximity::kSameCore);
  EXPECT_EQ(t.proximity(0, 2), Proximity::kSameSocket);
  EXPECT_EQ(t.proximity(0, 128), Proximity::kCrossSocket);
  const auto arities = t.arity_path();
  ASSERT_EQ(arities.size(), 3u);
  EXPECT_EQ(arities[0], 2u);   // SMT
  EXPECT_EQ(arities[1], 64u);  // cores per socket
  EXPECT_EQ(arities[2], 8u);   // sockets
}

}  // namespace
}  // namespace spcd::arch
