// The cross-half differential: the simulator's SPCD detector and the spcdd
// service must detect the same communication from the same fault stream.
// A simulator cell records the detector's input with a zero-cost observer;
// the stream is then ingested into a journal-less SpcdService as its one
// tenant, with one shard and the detector's table config. The tenant's
// matrix must equal the detector's, and the arbiter's placement must equal
// the mapping strategy's placement for that matrix.
//
// The halves agree only while neither table collides: the service salts
// every region with (tenant + 1) << 44, so its keys hash to other buckets
// than the detector's, and a collision evicts different entries on each
// side. Zero collisions on both sides is asserted as a precondition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/spcd_kernel.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

/// Records every fault the detector sees; charges nothing.
struct FaultRecorder final : mem::FaultObserver {
  std::vector<svc::FaultRecord> faults;
  util::Cycles on_fault(const mem::FaultEvent& event) override {
    faults.push_back({event.vaddr, event.tid, event.time});
    return 0;
  }
};

class DetectionCrossHalfTest : public testing::TestWithParam<const char*> {};

TEST_P(DetectionCrossHalfTest, ServiceMatchesDetectorAndMapper) {
  const core::RunnerConfig config;
  sim::Machine machine(config.machine);
  mem::AddressSpace as = machine.make_address_space();
  const auto workload =
      workloads::nas_factory(GetParam(), 0.05)(config.base_seed);
  const std::uint32_t threads = workload->num_threads();
  sim::Engine engine(machine, as, *workload,
                     core::os_spread_placement(machine.topology(), threads),
                     config.engine);
  core::SpcdKernel kernel(config.spcd, threads, config.base_seed);
  kernel.install(engine);
  FaultRecorder recorder;
  as.add_fault_observer(&recorder);
  engine.run();
  as.remove_fault_observer(&recorder);

  svc::ServiceConfig svc_config;
  svc_config.topology = config.machine.topology;
  svc_config.shards = 1;
  svc_config.table = config.spcd.table;
  svc_config.arbitration_interval = 0;
  svc_config.mapping = config.spcd.mapping;
  svc::SpcdService service(svc_config);
  const svc::RegisterResult tenant = service.register_tenant("cell", threads);
  ASSERT_TRUE(tenant.ok) << tenant.error;
  const std::vector<svc::FaultRecord>& faults = recorder.faults;
  std::uint64_t comm_events = 0;
  for (std::size_t begin = 0; begin < faults.size();
       begin += svc::kMaxBatchEvents) {
    const std::size_t end =
        std::min<std::size_t>(faults.size(), begin + svc::kMaxBatchEvents);
    const svc::IngestResult result = service.ingest(
        tenant.tenant_id, {faults.begin() + static_cast<std::ptrdiff_t>(begin),
                           faults.begin() + static_cast<std::ptrdiff_t>(end)});
    ASSERT_TRUE(result.ok) << result.error;
    comm_events += result.comm_events;
  }

  // Precondition: no collision on either side, every fault reached both.
  const core::SpcdDetector& detector = kernel.detector();
  ASSERT_EQ(detector.table().collisions(), 0u);
  ASSERT_EQ(detector.faults_seen(), faults.size());
  const std::string service_table = "\"table\":{\"shards\":1,\"accesses\":" +
                                    std::to_string(faults.size()) +
                                    ",\"collisions\":0,";
  ASSERT_NE(service.metrics_json().find(service_table), std::string::npos)
      << service.metrics_json();
  ASSERT_GT(detector.communication_events(), 0u);

  EXPECT_EQ(comm_events, detector.communication_events());
  const auto matrix = service.tenant_matrix(tenant.tenant_id);
  ASSERT_TRUE(matrix.has_value());
  const auto ours = matrix->triangle();
  const auto theirs = detector.matrix().triangle();
  EXPECT_TRUE(
      std::equal(ours.begin(), ours.end(), theirs.begin(), theirs.end()));

  const svc::ArbiterDecision decision = service.arbitrate_now();
  ASSERT_EQ(decision.placements.size(), 1u);
  const core::MappingResult mapping =
      core::make_mapping_strategy(config.spcd.mapping)
          ->map(detector.matrix(), service.topology());
  EXPECT_EQ(decision.placements[0].contexts, mapping.placement);
}

INSTANTIATE_TEST_SUITE_P(NasScale005, DetectionCrossHalfTest,
                         testing::Values("cg", "sp", "ft"),
                         [](const auto& param) {
                           return std::string(param.param);
                         });

}  // namespace
}  // namespace spcd
