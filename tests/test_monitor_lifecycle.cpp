// Tests for FlowMonitor measurement epochs.
#include <gtest/gtest.h>

#include "flowtable/monitor.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0xac100000u + i, 0x08080808u,
                   static_cast<std::uint16_t>(40000 + i), 53, 17};
}

FlowMonitor::Config config() {
  FlowMonitor::Config c;
  c.max_flows = 256;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 16;
  c.seed = 31337;
  return c;
}

TEST(MonitorEpochs, RotateReportsAndClears) {
  FlowMonitor monitor(config());
  for (int i = 0; i < 500; ++i) (void)monitor.ingest(tuple(i % 5), 700);
  EXPECT_EQ(monitor.epoch(), 0u);

  const auto report = monitor.rotate();
  EXPECT_EQ(report.epoch, 0u);
  EXPECT_EQ(report.flows.size(), 5u);
  EXPECT_NEAR(report.totals.bytes, 500.0 * 700, 500.0 * 700 * 0.2);

  // The monitor is fresh: epoch advanced, no flows, zero totals.
  EXPECT_EQ(monitor.epoch(), 1u);
  EXPECT_EQ(monitor.table().size(), 0u);
  EXPECT_DOUBLE_EQ(monitor.totals().bytes, 0.0);
  EXPECT_FALSE(monitor.query(tuple(0)).has_value());
}

TEST(MonitorEpochs, CapacityAvailableAgainAfterRotate) {
  auto c = config();
  c.max_flows = 4;
  FlowMonitor monitor(c);
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(monitor.ingest(tuple(i), 100));
  EXPECT_FALSE(monitor.ingest(tuple(9), 100));
  (void)monitor.rotate();
  // New epoch: previously-rejected flow now fits.
  EXPECT_TRUE(monitor.ingest(tuple(9), 100));
}

TEST(MonitorEpochs, SuccessiveEpochsIndependent) {
  FlowMonitor monitor(config());
  for (int i = 0; i < 200; ++i) (void)monitor.ingest(tuple(1), 500);
  const auto first = monitor.rotate();
  for (int i = 0; i < 200; ++i) (void)monitor.ingest(tuple(1), 500);
  const auto second = monitor.rotate();
  EXPECT_EQ(second.epoch, 1u);
  // Same flow, same traffic: estimates agree across epochs within noise.
  ASSERT_EQ(first.flows.size(), 1u);
  ASSERT_EQ(second.flows.size(), 1u);
  EXPECT_NEAR(first.flows[0].bytes, second.flows[0].bytes,
              first.flows[0].bytes * 0.3);
}

}  // namespace
}  // namespace disco::flowtable
