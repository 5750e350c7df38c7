// Smoke tests for the CLI tools: invoke the real binaries end to end and
// validate their outputs (generation -> file format -> analysis).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/export.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_io.hpp"

#ifndef DISCO_TOOLS_DIR
#error "DISCO_TOOLS_DIR must be defined by the build"
#endif

namespace disco {
namespace {

std::string tool(const std::string& name) {
  return std::string(DISCO_TOOLS_DIR) + "/" + name;
}

int run(const std::string& command) {
  const int status = std::system(command.c_str());
  return status;
}

TEST(Tools, TracegenUsageErrorOnNoArgs) {
  EXPECT_NE(run(tool("disco_tracegen") + " >/dev/null 2>&1"), 0);
}

TEST(Tools, TracegenWritesParsableDtrc) {
  const std::string path = ::testing::TempDir() + "/tools_test.dtrc";
  ASSERT_EQ(run(tool("disco_tracegen") + " scenario1 20 " + path +
                " --seed 5 >/dev/null"),
            0);
  const auto data = trace::read_trace_file(path);
  EXPECT_EQ(data.flow_count, 20u);
  EXPECT_GT(data.packets.size(), 0u);
  std::remove(path.c_str());
}

TEST(Tools, TracegenWritesParsablePcap) {
  const std::string path = ::testing::TempDir() + "/tools_test.pcap";
  ASSERT_EQ(run(tool("disco_tracegen") + " scenario3 10 " + path +
                " --burst 1:4 >/dev/null"),
            0);
  const auto packets = trace::read_pcap_file(path);
  EXPECT_GT(packets.size(), 0u);
  std::remove(path.c_str());
}

TEST(Tools, TracegenRejectsUnknownScenario) {
  EXPECT_NE(run(tool("disco_tracegen") + " bogus 10 /tmp/x.dtrc >/dev/null 2>&1"),
            0);
}

TEST(Tools, AnalyzeRunsOnGeneratedTrace) {
  const std::string path = ::testing::TempDir() + "/tools_analyze.dtrc";
  ASSERT_EQ(run(tool("disco_tracegen") + " real 50 " + path + " >/dev/null"), 0);
  EXPECT_EQ(run(tool("disco_analyze") + " " + path +
                " --bits 10 --methods DISCO,SAC --top 2 >/dev/null"),
            0);
  std::remove(path.c_str());
}

TEST(Tools, AnalyzeWithConfidenceIntervals) {
  const std::string path = ::testing::TempDir() + "/tools_ci.dtrc";
  ASSERT_EQ(run(tool("disco_tracegen") + " scenario2 30 " + path + " >/dev/null"), 0);
  EXPECT_EQ(run(tool("disco_analyze") + " " + path +
                " --bits 12 --methods DISCO --ci >/dev/null"),
            0);
  std::remove(path.c_str());
}

TEST(Tools, AnalyzeFailsOnMissingFile) {
  EXPECT_NE(run(tool("disco_analyze") + " /nonexistent.dtrc >/dev/null 2>&1"), 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Tools, AnalyzeModulesReplayIsDeterministic) {
  // The --modules replay drives a threaded PipelineMonitor (four workers)
  // and drains before every rotate, so the module reports must not depend
  // on thread timing: two runs on one trace print the same bytes.
  const std::string trace_path = ::testing::TempDir() + "/tools_replay.dtrc";
  ASSERT_EQ(run(tool("disco_tracegen") + " real 200 " + trace_path +
                " >/dev/null"),
            0);
  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    const std::string out_path =
        ::testing::TempDir() + "/tools_replay_" + std::to_string(i) + ".json";
    ASSERT_EQ(run(tool("disco_analyze") + " " + trace_path +
                  " --bits 10 --methods DISCO --modules all --epochs 4"
                  " --modules-json > " + out_path),
              0);
    outputs[i] = read_file(out_path);
    std::remove(out_path.c_str());
  }
  EXPECT_NE(outputs[0].find("\"modules\""), std::string::npos);
  EXPECT_EQ(outputs[0], outputs[1]);
  std::remove(trace_path.c_str());
}

TEST(Tools, AnalyzeMetricsEmitsParsableTelemetrySnapshot) {
  const std::string trace_path = ::testing::TempDir() + "/tools_metrics.dtrc";
  const std::string out_path = ::testing::TempDir() + "/tools_metrics.out";
  ASSERT_EQ(run(tool("disco_tracegen") + " real 60 " + trace_path + " >/dev/null"), 0);
  ASSERT_EQ(run(tool("disco_analyze") + " " + trace_path +
                " --bits 10 --methods DISCO --metrics > " + out_path),
            0);
  std::ifstream in(out_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string output = buffer.str();
  const auto marker = output.find("telemetry snapshot:\n");
  ASSERT_NE(marker, std::string::npos);
  const auto snapshot = disco::telemetry::snapshot_from_json(
      output.substr(marker + std::string("telemetry snapshot:\n").size()));
  // The replay must surface the operational signals: per-worker ingests
  // and the probe-length histogram.
  std::uint64_t ingests = 0;
  bool probe_hist = false;
  for (const auto& m : snapshot.metrics) {
    if (m.name.find(".worker_") != std::string::npos &&
        m.name.ends_with(".ingest_total")) {
      ingests += static_cast<std::uint64_t>(m.value);
    }
    if (m.name == "flow_table.probe_length") {
      probe_hist = m.histogram.count > 0;
    }
  }
  EXPECT_GT(ingests, 0u);
  EXPECT_TRUE(probe_hist);
  std::remove(trace_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace disco
