// NUMA layer unit tests (PR 10): sysfs topology parsing against a mocked
// node directory, policy parsing, graceful single-node degradation of
// numa_place, and end-to-end result identity with the policy on vs off.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/numa.hpp"
#include "per_test_path.hpp"
#include "runtime/runtime.hpp"

namespace atm {
namespace {

namespace fs = std::filesystem;

/// Scoped fake /sys/devices/system/node tree under the system temp dir, one
/// directory per test case so parallel ctest processes never share it.
class MockSysfs {
 public:
  MockSysfs() : root_(fs::temp_directory_path() / per_test_name("atm_numa_mock")) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~MockSysfs() { fs::remove_all(root_); }

  void add_node(unsigned id, const std::string& cpulist) {
    const fs::path dir = root_ / ("node" + std::to_string(id));
    fs::create_directories(dir);
    std::ofstream(dir / "cpulist") << cpulist;
  }

  [[nodiscard]] std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST(NumaTopology, DetectsMockedTwoNodeHost) {
  MockSysfs sysfs;
  sysfs.add_node(0, "0-3\n");
  sysfs.add_node(1, "4-7\n");
  const NumaTopology topo = NumaTopology::detect(sysfs.path());
  EXPECT_EQ(topo.node_count, 2u);
  EXPECT_TRUE(topo.multi_node());
  ASSERT_EQ(topo.node_cpus.size(), 2u);
  EXPECT_EQ(topo.node_cpus[0] + topo.node_cpus[1], 8u);
}

TEST(NumaTopology, ParsesCommaAndRangeCpulists) {
  MockSysfs sysfs;
  sysfs.add_node(0, "0-1,4,6-7\n");  // 2 + 1 + 2 CPUs
  sysfs.add_node(1, "2-3,5\n");      // 2 + 1 CPUs
  const NumaTopology topo = NumaTopology::detect(sysfs.path());
  ASSERT_EQ(topo.node_count, 2u);
  EXPECT_EQ(topo.node_cpus[0] + topo.node_cpus[1], 8u);
}

TEST(NumaTopology, MissingDirectoryFallsBackToSingleNode) {
  const NumaTopology topo = NumaTopology::detect("/nonexistent/numa/path");
  EXPECT_EQ(topo.node_count, 1u);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_TRUE(topo.node_cpus.empty());
}

TEST(NumaTopology, MemoryOnlyNodesAndJunkEntriesAreSkipped) {
  MockSysfs sysfs;
  sysfs.add_node(0, "0-7\n");
  sysfs.add_node(1, "\n");  // memory-only node: no CPUs
  fs::create_directories(fs::path(sysfs.path()) / "nodeX");   // junk name
  fs::create_directories(fs::path(sysfs.path()) / "online");  // non-node file
  const NumaTopology topo = NumaTopology::detect(sysfs.path());
  // Only node0 counts, so the host reads as single-node.
  EXPECT_EQ(topo.node_count, 1u);
  EXPECT_FALSE(topo.multi_node());
}

TEST(NumaPolicyParse, AcceptsAllSpellings) {
  NumaPolicy p = NumaPolicy::Off;
  EXPECT_TRUE(parse_numa_policy("off", &p));
  EXPECT_EQ(p, NumaPolicy::Off);
  EXPECT_TRUE(parse_numa_policy("none", &p));
  EXPECT_EQ(p, NumaPolicy::Off);
  EXPECT_TRUE(parse_numa_policy("first-touch", &p));
  EXPECT_EQ(p, NumaPolicy::FirstTouch);
  EXPECT_TRUE(parse_numa_policy("local", &p));
  EXPECT_EQ(p, NumaPolicy::FirstTouch);
  EXPECT_TRUE(parse_numa_policy("interleave", &p));
  EXPECT_EQ(p, NumaPolicy::Interleave);
  // Bare --numa (empty value) means interleave.
  p = NumaPolicy::Off;
  EXPECT_TRUE(parse_numa_policy("", &p));
  EXPECT_EQ(p, NumaPolicy::Interleave);
  // Junk is rejected and leaves the output alone.
  EXPECT_FALSE(parse_numa_policy("bogus", &p));
  EXPECT_EQ(p, NumaPolicy::Interleave);
  EXPECT_STREQ(numa_policy_name(NumaPolicy::FirstTouch), "first-touch");
}

TEST(NumaPlace, SingleNodeAndOffAreNoOps) {
  std::vector<unsigned char> buf(64 * 1024, 0xAB);
  const NumaTopology single{};  // node_count == 1
  // Off policy, single-node topology, null/empty ranges: all must be inert.
  numa_place(buf.data(), buf.size(), NumaPolicy::Off, single);
  numa_place(buf.data(), buf.size(), NumaPolicy::Interleave, single);
  numa_place(nullptr, 4096, NumaPolicy::Interleave, single);
  numa_place(buf.data(), 0, NumaPolicy::Interleave, single);
  for (unsigned char c : buf) ASSERT_EQ(c, 0xAB);
}

TEST(NumaPlace, MultiNodePoliciesPreserveContents) {
  // A mocked multi-node topology forces the placement paths to run even on
  // a single-node host: first-touch pre-faults every page, interleave
  // issues a best-effort mbind (which may fail — that must be silent).
  NumaTopology topo;
  topo.node_count = 2;
  topo.node_cpus = {4, 4};
  std::vector<unsigned char> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131u);
  }
  std::vector<unsigned char> expect = buf;
  numa_place(buf.data(), buf.size(), NumaPolicy::FirstTouch, topo);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  numa_place(buf.data(), buf.size(), NumaPolicy::Interleave, topo);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
  // Sub-page range: interleave has no whole page to bind and must return.
  numa_place(buf.data() + 1, 100, NumaPolicy::Interleave, topo);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
}

// End-to-end identity: the same dependence-ordered workload produces the
// same results with placement on or off (placement is a hint, never a
// correctness dependency), through the real arena + tracker plumbing.
TEST(NumaRuntime, PolicyDoesNotChangeResults) {
  auto run = [](NumaPolicy policy) {
    rt::RuntimeConfig cfg{.num_threads = 4, .sched = rt::SchedPolicy::Steal};
    cfg.numa_policy = policy;
    rt::Runtime runtime(cfg);
    const auto* type =
        runtime.register_type({.name = "t", .memoizable = false, .atm = {}});
    std::vector<double> cells(256, 1.0);
    for (int wave = 0; wave < 8; ++wave) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        runtime.submit(type, [&cells, i] { cells[i] = cells[i] * 1.5 + 0.25; },
                       {rt::inout(&cells[i], 1)});
      }
    }
    runtime.taskwait();
    return cells;
  };
  const std::vector<double> off = run(NumaPolicy::Off);
  const std::vector<double> first_touch = run(NumaPolicy::FirstTouch);
  const std::vector<double> interleave = run(NumaPolicy::Interleave);
  EXPECT_EQ(off, first_touch);
  EXPECT_EQ(off, interleave);
}

}  // namespace
}  // namespace atm
