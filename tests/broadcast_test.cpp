// Broadcast planner: correctness of all three Fig-3 topologies, plus
// parameterized properties (every worker reached exactly once, sources
// always hold the data before sending, fan-out cap respected per round,
// tree beats sequential makespan).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "storage/broadcast.hpp"

namespace vinelet::storage {
namespace {

TEST(BroadcastTest, ModeNames) {
  EXPECT_EQ(BroadcastModeName(BroadcastMode::kSequential), "sequential");
  EXPECT_EQ(BroadcastModeName(BroadcastMode::kSpanningTree), "spanning-tree");
  EXPECT_EQ(BroadcastModeName(BroadcastMode::kClustered), "clustered");
}

TEST(BroadcastTest, ZeroFanoutRejected) {
  BroadcastParams params;
  params.fanout_cap = 0;
  EXPECT_EQ(PlanBroadcast(params).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(BroadcastTest, ZeroClustersRejected) {
  BroadcastParams params;
  params.mode = BroadcastMode::kClustered;
  params.num_workers = 4;
  params.num_clusters = 0;
  EXPECT_EQ(PlanBroadcast(params).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(BroadcastTest, EmptyClusterIsFine) {
  BroadcastParams params;
  params.mode = BroadcastMode::kClustered;
  params.num_workers = 2;
  params.num_clusters = 4;  // two clusters end up empty
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 2u);
}

TEST(BroadcastTest, SequentialIsAllManagerSourced) {
  BroadcastParams params;
  params.mode = BroadcastMode::kSequential;
  params.num_workers = 5;
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 5u);
  for (std::size_t i = 0; i < plan->steps.size(); ++i) {
    EXPECT_EQ(plan->steps[i].source, TransferStep::kManagerSource);
    EXPECT_EQ(plan->steps[i].round, i);  // strictly one at a time
  }
  EXPECT_EQ(plan->rounds, 5u);
}

TEST(BroadcastTest, SpanningTreeGrowsGeometrically) {
  BroadcastParams params;
  params.mode = BroadcastMode::kSpanningTree;
  params.num_workers = 100;
  params.fanout_cap = 3;
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  // Holders: 1 -> 4 -> 16 -> 64 -> 256; rounds = 4 for 100 workers.
  EXPECT_LE(plan->rounds, 4u);
}

TEST(BroadcastTest, SequentialMakespanLinear) {
  BroadcastParams params;
  params.mode = BroadcastMode::kSequential;
  params.num_workers = 10;
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(EstimateMakespan(*plan, params, 2.0), 20.0);
}

TEST(BroadcastTest, TreeMakespanLogarithmic) {
  BroadcastParams params;
  params.mode = BroadcastMode::kSpanningTree;
  params.num_workers = 64;
  params.fanout_cap = 2;
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  const double makespan = EstimateMakespan(*plan, params, 1.0);
  // 64 workers, fanout 2: between log2-ish bounds, way under 64 sequential.
  EXPECT_LE(makespan, 12.0);
  EXPECT_GE(makespan, 4.0);
}

TEST(BroadcastTest, ClusteredChargesSlowLinkOnce) {
  BroadcastParams params;
  params.mode = BroadcastMode::kClustered;
  params.num_workers = 8;
  params.num_clusters = 2;
  params.fanout_cap = 2;
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  int manager_sends = 0;
  for (const auto& step : plan->steps)
    if (step.source == TransferStep::kManagerSource) ++manager_sends;
  EXPECT_EQ(manager_sends, 2);  // one seed per cluster

  // Intra-cluster edges never cross clusters.
  for (const auto& step : plan->steps) {
    if (step.source == TransferStep::kManagerSource) continue;
    EXPECT_EQ(static_cast<std::uint64_t>(step.source) % 2, step.dest % 2);
  }
}

// ---------------------------------------------------------------------------
// Properties over (mode, workers, fanout).
// ---------------------------------------------------------------------------

struct PlanCase {
  BroadcastMode mode;
  std::size_t workers;
  unsigned fanout;
  std::size_t clusters;
};

// gtest would otherwise print the struct's raw bytes, padding included, so
// a case's name could change from build to build.  Kept short: the name
// becomes part of each ctest name.
void PrintTo(const PlanCase& c, std::ostream* os) {
  *os << BroadcastModeName(c.mode) << " w=" << c.workers << " f=" << c.fanout
      << " c=" << c.clusters;
}

class BroadcastProperty : public ::testing::TestWithParam<PlanCase> {};

TEST_P(BroadcastProperty, EveryWorkerReachedExactlyOnce) {
  const PlanCase& c = GetParam();
  BroadcastParams params{c.mode, c.workers, c.fanout, c.clusters};
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  std::set<std::uint64_t> reached;
  for (const auto& step : plan->steps) {
    EXPECT_TRUE(reached.insert(step.dest).second)
        << "worker " << step.dest << " received twice";
  }
  EXPECT_EQ(reached.size(), c.workers);
  for (std::uint64_t w = 0; w < c.workers; ++w) EXPECT_TRUE(reached.contains(w));
}

TEST_P(BroadcastProperty, SourcesHoldDataBeforeSending) {
  const PlanCase& c = GetParam();
  BroadcastParams params{c.mode, c.workers, c.fanout, c.clusters};
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  std::map<std::int64_t, unsigned> received_round;
  for (const auto& step : plan->steps) {
    if (step.source != TransferStep::kManagerSource) {
      ASSERT_TRUE(received_round.contains(step.source))
          << "worker " << step.source << " sends before receiving";
      EXPECT_LT(received_round[step.source], step.round + 1)
          << "worker " << step.source << " sends in its own receive round";
    }
    received_round[static_cast<std::int64_t>(step.dest)] = step.round;
  }
}

TEST_P(BroadcastProperty, FanoutCapRespectedPerRound) {
  const PlanCase& c = GetParam();
  BroadcastParams params{c.mode, c.workers, c.fanout, c.clusters};
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  std::map<std::pair<std::int64_t, unsigned>, unsigned> sends;
  const unsigned cap =
      c.mode == BroadcastMode::kSequential ? 1 : c.fanout;
  for (const auto& step : plan->steps) {
    unsigned& count = sends[{step.source, step.round}];
    ++count;
    EXPECT_LE(count, cap) << "source " << step.source << " exceeds cap in round "
                          << step.round;
  }
}

TEST_P(BroadcastProperty, MakespanPositiveAndTreeNotWorseThanSequential) {
  const PlanCase& c = GetParam();
  BroadcastParams params{c.mode, c.workers, c.fanout, c.clusters};
  auto plan = PlanBroadcast(params);
  ASSERT_TRUE(plan.ok());
  const double makespan = EstimateMakespan(*plan, params, 1.0);
  if (c.workers > 0) {
    EXPECT_GT(makespan, 0.0);
  }
  if (c.mode == BroadcastMode::kSpanningTree) {
    BroadcastParams seq = params;
    seq.mode = BroadcastMode::kSequential;
    auto seq_plan = PlanBroadcast(seq);
    ASSERT_TRUE(seq_plan.ok());
    EXPECT_LE(makespan, EstimateMakespan(*seq_plan, seq, 1.0) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BroadcastProperty,
    ::testing::Values(
        PlanCase{BroadcastMode::kSequential, 1, 3, 2},
        PlanCase{BroadcastMode::kSequential, 17, 3, 2},
        PlanCase{BroadcastMode::kSpanningTree, 1, 1, 2},
        PlanCase{BroadcastMode::kSpanningTree, 16, 2, 2},
        PlanCase{BroadcastMode::kSpanningTree, 150, 3, 2},
        PlanCase{BroadcastMode::kSpanningTree, 97, 5, 2},
        PlanCase{BroadcastMode::kClustered, 10, 2, 2},
        PlanCase{BroadcastMode::kClustered, 150, 3, 3},
        PlanCase{BroadcastMode::kClustered, 7, 2, 5}));

// ---------------------------------------------------------------------------
// Pipelined (chunked, cut-through) planning.
// ---------------------------------------------------------------------------

TEST(ChunkCountTest, RoundsUpAndClampsToOne) {
  EXPECT_EQ(ChunkCount({0, 100}), 1u);       // empty blob is one empty chunk
  EXPECT_EQ(ChunkCount({1, 100}), 1u);
  EXPECT_EQ(ChunkCount({100, 100}), 1u);
  EXPECT_EQ(ChunkCount({101, 100}), 2u);
  EXPECT_EQ(ChunkCount({1000, 100}), 10u);
  EXPECT_EQ(ChunkCount({1000, 0}), 1u);      // degenerate chunk size
}

TEST(PipelinePlanTest, TreeShapeRespectsFanoutCap) {
  BroadcastParams params;
  params.num_workers = 64;
  params.fanout_cap = 3;
  auto plan = PlanPipelinedBroadcast(params, {572ull << 20, 4ull << 20});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->parent.size(), 64u);
  EXPECT_EQ(plan->children.size(), 64u);
  EXPECT_LE(plan->roots.size(), 3u);
  std::size_t reached = plan->roots.size();
  for (const auto& kids : plan->children) {
    EXPECT_LE(kids.size(), 3u);
    reached += kids.size();
  }
  EXPECT_EQ(reached, 64u);  // every worker has exactly one inbound edge
  // Geometric growth 3 + 9 + 27 covers 39 workers in 3 hops; 64 needs 4.
  EXPECT_EQ(plan->depth, 4u);
  // Parent indices agree with the children lists.
  for (std::size_t v = 0; v < 64; ++v) {
    if (plan->parent[v] == TransferStep::kManagerSource) continue;
    const auto& kids =
        plan->children[static_cast<std::size_t>(plan->parent[v])];
    EXPECT_NE(std::find(kids.begin(), kids.end(), v), kids.end());
  }
}

TEST(PipelinePlanTest, ZeroFanoutRejected) {
  BroadcastParams params;
  params.num_workers = 4;
  params.fanout_cap = 0;
  EXPECT_FALSE(PlanPipelinedBroadcast(params, {1000, 100}).ok());
}

TEST(PipelinedMakespanTest, ApproachesBlobTimePlusDepthChunks) {
  // 64 workers, fan-out 3, 572 MB blob in 4 MB chunks, 10 Gb/s worker links,
  // manager provisioned with fanout × worker bandwidth (each root edge runs
  // at full rate) — the Fig-3 pipelined configuration.
  constexpr double kLinkBps = 1.25e9;
  BroadcastParams params;
  params.num_workers = 64;
  params.fanout_cap = 3;
  const ChunkParams chunks{572ull << 20, 4ull << 20};
  auto plan = PlanPipelinedBroadcast(params, chunks);
  ASSERT_TRUE(plan.ok());
  const double makespan =
      EstimatePipelinedMakespan(*plan, chunks, kLinkBps, 3 * kLinkBps);
  const double blob_s = static_cast<double>(chunks.blob_bytes) / kLinkBps;
  const double chunk_s = static_cast<double>(chunks.chunk_bytes) / kLinkBps;
  // Cut-through recurrence: last chunk lands at blob_time plus one
  // chunk_time per additional hop (depth 4 → 3 extra hops).
  EXPECT_NEAR(makespan, blob_s + 3 * chunk_s, 1e-9);
}

TEST(PipelinedMakespanTest, BeatsWholeBlobTreeByRequiredMargin) {
  // Acceptance gate: ≥1.5× over the store-and-forward spanning tree at the
  // paper's Fig-3 scale (it is ~3.7× analytically).
  constexpr double kLinkBps = 1.25e9;
  BroadcastParams params;
  params.num_workers = 64;
  params.fanout_cap = 3;
  const ChunkParams chunks{572ull << 20, 4ull << 20};
  const double blob_s = static_cast<double>(chunks.blob_bytes) / kLinkBps;

  auto tree = PlanBroadcast(params);
  ASSERT_TRUE(tree.ok());
  const double whole_blob = EstimateMakespan(*tree, params, blob_s);

  auto pipeline = PlanPipelinedBroadcast(params, chunks);
  ASSERT_TRUE(pipeline.ok());
  const double pipelined =
      EstimatePipelinedMakespan(*pipeline, chunks, kLinkBps, 3 * kLinkBps);
  EXPECT_GE(whole_blob / pipelined, 1.5);
}

TEST(PipelinedMakespanTest, SingleChunkDegeneratesToStoreAndForward) {
  // chunk_bytes ≥ blob_bytes means one chunk: no pipelining is possible and
  // the estimate must reduce to depth × blob_time along the critical path.
  constexpr double kLinkBps = 1e9;
  BroadcastParams params;
  params.num_workers = 13;  // 3 + 9 + 1: depth 3 at fan-out 3
  params.fanout_cap = 3;
  const ChunkParams chunks{100ull << 20, 1ull << 30};
  auto plan = PlanPipelinedBroadcast(params, chunks);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_chunks, 1u);
  EXPECT_EQ(plan->depth, 3u);
  const double blob_s = static_cast<double>(chunks.blob_bytes) / kLinkBps;
  const double makespan =
      EstimatePipelinedMakespan(*plan, chunks, kLinkBps, 3 * kLinkBps);
  EXPECT_NEAR(makespan, 3 * blob_s, 1e-9);
}

TEST(PipelinedMakespanTest, SmallerChunksNeverSlower) {
  // Monotonicity across the Fig-3 chunk-size sweep: with zero per-chunk
  // overhead modeled, finer chunking can only shorten the pipeline.
  constexpr double kLinkBps = 1.25e9;
  BroadcastParams params;
  params.num_workers = 100;
  params.fanout_cap = 3;
  double previous = 0;
  for (const std::uint64_t mb : {256ull, 64ull, 16ull, 4ull, 1ull}) {
    const ChunkParams chunks{572ull << 20, mb << 20};
    auto plan = PlanPipelinedBroadcast(params, chunks);
    ASSERT_TRUE(plan.ok());
    const double makespan =
        EstimatePipelinedMakespan(*plan, chunks, kLinkBps, 3 * kLinkBps);
    if (previous > 0) {
      EXPECT_LE(makespan, previous + 1e-9);
    }
    previous = makespan;
  }
}

}  // namespace
}  // namespace vinelet::storage
