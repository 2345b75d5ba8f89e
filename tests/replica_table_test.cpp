// ReplicaTable: replica tracking, source selection under fan-out caps, and
// worker-departure cleanup.
#include <gtest/gtest.h>

#include <map>

#include "storage/replica_table.hpp"

namespace vinelet::storage {
namespace {

hash::ContentId Id(int n) {
  return hash::ContentId::OfText("file-" + std::to_string(n));
}

TEST(ReplicaTableTest, AddRemoveReplicas) {
  ReplicaTable table;
  table.AddReplica(Id(1), 10);
  table.AddReplica(Id(1), 11);
  EXPECT_TRUE(table.HasReplica(Id(1), 10));
  EXPECT_EQ(table.ReplicaCount(Id(1)), 2u);
  EXPECT_EQ(table.Holders(Id(1)), (std::vector<WorkerId>{10, 11}));
  table.RemoveReplica(Id(1), 10);
  EXPECT_FALSE(table.HasReplica(Id(1), 10));
  EXPECT_EQ(table.ReplicaCount(Id(1)), 1u);
}

TEST(ReplicaTableTest, AddIsIdempotent) {
  ReplicaTable table;
  table.AddReplica(Id(1), 10);
  table.AddReplica(Id(1), 10);
  EXPECT_EQ(table.ReplicaCount(Id(1)), 1u);
}

TEST(ReplicaTableTest, RemoveWorkerForgetsEverything) {
  ReplicaTable table;
  table.AddReplica(Id(1), 10);
  table.AddReplica(Id(2), 10);
  table.AddReplica(Id(2), 11);
  table.BeginTransfer(SourceChoice{false, 10});
  table.RemoveWorker(10);
  EXPECT_EQ(table.ReplicaCount(Id(1)), 0u);
  EXPECT_EQ(table.ReplicaCount(Id(2)), 1u);
  EXPECT_EQ(table.OutboundInFlight(10), 0u);
}

TEST(ReplicaTableTest, NoReplicaFallsBackToManager) {
  ReplicaTable table;
  auto source = table.PickSource(Id(1), 5, true);
  EXPECT_TRUE(source.from_manager);
}

TEST(ReplicaTableTest, PeerPreferredWhenAvailable) {
  ReplicaTable table;
  table.AddReplica(Id(1), 10);
  auto source = table.PickSource(Id(1), 5, true);
  EXPECT_FALSE(source.from_manager);
  EXPECT_EQ(source.peer, 10u);
}

TEST(ReplicaTableTest, RequesterNeverPicksItself) {
  ReplicaTable table;
  table.AddReplica(Id(1), 5);
  auto source = table.PickSource(Id(1), 5, true);
  EXPECT_TRUE(source.from_manager);  // only holder is the requester
}

TEST(ReplicaTableTest, PeerTransferDisabledUsesManager) {
  ReplicaTable table;
  table.AddReplica(Id(1), 10);
  auto source = table.PickSource(Id(1), 5, false);
  EXPECT_TRUE(source.from_manager);
}

TEST(ReplicaTableTest, LeastLoadedPeerChosen) {
  ReplicaTable table(/*worker_outbound_cap=*/3);
  table.AddReplica(Id(1), 10);
  table.AddReplica(Id(1), 11);
  table.BeginTransfer(SourceChoice{false, 10});
  table.BeginTransfer(SourceChoice{false, 10});
  auto source = table.PickSource(Id(1), 5, true);
  EXPECT_EQ(source.peer, 11u);
}

TEST(ReplicaTableTest, SaturatedPeersFallBackToManager) {
  ReplicaTable table(/*worker_outbound_cap=*/1);
  table.AddReplica(Id(1), 10);
  table.BeginTransfer(SourceChoice{false, 10});  // peer at cap
  auto source = table.PickSource(Id(1), 5, true);
  EXPECT_TRUE(source.from_manager);
}

TEST(ReplicaTableTest, TransferAccounting) {
  ReplicaTable table;
  const SourceChoice peer{false, 7};
  table.BeginTransfer(peer);
  table.BeginTransfer(peer);
  EXPECT_EQ(table.OutboundInFlight(7), 2u);
  table.EndTransfer(peer);
  EXPECT_EQ(table.OutboundInFlight(7), 1u);
  table.EndTransfer(peer);
  table.EndTransfer(peer);  // over-end is clamped, not underflowed
  EXPECT_EQ(table.OutboundInFlight(7), 0u);

  const SourceChoice manager{true, 0};
  table.BeginTransfer(manager);
  EXPECT_EQ(table.ManagerOutboundInFlight(), 1u);
  table.EndTransfer(manager);
  EXPECT_EQ(table.ManagerOutboundInFlight(), 0u);
}

TEST(ReplicaTableTest, FanoutCapSpreadsLoad) {
  // With cap N, picking sources for many requesters must rotate among
  // holders rather than hammering one.
  ReplicaTable table(/*worker_outbound_cap=*/2);
  table.AddReplica(Id(1), 1);
  table.AddReplica(Id(1), 2);
  int manager_picks = 0;
  std::map<WorkerId, int> peer_picks;
  for (WorkerId requester = 100; requester < 106; ++requester) {
    auto source = table.PickSource(Id(1), requester, true);
    if (source.from_manager) {
      ++manager_picks;
    } else {
      ++peer_picks[source.peer];
      table.BeginTransfer(source);
    }
  }
  // 2 holders x cap 2 = 4 peer transfers, the remaining 2 from the manager.
  EXPECT_EQ(manager_picks, 2);
  EXPECT_EQ(peer_picks[1], 2);
  EXPECT_EQ(peer_picks[2], 2);
}

}  // namespace
}  // namespace vinelet::storage
