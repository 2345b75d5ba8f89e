// Worker protocol conformance: a fake manager endpoint drives a real Worker
// with crafted frames and asserts on the exact replies — including the
// corruption-detection (FileFailed) and malformed-frame paths that the
// integrated runtime tests cannot reach deterministically.
#include <gtest/gtest.h>

#include <chrono>

#include "core/protocol.hpp"
#include "core/worker.hpp"
#include "net/fault.hpp"
#include "poncho/packer.hpp"
#include "storage/broadcast.hpp"

namespace vinelet::core {
namespace {

using namespace std::chrono_literals;
using serde::InvocationEnv;
using serde::Value;

class WorkerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serde::FunctionDef echo;
    echo.name = "echo";
    echo.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
      return args;
    };
    ASSERT_TRUE(registry_.RegisterFunction(echo).ok());

    serde::ContextSetupDef setup;
    setup.name = "noop_setup";
    setup.fn = [](const Value&, const InvocationEnv&)
        -> Result<serde::ContextHandle> { return serde::ContextHandle(); };
    ASSERT_TRUE(registry_.RegisterSetup(setup).ok());

    serde::FunctionDef fails;
    fails.name = "fails";
    fails.fn = [](const Value&, const InvocationEnv&) -> Result<Value> {
      return InternalError("nope");
    };
    ASSERT_TRUE(registry_.RegisterFunction(fails).ok());

    network_ = std::make_shared<net::Network>();
    auto inbox = network_->Register(net::kManagerEndpoint);
    ASSERT_TRUE(inbox.ok());
    manager_inbox_ = *inbox;

    WorkerConfig config;
    config.id = 1;
    config.registry = &registry_;
    worker_ = std::make_unique<Worker>(network_, config);
    ASSERT_TRUE(worker_->Start().ok());

    // Consume the Hello.
    auto hello = NextMessage();
    ASSERT_TRUE(std::holds_alternative<HelloMsg>(hello));
  }

  void TearDown() override {
    worker_->Stop();
    network_->Unregister(net::kManagerEndpoint);
  }

  /// Sends a checksummed frame, attachment and all, as the manager does.
  /// (The raw EncodeMessage form carries no checksum, so a worker drops it.)
  void SendToWorker(const Message& message) { SendFrameToWorker(message); }

  /// Sends via the attachment-bearing frame form, like real peers do.
  void SendFrameToWorker(const Message& message) {
    WireFrame wire = EncodeFrame(message);
    ASSERT_TRUE(network_
                    ->Send(net::kManagerEndpoint, 1, std::move(wire.payload),
                           std::move(wire.attachment))
                    .ok());
  }

  /// Receives and decodes the next worker->manager message (10 s budget).
  Message NextMessage() {
    auto frame = manager_inbox_->RecvFor(10s);
    EXPECT_TRUE(frame.has_value()) << "no message from worker";
    if (!frame.has_value()) return Message(GoodbyeMsg{});
    auto message = DecodeFrame(*frame);
    EXPECT_TRUE(message.ok()) << message.status().ToString();
    return message.ok() ? *message : Message(GoodbyeMsg{});
  }

  storage::FileDecl Declare(const std::string& name, const Blob& payload,
                            bool unpack = false) {
    storage::FileDecl decl;
    decl.name = name;
    decl.id = hash::ContentId::Of(payload);
    decl.size = payload.size();
    decl.unpack = unpack;
    return decl;
  }

  serde::FunctionRegistry registry_;
  std::shared_ptr<net::Network> network_;
  std::shared_ptr<net::Inbox> manager_inbox_;
  std::unique_ptr<Worker> worker_;
};

TEST_F(WorkerProtocolTest, PutFileAcknowledgedWithFileReady) {
  const Blob payload = Blob::FromString("bytes");
  const auto decl = Declare("data", payload);
  SendToWorker(PutFileMsg{decl, payload, {}});
  auto reply = NextMessage();
  auto* ready = std::get_if<FileReadyMsg>(&reply);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->content_id, decl.id);
  EXPECT_EQ(ready->size, payload.size());
  EXPECT_TRUE(worker_->store().Contains(decl.id));
}

TEST_F(WorkerProtocolTest, CorruptPutFileRejectedWithFileFailed) {
  const Blob good = Blob::FromString("original content");
  const auto decl = Declare("data", good);
  // Payload does not match the declared content id: must be rejected, never
  // cached — the silent-corruption hazard of §2.2.2.
  SendToWorker(PutFileMsg{decl, Blob::FromString("tampered content!"), {}});
  auto reply = NextMessage();
  auto* failed = std::get_if<FileFailedMsg>(&reply);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->content_id, decl.id);
  EXPECT_FALSE(failed->error.empty());
  EXPECT_FALSE(worker_->store().Contains(decl.id));
}

TEST_F(WorkerProtocolTest, PushFileForwardsToPeer) {
  // Register a peer endpoint, stage a file on the worker, instruct a push.
  auto peer_inbox = network_->Register(2);
  ASSERT_TRUE(peer_inbox.ok());
  const Blob payload = Blob::FromString("replicate me");
  const auto decl = Declare("data", payload);
  SendToWorker(PutFileMsg{decl, payload, {}});
  (void)NextMessage();  // FileReady

  SendToWorker(PushFileMsg{decl, 2, {}});
  auto frame = (*peer_inbox)->RecvFor(10s);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 1u);  // worker-to-worker, not via the manager
  auto message = DecodeFrame(*frame);
  ASSERT_TRUE(message.ok());
  auto* put = std::get_if<PutFileMsg>(&*message);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->payload, payload);
  // Zero-copy path: the forwarded payload must ride in the frame attachment
  // and share the worker's cached allocation — no byte copy on the relay.
  auto stored = worker_->store().Get(decl.id);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(frame->attachment.SharesPayloadWith(*stored));
  EXPECT_TRUE(put->payload.SharesPayloadWith(*stored));
  network_->Unregister(2);
}

// ---------------------------------------------------------------------------
// Chunked pipelined distribution.
// ---------------------------------------------------------------------------

/// A deterministic payload whose chunks are all distinct.
Blob PatternBlob(std::size_t size) {
  std::string text(size, '\0');
  for (std::size_t i = 0; i < size; ++i)
    text[i] = static_cast<char>('a' + (i * 31 + i / 257) % 23);
  return Blob::FromString(std::move(text));
}

/// Splits `payload` into PutChunkMsg-shaped slices of `chunk_bytes`.
std::vector<PutChunkMsg> MakeChunks(const storage::FileDecl& decl,
                                    const Blob& payload,
                                    std::uint64_t chunk_bytes) {
  const auto n =
      storage::ChunkCount(storage::ChunkParams{payload.size(), chunk_bytes});
  std::vector<PutChunkMsg> chunks;
  for (std::uint64_t k = 0; k < n; ++k) {
    PutChunkMsg msg;
    msg.decl = decl;
    msg.chunk_index = k;
    msg.num_chunks = n;
    msg.chunk_bytes = chunk_bytes;
    msg.chunk = payload.Slice(static_cast<std::size_t>(k * chunk_bytes),
                              static_cast<std::size_t>(chunk_bytes));
    chunks.push_back(std::move(msg));
  }
  return chunks;
}

TEST_F(WorkerProtocolTest, ChunkedPutReassemblesOutOfOrderWithDuplicates) {
  const Blob payload = PatternBlob(1000);
  const auto decl = Declare("chunked", payload);
  auto chunks = MakeChunks(decl, payload, 300);  // 300,300,300,100
  ASSERT_EQ(chunks.size(), 4u);
  // Out of order, with a duplicate in the middle: reassembly must dedup and
  // only admit once every index is present.
  for (std::size_t k : {2u, 0u, 3u, 2u, 1u}) SendFrameToWorker(chunks[k]);
  auto reply = NextMessage();
  auto* ready = std::get_if<FileReadyMsg>(&reply);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->content_id, decl.id);
  auto stored = worker_->store().Get(decl.id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, payload);
}

TEST_F(WorkerProtocolTest, ChunkRelayIsCutThroughAndZeroCopy) {
  auto peer_inbox = network_->Register(2);
  ASSERT_TRUE(peer_inbox.ok());
  const Blob payload = PatternBlob(512);
  const auto decl = Declare("relayed", payload);
  auto chunks = MakeChunks(decl, payload, 256);
  ASSERT_EQ(chunks.size(), 2u);
  ChunkRoute leaf;
  leaf.dest = 2;
  chunks[0].children = {leaf};

  // Chunk 0 alone must be forwarded to the peer immediately — before the
  // worker could possibly have assembled (or even seen) the full blob.
  SendFrameToWorker(chunks[0]);
  auto relayed = (*peer_inbox)->RecvFor(10s);
  ASSERT_TRUE(relayed.has_value());
  EXPECT_EQ(relayed->sender, 1u);
  auto message = DecodeFrame(*relayed);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  auto* put = std::get_if<PutChunkMsg>(&*message);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->chunk_index, 0u);
  EXPECT_EQ(put->num_chunks, 2u);
  EXPECT_TRUE(put->children.empty());  // leaf consumed its hop of the route
  // The relayed bytes are the original allocation, end to end: test blob ->
  // frame to worker -> decoded chunk -> re-encoded frame to peer.  No copy.
  EXPECT_TRUE(relayed->attachment.SharesPayloadWith(payload));
  EXPECT_TRUE(put->chunk.SharesPayloadWith(payload));

  // Completing the remaining chunk admits the file on the relay itself.
  SendFrameToWorker(chunks[1]);
  auto reply = NextMessage();
  ASSERT_NE(std::get_if<FileReadyMsg>(&reply), nullptr);
  EXPECT_TRUE(worker_->store().Contains(decl.id));
  network_->Unregister(2);
}

TEST_F(WorkerProtocolTest, CorruptChunkRejectedAtReassembly) {
  const Blob payload = PatternBlob(600);
  const auto decl = Declare("tampered", payload);
  auto chunks = MakeChunks(decl, payload, 200);
  ASSERT_EQ(chunks.size(), 3u);
  chunks[1].chunk = Blob::FromString(std::string(200, '!'));  // same size
  for (auto& chunk : chunks) SendFrameToWorker(chunk);
  auto reply = NextMessage();
  auto* failed = std::get_if<FileFailedMsg>(&reply);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->content_id, decl.id);
  EXPECT_FALSE(worker_->store().Contains(decl.id));
}

TEST_F(WorkerProtocolTest, ChunkRelayToDeadPeerStillAssemblesLocally) {
  const Blob payload = PatternBlob(400);
  const auto decl = Declare("undeliverable", payload);
  auto chunks = MakeChunks(decl, payload, 200);
  ChunkRoute ghost;
  ghost.dest = 99;  // never registered: every forward fails
  for (auto& chunk : chunks) {
    chunk.children = {ghost};
    SendFrameToWorker(chunk);
  }
  // Relay failures must not block local reassembly (the manager heals the
  // subtree separately).
  auto reply = NextMessage();
  ASSERT_NE(std::get_if<FileReadyMsg>(&reply), nullptr);
  EXPECT_TRUE(worker_->store().Contains(decl.id));
}

TEST_F(WorkerProtocolTest, DuplicateChunkAfterAdmissionReconfirms) {
  const Blob payload = PatternBlob(300);
  const auto decl = Declare("probe", payload);
  auto chunks = MakeChunks(decl, payload, 150);
  for (auto& chunk : chunks) SendFrameToWorker(chunk);
  auto first = NextMessage();
  ASSERT_NE(std::get_if<FileReadyMsg>(&first), nullptr);
  // The manager's liveness probe re-sends chunk 0 to unconfirmed workers; a
  // worker that already holds the file must answer FileReady again.
  SendFrameToWorker(chunks[0]);
  auto again = NextMessage();
  auto* ready = std::get_if<FileReadyMsg>(&again);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->content_id, decl.id);
}

TEST_F(WorkerProtocolTest, PushOfUnknownFileReportsFailure) {
  storage::FileDecl decl;
  decl.name = "ghost";
  decl.id = hash::ContentId::OfText("never stored");
  SendToWorker(PushFileMsg{decl, 2, {}});
  auto reply = NextMessage();
  EXPECT_NE(std::get_if<FileFailedMsg>(&reply), nullptr);
}

TEST_F(WorkerProtocolTest, ExecuteTaskReturnsResultAndTimings) {
  ExecuteTaskMsg msg;
  msg.task.id = 99;
  msg.task.function_name = "echo";
  msg.task.args = Value::Dict({{"k", Value(7)}}).ToBlob();
  SendToWorker(msg);
  auto reply = NextMessage();
  auto* done = std::get_if<TaskDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->id, 99u);
  ASSERT_TRUE(done->ok) << done->error;
  auto value = Value::FromBlob(done->result);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Get("k").AsInt(), 7);
  EXPECT_GE(done->timing.exec_s, 0.0);
}

TEST_F(WorkerProtocolTest, ExecuteTaskWithCorruptInlineFileFails) {
  const Blob good = Blob::FromString("expected");
  ExecuteTaskMsg msg;
  msg.task.id = 100;
  msg.task.function_name = "echo";
  msg.task.args = Value().ToBlob();
  msg.task.inline_files.emplace_back(Declare("input", good),
                                     Blob::FromString("not it"));
  SendToWorker(msg);
  auto reply = NextMessage();
  auto* done = std::get_if<TaskDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(done->ok);
  EXPECT_NE(done->error.find("corrupt"), std::string::npos);
}

TEST_F(WorkerProtocolTest, ExecuteTaskMissingCachedInputFails) {
  ExecuteTaskMsg msg;
  msg.task.id = 101;
  msg.task.function_name = "echo";
  msg.task.args = Value().ToBlob();
  msg.task.inputs.push_back(Declare("absent", Blob::FromString("xyz")));
  SendToWorker(msg);
  auto reply = NextMessage();
  auto* done = std::get_if<TaskDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(done->ok);
}

TEST_F(WorkerProtocolTest, FunctionErrorPropagatesThroughTaskDone) {
  ExecuteTaskMsg msg;
  msg.task.id = 102;
  msg.task.function_name = "fails";
  msg.task.args = Value().ToBlob();
  SendToWorker(msg);
  auto reply = NextMessage();
  auto* done = std::get_if<TaskDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(done->ok);
  EXPECT_NE(done->error.find("nope"), std::string::npos);
}

TEST_F(WorkerProtocolTest, LibraryLifecycleOverRawProtocol) {
  // Stage the serialized function, install a library, run an invocation,
  // remove the library — all via raw frames.
  const Blob fn_blob = serde::SerializedFunction::Serialize("echo");
  auto fn_decl = Declare("fn:echo", fn_blob);
  fn_decl.kind = storage::FileKind::kSerializedFunction;
  SendToWorker(PutFileMsg{fn_decl, fn_blob, {}});
  (void)NextMessage();  // FileReady

  InstallLibraryMsg install;
  install.instance_id = 5;
  install.spec.name = "lib";
  install.spec.function_names = {"echo"};
  install.spec.setup_name = "noop_setup";
  install.spec.setup_args = Value().ToBlob();
  install.spec.inputs = {fn_decl};
  SendToWorker(install);
  auto ready_reply = NextMessage();
  auto* ready = std::get_if<LibraryReadyMsg>(&ready_reply);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->instance_id, 5u);
  EXPECT_EQ(worker_->libraries_hosted(), 1u);

  SendToWorker(RunInvocationMsg{77, 5, "echo", Value(123).ToBlob(), {}, {}});
  auto done_reply = NextMessage();
  auto* done = std::get_if<InvocationDoneMsg>(&done_reply);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->id, 77u);
  EXPECT_EQ(done->instance_id, 5u);
  ASSERT_TRUE(done->ok) << done->error;
  EXPECT_EQ(Value::FromBlob(done->result)->AsInt(), 123);

  SendToWorker(RemoveLibraryMsg{5});
  auto removed_reply = NextMessage();
  EXPECT_NE(std::get_if<LibraryRemovedMsg>(&removed_reply), nullptr);
  EXPECT_EQ(worker_->libraries_hosted(), 0u);
}

TEST_F(WorkerProtocolTest, InstallWithMissingInputReportsRemoval) {
  InstallLibraryMsg install;
  install.instance_id = 6;
  install.spec.name = "broken";
  install.spec.function_names = {"echo"};
  install.spec.setup_args = Value().ToBlob();
  install.spec.inputs.push_back(Declare("never-staged",
                                        Blob::FromString("x")));
  SendToWorker(install);
  // Setup fails on the missing input; the worker reports the instance gone
  // so the manager can release resources and retry elsewhere.
  auto reply = NextMessage();
  auto* removed = std::get_if<LibraryRemovedMsg>(&reply);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->instance_id, 6u);
  EXPECT_EQ(worker_->libraries_hosted(), 0u);
}

TEST_F(WorkerProtocolTest, InvocationAgainstUnknownInstanceFails) {
  SendToWorker(RunInvocationMsg{88, 999, "echo", Value(1).ToBlob(), {}, {}});
  auto reply = NextMessage();
  auto* done = std::get_if<InvocationDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->id, 88u);
  // Failures the worker makes up itself still name the instance, so the
  // manager can find the call's slot without a scan.
  EXPECT_EQ(done->instance_id, 999u);
  EXPECT_FALSE(done->ok);
}

TEST_F(WorkerProtocolTest, DamagedRefFetchFailsTheParkedCallThenRetrySucceeds) {
  // A ref argument whose replica lives on peer 2.  The first BlobData reply
  // has one attachment bit flipped after EncodeFrame: the frame CRC turns it
  // into a miss, so the parked call fails its fetch (the manager would
  // retry it) and nothing reaches the store.  The retried call fetches an
  // intact copy and computes on the exact bytes.
  auto peer_inbox = network_->Register(2);
  ASSERT_TRUE(peer_inbox.ok());
  InstallLibraryMsg install;
  install.instance_id = 5;
  install.spec.name = "lib";
  install.spec.function_names = {"echo"};
  install.spec.setup_args = Value().ToBlob();
  SendToWorker(install);
  auto ready_reply = NextMessage();
  ASSERT_NE(std::get_if<LibraryReadyMsg>(&ready_reply), nullptr);

  const Blob payload = Value(std::string(4096, 'r')).ToBlob();
  const BlobRef ref{hash::ContentId::Assigned(2, 7, 1), payload.size(), 2};
  RunInvocationMsg run{90, 5, "echo", Value::List({WrapRef(ref)}).ToBlob(),
                       {RefArg{0, ref, 2}}, {}};

  const auto serve = [&](bool damage) {
    auto fetch_frame = (*peer_inbox)->RecvFor(10s);
    ASSERT_TRUE(fetch_frame.has_value()) << "worker never fetched";
    auto fetch = DecodeFrame(*fetch_frame);
    ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
    auto* request = std::get_if<FetchBlobMsg>(&*fetch);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->id, ref.id);
    BlobDataMsg data;
    data.id = ref.id;
    data.tag = request->tag;
    data.ok = true;
    data.payload = payload;
    WireFrame wire = EncodeFrame(data);
    if (damage)
      wire.attachment = net::FaultInjector::CorruptCopy(wire.attachment, 12345);
    ASSERT_TRUE(network_
                    ->Send(2, 1, std::move(wire.payload),
                           std::move(wire.attachment))
                    .ok());
  };

  SendToWorker(run);
  serve(/*damage=*/true);
  auto failed_reply = NextMessage();
  auto* failed = std::get_if<InvocationDoneMsg>(&failed_reply);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->id, 90u);
  EXPECT_EQ(failed->instance_id, 5u);
  EXPECT_FALSE(failed->ok);
  EXPECT_NE(failed->error.find("checksum"), std::string::npos)
      << failed->error;
  EXPECT_FALSE(worker_->store().Contains(ref.id));

  SendToWorker(run);  // the manager's retry
  serve(/*damage=*/false);
  auto announce = NextMessage();  // the new replica is announced first
  auto* ready = std::get_if<FileReadyMsg>(&announce);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->content_id, ref.id);
  auto done_reply = NextMessage();
  auto* done = std::get_if<InvocationDoneMsg>(&done_reply);
  ASSERT_NE(done, nullptr);
  ASSERT_TRUE(done->ok) << done->error;
  auto echoed = Value::FromBlob(done->result);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed->AsList()[0].AsString(), std::string(4096, 'r'));
  network_->Unregister(2);
}

TEST_F(WorkerProtocolTest, MalformedFrameIsDroppedNotFatal) {
  ASSERT_TRUE(
      network_->Send(net::kManagerEndpoint, 1, Blob::FromString("garbage"))
          .ok());
  // Worker must survive and keep serving.
  ExecuteTaskMsg msg;
  msg.task.id = 1;
  msg.task.function_name = "echo";
  msg.task.args = Value(5).ToBlob();
  SendToWorker(msg);
  auto reply = NextMessage();
  auto* done = std::get_if<TaskDoneMsg>(&reply);
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->ok);
}

TEST_F(WorkerProtocolTest, EnvironmentUnpackOncePerWorkerAcrossTasks) {
  const Blob tarball = poncho::Packer::PackFiles(
      {{"member.bin", Blob::FromString(std::string(100, 'm'))}});
  auto decl = Declare("env", tarball, /*unpack=*/true);
  decl.kind = storage::FileKind::kEnvironment;
  SendToWorker(PutFileMsg{decl, tarball, {}});
  (void)NextMessage();  // FileReady

  serde::FunctionDef reads;
  reads.name = "reads_member";
  reads.fn = [](const Value&, const InvocationEnv& env) -> Result<Value> {
    return Value(static_cast<std::int64_t>(env.File("member.bin").size()));
  };
  ASSERT_TRUE(registry_.RegisterFunction(reads).ok());

  for (TaskId id = 1; id <= 3; ++id) {
    ExecuteTaskMsg msg;
    msg.task.id = id;
    msg.task.function_name = "reads_member";
    msg.task.args = Value().ToBlob();
    msg.task.inputs = {decl};
    SendToWorker(msg);
    auto reply = NextMessage();
    auto* done = std::get_if<TaskDoneMsg>(&reply);
    ASSERT_NE(done, nullptr);
    ASSERT_TRUE(done->ok) << done->error;
    EXPECT_EQ(Value::FromBlob(done->result)->AsInt(), 100);
  }
}

}  // namespace
}  // namespace vinelet::core
