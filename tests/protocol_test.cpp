// Wire protocol: encode/decode round trip of every message type, plus
// malformed-frame rejection (truncation sweep over a representative frame).
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "sample_messages.hpp"

namespace vinelet::core {
namespace {

storage::FileDecl SampleDecl() {
  storage::FileDecl decl;
  decl.name = "env:lnni";
  const Blob payload = Blob::FromString("tarball bytes");
  decl.id = hash::ContentId::Of(payload);
  decl.size = payload.size();
  decl.kind = storage::FileKind::kEnvironment;
  decl.cache = true;
  decl.peer_transfer = true;
  decl.unpack = true;
  return decl;
}

template <typename T>
T RoundTrip(const Message& message) {
  const Blob blob = EncodeMessage(message);
  auto decoded = DecodeMessage(blob);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  T* typed = std::get_if<T>(&*decoded);
  EXPECT_NE(typed, nullptr);
  return std::move(*typed);
}

TEST(ProtocolTest, PutFileRoundTrip) {
  PutFileMsg msg{SampleDecl(), Blob::FromString("payload"), {0xABCu, 0xDEFu}};
  auto out = RoundTrip<PutFileMsg>(msg);
  EXPECT_EQ(out.decl.name, "env:lnni");
  EXPECT_EQ(out.decl.id, msg.decl.id);
  EXPECT_EQ(out.decl.kind, storage::FileKind::kEnvironment);
  EXPECT_TRUE(out.decl.unpack);
  EXPECT_EQ(out.payload, msg.payload);
  EXPECT_EQ(out.trace, msg.trace);
}

TEST(ProtocolTest, PushFileRoundTrip) {
  PushFileMsg msg{SampleDecl(), 42, {7u, 9u}};
  auto out = RoundTrip<PushFileMsg>(msg);
  EXPECT_EQ(out.dest, 42u);
  EXPECT_EQ(out.decl.id, msg.decl.id);
  EXPECT_EQ(out.trace, msg.trace);
}

TEST(ProtocolTest, ExecuteTaskRoundTrip) {
  ExecuteTaskMsg msg;
  msg.task.id = 77;
  msg.task.function_name = "lnni_infer";
  msg.task.args = Blob::FromString("args");
  msg.task.inputs = {SampleDecl()};
  storage::FileDecl inline_decl = SampleDecl();
  inline_decl.name = "inline";
  inline_decl.cache = false;
  msg.task.inline_files.emplace_back(inline_decl, Blob::FromString("data"));
  msg.task.resources = Resources{2, 4096, 4096};

  auto out = RoundTrip<ExecuteTaskMsg>(msg);
  EXPECT_EQ(out.task.id, 77u);
  EXPECT_EQ(out.task.function_name, "lnni_infer");
  ASSERT_EQ(out.task.inputs.size(), 1u);
  ASSERT_EQ(out.task.inline_files.size(), 1u);
  EXPECT_EQ(out.task.inline_files[0].first.name, "inline");
  EXPECT_FALSE(out.task.inline_files[0].first.cache);
  EXPECT_EQ(out.task.inline_files[0].second.ToString(), "data");
  EXPECT_EQ(out.task.resources, (Resources{2, 4096, 4096}));
}

TEST(ProtocolTest, InstallLibraryRoundTrip) {
  InstallLibraryMsg msg;
  msg.instance_id = 5;
  msg.spec.name = "lib";
  msg.spec.function_names = {"f", "g"};
  msg.spec.setup_name = "setup";
  msg.spec.setup_args = Blob::FromString("setup-args");
  msg.spec.inputs = {SampleDecl()};
  msg.spec.resources = Resources::All();
  msg.spec.slots = 16;
  msg.spec.exec_mode = ExecMode::kFork;

  auto out = RoundTrip<InstallLibraryMsg>(msg);
  EXPECT_EQ(out.instance_id, 5u);
  EXPECT_EQ(out.spec.name, "lib");
  EXPECT_EQ(out.spec.function_names, (std::vector<std::string>{"f", "g"}));
  EXPECT_EQ(out.spec.setup_name, "setup");
  EXPECT_EQ(out.spec.slots, 16u);
  EXPECT_EQ(out.spec.exec_mode, ExecMode::kFork);
  EXPECT_TRUE(out.spec.resources.IsAll());
}

TEST(ProtocolTest, RemoveLibraryRoundTrip) {
  auto out = RoundTrip<RemoveLibraryMsg>(RemoveLibraryMsg{9});
  EXPECT_EQ(out.instance_id, 9u);
}

TEST(ProtocolTest, RunInvocationRoundTrip) {
  RunInvocationMsg msg{101, 3, "f", Blob::FromString("xyz"), {}, {11u, 22u}};
  auto out = RoundTrip<RunInvocationMsg>(msg);
  EXPECT_EQ(out.id, 101u);
  EXPECT_EQ(out.instance_id, 3u);
  EXPECT_EQ(out.function_name, "f");
  EXPECT_EQ(out.args.ToString(), "xyz");
  EXPECT_TRUE(out.ref_args.empty());
  EXPECT_EQ(out.trace, msg.trace);
}

TEST(ProtocolTest, RunInvocationRefArgsRoundTrip) {
  RunInvocationMsg msg;
  msg.id = 55;
  msg.instance_id = 3;
  msg.function_name = "consume";
  msg.args = Blob::FromString("placeholder-args");
  msg.ref_args.push_back(
      {1, BlobRef{hash::ContentId::OfText("payload-a"), 4096, 7}, 7});
  msg.ref_args.push_back(
      {4, BlobRef{hash::ContentId::OfText("payload-b"), 123, 9}, 0});
  auto out = RoundTrip<RunInvocationMsg>(msg);
  ASSERT_EQ(out.ref_args.size(), 2u);
  EXPECT_EQ(out.ref_args[0].arg_index, 1u);
  EXPECT_EQ(out.ref_args[0].ref, msg.ref_args[0].ref);
  EXPECT_EQ(out.ref_args[0].source, 7u);
  EXPECT_EQ(out.ref_args[1].arg_index, 4u);
  EXPECT_EQ(out.ref_args[1].ref, msg.ref_args[1].ref);
  EXPECT_EQ(out.ref_args[1].source, 0u);
}

TEST(ProtocolTest, RunInvocationBatchRoundTrip) {
  RunInvocationBatchMsg msg;
  msg.instance_id = 3;
  msg.items.push_back({101, 3, "f", Blob::FromString("xyz"), {}, {11u, 22u}});
  msg.items.push_back({102, 3, "g", Blob::FromString(""), {}, {33u, 44u}});
  msg.items.push_back(
      {103,
       3,
       "f",
       Blob::FromString("pq"),
       {{0, BlobRef{hash::ContentId::OfText("edge"), 77, 2}, 2}},
       {55u, 66u}});
  auto out = RoundTrip<RunInvocationBatchMsg>(msg);
  EXPECT_EQ(out.instance_id, 3u);
  ASSERT_EQ(out.items.size(), 3u);
  // Every item keeps its own id, args and TraceContext through the wire.
  EXPECT_EQ(out.items[0].id, 101u);
  EXPECT_EQ(out.items[0].function_name, "f");
  EXPECT_EQ(out.items[0].args.ToString(), "xyz");
  EXPECT_EQ(out.items[0].trace, msg.items[0].trace);
  EXPECT_EQ(out.items[1].id, 102u);
  EXPECT_EQ(out.items[1].args.size(), 0u);
  EXPECT_EQ(out.items[1].trace, msg.items[1].trace);
  EXPECT_EQ(out.items[2].id, 103u);
  EXPECT_EQ(out.items[2].trace, msg.items[2].trace);
  ASSERT_EQ(out.items[2].ref_args.size(), 1u);
  EXPECT_EQ(out.items[2].ref_args[0].ref, msg.items[2].ref_args[0].ref);
}

TEST(ProtocolTest, RunInvocationBatchEveryTruncationRejected) {
  // The batch decoder reads a count then N items; a truncated frame must
  // fail cleanly at every cut point instead of fabricating short batches.
  RunInvocationBatchMsg msg;
  msg.instance_id = 7;
  msg.items.push_back({1, 7, "f", Blob::FromString("abc"), {}, {1u, 2u}});
  msg.items.push_back(
      {2,
       7,
       "g",
       Blob::FromString("de"),
       {{0, BlobRef{hash::ContentId::OfText("r"), 9, 3}, 3}},
       {3u, 4u}});
  const Blob full = EncodeMessage(msg);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> prefix(
        full.span().begin(), full.span().begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeMessage(Blob(std::move(prefix))).ok()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, ControlMessagesRoundTrip) {
  (void)RoundTrip<ShutdownMsg>(ShutdownMsg{});
  (void)RoundTrip<GoodbyeMsg>(GoodbyeMsg{});
  auto hello = RoundTrip<HelloMsg>(HelloMsg{Resources{32, 65536, 65536}});
  EXPECT_EQ(hello.resources.cores, 32u);
}

TEST(ProtocolTest, FileStatusRoundTrip) {
  const auto id = hash::ContentId::OfText("f");
  auto ready = RoundTrip<FileReadyMsg>(FileReadyMsg{id, 100});
  EXPECT_EQ(ready.content_id, id);
  EXPECT_EQ(ready.size, 100u);
  auto failed = RoundTrip<FileFailedMsg>(FileFailedMsg{id, "checksum"});
  EXPECT_EQ(failed.error, "checksum");
}

TEST(ProtocolTest, TaskDoneRoundTrip) {
  TaskDoneMsg msg;
  msg.id = 8;
  msg.ok = true;
  msg.result = Blob::FromString("result");
  msg.timing = {0.1, 0.2, 0.3, 0.4, 0.5};
  auto out = RoundTrip<TaskDoneMsg>(msg);
  EXPECT_TRUE(out.ok);
  EXPECT_DOUBLE_EQ(out.timing.transfer_s, 0.1);
  EXPECT_DOUBLE_EQ(out.timing.deserialize_s, 0.3);
  EXPECT_DOUBLE_EQ(out.timing.exec_s, 0.5);
  EXPECT_DOUBLE_EQ(out.timing.Total(), 1.5);
}

TEST(ProtocolTest, InvocationDoneErrorRoundTrip) {
  InvocationDoneMsg msg;
  msg.id = 12;
  msg.instance_id = 4;
  msg.ok = false;
  msg.error = "function not in library";
  auto out = RoundTrip<InvocationDoneMsg>(msg);
  EXPECT_EQ(out.id, 12u);
  EXPECT_EQ(out.instance_id, 4u);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "function not in library");
}

TEST(ProtocolTest, InvocationDoneRefRoundTrip) {
  InvocationDoneMsg msg;
  msg.id = 31;
  msg.instance_id = 8;
  msg.ok = true;
  msg.ref = BlobRef{hash::ContentId::Assigned(6, 0xC0FFEE, 41), 1 << 20, 6};
  msg.timing = {0.0, 0.0, 0.1, 0.2, 0.3};
  auto out = RoundTrip<InvocationDoneMsg>(msg);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.result.size(), 0u);
  EXPECT_TRUE(out.ref.valid());
  EXPECT_EQ(out.ref, msg.ref);

  // The framed form also leaves the (empty) result as the attachment path
  // and still carries the ref in the header.
  WireFrame wire = EncodeFrame(msg);
  auto decoded = DecodeFrame(net::Frame{0, wire.payload, wire.attachment});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* framed = std::get_if<InvocationDoneMsg>(&*decoded);
  ASSERT_NE(framed, nullptr);
  EXPECT_EQ(framed->ref, msg.ref);
  EXPECT_EQ(framed->instance_id, 8u);
  EXPECT_TRUE(framed->ref.id.IsAssigned());
}

TEST(ProtocolTest, InvocationDoneResultRidesAsAttachment) {
  // By-value results cross the wire as the frame attachment: the manager's
  // inbox borrows the producer's bytes instead of re-copying them.
  InvocationDoneMsg msg;
  msg.id = 32;
  msg.ok = true;
  msg.result = Blob::FromString("inline result bytes");
  WireFrame wire = EncodeFrame(msg);
  EXPECT_EQ(wire.attachment, msg.result);
  auto decoded = DecodeFrame(net::Frame{0, wire.payload, wire.attachment});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* out = std::get_if<InvocationDoneMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->result.SharesPayloadWith(wire.attachment));
  EXPECT_FALSE(out->ref.valid());
}

TEST(ProtocolTest, FetchBlobRoundTrip) {
  FetchBlobMsg msg{hash::ContentId::OfText("wanted"), 0xFEEDu, {5u, 6u}};
  auto out = RoundTrip<FetchBlobMsg>(msg);
  EXPECT_EQ(out.id, msg.id);
  EXPECT_EQ(out.tag, 0xFEEDu);
  EXPECT_EQ(out.trace, msg.trace);
}

TEST(ProtocolTest, BlobDataRoundTrip) {
  BlobDataMsg msg;
  msg.id = hash::ContentId::OfText("served");
  msg.tag = 9;
  msg.ok = true;
  msg.payload = Blob::FromString("the payload bytes");
  msg.trace = {1u, 2u};
  auto out = RoundTrip<BlobDataMsg>(msg);
  EXPECT_EQ(out.id, msg.id);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.payload, msg.payload);

  // Framed, the payload rides as the attachment zero-copy (the serving
  // worker forwards its cached refcounted bytes, same as the chunk relay).
  WireFrame wire = EncodeFrame(msg);
  EXPECT_EQ(wire.attachment, msg.payload);
  auto decoded = DecodeFrame(net::Frame{0, wire.payload, wire.attachment});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* framed = std::get_if<BlobDataMsg>(&*decoded);
  ASSERT_NE(framed, nullptr);
  EXPECT_TRUE(framed->payload.SharesPayloadWith(wire.attachment));

  BlobDataMsg miss;
  miss.id = msg.id;
  miss.tag = 10;
  miss.ok = false;
  miss.error = "not in store";
  auto miss_out = RoundTrip<BlobDataMsg>(miss);
  EXPECT_FALSE(miss_out.ok);
  EXPECT_EQ(miss_out.error, "not in store");
}

TEST(ProtocolTest, DropAndCancelRoundTrip) {
  auto drop = RoundTrip<DropBlobMsg>(DropBlobMsg{hash::ContentId::OfText("d")});
  EXPECT_EQ(drop.id, hash::ContentId::OfText("d"));
  auto cancel =
      RoundTrip<CancelFetchMsg>(CancelFetchMsg{hash::ContentId::OfText("c")});
  EXPECT_EQ(cancel.id, hash::ContentId::OfText("c"));
}

TEST(ProtocolTest, LibraryLifecycleRoundTrip) {
  auto ready =
      RoundTrip<LibraryReadyMsg>(LibraryReadyMsg{4, {1.0, 15.4, 2.7, 0.0}});
  EXPECT_EQ(ready.instance_id, 4u);
  EXPECT_DOUBLE_EQ(ready.timing.worker_s, 15.4);
  auto removed = RoundTrip<LibraryRemovedMsg>(LibraryRemovedMsg{4});
  EXPECT_EQ(removed.instance_id, 4u);
}

TEST(ProtocolTest, StatusMessagesRoundTrip) {
  (void)RoundTrip<StatusRequestMsg>(StatusRequestMsg{});

  StatusReplyMsg msg;
  msg.inbox_depth = 4;
  msg.tasks_executed = 17;
  msg.cache = {{hash::ContentId::OfText("a"), 100},
               {hash::ContentId::OfText("b"), 200}};
  msg.assemblies = {{hash::ContentId::OfText("c"), 3, 8}};
  msg.libraries = {{5, "lnni", 12, 2}};
  msg.refs_held = 3;
  msg.p2p_fetch_bytes = 4096;
  msg.p2p_serve_bytes = 8192;
  msg.relayed_result_bytes = 16;
  msg.arena_hwm_bytes = 1 << 16;
  auto out = RoundTrip<StatusReplyMsg>(msg);
  EXPECT_EQ(out.inbox_depth, 4u);
  EXPECT_EQ(out.tasks_executed, 17u);
  ASSERT_EQ(out.cache.size(), 2u);
  EXPECT_EQ(out.cache[0].id, msg.cache[0].id);
  EXPECT_EQ(out.cache[1].bytes, 200u);
  ASSERT_EQ(out.assemblies.size(), 1u);
  EXPECT_EQ(out.assemblies[0].id, msg.assemblies[0].id);
  EXPECT_EQ(out.assemblies[0].received, 3u);
  EXPECT_EQ(out.assemblies[0].total, 8u);
  ASSERT_EQ(out.libraries.size(), 1u);
  EXPECT_EQ(out.libraries[0].instance_id, 5u);
  EXPECT_EQ(out.libraries[0].library, "lnni");
  EXPECT_EQ(out.libraries[0].invocations_served, 12u);
  EXPECT_EQ(out.libraries[0].queued, 2u);
  EXPECT_EQ(out.refs_held, 3u);
  EXPECT_EQ(out.p2p_fetch_bytes, 4096u);
  EXPECT_EQ(out.p2p_serve_bytes, 8192u);
  EXPECT_EQ(out.relayed_result_bytes, 16u);
  EXPECT_EQ(out.arena_hwm_bytes, 1u << 16);
}

TEST(ProtocolTest, TraceSurvivesFrameWithZeroCopyAttachment) {
  PutChunkMsg msg;
  msg.decl = SampleDecl();
  msg.chunk_index = 2;
  msg.num_chunks = 4;
  msg.chunk_bytes = 8;
  msg.children = {{7, {{9, {}}}}};
  msg.chunk = Blob::FromString("chunkdata");
  msg.trace = {0x1122u, 0x3344u};

  // The bulk bytes ride as the frame attachment (zero-copy relay path); the
  // trace lives in the header payload and must survive reattachment.
  WireFrame wire = EncodeFrame(msg);
  EXPECT_EQ(wire.attachment, msg.chunk);
  auto decoded = DecodeFrame(net::Frame{0, wire.payload, wire.attachment});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* out = std::get_if<PutChunkMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->trace, msg.trace);
  EXPECT_EQ(out->chunk, msg.chunk);
  ASSERT_EQ(out->children.size(), 1u);
  EXPECT_EQ(out->children[0].dest, 7u);
  ASSERT_EQ(out->children[0].children.size(), 1u);
  EXPECT_EQ(out->children[0].children[0].dest, 9u);

  // The self-contained (inline) encoding carries the same trace.
  auto inline_out = RoundTrip<PutChunkMsg>(msg);
  EXPECT_EQ(inline_out.trace, msg.trace);

  // PutFile's payload also rides as the attachment; same invariant.
  PutFileMsg put{SampleDecl(), Blob::FromString("tarball bytes"), {21u, 43u}};
  WireFrame put_wire = EncodeFrame(put);
  EXPECT_EQ(put_wire.attachment, put.payload);
  auto put_decoded =
      DecodeFrame(net::Frame{0, put_wire.payload, put_wire.attachment});
  ASSERT_TRUE(put_decoded.ok()) << put_decoded.status().ToString();
  auto* put_out = std::get_if<PutFileMsg>(&*put_decoded);
  ASSERT_NE(put_out, nullptr);
  EXPECT_EQ(put_out->trace, put.trace);
  EXPECT_EQ(put_out->payload, put.payload);
}

TEST(ProtocolTest, EmptyFrameRejected) {
  EXPECT_FALSE(DecodeMessage(Blob()).ok());
}

TEST(ProtocolTest, UnknownTagRejected) {
  ByteBuffer buffer;
  buffer.AppendByte(0xEF);
  EXPECT_EQ(DecodeMessage(Blob(std::move(buffer))).status().code(),
            ErrorCode::kDataLoss);
}

TEST(ProtocolTest, EveryTruncationRejected) {
  ExecuteTaskMsg msg;
  msg.task.id = 1;
  msg.task.function_name = "f";
  msg.task.args = Blob::FromString("abc");
  msg.task.inputs = {SampleDecl()};
  msg.task.inline_files.emplace_back(SampleDecl(), Blob::FromString("d"));
  const Blob full = EncodeMessage(msg);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> prefix(full.span().begin(),
                                     full.span().begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeMessage(Blob(std::move(prefix))).ok()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, BadEnumValuesRejected) {
  // Corrupt the file-kind byte of a PutFile frame.
  PutFileMsg msg{SampleDecl(), Blob::FromString("x"), {}};
  Blob blob = EncodeMessage(msg);
  std::vector<std::uint8_t> bytes(blob.span().begin(), blob.span().end());
  // Layout: tag(1) + name(8+8) + id(8+32) + size(8) + kind(1)...
  const std::size_t kind_offset = 1 + 8 + 8 + 8 + 32 + 8;
  bytes[kind_offset] = 0x99;
  EXPECT_FALSE(DecodeMessage(Blob(std::move(bytes))).ok());
}

// ---------------------------------------------------------------------------
// Table-driven malformed-frame sweep: every message type in the protocol,
// via the shared sample table (which the variant-size check keeps complete).
// ---------------------------------------------------------------------------

TEST(ProtocolTest, SampleTableCoversEveryMessageType) {
  ASSERT_EQ(testing::AllSampleMessages().size(), std::variant_size_v<Message>);
}

TEST(ProtocolTest, EveryMessageTypeRejectsEveryTruncation) {
  for (const Message& message : testing::AllSampleMessages()) {
    const Blob full = EncodeMessage(message);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      auto decoded = DecodeMessage(full.Slice(0, cut));
      EXPECT_FALSE(decoded.ok())
          << "message index " << message.index() << " cut=" << cut;
      if (decoded.ok()) break;
    }
  }
}

TEST(ProtocolTest, EveryMessageTypeRejectsTrailingGarbage) {
  for (const Message& message : testing::AllSampleMessages()) {
    const Blob full = EncodeMessage(message);
    std::vector<std::uint8_t> extended(full.span().begin(), full.span().end());
    extended.push_back(0x5A);
    auto decoded = DecodeMessage(Blob(std::move(extended)));
    EXPECT_FALSE(decoded.ok()) << "message index " << message.index();
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
    }
  }
}

/// `blob` with byte `i` inverted, in a fresh allocation.
Blob FlipByte(const Blob& blob, std::size_t i) {
  std::vector<std::uint8_t> bytes(blob.span().begin(), blob.span().end());
  bytes[i] ^= 0xFF;
  return Blob(std::move(bytes));
}

TEST(ProtocolTest, EveryMessageSurvivesSingleByteCorruption) {
  // Raw codec: flipping any one byte must never crash or overread; the
  // decoder either rejects the bytes or produces some (different)
  // well-formed message.
  for (const Message& message : testing::AllSampleMessages()) {
    const Blob full = EncodeMessage(message);
    for (std::size_t i = 0; i < full.size(); ++i)
      (void)DecodeMessage(FlipByte(full, i));  // must not UB
  }
  // Framed: the CRC-32C trailer catches every flip, in the header payload
  // and in the attachment alike.  The one flip that does not lose the frame
  // is in a fetched ref payload, which decodes as a replica miss.
  for (const Message& message : testing::AllSampleMessages()) {
    const WireFrame wire = EncodeFrame(message);
    for (std::size_t i = 0; i < wire.payload.size(); ++i) {
      auto decoded =
          DecodeFrame(net::Frame{0, FlipByte(wire.payload, i), wire.attachment});
      ASSERT_FALSE(decoded.ok())
          << "message index " << message.index() << " payload byte " << i;
      EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
    }
    for (std::size_t i = 0; i < wire.attachment.size(); ++i) {
      auto decoded = DecodeFrame(
          net::Frame{0, wire.payload, FlipByte(wire.attachment, i)});
      if (std::holds_alternative<BlobDataMsg>(message)) {
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        const auto& miss = std::get<BlobDataMsg>(*decoded);
        EXPECT_FALSE(miss.ok);
        EXPECT_TRUE(miss.payload.empty());
        continue;
      }
      ASSERT_FALSE(decoded.ok())
          << "message index " << message.index() << " attachment byte " << i;
      EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
    }
  }
}

TEST(ProtocolTest, FrameTrailerGuardsTruncationAndSwappedAttachments) {
  PutChunkMsg chunk;
  chunk.decl = SampleDecl();
  chunk.num_chunks = 1;
  chunk.chunk_bytes = 5;
  chunk.chunk = Blob::FromString("chunk");
  const WireFrame wire = EncodeFrame(chunk);
  ASSERT_TRUE(DecodeFrame(net::Frame{0, wire.payload, wire.attachment}).ok());
  // Every cut of the payload, trailer included, is rejected.
  for (std::size_t cut = 0; cut < wire.payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeFrame(net::Frame{0, wire.payload.Slice(0, cut), wire.attachment})
            .ok())
        << "cut=" << cut;
  }
  // A well-formed attachment from another frame, or none at all, fails the
  // attachment checksum.
  EXPECT_FALSE(
      DecodeFrame(net::Frame{0, wire.payload, Blob::FromString("other")}).ok());
  EXPECT_FALSE(DecodeFrame(net::Frame{0, wire.payload, Blob()}).ok());
  // The raw (unchecksummed) encoding is not a frame.
  EXPECT_FALSE(DecodeFrame(net::Frame{0, EncodeMessage(chunk), Blob()}).ok());
}

TEST(ProtocolTest, HugeBatchCountRejectedBeforeAllocation) {
  RunInvocationBatchMsg batch;
  batch.instance_id = 9;
  batch.items.push_back({21, 9, "g", Blob::FromString("a"), {}, {1u, 2u}});
  const Blob full = EncodeMessage(batch);
  std::vector<std::uint8_t> bytes(full.span().begin(), full.span().end());
  // Layout: tag(1) + instance_id(8) + item count(8).  A count of 2^64-1
  // must be rejected by the remaining-bytes clamp, not fed to reserve().
  for (std::size_t i = 0; i < 8; ++i) bytes[1 + 8 + i] = 0xFF;
  auto decoded = DecodeMessage(Blob(std::move(bytes)));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
}

TEST(ProtocolTest, HugeDeclCountRejectedBeforeAllocation) {
  PushFileMsg msg{SampleDecl(), 42, {7u, 9u}};
  ExecuteTaskMsg task;
  task.task.id = 1;
  task.task.function_name = "f";
  task.task.args = Blob::FromString("a");
  const Blob full = EncodeMessage(task);
  std::vector<std::uint8_t> bytes(full.span().begin(), full.span().end());
  // Layout: tag(1) + id(8) + function_name(8 + 1) + args(8 + 1) +
  // decl count(8).  Poison the count.
  const std::size_t count_offset = 1 + 8 + 8 + 1 + 8 + 1;
  for (std::size_t i = 0; i < 8; ++i) bytes[count_offset + i] = 0xFF;
  auto decoded = DecodeMessage(Blob(std::move(bytes)));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace vinelet::core
