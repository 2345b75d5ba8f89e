// One sample per protocol Message alternative, shared by the framing and
// protocol test suites.  Keeping the table in one place means a new message
// type that is added to the variant but not here fails the
// variant_size static check in both suites, so malformed-frame sweeps and
// framer round trips can never silently skip a type.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace vinelet::testing {

inline storage::FileDecl SampleMsgDecl(const char* name) {
  storage::FileDecl decl;
  decl.name = name;
  const Blob payload = Blob::FromString(name);
  decl.id = hash::ContentId::Of(payload);
  decl.size = payload.size();
  decl.kind = storage::FileKind::kEnvironment;
  decl.cache = true;
  decl.peer_transfer = true;
  return decl;
}

// One sample per Message alternative, with attachments where the codec
// moves bulk bytes out of line (PutFile, PutChunk, InvocationDone,
// BlobData) so the zero-copy path is exercised.
inline std::vector<core::Message> AllSampleMessages() {
  std::vector<core::Message> all;
  all.push_back(core::PutFileMsg{SampleMsgDecl("put"),
                                 Blob::FromString("file payload bytes"),
                                 {1u, 2u}});
  all.push_back(core::PushFileMsg{SampleMsgDecl("push"), 42, {3u, 4u}});
  core::ExecuteTaskMsg task;
  task.task.id = 7;
  task.task.function_name = "f";
  task.task.args = Blob::FromString("args");
  task.task.inputs = {SampleMsgDecl("input")};
  task.task.inline_files.emplace_back(SampleMsgDecl("inline"),
                                      Blob::FromString("inline bytes"));
  all.push_back(task);
  core::InstallLibraryMsg install;
  install.instance_id = 9;
  install.spec.name = "lib";
  install.spec.function_names = {"g"};
  install.spec.inputs = {SampleMsgDecl("ctx")};
  all.push_back(install);
  all.push_back(core::RemoveLibraryMsg{9});
  all.push_back(core::RunInvocationMsg{
      11,
      9,
      "g",
      Blob::FromString("xyz"),
      {{0, core::BlobRef{hash::ContentId::OfText("ref"), 64, 3}, 3}},
      {5u, 6u}});
  all.push_back(core::ShutdownMsg{});
  all.push_back(core::HelloMsg{core::Resources{2, 1024, 1024}});
  all.push_back(core::FileReadyMsg{hash::ContentId::OfText("ready"), 512});
  all.push_back(core::FileFailedMsg{hash::ContentId::OfText("fail"), "boom"});
  core::TaskDoneMsg done;
  done.id = 7;
  done.ok = true;
  done.result = Blob::FromString("result");
  all.push_back(done);
  core::LibraryReadyMsg lib_ready;
  lib_ready.instance_id = 9;
  lib_ready.context_memory_bytes = 4096;
  all.push_back(lib_ready);
  all.push_back(core::LibraryRemovedMsg{9});
  core::InvocationDoneMsg inv_done;
  inv_done.id = 11;
  inv_done.instance_id = 9;
  inv_done.ok = true;
  inv_done.result = Blob::FromString("big invocation result attachment");
  all.push_back(inv_done);
  all.push_back(core::GoodbyeMsg{});
  core::PutChunkMsg chunk;
  chunk.decl = SampleMsgDecl("chunked");
  chunk.chunk_index = 2;
  chunk.num_chunks = 8;
  chunk.chunk_bytes = 32;
  chunk.children = {core::ChunkRoute{5, {core::ChunkRoute{6, {}}}}};
  chunk.chunk = Blob::FromString("chunk payload riding as attachment");
  all.push_back(chunk);
  all.push_back(core::StatusRequestMsg{});
  core::StatusReplyMsg reply;
  reply.inbox_depth = 3;
  reply.tasks_executed = 17;
  reply.cache = {{hash::ContentId::OfText("cached"), 2048}};
  reply.libraries = {{9, "lib", 4, 1}};
  all.push_back(reply);
  core::RunInvocationBatchMsg batch;
  batch.instance_id = 9;
  batch.items.push_back({21, 9, "g", Blob::FromString("a"), {}, {7u, 8u}});
  batch.items.push_back({22, 9, "g", Blob::FromString("b"), {}, {9u, 10u}});
  all.push_back(batch);
  all.push_back(
      core::FetchBlobMsg{hash::ContentId::OfText("fetch"), 77, {11u, 12u}});
  core::BlobDataMsg blob_data;
  blob_data.id = hash::ContentId::OfText("fetch");
  blob_data.tag = 77;
  blob_data.ok = true;
  blob_data.payload = Blob::FromString("fetched blob payload attachment");
  all.push_back(blob_data);
  all.push_back(core::DropBlobMsg{hash::ContentId::OfText("drop")});
  all.push_back(core::CancelFetchMsg{hash::ContentId::OfText("cancel")});
  return all;
}

}  // namespace vinelet::testing
