#include "core/protocol.hpp"

#include "hash/crc32c.hpp"
#include "serde/archive.hpp"

namespace vinelet::core {
namespace {

using serde::ArchiveReader;
using serde::ArchiveWriter;

enum class Tag : std::uint8_t {
  kPutFile = 1,
  kPushFile,
  kExecuteTask,
  kInstallLibrary,
  kRemoveLibrary,
  kRunInvocation,
  kShutdown,
  kHello,
  kFileReady,
  kFileFailed,
  kTaskDone,
  kLibraryReady,
  kLibraryRemoved,
  kInvocationDone,
  kGoodbye,
  kPutChunk,
  kStatusRequest,
  kStatusReply,
  kRunInvocationBatch,
  kFetchBlob,
  kBlobData,
  kDropBlob,
  kCancelFetch,
};

/// Route trees are bounded by the worker count in practice; the decoder
/// additionally caps recursion so a malformed frame cannot exhaust the stack.
constexpr std::size_t kMaxRouteDepth = 512;

// --- field-group encoders -------------------------------------------------

void WriteContentId(ArchiveWriter& w, const hash::ContentId& id) {
  w.WriteBytes(std::span<const std::uint8_t>(id.digest().data(),
                                             id.digest().size()));
}

Result<hash::ContentId> ReadContentId(ArchiveReader& r) {
  auto bytes = r.ReadBytes();
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() != hash::Sha256::kDigestSize)
    return DataLossError("bad content-id length");
  hash::Sha256::Digest digest;
  std::copy(bytes->begin(), bytes->end(), digest.begin());
  return hash::ContentId::FromDigest(digest);
}

void WriteFileDecl(ArchiveWriter& w, const storage::FileDecl& decl) {
  w.WriteString(decl.name);
  WriteContentId(w, decl.id);
  w.WriteU64(decl.size);
  w.WriteU8(static_cast<std::uint8_t>(decl.kind));
  w.WriteBool(decl.cache);
  w.WriteBool(decl.peer_transfer);
  w.WriteBool(decl.unpack);
}

Result<storage::FileDecl> ReadFileDecl(ArchiveReader& r) {
  storage::FileDecl decl;
  auto name = r.ReadString();
  if (!name.ok()) return name.status();
  decl.name = std::move(*name);
  auto id = ReadContentId(r);
  if (!id.ok()) return id.status();
  decl.id = *id;
  auto size = r.ReadU64();
  if (!size.ok()) return size.status();
  decl.size = *size;
  auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<std::uint8_t>(storage::FileKind::kLibraryScript))
    return DataLossError("bad file kind");
  decl.kind = static_cast<storage::FileKind>(*kind);
  auto cache = r.ReadBool();
  if (!cache.ok()) return cache.status();
  decl.cache = *cache;
  auto peer = r.ReadBool();
  if (!peer.ok()) return peer.status();
  decl.peer_transfer = *peer;
  auto unpack = r.ReadBool();
  if (!unpack.ok()) return unpack.status();
  decl.unpack = *unpack;
  return decl;
}

void WriteDecls(ArchiveWriter& w, const std::vector<storage::FileDecl>& decls) {
  w.WriteU64(decls.size());
  for (const auto& decl : decls) WriteFileDecl(w, decl);
}

Result<std::vector<storage::FileDecl>> ReadDecls(ArchiveReader& r) {
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) return DataLossError("decl count exceeds payload");
  std::vector<storage::FileDecl> decls;
  decls.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto decl = ReadFileDecl(r);
    if (!decl.ok()) return decl.status();
    decls.push_back(std::move(*decl));
  }
  return decls;
}

void WriteResources(ArchiveWriter& w, const Resources& res) {
  w.WriteU32(res.cores);
  w.WriteU64(res.memory_mb);
  w.WriteU64(res.disk_mb);
}

Result<Resources> ReadResources(ArchiveReader& r) {
  Resources res;
  auto cores = r.ReadU32();
  if (!cores.ok()) return cores.status();
  res.cores = *cores;
  auto mem = r.ReadU64();
  if (!mem.ok()) return mem.status();
  res.memory_mb = *mem;
  auto disk = r.ReadU64();
  if (!disk.ok()) return disk.status();
  res.disk_mb = *disk;
  return res;
}

void WriteTiming(ArchiveWriter& w, const TimingBreakdown& t) {
  w.WriteF64(t.transfer_s);
  w.WriteF64(t.worker_s);
  w.WriteF64(t.deserialize_s);
  w.WriteF64(t.context_s);
  w.WriteF64(t.exec_s);
}

Result<TimingBreakdown> ReadTiming(ArchiveReader& r) {
  TimingBreakdown t;
  for (double* field : {&t.transfer_s, &t.worker_s, &t.deserialize_s,
                        &t.context_s, &t.exec_s}) {
    auto v = r.ReadF64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  return t;
}

void WriteTrace(ArchiveWriter& w, const telemetry::TraceContext& trace) {
  w.WriteU64(trace.trace_id);
  w.WriteU64(trace.parent_span_id);
}

Result<telemetry::TraceContext> ReadTrace(ArchiveReader& r) {
  telemetry::TraceContext trace;
  auto trace_id = r.ReadU64();
  if (!trace_id.ok()) return trace_id.status();
  trace.trace_id = *trace_id;
  auto parent = r.ReadU64();
  if (!parent.ok()) return parent.status();
  trace.parent_span_id = *parent;
  return trace;
}

void WriteBlob(ArchiveWriter& w, const Blob& blob) { w.WriteBytes(blob.span()); }

void WriteBlobRef(ArchiveWriter& w, const BlobRef& ref) {
  WriteContentId(w, ref.id);
  w.WriteU64(ref.size);
  w.WriteU64(ref.owner);
}

Result<BlobRef> ReadBlobRef(ArchiveReader& r) {
  BlobRef ref;
  auto id = ReadContentId(r);
  if (!id.ok()) return id.status();
  ref.id = *id;
  auto size = r.ReadU64();
  if (!size.ok()) return size.status();
  ref.size = *size;
  auto owner = r.ReadU64();
  if (!owner.ok()) return owner.status();
  ref.owner = *owner;
  return ref;
}

void WriteRefArgs(ArchiveWriter& w, const std::vector<RefArg>& refs) {
  w.WriteU64(refs.size());
  for (const auto& ref : refs) {
    w.WriteU32(ref.arg_index);
    WriteBlobRef(w, ref.ref);
    w.WriteU64(ref.source);
  }
}

Result<std::vector<RefArg>> ReadRefArgs(ArchiveReader& r) {
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (*count > r.remaining())
    return DataLossError("ref-arg count exceeds payload");
  std::vector<RefArg> refs;
  refs.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    RefArg arg;
    auto index = r.ReadU32();
    if (!index.ok()) return index.status();
    arg.arg_index = *index;
    auto ref = ReadBlobRef(r);
    if (!ref.ok()) return ref.status();
    arg.ref = *ref;
    auto source = r.ReadU64();
    if (!source.ok()) return source.status();
    arg.source = *source;
    refs.push_back(arg);
  }
  return refs;
}

Result<Blob> ReadBlob(ArchiveReader& r) { return r.ReadBlob(); }

/// Bulk fields (PutFile payload, PutChunk chunk) are prefixed with an
/// "attached" flag: EncodeFrame detaches them into the frame attachment,
/// EncodeMessage inlines them.
Result<Blob> ReadBulk(ArchiveReader& r, const Blob* attachment) {
  auto attached = r.ReadBool();
  if (!attached.ok()) return attached.status();
  if (*attached) {
    if (attachment == nullptr)
      return DataLossError("bulk payload marked attached but frame has none");
    return *attachment;  // shares the frame's refcounted bytes
  }
  return r.ReadBlob();
}

void WriteRoutes(ArchiveWriter& w, const std::vector<ChunkRoute>& routes) {
  w.WriteU64(routes.size());
  for (const auto& route : routes) {
    w.WriteU64(route.dest);
    WriteRoutes(w, route.children);
  }
}

Result<std::vector<ChunkRoute>> ReadRoutes(ArchiveReader& r,
                                           std::size_t depth) {
  if (depth > kMaxRouteDepth) return DataLossError("chunk route too deep");
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (*count > r.remaining())
    return DataLossError("route count exceeds payload");
  std::vector<ChunkRoute> routes;
  routes.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    ChunkRoute route;
    auto dest = r.ReadU64();
    if (!dest.ok()) return dest.status();
    route.dest = *dest;
    auto children = ReadRoutes(r, depth + 1);
    if (!children.ok()) return children.status();
    route.children = std::move(*children);
    routes.push_back(std::move(route));
  }
  return routes;
}

// --- message encoders -------------------------------------------------------

struct Encoder {
  ArchiveWriter w;
  /// When set, bulk fields are diverted here instead of being copied into
  /// the header (EncodeFrame's zero-copy path).
  Blob* attachment_out = nullptr;

  void WriteBulk(const Blob& blob) {
    const bool attach = attachment_out != nullptr && !blob.empty();
    w.WriteBool(attach);
    if (attach) {
      *attachment_out = blob;  // borrow: shares the refcounted payload
    } else {
      WriteBlob(w, blob);
    }
  }

  void operator()(const PutFileMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kPutFile));
    WriteFileDecl(w, m.decl);
    WriteTrace(w, m.trace);
    WriteBulk(m.payload);
  }
  void operator()(const PutChunkMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kPutChunk));
    WriteFileDecl(w, m.decl);
    w.WriteU64(m.chunk_index);
    w.WriteU64(m.num_chunks);
    w.WriteU64(m.chunk_bytes);
    WriteRoutes(w, m.children);
    WriteTrace(w, m.trace);
    WriteBulk(m.chunk);
  }
  void operator()(const PushFileMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kPushFile));
    WriteFileDecl(w, m.decl);
    w.WriteU64(m.dest);
    WriteTrace(w, m.trace);
  }
  void operator()(const ExecuteTaskMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kExecuteTask));
    w.WriteU64(m.task.id);
    w.WriteString(m.task.function_name);
    WriteBlob(w, m.task.args);
    WriteDecls(w, m.task.inputs);
    w.WriteU64(m.task.inline_files.size());
    for (const auto& [decl, payload] : m.task.inline_files) {
      WriteFileDecl(w, decl);
      WriteBlob(w, payload);
    }
    WriteResources(w, m.task.resources);
    WriteTrace(w, m.trace);
  }
  void operator()(const InstallLibraryMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kInstallLibrary));
    w.WriteU64(m.instance_id);
    w.WriteString(m.spec.name);
    w.WriteU64(m.spec.function_names.size());
    for (const auto& name : m.spec.function_names) w.WriteString(name);
    w.WriteString(m.spec.setup_name);
    WriteBlob(w, m.spec.setup_args);
    WriteDecls(w, m.spec.inputs);
    WriteResources(w, m.spec.resources);
    w.WriteU32(m.spec.slots);
    w.WriteU8(static_cast<std::uint8_t>(m.spec.exec_mode));
    WriteTrace(w, m.trace);
  }
  void operator()(const RemoveLibraryMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kRemoveLibrary));
    w.WriteU64(m.instance_id);
  }
  void operator()(const RunInvocationMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kRunInvocation));
    w.WriteU64(m.id);
    w.WriteU64(m.instance_id);
    w.WriteString(m.function_name);
    WriteBlob(w, m.args);
    WriteRefArgs(w, m.ref_args);
    WriteTrace(w, m.trace);
  }
  void operator()(const RunInvocationBatchMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kRunInvocationBatch));
    w.WriteU64(m.instance_id);
    w.WriteU64(m.items.size());
    for (const auto& item : m.items) {
      w.WriteU64(item.id);
      w.WriteString(item.function_name);
      WriteBlob(w, item.args);
      WriteRefArgs(w, item.ref_args);
      WriteTrace(w, item.trace);
    }
  }
  void operator()(const ShutdownMsg&) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kShutdown));
  }
  void operator()(const HelloMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kHello));
    WriteResources(w, m.resources);
  }
  void operator()(const FileReadyMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kFileReady));
    WriteContentId(w, m.content_id);
    w.WriteU64(m.size);
  }
  void operator()(const FileFailedMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kFileFailed));
    WriteContentId(w, m.content_id);
    w.WriteString(m.error);
  }
  void operator()(const TaskDoneMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kTaskDone));
    w.WriteU64(m.id);
    w.WriteBool(m.ok);
    WriteBlob(w, m.result);
    w.WriteString(m.error);
    WriteTiming(w, m.timing);
    WriteTrace(w, m.trace);
  }
  void operator()(const LibraryReadyMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kLibraryReady));
    w.WriteU64(m.instance_id);
    WriteTiming(w, m.timing);
    w.WriteU64(m.context_memory_bytes);
  }
  void operator()(const LibraryRemovedMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kLibraryRemoved));
    w.WriteU64(m.instance_id);
  }
  void operator()(const InvocationDoneMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kInvocationDone));
    w.WriteU64(m.id);
    w.WriteU64(m.instance_id);
    w.WriteBool(m.ok);
    WriteBulk(m.result);
    WriteBlobRef(w, m.ref);
    w.WriteString(m.error);
    WriteTiming(w, m.timing);
    WriteTrace(w, m.trace);
  }
  void operator()(const GoodbyeMsg&) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kGoodbye));
  }
  void operator()(const StatusRequestMsg&) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kStatusRequest));
  }
  void operator()(const StatusReplyMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kStatusReply));
    w.WriteU64(m.inbox_depth);
    w.WriteU64(m.tasks_executed);
    w.WriteU64(m.cache.size());
    for (const auto& entry : m.cache) {
      WriteContentId(w, entry.id);
      w.WriteU64(entry.bytes);
    }
    w.WriteU64(m.assemblies.size());
    for (const auto& assembly : m.assemblies) {
      WriteContentId(w, assembly.id);
      w.WriteU64(assembly.received);
      w.WriteU64(assembly.total);
    }
    w.WriteU64(m.libraries.size());
    for (const auto& slot : m.libraries) {
      w.WriteU64(slot.instance_id);
      w.WriteString(slot.library);
      w.WriteU64(slot.invocations_served);
      w.WriteU64(slot.queued);
    }
    w.WriteU64(m.refs_held);
    w.WriteU64(m.p2p_fetch_bytes);
    w.WriteU64(m.p2p_serve_bytes);
    w.WriteU64(m.relayed_result_bytes);
    w.WriteU64(m.arena_hwm_bytes);
  }
  void operator()(const FetchBlobMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kFetchBlob));
    WriteContentId(w, m.id);
    w.WriteU64(m.tag);
    WriteTrace(w, m.trace);
  }
  void operator()(const BlobDataMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kBlobData));
    WriteContentId(w, m.id);
    w.WriteU64(m.tag);
    w.WriteBool(m.ok);
    w.WriteString(m.error);
    WriteTrace(w, m.trace);
    WriteBulk(m.payload);
  }
  void operator()(const DropBlobMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kDropBlob));
    WriteContentId(w, m.id);
  }
  void operator()(const CancelFetchMsg& m) {
    w.WriteU8(static_cast<std::uint8_t>(Tag::kCancelFetch));
    WriteContentId(w, m.id);
  }
};

// --- message decoders -------------------------------------------------------

Result<Message> DecodePutFile(ArchiveReader& r, const Blob* attachment) {
  PutFileMsg m;
  auto decl = ReadFileDecl(r);
  if (!decl.ok()) return decl.status();
  m.decl = std::move(*decl);
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  auto payload = ReadBulk(r, attachment);
  if (!payload.ok()) return payload.status();
  m.payload = std::move(*payload);
  return Message(std::move(m));
}

Result<Message> DecodePutChunk(ArchiveReader& r, const Blob* attachment) {
  PutChunkMsg m;
  auto decl = ReadFileDecl(r);
  if (!decl.ok()) return decl.status();
  m.decl = std::move(*decl);
  for (std::uint64_t* field : {&m.chunk_index, &m.num_chunks, &m.chunk_bytes}) {
    auto v = r.ReadU64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  auto children = ReadRoutes(r, 0);
  if (!children.ok()) return children.status();
  m.children = std::move(*children);
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  auto chunk = ReadBulk(r, attachment);
  if (!chunk.ok()) return chunk.status();
  m.chunk = std::move(*chunk);
  return Message(std::move(m));
}

Result<Message> DecodePushFile(ArchiveReader& r) {
  PushFileMsg m;
  auto decl = ReadFileDecl(r);
  if (!decl.ok()) return decl.status();
  m.decl = std::move(*decl);
  auto dest = r.ReadU64();
  if (!dest.ok()) return dest.status();
  m.dest = *dest;
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeExecuteTask(ArchiveReader& r) {
  ExecuteTaskMsg m;
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  m.task.id = *id;
  auto fn = r.ReadString();
  if (!fn.ok()) return fn.status();
  m.task.function_name = std::move(*fn);
  auto args = ReadBlob(r);
  if (!args.ok()) return args.status();
  m.task.args = std::move(*args);
  auto decls = ReadDecls(r);
  if (!decls.ok()) return decls.status();
  m.task.inputs = std::move(*decls);
  auto inline_count = r.ReadU64();
  if (!inline_count.ok()) return inline_count.status();
  if (*inline_count > r.remaining())
    return DataLossError("inline file count exceeds payload");
  for (std::uint64_t i = 0; i < *inline_count; ++i) {
    auto decl = ReadFileDecl(r);
    if (!decl.ok()) return decl.status();
    auto payload = ReadBlob(r);
    if (!payload.ok()) return payload.status();
    m.task.inline_files.emplace_back(std::move(*decl), std::move(*payload));
  }
  auto res = ReadResources(r);
  if (!res.ok()) return res.status();
  m.task.resources = *res;
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeInstallLibrary(ArchiveReader& r) {
  InstallLibraryMsg m;
  auto instance = r.ReadU64();
  if (!instance.ok()) return instance.status();
  m.instance_id = *instance;
  auto name = r.ReadString();
  if (!name.ok()) return name.status();
  m.spec.name = std::move(*name);
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) return DataLossError("function count exceeds payload");
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto fn = r.ReadString();
    if (!fn.ok()) return fn.status();
    m.spec.function_names.push_back(std::move(*fn));
  }
  auto setup = r.ReadString();
  if (!setup.ok()) return setup.status();
  m.spec.setup_name = std::move(*setup);
  auto setup_args = ReadBlob(r);
  if (!setup_args.ok()) return setup_args.status();
  m.spec.setup_args = std::move(*setup_args);
  auto decls = ReadDecls(r);
  if (!decls.ok()) return decls.status();
  m.spec.inputs = std::move(*decls);
  auto res = ReadResources(r);
  if (!res.ok()) return res.status();
  m.spec.resources = *res;
  auto slots = r.ReadU32();
  if (!slots.ok()) return slots.status();
  m.spec.slots = *slots;
  auto mode = r.ReadU8();
  if (!mode.ok()) return mode.status();
  if (*mode > static_cast<std::uint8_t>(ExecMode::kFork))
    return DataLossError("bad exec mode");
  m.spec.exec_mode = static_cast<ExecMode>(*mode);
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeRunInvocation(ArchiveReader& r) {
  RunInvocationMsg m;
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  m.id = *id;
  auto instance = r.ReadU64();
  if (!instance.ok()) return instance.status();
  m.instance_id = *instance;
  auto fn = r.ReadString();
  if (!fn.ok()) return fn.status();
  m.function_name = std::move(*fn);
  auto args = ReadBlob(r);
  if (!args.ok()) return args.status();
  m.args = std::move(*args);
  auto refs = ReadRefArgs(r);
  if (!refs.ok()) return refs.status();
  m.ref_args = std::move(*refs);
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeRunInvocationBatch(ArchiveReader& r) {
  RunInvocationBatchMsg m;
  auto instance = r.ReadU64();
  if (!instance.ok()) return instance.status();
  m.instance_id = *instance;
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  if (*count > r.remaining())
    return DataLossError("batch item count exceeds payload");
  m.items.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    RunInvocationMsg item;
    item.instance_id = m.instance_id;
    auto id = r.ReadU64();
    if (!id.ok()) return id.status();
    item.id = *id;
    auto fn = r.ReadString();
    if (!fn.ok()) return fn.status();
    item.function_name = std::move(*fn);
    auto args = ReadBlob(r);
    if (!args.ok()) return args.status();
    item.args = std::move(*args);
    auto refs = ReadRefArgs(r);
    if (!refs.ok()) return refs.status();
    item.ref_args = std::move(*refs);
    auto trace = ReadTrace(r);
    if (!trace.ok()) return trace.status();
    item.trace = *trace;
    m.items.push_back(std::move(item));
  }
  return Message(std::move(m));
}

Result<Message> DecodeTaskDone(ArchiveReader& r) {
  TaskDoneMsg m;
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  m.id = *id;
  auto ok = r.ReadBool();
  if (!ok.ok()) return ok.status();
  m.ok = *ok;
  auto result = ReadBlob(r);
  if (!result.ok()) return result.status();
  m.result = std::move(*result);
  auto error = r.ReadString();
  if (!error.ok()) return error.status();
  m.error = std::move(*error);
  auto timing = ReadTiming(r);
  if (!timing.ok()) return timing.status();
  m.timing = *timing;
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeInvocationDone(ArchiveReader& r,
                                     const Blob* attachment) {
  InvocationDoneMsg m;
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  m.id = *id;
  auto instance = r.ReadU64();
  if (!instance.ok()) return instance.status();
  m.instance_id = *instance;
  auto ok = r.ReadBool();
  if (!ok.ok()) return ok.status();
  m.ok = *ok;
  auto result = ReadBulk(r, attachment);
  if (!result.ok()) return result.status();
  m.result = std::move(*result);
  auto ref = ReadBlobRef(r);
  if (!ref.ok()) return ref.status();
  m.ref = *ref;
  auto error = r.ReadString();
  if (!error.ok()) return error.status();
  m.error = std::move(*error);
  auto timing = ReadTiming(r);
  if (!timing.ok()) return timing.status();
  m.timing = *timing;
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeStatusReply(ArchiveReader& r) {
  StatusReplyMsg m;
  auto inbox = r.ReadU64();
  if (!inbox.ok()) return inbox.status();
  m.inbox_depth = *inbox;
  auto tasks = r.ReadU64();
  if (!tasks.ok()) return tasks.status();
  m.tasks_executed = *tasks;
  auto cache_count = r.ReadU64();
  if (!cache_count.ok()) return cache_count.status();
  if (*cache_count > r.remaining())
    return DataLossError("cache count exceeds payload");
  for (std::uint64_t i = 0; i < *cache_count; ++i) {
    CacheEntryStatus entry;
    auto id = ReadContentId(r);
    if (!id.ok()) return id.status();
    entry.id = *id;
    auto bytes = r.ReadU64();
    if (!bytes.ok()) return bytes.status();
    entry.bytes = *bytes;
    m.cache.push_back(entry);
  }
  auto assembly_count = r.ReadU64();
  if (!assembly_count.ok()) return assembly_count.status();
  if (*assembly_count > r.remaining())
    return DataLossError("assembly count exceeds payload");
  for (std::uint64_t i = 0; i < *assembly_count; ++i) {
    AssemblyStatus assembly;
    auto id = ReadContentId(r);
    if (!id.ok()) return id.status();
    assembly.id = *id;
    for (std::uint64_t* field : {&assembly.received, &assembly.total}) {
      auto v = r.ReadU64();
      if (!v.ok()) return v.status();
      *field = *v;
    }
    m.assemblies.push_back(assembly);
  }
  auto library_count = r.ReadU64();
  if (!library_count.ok()) return library_count.status();
  if (*library_count > r.remaining())
    return DataLossError("library count exceeds payload");
  for (std::uint64_t i = 0; i < *library_count; ++i) {
    LibrarySlotStatus slot;
    auto instance = r.ReadU64();
    if (!instance.ok()) return instance.status();
    slot.instance_id = *instance;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    slot.library = std::move(*name);
    for (std::uint64_t* field : {&slot.invocations_served, &slot.queued}) {
      auto v = r.ReadU64();
      if (!v.ok()) return v.status();
      *field = *v;
    }
    m.libraries.push_back(std::move(slot));
  }
  for (std::uint64_t* field :
       {&m.refs_held, &m.p2p_fetch_bytes, &m.p2p_serve_bytes,
        &m.relayed_result_bytes, &m.arena_hwm_bytes}) {
    auto v = r.ReadU64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  return Message(std::move(m));
}

Result<Message> DecodeFetchBlob(ArchiveReader& r) {
  FetchBlobMsg m;
  auto id = ReadContentId(r);
  if (!id.ok()) return id.status();
  m.id = *id;
  auto tag = r.ReadU64();
  if (!tag.ok()) return tag.status();
  m.tag = *tag;
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  return Message(std::move(m));
}

Result<Message> DecodeBlobData(ArchiveReader& r, const Blob* attachment) {
  BlobDataMsg m;
  auto id = ReadContentId(r);
  if (!id.ok()) return id.status();
  m.id = *id;
  auto tag = r.ReadU64();
  if (!tag.ok()) return tag.status();
  m.tag = *tag;
  auto ok = r.ReadBool();
  if (!ok.ok()) return ok.status();
  m.ok = *ok;
  auto error = r.ReadString();
  if (!error.ok()) return error.status();
  m.error = std::move(*error);
  auto trace = ReadTrace(r);
  if (!trace.ok()) return trace.status();
  m.trace = *trace;
  auto payload = ReadBulk(r, attachment);
  if (!payload.ok()) return payload.status();
  m.payload = std::move(*payload);
  return Message(std::move(m));
}

Result<Message> DecodeBody(ArchiveReader& r, std::uint8_t tag,
                           const Blob* attachment) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kPutFile:
      return DecodePutFile(r, attachment);
    case Tag::kPutChunk:
      return DecodePutChunk(r, attachment);
    case Tag::kPushFile:
      return DecodePushFile(r);
    case Tag::kExecuteTask:
      return DecodeExecuteTask(r);
    case Tag::kInstallLibrary:
      return DecodeInstallLibrary(r);
    case Tag::kRemoveLibrary: {
      auto id = r.ReadU64();
      if (!id.ok()) return id.status();
      return Message(RemoveLibraryMsg{*id});
    }
    case Tag::kRunInvocation:
      return DecodeRunInvocation(r);
    case Tag::kShutdown:
      return Message(ShutdownMsg{});
    case Tag::kHello: {
      auto res = ReadResources(r);
      if (!res.ok()) return res.status();
      return Message(HelloMsg{*res});
    }
    case Tag::kFileReady: {
      auto id = ReadContentId(r);
      if (!id.ok()) return id.status();
      auto size = r.ReadU64();
      if (!size.ok()) return size.status();
      return Message(FileReadyMsg{*id, *size});
    }
    case Tag::kFileFailed: {
      auto id = ReadContentId(r);
      if (!id.ok()) return id.status();
      auto error = r.ReadString();
      if (!error.ok()) return error.status();
      return Message(FileFailedMsg{*id, std::move(*error)});
    }
    case Tag::kTaskDone:
      return DecodeTaskDone(r);
    case Tag::kLibraryReady: {
      auto id = r.ReadU64();
      if (!id.ok()) return id.status();
      auto timing = ReadTiming(r);
      if (!timing.ok()) return timing.status();
      auto memory = r.ReadU64();
      if (!memory.ok()) return memory.status();
      return Message(LibraryReadyMsg{*id, *timing, *memory});
    }
    case Tag::kLibraryRemoved: {
      auto id = r.ReadU64();
      if (!id.ok()) return id.status();
      return Message(LibraryRemovedMsg{*id});
    }
    case Tag::kInvocationDone:
      return DecodeInvocationDone(r, attachment);
    case Tag::kGoodbye:
      return Message(GoodbyeMsg{});
    case Tag::kStatusRequest:
      return Message(StatusRequestMsg{});
    case Tag::kStatusReply:
      return DecodeStatusReply(r);
    case Tag::kRunInvocationBatch:
      return DecodeRunInvocationBatch(r);
    case Tag::kFetchBlob:
      return DecodeFetchBlob(r);
    case Tag::kBlobData:
      return DecodeBlobData(r, attachment);
    case Tag::kDropBlob: {
      auto id = ReadContentId(r);
      if (!id.ok()) return id.status();
      return Message(DropBlobMsg{*id});
    }
    case Tag::kCancelFetch: {
      auto id = ReadContentId(r);
      if (!id.ok()) return id.status();
      return Message(CancelFetchMsg{*id});
    }
  }
  return DataLossError("unknown message tag " + std::to_string(tag));
}

Result<Message> DecodeImpl(const Blob& blob, const Blob* attachment) {
  ArchiveReader r(blob);
  auto tag = r.ReadU8();
  if (!tag.ok()) return tag.status();
  auto message = DecodeBody(r, *tag, attachment);
  if (!message.ok()) return message.status();
  // A well-formed payload is consumed exactly; leftover bytes mean a
  // corrupt or mismatched frame, not extra data to ignore.
  if (!r.AtEnd())
    return DataLossError("trailing bytes after message tag " +
                         std::to_string(*tag) + ": " +
                         std::to_string(r.remaining()) + " unread");
  return message;
}

}  // namespace

Blob EncodeMessage(const Message& message) {
  Encoder encoder;
  std::visit(encoder, message);
  return std::move(encoder.w).ToBlob();
}

Result<Message> DecodeMessage(const Blob& blob) {
  return DecodeImpl(blob, nullptr);
}

WireFrame EncodeFrame(const Message& message,
                      std::optional<std::uint32_t> attachment_crc) {
  WireFrame frame;
  Encoder encoder;
  encoder.attachment_out = &frame.attachment;
  std::visit(encoder, message);
  ArchiveWriter& w = encoder.w;
  w.WriteU32(attachment_crc ? *attachment_crc
                            : hash::Crc32c::Of(frame.attachment.span()));
  w.WriteU32(hash::Crc32c::Of(w.buffer().span()));
  frame.payload = std::move(w).ToBlob();
  return frame;
}

namespace {

/// Trailer word `index` (0 = attachment CRC, 1 = header CRC) of a payload
/// at least kFrameTrailerBytes long.
std::uint32_t TrailerWord(const Blob& payload, std::size_t index) {
  const auto word = payload.span().subspan(
      payload.size() - kFrameTrailerBytes + 4 * index, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | word[i];
  return v;
}

}  // namespace

Result<Message> DecodeFrame(const net::Frame& frame) {
  const Blob& payload = frame.payload;
  if (payload.size() < kFrameTrailerBytes)
    return DataLossError("frame shorter than its checksum trailer");
  const std::size_t body = payload.size() - kFrameTrailerBytes;
  if (hash::Crc32c::Of(payload.span().first(body + 4)) !=
      TrailerWord(payload, 1))
    return DataLossError("frame header checksum mismatch");
  const bool attachment_ok =
      hash::Crc32c::Of(frame.attachment.span()) == TrailerWord(payload, 0);
  auto message =
      DecodeImpl(payload.Slice(0, body),
                 frame.attachment.empty() ? nullptr : &frame.attachment);
  if (!message.ok() || attachment_ok) return message;
  // The header is intact, so the damage is confined to the bulk bytes.  A
  // fetched ref payload becomes a replica miss, which the fetching worker
  // already answers by failing the parked calls so the manager retries
  // them; any other damaged attachment loses the whole frame.
  if (auto* data = std::get_if<BlobDataMsg>(&*message)) {
    data->ok = false;
    data->payload = Blob();
    data->error = "attachment checksum mismatch";
    return message;
  }
  return DataLossError("frame attachment checksum mismatch");
}

std::uint32_t FrameAttachmentCrc(const net::Frame& frame) {
  return TrailerWord(frame.payload, 0);
}

}  // namespace vinelet::core
