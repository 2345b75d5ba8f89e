// The manager ↔ worker wire protocol.
//
// Every interaction in the real runtime is one of these messages, serialized
// to bytes before it crosses the Network (nothing structured is shared
// between threads).  The message set mirrors TaskVine's split between the
// data plane (file placement: put/push/ready), the task plane (stateless
// ExecuteTask), and the invocation plane added by the paper (InstallLibrary,
// RunInvocation, RemoveLibrary — §3.4/§3.5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/blob_ref.hpp"
#include "core/resources.hpp"
#include "core/types.hpp"
#include "net/network.hpp"
#include "storage/file_decl.hpp"
#include "telemetry/span.hpp"

namespace vinelet::core {

// ---------------------------------------------------------------------------
// Specs carried inside messages.
// ---------------------------------------------------------------------------

/// A stateless task (execution levels L1/L2): brings its code, data and
/// arguments along (Table 1, row "Task").
///
/// `inputs` are cache-resident files the manager staged ahead of time (L2);
/// `inline_files` ride with the task itself and are discarded after it —
/// the L1 behaviour of re-pulling everything on every execution.
struct TaskSpec {
  TaskId id = 0;
  std::string function_name;
  Blob args;  // serialized Value
  std::vector<storage::FileDecl> inputs;
  std::vector<std::pair<storage::FileDecl, Blob>> inline_files;
  Resources resources;
};

/// A library: the "special task" whose daemon retains the function context
/// (paper §3.4).  Serialized function code and shared input data travel as
/// content-addressed input files; the spec itself only carries names and
/// policy.
struct LibrarySpec {
  std::string name;
  std::vector<std::string> function_names;
  std::string setup_name;  // context-setup function ("" = none)
  Blob setup_args;         // serialized Value passed to the setup
  std::vector<storage::FileDecl> inputs;
  Resources resources = Resources::All();
  std::uint32_t slots = 1;
  ExecMode exec_mode = ExecMode::kDirect;
};

// ---------------------------------------------------------------------------
// Manager → worker.
// ---------------------------------------------------------------------------
//
// Causality: the data- and invocation-plane messages carry a
// telemetry::TraceContext (two u64s on the wire) naming the trace they
// belong to and the sender-side span that caused them, so the receiver's
// spans link into the same end-to-end story.  Replies (TaskDone /
// InvocationDone) carry the worker's exec-span context back, so the
// manager's result span parents across the wire in both directions.  A
// zero context is "untraced" and costs nothing downstream.

/// Deliver a file's payload (manager-sourced or peer-pushed).
struct PutFileMsg {
  storage::FileDecl decl;
  Blob payload;
  telemetry::TraceContext trace;
};

/// Instruct the receiving worker (a holder of the file) to push it to a
/// peer: the spanning-tree building block (§3.3).
struct PushFileMsg {
  storage::FileDecl decl;
  WorkerId dest = 0;
  telemetry::TraceContext trace;
};

/// One subtree of a pipelined broadcast: the receiver forwards each chunk to
/// `dest` and hands it `children` as its own subtrees.  Routes travel inside
/// every chunk message, so relays are stateless — a worker needs no broadcast
/// bookkeeping to participate, and the manager can re-route around a dead
/// relay just by re-sending chunks with a different (or empty) route.
struct ChunkRoute {
  WorkerId dest = 0;
  std::vector<ChunkRoute> children;
};

/// One chunk of a pipelined (cut-through) broadcast.  The receiver forwards
/// the chunk to each subtree in `children` *before* local reassembly, so a
/// chunk crosses the whole tree in depth × chunk-time instead of each hop
/// waiting for the full blob.  When sent via EncodeFrame, `chunk` rides as
/// the frame's borrowed attachment: relays forward the same refcounted bytes
/// they received, copying nothing.
struct PutChunkMsg {
  storage::FileDecl decl;           // the whole blob being distributed
  std::uint64_t chunk_index = 0;
  std::uint64_t num_chunks = 0;
  std::uint64_t chunk_bytes = 0;    // nominal chunk size (last may be short)
  std::vector<ChunkRoute> children; // subtrees this receiver relays to
  Blob chunk;
  /// Parent for this hop's receive span; relays re-stamp it with their own
  /// receive span before forwarding, so the trace mirrors the tree.
  telemetry::TraceContext trace;
};

struct ExecuteTaskMsg {
  TaskSpec task;
  telemetry::TraceContext trace;
};

struct InstallLibraryMsg {
  LibrarySpec spec;
  LibraryInstanceId instance_id = 0;
  telemetry::TraceContext trace;
};

struct RemoveLibraryMsg {
  LibraryInstanceId instance_id = 0;
};

/// One pass-by-reference argument of an invocation: which top-level argument
/// position it fills, the ref itself, and the replica the manager chose for
/// the consumer to fetch from (`source` is stamped at dispatch time from the
/// live ReplicaTable; 0 means the target already holds the payload).
struct RefArg {
  std::uint32_t arg_index = 0;
  BlobRef ref;
  WorkerId source = 0;
};

struct RunInvocationMsg {
  InvocationId id = 0;
  LibraryInstanceId instance_id = 0;
  std::string function_name;
  Blob args;  // serialized Value — all an invocation needs (Table 1)
  /// Arguments passed by reference: the worker fetches each missing payload
  /// peer-to-peer from `source` before the invocation runs, and the library
  /// splices the materialized Value into `args` at `arg_index`.
  std::vector<RefArg> ref_args;
  telemetry::TraceContext trace;
};

/// Batched dispatch: N invocations against one library instance in a single
/// frame, amortizing the per-message protocol and span overhead (the DFlow
/// argument).  Each item keeps its own id, arguments and TraceContext, and
/// the worker answers with one InvocationDoneMsg per item — causal traces
/// and exactly-once future resolution are untouched by batching.
struct RunInvocationBatchMsg {
  LibraryInstanceId instance_id = 0;
  std::vector<RunInvocationMsg> items;  // item.instance_id == instance_id
};

struct ShutdownMsg {};

/// Live-introspection probe (manager → worker): answer with a
/// StatusReplyMsg snapshot.
struct StatusRequestMsg {};

// ---------------------------------------------------------------------------
// Worker → manager.
// ---------------------------------------------------------------------------

struct HelloMsg {
  Resources resources;
};

struct FileReadyMsg {
  hash::ContentId content_id;
  std::uint64_t size = 0;
};

struct FileFailedMsg {
  hash::ContentId content_id;
  std::string error;
};

struct TaskDoneMsg {
  TaskId id = 0;
  bool ok = false;
  Blob result;        // serialized Value on success
  std::string error;  // on failure
  TimingBreakdown timing;
  telemetry::TraceContext trace;  // the worker's exec-span context
};

struct LibraryReadyMsg {
  LibraryInstanceId instance_id = 0;
  TimingBreakdown timing;  // transfer/unpack/context-setup costs (Table 5 row L3-Library)
  /// Worker memory retained by the context — reported so the manager can
  /// account for occupied resources (paper §2.1.3).
  std::uint64_t context_memory_bytes = 0;
};

struct LibraryRemovedMsg {
  LibraryInstanceId instance_id = 0;
};

struct InvocationDoneMsg {
  InvocationId id = 0;
  /// Echo of the RunInvocationMsg's instance, so the manager finds the
  /// call's slot directly.  Set on every reply, including the failures a
  /// worker reports on its own (fetch, missing instance).
  LibraryInstanceId instance_id = 0;
  bool ok = false;
  /// Inline result bytes.  Sent via EncodeFrame the blob rides as the frame
  /// attachment, so even by-value results cross the manager's inbox as a
  /// borrowed refcounted view, never a second copy.  Empty when `ref` is
  /// set: the payload stayed in the producing worker's store.
  Blob result;
  /// Pass-by-reference result (valid() when the worker retained the payload
  /// and the manager should record placement instead of relaying bytes).
  BlobRef ref;
  std::string error;
  TimingBreakdown timing;
  telemetry::TraceContext trace;  // the worker's exec-span context
};

struct GoodbyeMsg {};

// ---------------------------------------------------------------------------
// Peer-to-peer ref data plane (worker ↔ worker, manager-mediated recovery).
// ---------------------------------------------------------------------------

/// Worker → worker: ask a replica holder for a ref payload.
/// The requester is the frame's sender; `tag` is an opaque correlation id
/// echoed on the BlobDataMsg so a requester can match replies to fetches.
struct FetchBlobMsg {
  hash::ContentId id;
  std::uint64_t tag = 0;
  telemetry::TraceContext trace;
};

/// Worker → worker: the fetched payload (or a miss).  Via EncodeFrame the
/// payload rides as the frame attachment — the serving worker forwards its
/// cached refcounted bytes without copying, same as the chunk relay.
struct BlobDataMsg {
  hash::ContentId id;
  std::uint64_t tag = 0;
  bool ok = false;
  Blob payload;
  std::string error;
  telemetry::TraceContext trace;
};

/// Manager → worker: a ref's consumers are all settled and the manager
/// released it — unpin and drop the payload from the local store.
struct DropBlobMsg {
  hash::ContentId id;
};

/// Manager → worker: the replica a pending fetch was directed at died; fail
/// the invocations parked on `id` so they requeue and re-dispatch against a
/// surviving replica.  Idempotent if the fetch already completed.
struct CancelFetchMsg {
  hash::ContentId id;
};

/// One cached context on a worker, for the status reply.
struct CacheEntryStatus {
  hash::ContentId id;
  std::uint64_t bytes = 0;
};

/// One in-progress chunked-broadcast reassembly on a worker.
struct AssemblyStatus {
  hash::ContentId id;
  std::uint64_t received = 0;  // chunks landed
  std::uint64_t total = 0;     // chunks expected
};

/// One resident library instance on a worker.
struct LibrarySlotStatus {
  LibraryInstanceId instance_id = 0;
  std::string library;
  std::uint64_t invocations_served = 0;
  std::uint64_t queued = 0;  // submitted, not yet completed
};

/// Worker → manager answer to StatusRequestMsg: the worker's live state.
struct StatusReplyMsg {
  std::uint64_t inbox_depth = 0;     // frames waiting in the worker's inbox
  std::uint64_t tasks_executed = 0;  // lifetime stateless-task count
  std::vector<CacheEntryStatus> cache;
  std::vector<AssemblyStatus> assemblies;
  std::vector<LibrarySlotStatus> libraries;
  // Data-plane counters (pass-by-reference path).
  std::uint64_t refs_held = 0;          // pinned ref payloads in the store
  std::uint64_t p2p_fetch_bytes = 0;    // ref bytes fetched from peers
  std::uint64_t p2p_serve_bytes = 0;    // ref bytes served to peers
  std::uint64_t relayed_result_bytes = 0;  // by-value result bytes sent up
  std::uint64_t arena_hwm_bytes = 0;    // encode buffer-pool high-water mark
};

using Message =
    std::variant<PutFileMsg, PushFileMsg, ExecuteTaskMsg, InstallLibraryMsg,
                 RemoveLibraryMsg, RunInvocationMsg, ShutdownMsg, HelloMsg,
                 FileReadyMsg, FileFailedMsg, TaskDoneMsg, LibraryReadyMsg,
                 LibraryRemovedMsg, InvocationDoneMsg, GoodbyeMsg, PutChunkMsg,
                 StatusRequestMsg, StatusReplyMsg, RunInvocationBatchMsg,
                 FetchBlobMsg, BlobDataMsg, DropBlobMsg, CancelFetchMsg>;

/// Serializes a message to a single self-contained blob (bulk payloads
/// inline, no checksum): the raw codec that tests and offline tools use.
/// Everything the runtime sends goes through EncodeFrame instead.
Blob EncodeMessage(const Message& message);

/// Parses a self-contained blob; kDataLoss on any malformed input.
Result<Message> DecodeMessage(const Blob& blob);

/// A message encoded for the wire: a small header payload plus an optional
/// bulk attachment.  PutFile's payload and PutChunk's chunk travel as the
/// attachment — a borrowed refcounted view, never re-copied into the
/// header's ByteBuffer — so forwarding bulk data is pointer traffic.
struct WireFrame {
  Blob payload;
  Blob attachment;
};

/// The payload ends in a trailer of two little-endian CRC-32Cs: one of the
/// attachment, then one of everything before it (the encoded message and
/// the attachment CRC).  Both transports carry it unchanged, so every frame
/// is checked end to end whichever way it travels.
inline constexpr std::size_t kFrameTrailerBytes = 8;

/// `attachment_crc`, when set, must be the CRC-32C of the attachment the
/// message carries: a relay forwarding bytes it received intact passes the
/// value their trailer held (FrameAttachmentCrc) instead of a second pass.
WireFrame EncodeFrame(const Message& message,
                      std::optional<std::uint32_t> attachment_crc = {});

/// Verifies the trailer and decodes a received frame, reattaching the bulk
/// payload zero-copy.  kDataLoss when the header fails its checksum or does
/// not parse, or when the attachment fails its checksum — except for a
/// BlobDataMsg, which decodes as a miss (ok = false, no payload) so the
/// fetch fails over like any other miss.
Result<Message> DecodeFrame(const net::Frame& frame);

/// The attachment CRC in the trailer of a frame DecodeFrame accepted.
std::uint32_t FrameAttachmentCrc(const net::Frame& frame);

}  // namespace vinelet::core
