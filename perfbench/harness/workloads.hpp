// The benchmark's workloads and the per-layer accounting they share.
//
//   l3-open      tiny L3 calls from a warm library: a fixed-rate open-loop
//                Poisson phase (latency) and a saturating backlog phase
//                (throughput).  Stresses manager, protocol and net on small
//                frames.
//   lnni-levels  the paper's LNNI inference at reuse levels L1, L2, L3.
//                Stresses poncho unpack, staging/broadcast and context
//                retention with large frames.
//   dag-chain    W dependent chains of depth D whose >= 64 KiB results pass
//                by reference, joined by a fan-in.  Latency-bound traffic:
//                every edge pays result -> manager -> dispatch plus a
//                peer-to-peer fetch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "harness/cluster.hpp"
#include "harness/report.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Measurement budget for the run (set-up excluded).
  double seconds = 10.0;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

/// Set-ups per untraced measured section; setup_s is their median.
constexpr int kSetups = 5;

/// One measured section of a workload: set up on a fresh cluster (see
/// SetUpRepeatedly), run for `seconds`, report its metrics (per-layer ones
/// when `traced`), and return its throughput (the workload's inv_per_s).
using MeasureFn = std::function<double(bool traced, double seconds,
                                       std::vector<double>& setups)>;

/// Untraced run: one section for the whole budget, then setup_s and
/// rss_peak_mb.  Traced run: an untraced section for 40 % of the budget, a
/// traced one for 60 %, and trace.overhead_ratio from their throughputs.
void RunSections(const RunConfig& config, Report& report,
                 const MeasureFn& measure);

/// Sets up kSetups times (once when `traced`), freeing each cluster before
/// building the next; `setup` keeps the last one, `setups` gets every
/// set-up time.  `set_up()` returns Result<Setup>, where Setup has a
/// `seconds` member.  False (and a report failure) if any set-up fails.
template <typename Setup, typename SetUpFn>
bool SetUpRepeatedly(bool traced, Setup& setup, std::vector<double>& setups,
                     Report& report, SetUpFn&& set_up) {
  for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
    setup = Setup{};
    auto attempt = set_up();
    if (!attempt.ok()) {
      report.Fail("set-up: " + attempt.status().ToString());
      return false;
    }
    setup = std::move(*attempt);
    setups.push_back(setup.seconds);
  }
  return true;
}

void RunL3Open(const RunConfig& config, Report& report);
void RunLnniLevels(const RunConfig& config, Report& report);
void RunDagChain(const RunConfig& config, Report& report);

/// What a workload hands the per-layer ledger about its measured section.
/// Counter-like fields cover only the measured section (set-up excluded).
struct LayerInputs {
  std::uint64_t ops = 0;    ///< operations completed (the per-op denominator)
  std::uint64_t tasks = 0;  ///< of which stateless tasks (L1/L2)
  std::vector<double> submit_s;       ///< SubmitCall/SubmitTask durations
  std::vector<double> deserialize_s;  ///< Outcome.timing.deserialize_s, calls
  double task_transfer_s = 0.0;       ///< sum of Outcome.timing.transfer_s
  double task_stage_s = 0.0;          ///< sum of Outcome.timing.worker_s
  std::uint64_t rebuilt = 0;          ///< invocations that rebuilt the model
  std::uint64_t rebuilt_of = 0;       ///< invocations that reported it
  double pack_s = 0.0;                ///< poncho environment packing
  double broadcast_s = 0.0;           ///< context broadcast in set-up
  std::uint64_t ref_bytes_consumed = 0;  ///< ref payload bytes consumers read
  /// One representative message of each kind the workload puts on the wire
  /// (replayed through EncodeMessage/DecodeMessage).
  std::vector<vinelet::core::Message> replay;
};

/// Baselines taken when a measured section starts.
struct LayerBaseline {
  Usage usage;
  std::vector<vinelet::net::ConnectionStats> hub;
  std::vector<vinelet::net::ConnectionStats> all;
  std::uint64_t p2p_fetch_bytes = 0;
  std::uint64_t relayed_result_bytes = 0;
  /// The metrics registry as set-up left it (the section starts from a
  /// reset registry); set-up-time layers such as broadcast read it.
  vinelet::telemetry::MetricsSnapshot setup;
};

/// Zeroes the cluster's metrics registry and records the baselines.
LayerBaseline BeginMeasured(TcpCluster& cluster);

/// Reports every per-layer metric shared by the workloads (see README.md),
/// from the cluster's exported state and `inputs`.  Call before Stop().
void ReportLayers(TcpCluster& cluster, const LayerBaseline& baseline,
                  const LayerInputs& inputs, Report& report);


}  // namespace perfbench
