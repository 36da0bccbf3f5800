#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dsrt/fault/injector.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/config.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/workload/generator.hpp"
#include "dsrt/workload/trace_io.hpp"

namespace dsrt::system {

/// One fully wired simulation run: simulator + k nodes + process manager +
/// workload sources, built from a `Config`. A run is a pure function of
/// (config, replication index): all stochastic sources draw from seeded,
/// independent streams.
class SimulationRun {
 public:
  /// Ready-queue depth every node reserves, whatever k. A node's peak
  /// depth follows its load and the parallel fan-in, not k (about 10 in
  /// the k=4096 benchmark run); past this depth a queue grows at its new
  /// high-water marks. Kept small so each node's state stays compact.
  static constexpr std::size_t kReadyReserve = 8;

  /// `replication` selects an independent seed stream (the paper runs two
  /// independent replications per data point).
  explicit SimulationRun(const Config& config, std::uint64_t replication = 0);

  SimulationRun(const SimulationRun&) = delete;
  SimulationRun& operator=(const SimulationRun&) = delete;

  /// Executes the run to the configured horizon and returns the collected
  /// metrics. Call at most once.
  RunMetrics run();

  /// Introspection for tests and examples.
  const std::vector<std::unique_ptr<sched::Node>>& nodes() const {
    return nodes_;
  }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  ProcessManager& process_manager() { return *pm_; }
  const ProcessManager& process_manager() const { return *pm_; }
  const Config& config() const { return cfg_; }

  /// Attaches a lifecycle observer for this run (see system::Observer).
  void set_observer(Observer* observer) { pm_->set_observer(observer); }

  /// Attaches a workload-trace exporter: every task release (generated or
  /// replayed) is written through it. Capture is write-only — the run's
  /// trajectory and metrics are bit-for-bit identical with or without a
  /// writer attached. Call before run(); the writer must outlive the run.
  void set_trace_writer(workload::TraceWriter* writer) {
    trace_writer_ = writer;
  }

  /// The generated workload sources (empty / null when replaying a trace).
  const std::vector<std::unique_ptr<workload::LocalTaskSource>>&
  local_sources() const {
    return local_sources_;
  }
  const workload::GlobalTaskSource* global_source() const {
    return global_source_.get();
  }
  /// The replay source (null unless cfg.trace is set).
  const workload::TraceSource* trace_source() const {
    return trace_source_.get();
  }

  /// The load model wired from cfg.load_model (nullptr when kind = None).
  const core::LoadModel* load_model() const { return load_model_.get(); }

  /// The placement policy wired from cfg.placement (nullptr when kind =
  /// Static: static runs skip the placement engine entirely and reproduce
  /// the generation-time binding bit for bit).
  const core::PlacementPolicy* placement() const { return placement_.get(); }

  /// The fault injector wired from cfg.faults (nullptr when nothing is
  /// enabled: fault-free runs build no injector and stay bit-for-bit
  /// identical to a build without the fault subsystem).
  const fault::FaultInjector* fault_injector() const { return faults_.get(); }

 private:
  void schedule_snapshot_refresh();

  Config cfg_;
  sim::Simulator sim_;
  RunMetrics metrics_;
  std::vector<std::unique_ptr<sched::Node>> nodes_;
  /// One accounting slot per node (compute + link), sharded in cache-line-
  /// aligned blocks; shards never move, so the raw pointers the nodes
  /// attach stay valid for the life of the run even at k=4096.
  core::LoadBoard load_board_;
  std::shared_ptr<core::LoadModel> load_model_;
  core::SnapshotLoadModel* snapshot_model_ = nullptr;  ///< non-null iff
                                                       ///< sampled/stale
  /// Fresh per run (jsq tie-break state is per-run, like the strategies'
  /// clone_for_run state); null for Static.
  core::PlacementPolicyPtr placement_;
  /// Failure processes (cfg.faults); null when nothing is enabled.
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<ProcessManager> pm_;
  std::vector<std::unique_ptr<workload::LocalTaskSource>> local_sources_;
  std::unique_ptr<workload::GlobalTaskSource> global_source_;
  /// Replay state (cfg.trace): the loaded file and the source driving it.
  std::unique_ptr<workload::Trace> trace_;
  std::unique_ptr<workload::TraceSource> trace_source_;
  workload::TraceWriter* trace_writer_ = nullptr;  ///< optional capture hook
  bool ran_ = false;
};

/// Convenience: builds and executes one run.
RunMetrics simulate(const Config& config, std::uint64_t replication = 0);

}  // namespace dsrt::system
