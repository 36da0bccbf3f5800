#pragma once

#include <string>
#include <string_view>

#include "dsrt/system/config.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::system {

/// Builds a Config from command-line flags, starting from the Table-1
/// baseline of the requested shape. Lets any experiment be run without
/// writing code:
///
///   --shape=serial|parallel|serial-parallel   (default serial)
///   --load=0.5 --frac_local=0.75 --nodes=6 --m=4
///   --ssp=UD|ED|EQS|EQF|EQS-S|EQF-S           (serial strategy)
///   --psp=UD|DIV<x>|GF                        (parallel strategy)
///   --policy=EDF|MLF|FCFS|SJF                 (local scheduler)
///   --abort=NoAbort|AbortTardy|AbortHopeless
///   --rel_flex=1.0
///   --smin=0.25 --smax=2.5                    (local slack range)
///   --pex_err=0.5        (uniform relative error; 0 = perfect)
///   --m_min=2 --m_max=6  (random per-task subtask count; optional)
///   --sp_stages=3 --sp_prob=0.5 --sp_width=3  (serial-parallel shape)
///   --links=2 --hop=0.25 (network-as-nodes: link count, mean hop time)
///   --arrivals=poisson|batch:..|mmpp:..|onoff:..|diurnal:..  (arrival process)
///   --service=exp|const|erlang:k|h2:scv|pareto:a|lognormal:s
///                        (subtask service law, matched-mean)
///   --trace=FILE         (replay a workload trace instead of generating)
///   --periodic           (deterministic global inter-arrivals)
///   --horizon=1e6 --warmup=0 --seed=...
///
/// Unknown flags (check_flags) and unknown strategy/policy names throw
/// std::invalid_argument with the offending name.
Config config_from_flags(const util::Flags& flags);

/// Run-control options shared by the CLI tools: how many replications,
/// how many worker threads, and where the run record goes. Config
/// describes *what* to simulate; RunOptions describe *how* to orchestrate
/// and report it (consumed by the engine layer).
struct RunOptions {
  std::size_t reps = 2;      ///< replications per data point (paper: 2)
  std::size_t jobs = 1;      ///< worker threads; 0 = hardware concurrency
  /// --out=DIR: write DIR/sim_cli.jsonl, one xp artifact line per sweep
  /// point (exact means and per-replication values); empty = print only.
  std::string out_dir;
  /// --trace_out=FILE: re-run replication 0 of the first sweep point with a
  /// Perfetto exporter attached and write the trace_events JSON there
  /// (empty = no trace).
  std::string trace_out;
  /// --capture=FILE: re-run replication 0 of the first sweep point with a
  /// workload-trace writer attached and write the releases there in the
  /// trace_io format, ready for --trace replay (empty = no capture).
  std::string capture;
};

/// Parses run control:
///   --reps=2 --jobs=1 --out=DIR --trace_out=FILE --capture=FILE
/// Throws std::invalid_argument on --reps < 1 or --jobs < 0.
RunOptions run_options_from_flags(const util::Flags& flags);

/// Returns the usage text above (for --help handling in tools).
std::string cli_usage();

/// True for a flag name cli_usage() documents (without the leading
/// "--"), including every `sweep_<field>` axis.
bool is_cli_flag(std::string_view name);

/// Throws std::invalid_argument("unknown flag --<name>") for the first
/// flag that is not is_cli_flag, so a typo never runs as the default.
void check_flags(const util::Flags& flags);

}  // namespace dsrt::system
