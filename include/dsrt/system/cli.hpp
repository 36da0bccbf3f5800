#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/system/config.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::system {

/// Sets one Config field to one parsed value.
using ConfigSetter = std::function<void(Config&)>;

/// One config field: its flag name and a strict parse of a value text into
/// a setter (throws on garbage). The one vocabulary of `--<field>=v`,
/// `--sweep_<field>=v1,...` (engine::SweepAxis::by_field) and the
/// manifests' choices.
struct ConfigField {
  std::string_view name;
  std::function<ConfigSetter(const std::string&)> parse;
};

/// Every config field, in the order config_from_flags applies them:
/// `shape` first (it sets its section baseline's slack laws and sp_shape),
/// `load_model` before `lm_tau` (it keeps the config's tau), `quick` after
/// `horizon`. The lo/hi pairs smin/smax and m_min/m_max compose in either
/// order, and `hop` is read only when `links` > 0.
const std::vector<ConfigField>& config_fields();

/// The setter for `field`=`value`. Throws std::invalid_argument naming the
/// field and value for an unknown field or an unparsable value.
ConfigSetter config_setter(std::string_view field, const std::string& value);

/// Builds a Config from command-line flags: baseline_ssp() with every
/// config field that was given applied in table order, then validated.
/// Throws std::invalid_argument for an unknown flag (is_cli_flag), a
/// positional argument, a bad value or an invalid combination.
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

/// The --help text; its sweepable-field list is config_fields().
std::string cli_usage();

/// True for a config field, a run-control flag or a `sweep_<field>` axis
/// (without the leading "--").
bool is_cli_flag(std::string_view name);

}  // namespace dsrt::system
