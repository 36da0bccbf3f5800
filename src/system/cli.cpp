#include "dsrt/system/cli.hpp"

#include <limits>
#include <stdexcept>
#include <type_traits>

#include "dsrt/fault/spec.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/workload/service.hpp"

namespace dsrt::system {

namespace {

using Parse = std::function<ConfigSetter(const std::string&)>;

/// Strict parse of a whole value text: bool (util::parse_bool), double
/// (util::parse_double), string (verbatim) or an unsigned count or seed
/// (util::parse_uint, so "-1", "4.7" and "1e3" all fail).
template <class T>
T parse_as(const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (const auto v = util::parse_bool(text)) return *v;
    throw std::invalid_argument("expected a bool");
  } else if constexpr (std::is_same_v<T, double>) {
    if (const auto v = util::parse_double(text)) return *v;
    throw std::invalid_argument("expected a finite number");
  } else {
    static_assert(std::is_unsigned_v<T>);
    const auto v = util::parse_uint(text);
    if (v && *v <= std::numeric_limits<T>::max()) return static_cast<T>(*v);
    throw std::invalid_argument("expected a non-negative integer");
  }
}

/// A field whose value text `parse` turns into the value `store` sets.
template <class Parser, class Store>
Parse field(Parser parse, Store store) {
  return [parse, store](const std::string& text) -> ConfigSetter {
    const auto v = parse(text);
    return [store, v](Config& cfg) { store(cfg, v); };
  };
}

/// A field stored in one Config member: parse_as<T>, or a by-name registry
/// or spec parser.
template <class T, class Parser = T (*)(const std::string&)>
Parse member(T Config::*slot, Parser parse = parse_as<T>) {
  return field(parse, [slot](Config& cfg, const T& v) { cfg.*slot = v; });
}

/// Moves one bound of a uniform range and keeps the other, so a lo/hi
/// pair composes in either order. A bound moved past the other opens that
/// side (an infinite mean, which Config::validate rejects) until the
/// matching bound closes it again.
sim::DistributionPtr with_bound(double lo, double hi, bool upper, double v) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  return upper ? sim::uniform(v < lo ? -inf : lo, v)
               : sim::uniform(v, v > hi ? inf : hi);
}

/// --smin/--smax: one bound of the local slack range, U[0.25, 2.5] when
/// the slack is not uniform. The parallel shape's classes share it.
Parse slack_bound(bool upper) {
  return field(parse_as<double>, [upper](Config& cfg, double v) {
    const auto* range =
        dynamic_cast<const sim::Uniform*>(cfg.local_slack.get());
    cfg.local_slack = with_bound(range ? range->lo() : 0.25,
                                 range ? range->hi() : 2.5, upper, v);
    if (cfg.shape == GlobalShape::Parallel)
      cfg.parallel_slack = cfg.local_slack;
  });
}

/// --m_min/--m_max: one bound of the per-task subtask-count range. With no
/// range yet, m_min alone is U[m_min, m_min] and m_max alone U[1, m_max].
Parse count_bound(bool upper) {
  return field(parse_as<double>, [upper](Config& cfg, double v) {
    const auto* range =
        dynamic_cast<const sim::Uniform*>(cfg.subtask_count.get());
    cfg.subtask_count = with_bound(range ? range->lo() : 1.0,
                                   range ? range->hi() : v, upper, v);
  });
}

}  // namespace

const std::vector<ConfigField>& config_fields() {
  static const std::vector<ConfigField> fields = {
      // First: a shape switch sets the four fields its section baseline
      // changes of baseline_ssp() (Section 5.2's shared U[1.25, 5.0]
      // slack, the 3-stage sp_shape), which later fields refine.
      {"shape", field(
                    [](const std::string& text) {
                      if (text == "serial") return baseline_ssp();
                      if (text == "parallel") return baseline_psp();
                      if (text == "serial-parallel") return baseline_combined();
                      throw std::invalid_argument(
                          "unknown shape (serial|parallel|serial-parallel)");
                    },
                    [](Config& cfg, const Config& shaped) {
                      cfg.shape = shaped.shape;
                      cfg.local_slack = shaped.local_slack;
                      cfg.parallel_slack = shaped.parallel_slack;
                      cfg.sp_shape = shaped.sp_shape;
                    })},
      {"load", member(&Config::load)},
      {"frac_local", member(&Config::frac_local)},
      {"nodes", member(&Config::nodes)},
      {"m", member(&Config::subtasks)},
      {"rel_flex", member(&Config::rel_flex)},
      {"ssp", member(&Config::ssp, core::serial_strategy_by_name)},
      {"psp", member(&Config::psp, core::parallel_strategy_by_name)},
      // Before lm_tau, and keeping the config's tau: the utilization-EWMA
      // time constant is lm_tau's alone.
      {"load_model", field(core::LoadModelSpec::parse,
                           [](Config& cfg, core::LoadModelSpec spec) {
                             spec.ewma_tau = cfg.load_model.ewma_tau;
                             cfg.load_model = spec;
                           })},
      {"lm_tau", field(parse_as<double>, [](Config& cfg, double tau) {
         cfg.load_model.ewma_tau = tau;
         cfg.load_model.validate();
       })},
      {"placement", member(&Config::placement, core::PlacementSpec::parse)},
      {"arrivals", member(&Config::arrivals, workload::ArrivalSpec::parse)},
      // Matched-mean: only the law changes; the subtask mean (and with it
      // the offered load) is kept.
      {"service", field(workload::ServiceSpec::parse,
                        [](Config& cfg, const workload::ServiceSpec& spec) {
                          cfg.subtask_exec =
                              spec.make(cfg.subtask_exec->mean());
                        })},
      {"trace", member(&Config::trace)},
      {"policy", member(&Config::policy, sched::policy_by_name)},
      {"abort", member(&Config::abort_policy, sched::abort_policy_by_name)},
      {"smin", slack_bound(false)},
      {"smax", slack_bound(true)},
      {"pex_err", member(&Config::pex_error,
                         [](const std::string& text) {
                           const double error = parse_as<double>(text);
                           if (!(error >= 0))
                             throw std::invalid_argument(
                                 "expected an error magnitude >= 0");
                           return error > 0
                                      ? workload::make_uniform_relative_error(
                                            error)
                                      : workload::make_perfect_prediction();
                         })},
      {"m_min", count_bound(false)},
      {"m_max", count_bound(true)},
      {"sp_stages", field(parse_as<std::size_t>,
                          [](Config& cfg, std::size_t n) {
                            cfg.sp_shape.stages = n;
                          })},
      {"sp_prob", field(parse_as<double>, [](Config& cfg, double p) {
         cfg.sp_shape.parallel_prob = p;
       })},
      {"sp_width", field(parse_as<std::size_t>,
                         [](Config& cfg, std::size_t n) {
                           cfg.sp_shape.parallel_width = n;
                         })},
      {"links", field(parse_as<std::size_t>, [](Config& cfg, std::size_t n) {
         cfg.link_nodes = n;
         if (n > 0 && !cfg.comm_exec) cfg.comm_exec = sim::exponential(0.25);
       })},
      // Mean hop time; read only when links > 0.
      {"hop", member(&Config::comm_exec,
                     [](const std::string& text) {
                       return sim::exponential(parse_as<double>(text));
                     })},
      {"faults", member(&Config::faults, fault::FaultSpec::parse)},
      {"periodic", member(&Config::periodic_globals)},
      {"probes", member(&Config::probes)},
      {"preempt", field(parse_as<bool>, [](Config& cfg, bool on) {
         cfg.preemption = on ? sched::PreemptionMode::Preemptive
                             : sched::PreemptionMode::NonPreemptive;
       })},
      {"horizon", member(&Config::horizon)},
      {"warmup", member(&Config::warmup)},
      {"seed", member(&Config::seed)},
      // After horizon, which it overrides.
      {"quick", field(parse_as<bool>, [](Config& cfg, bool on) {
         if (on) cfg.horizon = 1e5;
       })},
  };
  return fields;
}

ConfigSetter config_setter(std::string_view name, const std::string& value) {
  for (const ConfigField& entry : config_fields()) {
    if (entry.name != name) continue;
    try {
      return entry.parse(value);
    } catch (const std::exception& error) {
      throw std::invalid_argument(std::string(name) + "=" + value + ": " +
                                  error.what());
    }
  }
  throw std::invalid_argument("unknown config field '" + std::string(name) +
                              "'");
}

Config config_from_flags(const util::Flags& flags) {
  flags.check_known(is_cli_flag);
  if (!flags.positional().empty())
    throw std::invalid_argument("unexpected argument '" +
                                flags.positional().front() + "'");
  Config cfg = baseline_ssp();
  for (const ConfigField& entry : config_fields()) {
    const std::string name(entry.name);
    if (flags.has(name))
      config_setter(name, flags.get(name, std::string()))(cfg);
  }
  cfg.validate();
  return cfg;
}

RunOptions run_options_from_flags(const util::Flags& flags) {
  RunOptions opts;
  const long reps = flags.get("reps", static_cast<long>(opts.reps));
  if (reps < 1)
    throw std::invalid_argument("run_options_from_flags: --reps must be >= 1");
  opts.reps = static_cast<std::size_t>(reps);
  const long jobs = flags.get("jobs", static_cast<long>(opts.jobs));
  if (jobs < 0)
    throw std::invalid_argument(
        "run_options_from_flags: --jobs must be >= 0 (0 = all hardware "
        "threads)");
  opts.jobs = static_cast<std::size_t>(jobs);
  opts.out_dir = flags.get("out", opts.out_dir);
  opts.trace_out = flags.get("trace_out", opts.trace_out);
  opts.capture = flags.get("capture", opts.capture);
  return opts;
}

namespace {

/// "A|B|C" from a registry's name list, so --help can never drift from
/// what the by-name lookups actually accept.
std::string joined_names(const std::vector<std::string_view>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

/// Every config field's name, comma-separated, wrapped under the usage
/// text's description column and ended by a full stop.
std::string field_names() {
  const std::string indent(23, ' ');
  std::string out, line;
  for (const ConfigField& entry : config_fields()) {
    const std::string item = std::string(entry.name) + ",";
    if (!line.empty() && indent.size() + line.size() + item.size() >= 78) {
      out += indent + line + "\n";
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  }
  line.back() = '.';
  return out + indent + line + "\n";
}

}  // namespace

bool is_cli_flag(std::string_view name) {
  static constexpr std::string_view kRunControl[] = {
      "reps", "jobs", "out", "trace_out", "capture", "zip"};
  if (name.rfind("sweep_", 0) == 0) return true;
  for (const std::string_view known : kRunControl)
    if (name == known) return true;
  for (const ConfigField& entry : config_fields())
    if (name == entry.name) return true;
  return false;
}

std::string cli_usage() {
  return
      "flags (all optional; defaults are the Table-1 baseline):\n"
      "  --shape=serial|parallel|serial-parallel\n"
      "  --load=0.5 --frac_local=0.75 --nodes=6 --m=4 --rel_flex=1.0\n"
      "  --ssp=" + joined_names(core::serial_strategy_names()) + "\n"
      "  --psp=" + joined_names(core::parallel_strategy_names()) + "\n"
      "  --load_model=none|exact|sampled:<period>|stale:<delay>\n"
      "                       system-state view for the load-aware\n"
      "                       strategies (EQS-L, EQF-L); --lm_tau=20 sets\n"
      "                       the utilization-EWMA time constant\n"
      "  --placement=" + joined_names(core::placement_names()) + "\n"
      "                       node binding of global subtasks: static =\n"
      "                       generation-time draw (paper baseline), jsq-*\n"
      "                       = route each ready stage to the least-loaded\n"
      "                       eligible node via --load_model, pod[:d] =\n"
      "                       power-of-d-choices (d rng samples, argmin\n"
      "                       queued pex; default d=2) — O(d) per decision;\n"
      "                       jsq-pex over --load_model=exact reads an\n"
      "                       index: O(k/64) words with an idle candidate,\n"
      "                       else O(log k)\n"
      "  --policy=EDF|MLF|FCFS|SJF --abort=NoAbort|AbortTardy|AbortHopeless\n"
      "  --arrivals=" + joined_names(workload::arrival_kind_names()) + "\n"
      "                       arrival process of the task streams. batch:<n>\n"
      "                       or batch:<lo>,<hi> compounds local arrivals\n"
      "                       (mean-normalized); mmpp:<m1>,<m2>[,<s1>[,<s2>]],\n"
      "                       onoff:<on>,<off>, diurnal:<period>,<amp>\n"
      "                       modulate the rate (all keep the offered load)\n"
      "  --service=" + joined_names(workload::service_kind_names()) + "\n"
      "                       subtask service law, matched-mean (erlang:<k>,\n"
      "                       h2:<scv>, pareto:<alpha>, lognormal:<sigma>)\n"
      "  --trace=FILE         replay a workload trace file instead of\n"
      "                       generating tasks (see README \"Workloads\")\n"
      "  --faults=SPEC        failure injection + reactions, ';'-joined:\n"
      "                       crash:<mttf>,<mttr> (node crash/recovery\n"
      "                       renewal), link:<mttf>,<mttr> (link-node\n"
      "                       outages), exec_straggle:<p>,<mult> (real\n"
      "                       demand inflated, pex untouched),\n"
      "                       retry:<budget> (re-place crash orphans on\n"
      "                       live nodes), shed[:<margin>] (drop tasks\n"
      "                       whose critical path cannot meet the\n"
      "                       deadline). Dedicated rng stream: faults off\n"
      "                       reproduces every golden bitwise, and\n"
      "                       --capture always records the offered\n"
      "                       workload, never the fault realization\n"
      "  --smin=0.25 --smax=2.5 --pex_err=0 --m_min= --m_max=\n"
      "  --sp_stages=3 --sp_prob=0.5 --sp_width=3\n"
      "  --links=0 --hop=0.25 --periodic --preempt\n"
      "  --probes             harvest engine counters into the results\n"
      "  --horizon=1e6 --warmup=0 --seed=20250612\n"
      "  --quick              shorthand for --horizon=1e5\n"
      "run control (engine orchestration):\n"
      "  --reps=2             replications per data point\n"
      "  --jobs=1             worker threads (0 = all hardware threads)\n"
      "  --out=DIR            write DIR/sim_cli.jsonl: one exact record per\n"
      "                       point (hexfloat means, every replication's\n"
      "                       values, counters), sweep_cli's artifact line\n"
      "  --trace_out=FILE     write a Perfetto/Chrome trace_events JSON of\n"
      "                       replication 0 (open in ui.perfetto.dev)\n"
      "  --capture=FILE       write a workload trace of replication 0 in the\n"
      "                       replayable trace_io format (--trace=FILE)\n"
      "  --sweep_<field>=v1,v2,...   sweep axis over a config field, each\n"
      "                       value parsed as the field's own flag parses\n"
      "                       it. The fields:\n" +
      field_names() +
      "                       Repeatable; axes expand as a cartesian grid\n"
      "                       (--zip: advance all axes in lockstep);\n"
      "                       a ';' in the value switches the separator, so\n"
      "                       comma-parameterized specs sweep:\n"
      "                       --sweep_arrivals='poisson;mmpp:4,0.25'\n";
}

}  // namespace dsrt::system
