#include "dsrt/system/cli.hpp"

#include <stdexcept>

#include "dsrt/fault/spec.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/workload/service.hpp"

namespace dsrt::system {

Config config_from_flags(const util::Flags& flags) {
  check_flags(flags);
  const std::string shape = flags.get("shape", std::string("serial"));
  Config cfg;
  if (shape == "serial") {
    cfg = baseline_ssp();
  } else if (shape == "parallel") {
    cfg = baseline_psp();
  } else if (shape == "serial-parallel") {
    cfg = baseline_combined();
  } else {
    throw std::invalid_argument("config_from_flags: unknown shape '" + shape +
                                "'");
  }

  cfg.load = flags.get("load", cfg.load);
  cfg.frac_local = flags.get("frac_local", cfg.frac_local);
  cfg.nodes = static_cast<std::size_t>(
      flags.get("nodes", static_cast<long>(cfg.nodes)));
  cfg.subtasks = static_cast<std::size_t>(
      flags.get("m", static_cast<long>(cfg.subtasks)));
  cfg.rel_flex = flags.get("rel_flex", cfg.rel_flex);

  if (flags.has("ssp"))
    cfg.ssp = core::serial_strategy_by_name(flags.get("ssp", std::string()));
  if (flags.has("psp"))
    cfg.psp =
        core::parallel_strategy_by_name(flags.get("psp", std::string()));
  if (flags.has("load_model"))
    cfg.load_model =
        core::LoadModelSpec::parse(flags.get("load_model", std::string()));
  if (flags.has("lm_tau")) {
    cfg.load_model.ewma_tau = flags.get("lm_tau", cfg.load_model.ewma_tau);
    cfg.load_model.validate();
  }
  if (flags.has("placement"))
    cfg.placement =
        core::PlacementSpec::parse(flags.get("placement", std::string()));
  if (flags.has("arrivals"))
    cfg.arrivals =
        workload::ArrivalSpec::parse(flags.get("arrivals", std::string()));
  if (flags.has("service")) {
    // Matched-mean swap: only the law changes, the Table-1 mean (and with
    // it the offered load) is preserved.
    const auto spec =
        workload::ServiceSpec::parse(flags.get("service", std::string()));
    cfg.subtask_exec = spec.make(cfg.subtask_exec->mean());
  }
  cfg.trace = flags.get("trace", cfg.trace);
  if (flags.has("policy"))
    cfg.policy = sched::policy_by_name(flags.get("policy", std::string()));
  if (flags.has("abort"))
    cfg.abort_policy =
        sched::abort_policy_by_name(flags.get("abort", std::string()));

  if (flags.has("smin") || flags.has("smax")) {
    const auto* base =
        dynamic_cast<const sim::Uniform*>(cfg.local_slack.get());
    const double lo = flags.get("smin", base ? base->lo() : 0.25);
    const double hi = flags.get("smax", base ? base->hi() : 2.5);
    cfg.local_slack = sim::uniform(lo, hi);
    if (cfg.shape == GlobalShape::Parallel)
      cfg.parallel_slack = sim::uniform(lo, hi);
  }

  const double pex_err = flags.get("pex_err", 0.0);
  if (pex_err > 0)
    cfg.pex_error = workload::make_uniform_relative_error(pex_err);

  if (flags.has("m_min") || flags.has("m_max")) {
    const double lo = flags.get("m_min", 1.0);
    const double hi = flags.get("m_max", lo);
    cfg.subtask_count = sim::uniform(lo, hi);
  }

  cfg.sp_shape.stages = static_cast<std::size_t>(
      flags.get("sp_stages", static_cast<long>(cfg.sp_shape.stages)));
  cfg.sp_shape.parallel_prob =
      flags.get("sp_prob", cfg.sp_shape.parallel_prob);
  cfg.sp_shape.parallel_width = static_cast<std::size_t>(
      flags.get("sp_width", static_cast<long>(cfg.sp_shape.parallel_width)));

  cfg.link_nodes =
      static_cast<std::size_t>(flags.get("links", 0L));
  if (cfg.link_nodes > 0)
    cfg.comm_exec = sim::exponential(flags.get("hop", 0.25));

  if (flags.has("faults"))
    cfg.faults = fault::FaultSpec::parse(flags.get("faults", std::string()));

  cfg.periodic_globals = flags.get("periodic", false);
  cfg.probes = flags.get("probes", false);
  cfg.preemption = flags.get("preempt", false)
                       ? sched::PreemptionMode::Preemptive
                       : sched::PreemptionMode::NonPreemptive;

  cfg.horizon = flags.get("horizon", cfg.horizon);
  cfg.warmup = flags.get("warmup", cfg.warmup);
  cfg.seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<long>(cfg.seed)));

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

}  // namespace

bool is_cli_flag(std::string_view name) {
  // Every name cli_usage() documents; test_cli checks the two agree.
  static constexpr std::string_view kNames[] = {
      "shape", "load", "frac_local", "nodes", "m", "rel_flex", "ssp", "psp",
      "load_model", "lm_tau", "placement", "policy", "abort", "arrivals",
      "service", "trace", "faults", "smin", "smax", "pex_err", "m_min",
      "m_max", "sp_stages", "sp_prob", "sp_width", "links", "hop",
      "periodic", "preempt", "probes", "horizon", "warmup", "seed", "quick",
      "reps", "jobs", "out", "trace_out", "capture", "zip"};
  if (name.rfind("sweep_", 0) == 0) return true;
  for (const std::string_view known : kNames)
    if (name == known) return true;
  return false;
}

void check_flags(const util::Flags& flags) {
  for (const auto& [name, value] : flags.all())
    if (!is_cli_flag(name))
      throw std::invalid_argument("unknown flag --" + name);
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
      "  --sweep_<field>=v1,v2,...   sweep axis over a config field\n"
      "                       (load, frac_local, rel_flex, nodes, m, ssp,\n"
      "                        psp, policy, abort, pex_err, shape,\n"
      "                        load_model, placement, arrivals, service,\n"
      "                        ...);\n"
      "                       repeatable; axes expand as a cartesian grid\n"
      "                       (--zip: advance all axes in lockstep);\n"
      "                       a ';' in the value switches the separator, so\n"
      "                       comma-parameterized specs sweep:\n"
      "                       --sweep_arrivals='poisson;mmpp:4,0.25'\n";
}

}  // namespace dsrt::system
