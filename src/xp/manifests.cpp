// Built-in sweep manifests: every paper figure and ablation grid, declared
// once as a named, checkable definition. `sweep_cli run/check/reproduce`
// and the committed expectation files key on these definitions, and
// `sweep_cli table` renders each manifest's views from the same grid — so
// the validated result database and the printed tables cannot drift apart.
//
// Canonical manifest horizons are deliberately CI-sized (the committed
// expectations are re-checked on every push): grids run at 5e4 time units,
// the scale grid at a constant-event-budget 2e4. `sweep_cli table
// --horizon=1e6` reproduces the paper-scale tables — the override applies
// to base(), and horizon-scaling axes compose with it — but the *checked*
// surface is the quick grid. Changing any definition here changes the
// config hashes, so stale artifacts and expectations are rejected instead
// of silently mis-compared (re-run `sweep_cli bless` after an intentional
// change).
#include "dsrt/xp/manifest.hpp"

#include <algorithm>
#include <cstdint>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/workload/pex_error.hpp"

namespace dsrt::xp {

namespace {

using engine::SweepAxis;
using engine::SweepGrid;
using system::Config;
using Choice = std::pair<std::string, std::function<void(Config&)>>;

/// `cfg` at the CI-sized manifest horizon.
Config at_5e4(Config cfg) {
  cfg.horizon = 5e4;
  return cfg;
}

/// A manifest over `base` with the default metric set.
Manifest study(std::string name, std::string description, Config base,
               std::function<SweepGrid()> grid,
               std::vector<TableView> views) {
  Manifest m;
  m.name = std::move(name);
  m.description = std::move(description);
  m.base = [base = std::move(base)] { return base; };
  m.grid = std::move(grid);
  m.metrics = default_metrics();
  m.views = std::move(views);
  return m;
}

/// The MD_local and MD_global tables most studies print.
std::vector<TableView> md_views(const std::vector<std::string>& rows,
                                const std::string& column) {
  return {{"MD_local (%)", rows, column, "md_local"},
          {"MD_global (%)", rows, column, "md_global"}};
}

/// A choice that sets config fields (system::config_setter, the parse
/// behind `--<field>=v`) in the order given.
Choice fields(std::string label,
              const std::vector<std::pair<std::string, std::string>>& values) {
  std::vector<system::ConfigSetter> setters;
  for (const auto& [field, value] : values)
    setters.push_back(system::config_setter(field, value));
  return {std::move(label), [setters](Config& cfg) {
            for (const auto& set : setters) set(cfg);
          }};
}

/// One `<ssp>/<placement>` choice: strategy, placement and the load model
/// the placement reads.
Choice ssp_placement(const std::string& ssp, const std::string& placement,
                     const std::string& load_model,
                     const std::string& label) {
  return fields(label, {{"ssp", ssp},
                        {"placement", placement},
                        {"load_model", load_model}});
}

Manifest fig2_manifest() {
  return study(
      "fig2_ssp",
      "Fig. 2 grid: MD_local/MD_global vs load for SSP strategies "
      "UD, ED, EQS, EQF (Table-1 baseline)",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load",
                                      {"0.1", "0.2", "0.3", "0.4", "0.5"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "ED", "EQS", "EQF"}));
        return grid;
      },
      {{"Fig. 2a — MD_local (%), by SSP strategy", {"load"}, "ssp",
        "md_local"},
       {"Fig. 2b — MD_global (%), by SSP strategy", {"load"}, "ssp",
        "md_global"}});
}

Manifest fig3_manifest() {
  return study(
      "fig3_frac_local",
      "Fig. 3 grid: miss ratios vs frac_local for UD and EQF at load 0.5",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("frac_local",
                                      {"0.1", "0.25", "0.5", "0.75", "0.9",
                                       "0.95"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {{"Fig. 3 — MD_local (%) vs fraction of local load", {"frac_local"},
        "ssp", "md_local"},
       {"Fig. 3 — MD_global (%) vs fraction of local load", {"frac_local"},
        "ssp", "md_global"}});
}

Manifest fig4_manifest() {
  return study(
      "fig4_psp",
      "Fig. 4 grid: MD_local/MD_global vs load for PSP strategies "
      "UD, DIV-1, DIV-2, GF (parallel baseline)",
      at_5e4(system::baseline_psp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field(
                "load", {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6"}))
            .axis(SweepAxis::by_field("psp", {"UD", "DIV1", "DIV2", "GF"}));
        return grid;
      },
      {{"Fig. 4 — MD_local (%), by PSP strategy", {"load"}, "psp",
        "md_local"},
       {"Fig. 4 — MD_global (%), by PSP strategy", {"load"}, "psp",
        "md_global"}});
}

Manifest abl_rel_flex_manifest() {
  return study(
      "abl_rel_flex",
      "Section 4.3 ablation grid: rel_flex x load x {UD, EQF} "
      "(EQF wins in the moderate slack/load band)",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("rel_flex", {"0.1", "0.25", "0.5",
                                                   "1.0", "2.0", "4.0",
                                                   "8.0"}))
            .axis(SweepAxis::by_field("load", {"0.3", "0.5", "0.7"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {{"MD_global (%) — small UD/EQF gaps at the extremes (slack too tight "
        "or too loose), the biggest in the middle band",
        {"rel_flex", "load"}, "ssp", "md_global"}});
}

Manifest abl_scale_quick_manifest() {
  Config base = system::baseline_ssp();
  base.horizon = 2e4;
  return study(
      "abl_scale_quick",
      "Scale ablation (quick grid): k x placement at constant per-node "
      "load up to k=4096; horizon shrinks 24/k past k=24 so the event "
      "budget per point stays flat",
      base,
      [] {
        SweepGrid grid;
        std::vector<Choice> ks;
        for (std::size_t k : {std::size_t{64}, std::size_t{256},
                              std::size_t{1024}, std::size_t{4096}}) {
          ks.emplace_back(std::to_string(k), [k](Config& cfg) {
            cfg.nodes = k;
            // Relative to the base horizon, so run control composes.
            if (k > 24) cfg.horizon *= 24.0 / static_cast<double>(k);
          });
        }
        std::vector<Choice> placements;
        for (const auto& [placement, load_model] :
             {std::pair<const char*, const char*>{"static", "none"},
              {"jsq-pex", "exact"},
              {"pod:2", "exact"}}) {
          placements.push_back(fields(
              placement,
              {{"placement", placement}, {"load_model", load_model}}));
        }
        grid.axis(SweepAxis::choices("k", std::move(ks)))
            .axis(SweepAxis::choices("placement", std::move(placements)));
        return grid;
      },
      md_views({"k"}, "placement"));
}

Manifest wl_mix_manifest() {
  return study(
      "wl_mix",
      "Workload-mix grid: arrival process x service law at the serial "
      "baseline (all points matched-mean/rate-normalized, so the offered "
      "load is constant and only burstiness/variability moves)",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("arrivals",
                                      {"poisson", "batch:1,8", "mmpp:4,0.25",
                                       "onoff:20,80", "diurnal:1000,0.8"}))
            .axis(SweepAxis::by_field("service",
                                      {"exp", "pareto:2.5", "lognormal:1"}));
        return grid;
      },
      md_views({"arrivals"}, "service"));
}

Manifest abl_stale_decay_manifest() {
  Config base = at_5e4(system::baseline_ssp());
  base.load = 0.85;
  base.ssp = core::serial_strategy_by_name("EQS-L");
  return study(
      "abl_stale_decay",
      "Staleness-decay grid: load-model freshness x placement for the "
      "load-aware serial strategy at load 0.85 (how fast the EQS-L / "
      "jsq advantage decays as the state view ages)",
      base,
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load_model", {"exact", "sampled:5",
                                                     "stale:5", "stale:20"}))
            .axis(SweepAxis::by_field("placement", {"static", "jsq-pex"}));
        return grid;
      },
      {{"MD_global (%)", {"load_model"}, "placement", "md_global"},
       {"MD_overall (%)", {"load_model"}, "placement", "md_overall"}});
}

Manifest abl_faults_manifest() {
  Config base = at_5e4(system::baseline_ssp());
  base.load = 0.5;
  base.ssp = core::serial_strategy_by_name("EQF");
  return study(
      "abl_faults",
      "Fault-tolerance grid: fault intensity x strategy/placement at load "
      "0.5 (crash/recovery renewal faults from RNG stream 3; MD must "
      "degrade smoothly as intensity rises, with jsq routing around "
      "marked-down nodes — past ~0.7 load the backlog relief from crashed "
      "queues masks the trend)",
      base,
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field(
                "faults", {"none", "crash:2000,40;retry:2",
                           "crash:500,25;retry:2",
                           "crash:150,25;retry:2;shed:1.5"}))
            .axis(SweepAxis::choices(
                "strategy/placement",
                {ssp_placement("UD", "static", "none", "UD/static"),
                 ssp_placement("EQF", "static", "none", "EQF/static"),
                 ssp_placement("EQF", "jsq-pex", "exact", "EQF/jsq-pex")}));
        return grid;
      },
      {{"MD_overall (%), both task classes pooled", {"faults"},
        "strategy/placement", "md_overall"},
       {"MD_global (%), global tasks only", {"faults"}, "strategy/placement",
        "md_global"}});
}

Manifest abl_heterogeneity_manifest() {
  return study(
      "abl_heterogeneity",
      "Section 4.3: non-uniform local loads across the k=6 nodes (total "
      "local load held constant, load 0.5) x {UD, EQF}",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> skews;
        for (const auto& [label, weights] :
             std::vector<std::pair<std::string, std::vector<double>>>{
                 {"uniform", {}},
                 {"mild (2:1)", {2, 2, 2, 1, 1, 1}},
                 {"strong (4:1)", {4, 4, 1, 1, 1, 1}},
                 {"one hot node", {10, 1, 1, 1, 1, 1}}}) {
          skews.emplace_back(label, [weights = weights](Config& cfg) {
            cfg.local_weights = weights;
          });
        }
        SweepGrid grid;
        grid.axis(SweepAxis::choices("skew", std::move(skews)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"skew"}, "ssp"));
}

Manifest abl_scheduler_manifest() {
  return study(
      "abl_scheduler",
      "Section 4.3 relaxation: local scheduling algorithm EDF vs MLF vs "
      "FCFS vs SJF x {UD, EQF} at load 0.5",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("policy", {"EDF", "MLF", "FCFS", "SJF"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"policy"}, "ssp"));
}

Manifest abl_preemption_manifest() {
  return study(
      "abl_preemption",
      "Extension: non-preemptive (Table 1) vs preemptive-resume EDF x "
      "{UD, EQF} at loads 0.5 and 0.7",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::choices(
                "server", {fields("non-preempt", {{"preempt", "0"}}),
                           fields("preemptive", {{"preempt", "1"}})}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"load", "server"}, "ssp"));
}

Manifest abl_static_vs_dynamic_manifest() {
  return study(
      "abl_static_vs_dynamic",
      "Extension: value of submission-time recomputation (slack "
      "inheritance); '-S' = schedule frozen at task arrival",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.4", "0.5", "0.6", "0.7"}))
            .axis(SweepAxis::by_field("ssp",
                                      {"UD", "EQS", "EQS-S", "EQF", "EQF-S"}));
        return grid;
      },
      {{"MD_global (%)", {"load"}, "ssp", "md_global"}});
}

Manifest abl_artificial_stages_manifest() {
  return study(
      "abl_artificial_stages",
      "Section 7 future-work option: EQF-AS(a) computes EQF as if a "
      "phantom stages followed the real ones; loads 0.5 and 0.7",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> strategies = {
            {"UD", [](Config& cfg) { cfg.ssp = core::make_ud(); }},
            {"EQF", [](Config& cfg) { cfg.ssp = core::make_eqf(); }}};
        for (std::size_t a : {1u, 2u, 4u}) {
          strategies.emplace_back(
              "EQF-AS(" + std::to_string(a) + ")",
              [a](Config& cfg) { cfg.ssp = core::make_eqf_reserve(a); });
        }
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::choices("ssp", std::move(strategies)));
        return grid;
      },
      md_views({"ssp"}, "load"));
}

Manifest abl_burstiness_manifest() {
  return study(
      "abl_burstiness",
      "Section 4.2.1's transient overloads, manufactured: local arrivals "
      "in batches of U[1,B] at constant load 0.5 x {UD, EQF}",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> batches = {fields("none", {})};
        for (const std::string b : {"4", "8", "16"})
          batches.push_back(
              fields("U[1," + b + "]", {{"arrivals", "batch:1," + b}}));
        SweepGrid grid;
        grid.axis(SweepAxis::choices("batch", std::move(batches)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"batch"}, "ssp"));
}

Manifest abl_subtask_count_manifest() {
  return study(
      "abl_subtask_count",
      "Section 4.3: sensitivity to the number of serial subtasks m (fixed, "
      "or m ~ U[2,6] per task) x {UD, EQF} at load 0.5",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> ms;
        for (const std::string m : {"1", "2", "4", "8", "12"})
          ms.push_back(fields(m, {{"m", m}}));
        ms.push_back(fields("U[2,6]", {{"m_min", "2"}, {"m_max", "6"}}));
        SweepGrid grid;
        grid.axis(SweepAxis::choices("m", std::move(ms)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"m"}, "ssp"));
}

Manifest abl_divx_sweep_manifest() {
  return study(
      "abl_divx_sweep",
      "Section 5.3: choosing x for DIV-x (UD and GF as the limits) at "
      "loads 0.5 and 0.7, parallel baseline",
      at_5e4(system::baseline_psp()),
      [] {
        std::vector<Choice> strategies = {fields("UD", {{"psp", "UD"}})};
        for (const std::string x :
             {"0.25", "0.50", "1.00", "2.00", "4.00", "8.00"})
          strategies.push_back(fields("DIV-" + x, {{"psp", "DIV" + x}}));
        strategies.push_back(fields("GF", {{"psp", "GF"}}));
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::choices("psp", std::move(strategies)));
        return grid;
      },
      md_views({"psp"}, "load"));
}

Manifest tab_ssp_psp_combined_manifest() {
  return study(
      "tab_ssp_psp_combined",
      "Section 6: serial-parallel tasks (3 stages, each a parallel group "
      "of 3 with p=0.5) under UD-UD, UD-DIV1, EQF-UD, EQF-DIV1 vs load",
      at_5e4(system::baseline_combined()),
      [] {
        std::vector<Choice> combos;
        for (const auto& [ssp, psp] :
             {std::pair<std::string, std::string>{"UD", "UD"},
              {"UD", "DIV1"},
              {"EQF", "UD"},
              {"EQF", "DIV1"}})
          combos.push_back(
              fields(ssp + "-" + psp, {{"ssp", ssp}, {"psp", psp}}));
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.3", "0.5", "0.7"}))
            .axis(SweepAxis::choices("ssp-psp", std::move(combos)));
        return grid;
      },
      md_views({"ssp-psp"}, "load"));
}

Manifest abl_pex_error_manifest() {
  return study(
      "abl_pex_error",
      "Section 4.3 relaxation: random error in execution-time estimates "
      "(pex = ex(1 + U[-e,e]) or drawn independently) x {UD, ED, EQF}",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> predictions = {
            fields("perfect (e=0)", {{"pex_err", "0"}})};
        for (const std::string e : {"0.25", "0.50", "1.00"})
          predictions.push_back(fields("uniform e=" + e, {{"pex_err", e}}));
        const auto distribution_only =
            workload::make_distribution_only(sim::exponential(1.0));
        predictions.emplace_back(
            "distribution-only",
            [distribution_only](Config& cfg) {
              cfg.pex_error = distribution_only;
            });
        SweepGrid grid;
        grid.axis(SweepAxis::choices("prediction", std::move(predictions)))
            .axis(SweepAxis::by_field("ssp", {"UD", "ED", "EQF"}));
        return grid;
      },
      md_views({"prediction"}, "ssp"));
}

Manifest abl_service_variability_manifest() {
  return study(
      "abl_service_variability",
      "Extension: subtask execution-time variability (matched-mean "
      "service laws, scv 0..16 plus heavy tails) x {UD, EQF} at load 0.5",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> laws;
        for (const auto& [label, spec] :
             {std::pair<const char*, const char*>{"Const (scv=0)", "const"},
              {"Erlang-4 (scv=0.25)", "erlang:4"},
              {"Exp (scv=1)", "exp"},
              {"H2 (scv=4)", "h2:4"},
              {"H2 (scv=16)", "h2:16"},
              {"Pareto (alpha=2.5)", "pareto:2.5"},
              {"LogNormal (sigma=1)", "lognormal:1"}}) {
          laws.push_back(fields(label, {{"service", spec}}));
        }
        SweepGrid grid;
        grid.axis(SweepAxis::choices("service", std::move(laws)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"service"}, "ssp"));
}

Manifest abl_placement_manifest() {
  return study(
      "abl_placement",
      "Extension: dispatch-time placement (jsq over exact and stale:5 load "
      "models) vs the paper's generation-time uniform draw, x {UD, EQF} x "
      "load toward saturation",
      at_5e4(system::baseline_ssp()),
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.7", "0.85", "0.92"}))
            .axis(SweepAxis::choices(
                "strategy/placement",
                {ssp_placement("UD", "static", "none", "UD/static"),
                 ssp_placement("UD", "jsq-pex", "exact", "UD/jsq-pex"),
                 ssp_placement("UD", "jsq-util", "exact", "UD/jsq-util"),
                 ssp_placement("UD", "jsq-pex", "stale:5",
                               "UD/jsq-pex/stale:5"),
                 ssp_placement("EQF", "static", "none", "EQF/static"),
                 ssp_placement("EQF", "jsq-pex", "exact", "EQF/jsq-pex"),
                 ssp_placement("EQF", "jsq-util", "exact",
                               "EQF/jsq-util")}));
        return grid;
      },
      {{"MD_overall (%), both task classes pooled", {"load"},
        "strategy/placement", "md_overall"},
       {"MD_global (%), global tasks only", {"load"}, "strategy/placement",
        "md_global"}});
}

Manifest abl_load_aware_manifest() {
  return study(
      "abl_load_aware",
      "Extension: load-aware deadline assignment (Section 7's open "
      "question) toward saturation: EQS/EQF vs EQS-L/EQF-L (exact and "
      "stale:5 load models), parallel DIV1 vs online-adaptive DIVA",
      at_5e4(system::baseline_ssp()),
      [] {
        auto serial = [](const std::string& ssp, const std::string& lm) {
          return fields(ssp + (lm == "none" ? "" : "/" + lm),
                        {{"ssp", ssp}, {"load_model", lm}});
        };
        // The parallel entries carry Section 5.2's baseline (shape, slack
        // ranges) along with the PSP, as --shape=parallel would.
        auto parallel = [](const std::string& psp) {
          return fields(psp, {{"shape", "parallel"}, {"psp", psp}});
        };
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7", "0.85"}))
            .axis(SweepAxis::choices(
                "strategy",
                {serial("EQS", "none"), serial("EQS-L", "exact"),
                 serial("EQS-L", "stale:5"), serial("EQF", "none"),
                 serial("EQF-L", "exact"), parallel("DIV1"),
                 parallel("DIVA")}));
        return grid;
      },
      {{"MD_global (%), by strategy (serial family left, parallel family "
        "right)",
        {"load"}, "strategy", "md_global"},
       {"MD_overall (%), both task classes pooled", {"load"}, "strategy",
        "md_overall"}});
}

Manifest abl_node_count_manifest() {
  return study(
      "abl_node_count",
      "Extension: number of nodes k at constant load 0.5, serial baseline "
      "x {UD, EQF}; past k=24 the horizon shrinks 24/k (constant event "
      "budget per point)",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> ks;
        for (std::size_t k : {2u, 4u, 6u, 12u, 24u, 96u, 384u, 1536u}) {
          ks.emplace_back(std::to_string(k), [k](Config& cfg) {
            cfg.nodes = k;
            if (k > 24) cfg.horizon *= 24.0 / static_cast<double>(k);
          });
        }
        SweepGrid grid;
        grid.axis(SweepAxis::choices("k", std::move(ks)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"k"}, "ssp"));
}

/// Aborted global tasks per 1000 generated, averaged over replications.
MetricSpec aborted_per_1k_global() {
  return {"aborted_per_1k_global", MetricSpec::Kind::Exact, 0, 0,
          [](const PointRun& p) {
            double per_k = 0;
            for (const auto& run : p.result.runs) {
              per_k += 1000.0 * static_cast<double>(run.global.aborted) /
                       static_cast<double>(
                           std::max<std::uint64_t>(1, run.global.generated));
            }
            return per_k / static_cast<double>(p.result.runs.size());
          }};
}

/// Section 4.3/7 abort ablation on one shape: four abort policies x the
/// strategies on `axis`. AbortTardy discards on the strategy-assigned
/// virtual deadline, AbortUltimate on the end-to-end deadline (the reading
/// under which Section 7's "with abort, prefer DIV-x" advice makes sense).
Manifest abl_abort_manifest(std::string name, std::string description,
                            Config base, std::string axis,
                            std::vector<std::string> strategies) {
  std::vector<TableView> views = md_views({"abort"}, axis);
  views.push_back({"aborted global tasks per 1000 generated", {"abort"},
                   axis, "aborted_per_1k_global", false});
  Manifest m = study(
      std::move(name), std::move(description), std::move(base),
      [axis, strategies] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("abort",
                                      {"NoAbort", "AbortTardy",
                                       "AbortUltimate", "AbortHopeless"}))
            .axis(SweepAxis::by_field(axis, strategies));
        return grid;
      },
      std::move(views));
  m.metrics.push_back(aborted_per_1k_global());
  return m;
}

Manifest abl_comm_overhead_manifest() {
  Manifest m = study(
      "abl_comm_overhead",
      "Section 3.2: the network as processing nodes — 2 link nodes, "
      "per-hop transmission time swept on the serial and serial-parallel "
      "shapes x {UD, EQF} at load 0.5",
      at_5e4(system::baseline_ssp()),
      [] {
        std::vector<Choice> hops = {fields("0.00", {})};
        for (const std::string hop : {"0.10", "0.25", "0.50"})
          hops.push_back(fields(hop, {{"links", "2"}, {"hop", hop}}));
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("shape", {"serial", "serial-parallel"}))
            .axis(SweepAxis::choices("hop", std::move(hops)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      md_views({"shape", "hop"}, "ssp"));
  m.metrics.push_back(
      {"link_util", MetricSpec::Kind::Exact, 0, 0, [](const PointRun& p) {
         double util = 0;
         for (const auto& run : p.result.runs)
           util += run.mean_link_utilization;
         return util / static_cast<double>(p.result.runs.size());
       }});
  m.views.push_back(
      {"link utilization (%)", {"shape", "hop"}, "ssp", "link_util"});
  return m;
}

}  // namespace

Registry& builtin_registry() {
  static Registry registry = [] {
    Registry r;
    r.add(fig2_manifest());
    r.add(fig3_manifest());
    r.add(fig4_manifest());
    r.add(abl_rel_flex_manifest());
    r.add(abl_scale_quick_manifest());
    r.add(wl_mix_manifest());
    r.add(abl_stale_decay_manifest());
    r.add(abl_faults_manifest());
    r.add(abl_heterogeneity_manifest());
    r.add(abl_scheduler_manifest());
    r.add(abl_preemption_manifest());
    r.add(abl_static_vs_dynamic_manifest());
    r.add(abl_artificial_stages_manifest());
    r.add(abl_burstiness_manifest());
    r.add(abl_subtask_count_manifest());
    r.add(abl_divx_sweep_manifest());
    r.add(tab_ssp_psp_combined_manifest());
    r.add(abl_pex_error_manifest());
    r.add(abl_service_variability_manifest());
    r.add(abl_placement_manifest());
    r.add(abl_load_aware_manifest());
    r.add(abl_node_count_manifest());
    r.add(abl_abort_manifest(
        "abl_abort_ssp",
        "Section 4.3/7 relaxation: overload management by aborting tardy "
        "tasks, serial workload x {UD, EQF} at load 0.5",
        at_5e4(system::baseline_ssp()), "ssp", {"UD", "EQF"}));
    r.add(abl_abort_manifest(
        "abl_abort_psp",
        "Section 7: GF vs DIV-1 under firm deadlines (tardy tasks aborted), "
        "parallel workload at load 0.5",
        at_5e4(system::baseline_psp()), "psp", {"DIV1", "GF"}));
    r.add(abl_comm_overhead_manifest());
    return r;
  }();
  return registry;
}

}  // namespace dsrt::xp
