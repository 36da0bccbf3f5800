// The benchmark's four workloads, shared by the end-to-end and the traced
// program so both run the identical model.
//
// Each workload is an offline batch job: a fixed simulated horizon per
// replication, with the seed passed in. Only `system::Config` and the public
// baselines are used here, so a change to a layer interface does not touch
// this file.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dsrt/system/baseline.hpp"
#include "dsrt/system/config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Simulated time between two slice boundaries (sized to a few ms of
  /// host time, so one run yields well over 1000 slices).
  double slice = 0;
  /// Largest |mean utilization - load| the output check accepts. The run
  /// starts from an empty system, so shorter horizons read a little low.
  double util_tolerance = 0;
  /// Attach probes, a KeepTail trace recorder and miss attribution.
  bool observed = false;
  dsrt::system::Config config;
};

/// Builds workload `name` for `seed`. Throws std::invalid_argument on an
/// unknown name.
inline Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  dsrt::system::Config& cfg = w.config;
  if (name == "fig2_eqf" || name == "fig2_observed") {
    // Table-1 baseline: the paper's headline regime. The event queue stays
    // in its sorted tier; placement and the load board are not wired.
    cfg = dsrt::system::baseline_ssp();
    cfg.horizon = 1e6;
    w.slice = 10000;
    w.util_tolerance = 0.01;
    w.observed = name == "fig2_observed";
    cfg.probes = w.observed;
  } else if (name == "sp_jsq_k1024") {
    // Serial-parallel tasks at k=1024 with exact join-shortest-queue: the
    // O(k) placement reference, distinct-site parallel groups, heap tier.
    cfg = dsrt::system::baseline_combined();
    cfg.nodes = 1024;
    cfg.psp = dsrt::core::make_parallel_eqf();
    cfg.placement = dsrt::core::PlacementSpec::parse("jsq-pex");
    cfg.load_model = dsrt::core::LoadModelSpec::parse("exact");
    cfg.horizon = 400;
    w.slice = 2;
    w.util_tolerance = 0.02;
  } else if (name == "scale_pod_k4096") {
    // Serial baseline at k=4096 with power-of-two-choices placement: the
    // ladder queue tier, O(k) eligible sets per leaf, largest set-up.
    cfg = dsrt::system::baseline_ssp();
    cfg.nodes = 4096;
    cfg.placement = dsrt::core::PlacementSpec::parse("pod:2");
    cfg.load_model = dsrt::core::LoadModelSpec::parse("exact");
    cfg.horizon = 120;
    w.slice = 0.5;
    w.util_tolerance = 0.03;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + std::string(name) +
        "' (fig2_eqf | sp_jsq_k1024 | scale_pod_k4096 | fig2_observed)");
  }
  w.name = std::string(name);
  cfg.ssp = dsrt::core::make_eqf();
  cfg.seed = seed;
  cfg.validate();
  return w;
}

}  // namespace perfbench
