#pragma once

#include "dsrt/system/config.hpp"

namespace dsrt::system {

/// Table 1 baseline for the serial-subtask experiments (Section 4):
/// k = 6 nodes, EDF, no abort, m = 4 serial subtasks, mu_subtask =
/// mu_local = 1, load = 0.5, frac_local = 0.75, local slack U[0.25, 2.5],
/// rel_flex = 1, perfect prediction, horizon 1e6. SSP strategy defaults to
/// UD; study manifests override it per series.
Config baseline_ssp();

/// Section 5 baseline for the parallel-subtask experiments: as Table 1 but
/// global tasks are m = 4 parallel subtasks at distinct nodes and the slack
/// distribution is U[1.25, 5.0] applied to max_i ex(Ti) (equation 2).
/// PSP strategy defaults to UD.
Config baseline_psp();

/// Section 6 baseline for serial-parallel tasks: a serial chain of 3 stages
/// where each stage is, with probability 1/2, a parallel group of 3
/// subtasks on distinct nodes. The paper does not pin this shape down; this
/// is a substitute: a small tree that mixes serial stages with parallel
/// fan-outs, as Section 6 describes.
Config baseline_combined();

}  // namespace dsrt::system
