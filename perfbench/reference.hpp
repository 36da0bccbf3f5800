// A fixed unit of host work that does not use the simulator, run between
// the replications of the end-to-end program to measure how fast the shared
// host is running at that moment.
//
// The benchmark's host is a few vCPUs of a shared machine. Other tenants
// slow a whole run by up to ~30 % for minutes at a time (the core's clock
// barely moves; the slowdown comes from sharing the core and its caches).
// The unit is a small discrete-event loop — a binary heap of pending times,
// exponential offsets from a Mersenne twister — so it stalls on the same
// kind of work as the simulator's event loop, but it stays inside the core's
// private caches, where its own timing is steady. Scaling the simulator's
// times by the unit's nominal over its measured time removes most of the
// drift and keeps the result in seconds.
//
// The unit must never change: every commit's figures are scaled by it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class HostReference {
 public:
  /// The scale of the reference-host seconds the end-to-end metrics are
  /// reported in: about the unit's time on a 4-vCPU Xeon VM (Sapphire
  /// Rapids, 2.0 GHz, GCC 12 -O3), where it measured 0.030-0.040 s. Fixed.
  static constexpr double kNominalS = 0.040;

  /// Host seconds of one unit.
  double run_s() {
    const double t0 = now_s();
    std::mt19937_64 rng(42);
    std::exponential_distribution<double> gap(1.0);
    std::priority_queue<double, std::vector<double>, std::greater<double>> pending;
    for (int i = 0; i < kPending; ++i) pending.push(gap(rng));
    double sum = 0;
    for (int i = 0; i < kEvents; ++i) {
      const double t = pending.top();
      pending.pop();
      sum += t;
      pending.push(t + gap(rng));
    }
    const double elapsed = now_s() - t0;
    checksum_ += static_cast<std::uint64_t>(sum);
    return elapsed;
  }

  /// Keeps the unit's results observable so the work cannot be elided.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr int kPending = 64;
  static constexpr int kEvents = 400'000;

  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
