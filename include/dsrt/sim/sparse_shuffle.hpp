#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "dsrt/sim/rng.hpp"

namespace dsrt::sim {

/// Partial Fisher-Yates over the identity permutation of [0, n) that stores
/// only the positions it displaced, so d draws cost O(d) time and space
/// whatever n is. Draw j makes exactly one `rng.below(n - j)` call and
/// returns the element a dense shuffle (`std::iota` over n slots, then
/// `swap(a[j], a[j + below(n - j)])` for j = 0, 1, ...) would leave at
/// position j: same draws, same picks, no O(n) scratch.
///
/// The displaced positions live in a caller-owned open-addressing table
/// (`table_words(draws)` words, cleared by the constructor), so a caller
/// that keeps the table across decisions never allocates.
class SparseShuffle {
 public:
  /// Table words a shuffle of at most `draws` draws needs.
  static std::size_t table_words(std::size_t draws) {
    return 2 * slots_for(draws);
  }

  /// Starts a shuffle of [0, n), n < 2^32. `table` must hold
  /// table_words(draws) words for the draws that will be made.
  SparseShuffle(std::uint64_t n, std::span<std::uint32_t> table)
      : n_(n), table_(table), mask_(table.size() / 2 - 1) {
    std::fill(table_.begin(), table_.end(), kEmpty);
  }

  /// The next sampled element (at most n draws in all).
  std::uint32_t next(Rng& rng) {
    const auto r = static_cast<std::uint32_t>(j_ + rng.below(n_ - j_));
    const std::uint32_t picked = get(r);
    // a[r] takes a[j]; a[j] itself is never read again (later draws start
    // past it), so it is not recorded.
    if (r != j_) set(r, get(j_));
    ++j_;
    return picked;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  /// Power of two >= 2 * draws: load factor at most 1/2.
  static std::size_t slots_for(std::size_t draws) {
    std::size_t slots = 2;
    while (slots < 2 * draws) slots *= 2;
    return slots;
  }
  std::size_t slot_of(std::uint32_t pos) const {
    return (pos * std::size_t{0x9e3779b1u}) & mask_;
  }
  std::uint32_t get(std::uint32_t pos) const {
    for (std::size_t s = slot_of(pos);; s = (s + 1) & mask_) {
      if (table_[2 * s] == pos) return table_[2 * s + 1];
      if (table_[2 * s] == kEmpty) return pos;  // never displaced
    }
  }
  void set(std::uint32_t pos, std::uint32_t value) {
    std::size_t s = slot_of(pos);
    while (table_[2 * s] != pos && table_[2 * s] != kEmpty) s = (s + 1) & mask_;
    table_[2 * s] = pos;
    table_[2 * s + 1] = value;
  }

  std::uint64_t n_;
  std::uint32_t j_ = 0;
  std::span<std::uint32_t> table_;
  std::size_t mask_;
};

}  // namespace dsrt::sim
