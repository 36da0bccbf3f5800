#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>

#include "dsrt/core/task.hpp"

namespace dsrt::core {

/// Nodes a placeable leaf may execute on, as a small value: either the id
/// interval [first, first + count) — what every workload generator emits —
/// or a view of an explicit id list (the trace grammar's `{a|b|c}` sets),
/// owned by the spec or instance that handed it out. An interval costs
/// O(1) to store, copy and test for membership however many nodes it
/// covers; that is what keeps per-leaf placement cost independent of k.
/// Elements are in eligible-set order (ascending for an interval).
class EligibleSet {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    iterator() = default;
    iterator(const EligibleSet& set, std::size_t i)
        : list_(set.list_), first_(set.first_), i_(i) {}
    NodeId operator*() const {
      return list_ ? list_[i_] : static_cast<NodeId>(first_ + i_);
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const NodeId* list_ = nullptr;
    NodeId first_ = 0;
    std::size_t i_ = 0;
  };

  /// The empty set (a bound leaf's).
  EligibleSet() = default;

  /// The interval [first, first + count). Callers guarantee
  /// first + count <= kNoNode (TaskSpecBuilder::leaf_among checks it).
  static EligibleSet range(NodeId first, std::uint32_t count) {
    EligibleSet set;
    set.first_ = first;
    set.count_ = count;
    return set;
  }
  /// A view of an explicit list; `ids` must outlive the set.
  static EligibleSet list(std::span<const NodeId> ids) {
    EligibleSet set;
    set.list_ = ids.data();
    set.count_ = static_cast<std::uint32_t>(ids.size());
    return set;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// True for an interval (the empty set counts as one).
  bool is_range() const { return list_ == nullptr; }
  /// First id of an interval. Requires is_range().
  NodeId first() const { return first_; }
  /// The ids of an explicit list; empty for an interval.
  std::span<const NodeId> list() const {
    return list_ ? std::span<const NodeId>(list_, count_)
                 : std::span<const NodeId>();
  }

  /// The i-th eligible node, i < size().
  NodeId operator[](std::size_t i) const {
    return list_ ? list_[i] : static_cast<NodeId>(first_ + i);
  }
  /// Position of `node` in eligible-set order, or size() when absent.
  /// O(1) for an interval, O(size) for a list.
  std::size_t position(NodeId node) const {
    if (!list_) return node - first_ < count_ ? node - first_ : count_;
    for (std::size_t i = 0; i < count_; ++i)
      if (list_[i] == node) return i;
    return count_;
  }
  bool contains(NodeId node) const { return position(node) != count_; }

  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, count_); }

 private:
  const NodeId* list_ = nullptr;  ///< null for an interval
  NodeId first_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace dsrt::core
