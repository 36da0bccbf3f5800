#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dsrt::sim {

/// Fixed-capacity, allocation-free callable — the kernel's replacement for
/// `std::function<void()>` event actions.
///
/// Every event the simulator schedules (node completions, workload
/// arrivals, warm-up resets) captures at most a few pointers and a token,
/// so the kernel never needs type erasure with a heap fallback: a callable
/// larger than `kCapacity` is a compile error, not a silent allocation.
/// Trivially copyable callables (all current kernel lambdas) relocate with
/// a plain byte copy, which keeps the move out of the queue on every pop
/// cheap; non-trivial ones fall back to a move-construct-and-destroy
/// thunk.
///
/// The first pointer-sized word of the storage doubles as a prefetch hint
/// (`target_hint`): every kernel action captures the object it runs on
/// first, so the event queue can fetch that object before the event fires.
class InlineAction {
 public:
  /// Inline storage: room for six pointer-sized captures.
  static constexpr std::size_t kCapacity = 48;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Replaces the held callable in place (no intermediate InlineAction).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineAction(InlineAction&& other) noexcept { steal(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Invokes the callable. Requires `bool(*this)`.
  void operator()() { invoke_(storage_); }

  /// The first pointer-sized word of the captures: for a kernel action
  /// (`[this, ...]`) the Node or source it will touch, for a callable
  /// smaller than a pointer null. Any other first capture (a double, an
  /// int) yields an arbitrary bit pattern, so the hint is advisory: it may
  /// be handed to `__builtin_prefetch`, which never faults, and must never
  /// be dereferenced. Requires `bool(*this)`.
  const void* target_hint() const {
    const void* hint = nullptr;
    std::memcpy(&hint, storage_, sizeof hint);
    return hint;
  }

 private:
  /// Where a callable of type Fn lives in the storage: one smaller than a
  /// pointer sits behind a null first word, so its hint is null.
  template <typename Fn>
  static Fn* held(void* storage) {
    constexpr std::size_t offset =
        sizeof(Fn) < sizeof(void*) ? sizeof(void*) : 0;
    return static_cast<Fn*>(
        static_cast<void*>(static_cast<std::byte*>(storage) + offset));
  }

  template <typename Fn, typename F>
  static void construct(void* storage, F&& f) {
    if constexpr (sizeof(Fn) < sizeof(void*)) {
      const void* null = nullptr;
      std::memcpy(storage, &null, sizeof null);
    }
    ::new (static_cast<void*>(held<Fn>(storage))) Fn(std::forward<F>(f));
  }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event action captures too much state for the kernel's "
                  "inline storage; shrink the capture list (there is "
                  "deliberately no heap fallback)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event action is over-aligned for the kernel's storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event actions must be nothrow-move-constructible so a "
                  "pop cannot throw mid-move");
    construct<Fn>(storage_, std::forward<F>(f));
    invoke_ = [](void* s) { (*held<Fn>(s))(); };
    if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>)) {
      relocate_ = [](void* src, void* dst) {
        Fn* fn = held<Fn>(src);
        if (dst) construct<Fn>(dst, std::move(*fn));
        fn->~Fn();
      };
    }
  }

  void reset() {
    if (relocate_) relocate_(storage_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }

  void steal(InlineAction& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (relocate_) {
      relocate_(other.storage_, storage_);
    } else if (invoke_) {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  /// Move-constructs into `dst` (or just destroys when `dst == nullptr`).
  /// nullptr for trivially copyable callables, which relocate via memcpy.
  void (*relocate_)(void* src, void* dst) = nullptr;
};

}  // namespace dsrt::sim
