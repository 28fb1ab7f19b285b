// A `void()` callable with inline storage: the callback type of the
// simulator core (scheduled events and CPU tasks).
//
// std::function heap-allocates any closure larger than two pointers, and
// nearly every closure the simulator schedules is larger than that (a
// `this` plus a packet pointer plus a peer, or a whole work completion).
// An InlineCallback constructs a closure of up to kInlineBytes in its own
// storage, so creating, running and destroying one allocates nothing.  A
// larger or over-aligned closure still works: it falls back to one heap
// allocation, as std::function would.
//
// A callback is built where it lives (a scheduler slot, a CPU task) and
// runs there, so it is neither copyable nor movable.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace exs::simnet {

class InlineCallback {
 public:
  /// Sized for the largest closure the simulator schedules per event:
  /// QueuePair::PushRecvCompletionLater captures `this` plus an 80-byte
  /// WorkCompletion (88 bytes).
  static constexpr std::size_t kInlineBytes = 96;

  /// Whether a closure of type F lives in the inline storage.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t);

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT: empty, like std::function's

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineCallback> &&
                                        std::is_invocable_v<Fn&>>>
  InlineCallback(F&& f) {  // NOLINT: converts from any closure
    Emplace(std::forward<F>(f));
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  /// Destroy the current callable, if any, and construct `f` in its place.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    Reset();
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
    }
    ops_ = &kOps<Fn>;
  }

  /// Destroy the callable; the callback becomes empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Run the callable where it is stored.  The callback must not be empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static Fn& Target(void* storage) {
    if constexpr (kStoresInline<Fn>) {
      return *std::launder(static_cast<Fn*>(storage));
    } else {
      return **std::launder(static_cast<Fn**>(storage));
    }
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* storage) { Target<Fn>(storage)(); },
      [](void* storage) noexcept {
        if constexpr (kStoresInline<Fn>) {
          Target<Fn>(storage).~Fn();
        } else {
          delete &Target<Fn>(storage);
        }
      }};

  // The dispatch pointer sits in front of the storage, so a small closure
  // shares its first cache line with it.
  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace exs::simnet
