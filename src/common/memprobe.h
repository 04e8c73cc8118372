#ifndef FAIRGEN_COMMON_MEMPROBE_H_
#define FAIRGEN_COMMON_MEMPROBE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <type_traits>

namespace fairgen {
namespace memprobe {

/// \brief Process memory probing and exact byte accounting.
///
/// Two complementary views of memory use, both observation-only (no `Rng`
/// draws, no effect on chunk layouts — enabling them cannot change model
/// outputs; pinned by the determinism suite):
///  - *RSS probing* asks the kernel what the process actually occupies
///    (`/proc/self/status`), which includes allocator slack and code pages;
///  - *byte counters* charge a `ByteCounter` from instrumented allocation
///    sites (the nn float buffers, the CSR arrays), giving exact
///    logical-bytes attribution per subsystem.

/// Resident set size of this process in bytes (`VmRSS`), or 0 when
/// `/proc/self/status` is unavailable.
uint64_t CurrentRssBytes();

/// Peak resident set size in bytes (`VmHWM`, falling back to
/// `getrusage(RUSAGE_SELF).ru_maxrss`), or 0 when neither source works.
uint64_t PeakRssBytes();

/// \brief Live/peak byte tally. `Add`/`Sub` are relaxed atomics plus a
/// CAS-max for the peak, so concurrent allocations from pool workers tally
/// exactly (integers commute) without locks.
class ByteCounter {
 public:
  void Add(uint64_t bytes) {
    uint64_t now = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  void Sub(uint64_t bytes) {
    live_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Bytes currently allocated and not yet freed.
  uint64_t live() const { return live_.load(std::memory_order_relaxed); }

  /// High-water mark of `live()` since construction or `ResetPeak`.
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Lowers the peak to the current live value (used between A/B phases
  /// and in tests; live allocations are never forgotten).
  void ResetPeak() {
    peak_.store(live_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> peak_{0};
};

/// Process-wide tally of nn float-buffer bytes (tensor values and autograd
/// gradients — everything allocated through `nn::FloatBuffer`). Exported
/// live by the telemetry publisher (`fairgen_nn_bytes_live` /
/// `fairgen_nn_bytes_peak`, snapshot `memory.nn_bytes_*`).
ByteCounter& NnBytes();

/// Process-wide tally of precomputed walk-transition structures (the
/// Vose alias tables in `graph/transition.h`). Exported live by the
/// telemetry publisher (`fairgen_transition_bytes_live` /
/// `fairgen_transition_bytes_peak`, snapshot `memory.transition_bytes_*`).
ByteCounter& TransitionBytes();

namespace internal {

/// Over-aligned raw storage for `TrackingAllocator`. Out of line on
/// purpose: letting GCC inline the aligned `operator delete` into nested
/// container destructors trips a -Wuse-after-free false positive (the
/// alias analysis conflates the inner aligned buffer with the outer
/// array), and no caller is allocation-rate-bound.
void* AlignedNew(size_t bytes, size_t alignment);
void AlignedDelete(void* p, size_t alignment) noexcept;

}  // namespace internal

/// \brief Minimal std allocator charging every allocation to the
/// `ByteCounter` returned by `CounterFn`. Used as the allocator of
/// `nn::FloatBuffer`; the container reports true allocation sizes here, so
/// the tally is exact (no capacity guessing in copy/move special members).
///
/// `Alignment` (a power of two; 0 means natural alignment) over-aligns
/// every allocation via the aligned `operator new`; `nn::FloatBuffer`
/// uses 64 so tensor rows start cache-line-aligned for the SIMD kernels.
///
/// Stateless by construction (the counter is a function-pointer template
/// argument), so containers with this allocator swap/move storage freely.
template <typename T, ByteCounter& (*CounterFn)(), size_t Alignment = 0>
class TrackingAllocator {
 public:
  static_assert(Alignment == 0 || (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment == 0 || Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  // The default allocator_traits rebind only handles type-only template
  // parameter lists; the function-pointer NTTP needs an explicit rebind.
  template <typename U>
  struct rebind {
    using other = TrackingAllocator<U, CounterFn, Alignment>;
  };

  TrackingAllocator() noexcept = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U, CounterFn, Alignment>&)
      noexcept {}

  T* allocate(size_t n) {
    CounterFn().Add(n * sizeof(T));
    if constexpr (Alignment > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return static_cast<T*>(internal::AlignedNew(n * sizeof(T), Alignment));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
  }

  void deallocate(T* p, size_t n) noexcept {
    if constexpr (Alignment > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      internal::AlignedDelete(p, Alignment);
    } else {
      ::operator delete(p);
    }
    CounterFn().Sub(n * sizeof(T));
  }
};

template <typename T, typename U, ByteCounter& (*CounterFn)(),
          size_t Alignment>
bool operator==(const TrackingAllocator<T, CounterFn, Alignment>&,
                const TrackingAllocator<U, CounterFn, Alignment>&) {
  return true;
}

/// \brief Marks a stage boundary: emits one `stage` journal event named
/// `stage` with fields `rss_bytes` (current RSS) and `nn_bytes_live`, and
/// logs the reading at debug level. The journal is the only home of these
/// readings; live memory is the publisher's direct read instead.
///
/// Call at stage boundaries (after load, after fit, after generate, at
/// exit) — it reads `/proc` and takes the journal lock, so it does not
/// belong on per-element hot paths.
void Sample(std::string_view stage);

}  // namespace memprobe
}  // namespace fairgen

#endif  // FAIRGEN_COMMON_MEMPROBE_H_
