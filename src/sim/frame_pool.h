// Size-bucketed free-list allocator for coroutine frames (and sim::Link's
// pending-transfer records and sim::Process's shared state, which churn the
// same way).
//
// The simulator creates and destroys millions of short-lived coroutine
// frames (sim::Process bodies, sim::Task<> API calls); under the default
// allocator every one is a malloc/free pair, which dominates host wall-clock
// at 32K-task scale. Frames recycle through per-size free lists instead:
// steady state performs no heap allocation at all.
//
// The pool is thread_local, so simulations driven from different threads
// never share a free list. It is compiled out entirely under sanitizers (ASan keeps use-after-free of coroutine frames
// detectable — a recycled frame would otherwise mask UAF as silent
// corruption — and TSan sees every frame as a fresh allocation).
#pragma once

#include <cstddef>

namespace pagoda::sim {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PAGODA_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PAGODA_FRAME_POOL_DISABLED 1
#endif
#endif

/// Allocates a coroutine frame of `bytes`; pooled for small sizes,
/// ::operator new beyond the largest bucket.
void* frame_alloc(std::size_t bytes);
/// Returns a frame to its bucket (sizes must match frame_alloc's).
void frame_free(void* p, std::size_t bytes) noexcept;

/// Mixin: a promise type inheriting this allocates its frame from the pool.
struct PooledFrame {
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    frame_free(p, bytes);
  }
};

/// Allocator over the pool, for std::allocate_shared state made per frame.
template <class T>
struct FrameAllocator {
  using value_type = T;
  FrameAllocator() = default;
  template <class U>
  FrameAllocator(const FrameAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(frame_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { frame_free(p, n * sizeof(T)); }
  template <class U>
  bool operator==(const FrameAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace pagoda::sim
