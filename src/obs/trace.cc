#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace copyattack::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Per-thread span nesting depth (depth-aware recording: every event
/// carries the depth it ran at, so exporters can reconstruct the stack
/// even after ring wrap-around loses enclosing spans).
thread_local std::uint32_t t_span_depth = 0;

/// Cache of the calling thread's buffer, keyed by recorder so a test's
/// local recorder does not alias the global one.
struct BufferCache {
  const void* recorder = nullptr;
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint32_t CurrentSpanDepth() { return t_span_depth; }

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* const recorder =
      new TraceRecorder();  // analyze:allow(raw-new): process-lifetime singleton
  return *recorder;
}

TraceRecorder::~TraceRecorder() {
  // Drop this thread's cache so a later recorder allocated at the same
  // address (stack-local recorders in sequential tests) cannot alias the
  // freed buffer. Other threads must not outlive a non-global recorder.
  if (t_buffer_cache.recorder == this) t_buffer_cache = {nullptr, nullptr};
}

TraceRecorder::ThreadBuffer& TraceRecorder::BufferForThisThread() {
  if (t_buffer_cache.recorder == this) {
    return *static_cast<ThreadBuffer*>(t_buffer_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->capacity = ring_capacity_;
  // Pre-publication init: the buffer is not yet in buffers_, so no other
  // thread can reach it, and the registry lock held here orders the write
  // before any reader.
  buffer->ring.reserve(ring_capacity_);
  buffer->index = static_cast<std::uint32_t>(buffers_.size());
  buffers_.push_back(std::move(buffer));
  t_buffer_cache = {this, buffers_.back().get()};
  return *buffers_.back();
}

void TraceRecorder::Record(const TraceEvent& event) {
  ThreadBuffer& buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  TraceEvent stamped = event;
  stamped.thread_index = buffer.index;
  const std::size_t capacity = buffer.capacity;
  if (capacity == 0) return;
  if (buffer.ring.size() < capacity) {
    buffer.ring.push_back(stamped);
  } else {
    buffer.ring[buffer.next] = stamped;  // wrap: overwrite the oldest
  }
  buffer.next = (buffer.next + 1) % capacity;
  ++buffer.total;
}

std::vector<TraceEvent> TraceRecorder::Collect() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return events;
}

std::uint64_t TraceRecorder::overwritten() const {
  std::uint64_t lost = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    if (buffer->total > buffer->ring.size()) {
      lost += buffer->total - buffer->ring.size();
    }
  }
  return lost;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->total = 0;
  }
}

void TraceRecorder::SetRingCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = std::max<std::size_t>(1, capacity);
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), start_ns_(0), depth_(0), active_(Enabled()) {
  if (!active_) return;
  depth_ = ++t_span_depth;
  start_ns_ = MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --t_span_depth;
  TraceEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = MonotonicNanos() - start_ns_;
  event.depth = depth_;
  TraceRecorder::Global().Record(event);
}

ScopedHistogramTimer::~ScopedHistogramTimer() {
  if (histogram_ == nullptr) return;
  histogram_->Observe(
      static_cast<double>(MonotonicNanos() - start_ns_) * 1e-3);
}

}  // namespace copyattack::obs
