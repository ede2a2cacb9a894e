#ifndef NATIX_PERFBENCH_DECORATORS_H_
#define NATIX_PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/file_backend.h"
#include "trace.h"

// Timing decorators over the library's public I/O interfaces. They are
// installed only in traced runs; untraced runs hand the library the bare
// PosixFileBackend / FilePageSource.
namespace perfbench {

/// Calls, bytes and busy time of one kind of I/O call. Atomic because the
/// WAL flusher thread and the mutator thread share one backend.
struct IoCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> ns{0};

  void Add(uint64_t n_bytes, uint64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(n_bytes, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
};

/// Per-backend ledger. A sync's bytes are the bytes appended or written
/// since the previous sync (what that fsync made durable).
struct BackendCounters {
  IoCounter read, append, write, sync;
  std::atomic<uint64_t> unsynced{0};

  /// Zeroes the ledger, e.g. after set-up wrote through the backend.
  void Reset() {
    for (IoCounter* c : {&read, &append, &write, &sync}) {
      c->calls = 0;
      c->bytes = 0;
      c->ns = 0;
    }
    unsynced = 0;
  }
};

/// FileBackend decorator: one span and one counter update per call.
class TimedBackend : public natix::FileBackend {
 public:
  TimedBackend(std::unique_ptr<natix::FileBackend> inner,
               BackendCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  natix::Result<uint64_t> Size() override { return inner_->Size(); }

  natix::Status Append(const void* data, size_t size) override {
    Span span("storage.backend:append");
    const uint64_t t0 = NowNs();
    natix::Status st = inner_->Append(data, size);
    counters_->append.Add(size, NowNs() - t0);
    counters_->unsynced.fetch_add(size, std::memory_order_relaxed);
    return st;
  }

  natix::Status ReadAt(uint64_t offset, void* out, size_t size) override {
    Span span("storage.backend:read");
    const uint64_t t0 = NowNs();
    natix::Status st = inner_->ReadAt(offset, out, size);
    counters_->read.Add(size, NowNs() - t0);
    return st;
  }

  natix::Status WriteAt(uint64_t offset, const void* data,
                        size_t size) override {
    Span span("storage.backend:write");
    const uint64_t t0 = NowNs();
    natix::Status st = inner_->WriteAt(offset, data, size);
    counters_->write.Add(size, NowNs() - t0);
    counters_->unsynced.fetch_add(size, std::memory_order_relaxed);
    return st;
  }

  natix::Status Truncate(uint64_t size) override {
    return inner_->Truncate(size);
  }

  natix::Status Sync() override {
    Span span("storage.backend:sync");
    const uint64_t t0 = NowNs();
    natix::Status st = inner_->Sync();
    counters_->sync.Add(counters_->unsynced.exchange(0), NowNs() - t0);
    return st;
  }

 private:
  std::unique_ptr<natix::FileBackend> inner_;
  BackendCounters* counters_;
};

/// PageProvider decorator: one span per page read. The page source's
/// self time (cell CRC check and copy) is this span minus the backend
/// read span nested in it.
class TimedPageSource : public natix::PageProvider {
 public:
  explicit TimedPageSource(const natix::PageProvider* inner) : inner_(inner) {}

  natix::Result<std::vector<uint8_t>> ReadPage(
      uint32_t page_id) const override {
    Span span("storage.page_source:read");
    return inner_->ReadPage(page_id);
  }

 private:
  const natix::PageProvider* inner_;
};

}  // namespace perfbench

#endif  // NATIX_PERFBENCH_DECORATORS_H_
