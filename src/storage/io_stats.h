// IoStats: the measurement substrate for every experiment in the paper.
//
// The paper reports query cost as the number of physical page I/Os under an
// LRU buffer (Sec. 6), and "execution time" as CPU time plus #I/Os x 10ms.
// Each BufferPool shard owns an AtomicIoStats, bumped under the shard's lock
// on every logical and physical page access there; the pool sums the shards
// into the plain-POD IoStats view that benches snapshot/diff around query
// batches.

#ifndef BOXAGG_STORAGE_IO_STATS_H_
#define BOXAGG_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace boxagg {

/// \brief Counters for physical and logical page traffic.
///
/// Plain-POD snapshot type: copyable, comparable by component, used by every
/// bench and test. Invariant (checked by tests): after any workload,
/// logical_reads == buffer_hits + physical_reads.
struct IoStats {
  uint64_t physical_reads = 0;   ///< pages fetched from the PageFile
  uint64_t physical_writes = 0;  ///< dirty pages flushed to the PageFile
  uint64_t logical_reads = 0;    ///< page fetch requests (hits + misses)
  uint64_t buffer_hits = 0;      ///< fetches served from the buffer pool
  /// Page fetches avoided by batched multi-probe descent: a node fetched
  /// once for a group of k probes would have been fetched k times on the
  /// per-probe path, so the descent reports k-1 here. Purely informational
  /// (not part of the logical == hits + physical invariant).
  uint64_t probe_fetches_saved = 0;
  /// Fetches that failed page verification (CRC mismatch, bad magic, or a
  /// misdirected-write header) and surfaced Status::kCorruption. Always 0
  /// on a healthy store. Not part of the logical == hits + physical
  /// invariant (a failed fetch is neither a hit nor a physical read).
  uint64_t checksum_failures = 0;
  /// Transient-read retry attempts made by the buffer pool's bounded
  /// retry-with-backoff before a fetch succeeded or gave up with kIoError.
  uint64_t read_retries = 0;
  /// Frames reclaimed by LRU victim selection. Quiescent-point invariant
  /// (checked by tests): evictions >= dirty_writebacks — every eviction-path
  /// write-back is preceded by selecting that frame as victim.
  uint64_t evictions = 0;
  /// Evicted frames that were dirty and had to be written back first.
  /// Counts only eviction-path write-backs; FlushAll's writes appear in
  /// physical_writes but not here.
  uint64_t dirty_writebacks = 0;

  /// Total physical I/Os — the paper's query-cost metric.
  [[nodiscard]] uint64_t TotalIos() const { return physical_reads + physical_writes; }

  /// Fraction of logical reads served from the buffer (0 when idle).
  [[nodiscard]] double HitRate() const {
    return logical_reads == 0
               ? 0.0
               : static_cast<double>(buffer_hits) /
                     static_cast<double>(logical_reads);
  }

  void Reset() { *this = IoStats{}; }

  /// Component-wise sum; the pool adds up its shards' counters.
  IoStats& operator+=(const IoStats& o) {
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    logical_reads += o.logical_reads;
    buffer_hits += o.buffer_hits;
    probe_fetches_saved += o.probe_fetches_saved;
    checksum_failures += o.checksum_failures;
    read_retries += o.read_retries;
    evictions += o.evictions;
    dirty_writebacks += o.dirty_writebacks;
    return *this;
  }

  /// Component-wise difference (now - earlier); used to cost a query batch.
  [[nodiscard]] IoStats Since(const IoStats& earlier) const {
    IoStats d;
    d.physical_reads = physical_reads - earlier.physical_reads;
    d.physical_writes = physical_writes - earlier.physical_writes;
    d.logical_reads = logical_reads - earlier.logical_reads;
    d.buffer_hits = buffer_hits - earlier.buffer_hits;
    d.probe_fetches_saved = probe_fetches_saved - earlier.probe_fetches_saved;
    d.checksum_failures = checksum_failures - earlier.checksum_failures;
    d.read_retries = read_retries - earlier.read_retries;
    d.evictions = evictions - earlier.evictions;
    d.dirty_writebacks = dirty_writebacks - earlier.dirty_writebacks;
    return d;
  }
};

/// \brief I/O counters with one writer at a time and any number of readers:
/// relaxed atomics, POD snapshot.
///
/// A buffer-pool shard's lock serializes every writer of its counters, so an
/// increment is a relaxed load and store, with no lock-prefixed
/// read-modify-write; Snapshot() may run concurrently with it. The exception
/// is AddProbeFetchesSaved, a fetch_add, for a counter noted outside any
/// lock. Relaxed ordering is sufficient — the counters are statistics, not
/// synchronization; cross-counter invariants hold exactly at any quiescent
/// point (no Fetch in flight) because each Fetch bumps logical_reads and
/// exactly one of buffer_hits / physical_reads under the shard lock.
class AtomicIoStats {
 public:
  void AddPhysicalRead() { Inc(physical_reads_); }
  void AddPhysicalWrite() { Inc(physical_writes_); }
  void AddLogicalRead() { Inc(logical_reads_); }
  void AddBufferHit() { Inc(buffer_hits_); }
  void AddProbeFetchesSaved(uint64_t n) {
    probe_fetches_saved_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddChecksumFailure() { Inc(checksum_failures_); }
  void AddReadRetry() { Inc(read_retries_); }
  void AddEviction() { Inc(evictions_); }
  void AddDirtyWriteback() { Inc(dirty_writebacks_); }

  /// Plain-POD view; feed it to IoStats::Since for batch deltas.
  [[nodiscard]] IoStats Snapshot() const {
    IoStats s;
    s.physical_reads = physical_reads_.load(std::memory_order_relaxed);
    s.physical_writes = physical_writes_.load(std::memory_order_relaxed);
    s.logical_reads = logical_reads_.load(std::memory_order_relaxed);
    s.buffer_hits = buffer_hits_.load(std::memory_order_relaxed);
    s.probe_fetches_saved =
        probe_fetches_saved_.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    s.read_retries = read_retries_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.dirty_writebacks = dirty_writebacks_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    physical_reads_.store(0, std::memory_order_relaxed);
    physical_writes_.store(0, std::memory_order_relaxed);
    logical_reads_.store(0, std::memory_order_relaxed);
    buffer_hits_.store(0, std::memory_order_relaxed);
    probe_fetches_saved_.store(0, std::memory_order_relaxed);
    checksum_failures_.store(0, std::memory_order_relaxed);
    read_retries_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    dirty_writebacks_.store(0, std::memory_order_relaxed);
  }

 private:
  static void Inc(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> physical_reads_{0};
  std::atomic<uint64_t> physical_writes_{0};
  std::atomic<uint64_t> logical_reads_{0};
  std::atomic<uint64_t> buffer_hits_{0};
  std::atomic<uint64_t> probe_fetches_saved_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> dirty_writebacks_{0};
};

/// Per-I/O latency charged by the paper's cost model (Sec. 6): 10 ms.
inline constexpr double kPaperIoMillis = 10.0;

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_IO_STATS_H_
