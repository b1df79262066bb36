#ifndef FAMTREE_COMMON_RUN_CONTEXT_H_
#define FAMTREE_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"

namespace famtree {

/// Cooperative cancellation flag. One token can be shared by many runs; a
/// caller on any thread flips it and every run polling it stops at its next
/// check-point. The token owns no resources and never blocks.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Byte-accounting budget shared by everything a run allocates: PLI builds,
/// evidence multisets, per-algorithm scratch. Charges accrue — cache-resident
/// structures are paid for when built and never refunded on eviction, so the
/// budget bounds what a run *constructs*, not the instantaneous heap. That
/// keeps the accounting one atomic add with no back-references from
/// long-lived caches to a short-lived budget.
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  /// Adds `bytes` to the accrued total; false when that would cross the
  /// limit (the charge is not recorded on failure).
  bool TryCharge(size_t bytes) {
    size_t used = used_.load(std::memory_order_relaxed);
    do {
      if (used + bytes > limit_) return false;
    } while (!used_.compare_exchange_weak(used, used + bytes,
                                          std::memory_order_relaxed));
    return true;
  }

  /// Refunds scratch that was charged and then freed within the run.
  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

  /// Bytes still chargeable before the limit. Advisory under concurrency;
  /// the out-of-core layer reads it to decide how much to spill before a
  /// charge, then still goes through TryCharge for the real answer.
  size_t remaining() const {
    size_t u = used();
    return u >= limit_ ? 0 : limit_ - u;
  }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
};

/// Deterministic fault injection for the robustness tests: fail the Nth
/// driver check-point (as if a deadline or budget had expired there), fail
/// the Nth charge at a named allocation site, or stretch every check-point
/// by a fixed latency. Check-points are counted only on the driver thread,
/// so an injected cutoff reproduces the identical partial result at any
/// thread count — that is what the differential tests replay.
class FaultInjector {
 public:
  struct Options {
    /// 1-based: the Nth RunContext::Checkpoint call fails; <= 0 disables.
    int64_t fail_at_checkpoint = -1;
    /// Code the injected check-point failure carries.
    StatusCode checkpoint_code = StatusCode::kDeadlineExceeded;
    /// 1-based over charges whose site matches `alloc_site`; <= 0 disables.
    int64_t fail_at_alloc = -1;
    /// Allocation-site filter; empty matches every site.
    std::string alloc_site;
    /// Latency added to every check-point (cancellation-latency harnesses).
    std::chrono::milliseconds checkpoint_delay{0};
  };

  explicit FaultInjector(Options options) : options_(std::move(options)) {}

  /// Counts one driver check-point; true exactly when the configured one is
  /// reached.
  bool ShouldFailCheckpoint() {
    int64_t seen = checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
    return options_.fail_at_checkpoint > 0 &&
           seen == options_.fail_at_checkpoint;
  }

  /// Counts one charge at `site`; true exactly when the configured matching
  /// charge is reached.
  bool ShouldFailAlloc(const char* site) {
    if (!options_.alloc_site.empty() && options_.alloc_site != site) {
      return false;
    }
    int64_t seen = allocs_.fetch_add(1, std::memory_order_relaxed) + 1;
    return options_.fail_at_alloc > 0 && seen == options_.fail_at_alloc;
  }

  int64_t checkpoints_seen() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  int64_t allocs_seen() const {
    return allocs_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

 private:
  const Options options_;
  std::atomic<int64_t> checkpoints_{0};
  std::atomic<int64_t> allocs_{0};
};

/// What a limited run accomplished before it returned. Drivers fill this on
/// the RunContext: `exhausted` is set when any limit cut the run short, and
/// the partial results returned alongside are a deterministic prefix of the
/// full run's serial order.
struct RunReport {
  /// Name of the driver that owns the report (last BeginRun).
  std::string driver;
  /// True when a deadline/cancel/budget/injected fault stopped the run.
  bool exhausted = false;
  /// Stop reason: kCancelled, kDeadlineExceeded, or kResourceExhausted
  /// (kOk when the run completed).
  StatusCode stop_code = StatusCode::kOk;
  std::string stop_detail;
  /// Units of work fully finished / total scheduled. The unit is the
  /// driver's natural granularity: lattice levels for levelwise miners,
  /// candidates for sweep miners, passes for the repair applications.
  int64_t completed_units = 0;
  int64_t total_units = 0;
  /// Driver check-points passed (the granularity cancellation reacts at).
  int64_t checkpoints = 0;
};

/// Run-scoped control block threaded through every engine driver: a
/// deadline, a cooperative CancelToken, a MemoryBudget, and a FaultInjector,
/// plus the RunReport the driver leaves behind. All limits are optional; a
/// default RunContext (or a null pointer — every entry point below is
/// null-tolerant) changes nothing about a run.
///
/// Two probes with distinct contracts keep partial results deterministic:
///
///  - Checkpoint() is the *deterministic barrier*. Drivers call it on the
///    driver thread only, between units of work whose order does not depend
///    on the thread count (lattice levels, candidate batches, repair
///    passes). It is the only probe the FaultInjector's check-point counter
///    sees, so an injected cutoff lands at the same unit boundary at any
///    thread count.
///  - Poll() is the *cheap worker probe*. Workers call it per tile or per
///    candidate; it reads the latched stop flag, the cancel token, and
///    (strided) the clock — never the injector — so its call count may vary
///    with scheduling without perturbing the injected cutoff.
///
/// Once any probe observes a limit, the stop is latched: every subsequent
/// probe on any thread returns the same Status, which is how an in-flight
/// parallel batch drains promptly (ThreadPool::ParallelFor hard-stops on
/// latched codes).
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void set_timeout(std::chrono::nanoseconds timeout) {
    set_deadline(Clock::now() + timeout);
  }
  void clear_deadline() { has_deadline_ = false; }

  /// Borrowed; must outlive every run using this context.
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  void set_memory_budget(MemoryBudget* budget) { budget_ = budget; }
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Units per anytime batch: AnytimeParallelFor places one Checkpoint
  /// between consecutive batches of this many units, which bounds both the
  /// cancellation latency and the rounding of a partial prefix.
  void set_unit_batch(int64_t units) { unit_batch_ = units < 1 ? 1 : units; }
  int64_t unit_batch() const { return unit_batch_; }

  CancelToken* cancel_token() const { return cancel_; }
  MemoryBudget* memory_budget() const { return budget_; }
  FaultInjector* fault_injector() const { return faults_; }

  /// Copy of the report of the most recent run.
  RunReport report() const {
    std::lock_guard<std::mutex> lock(mu_);
    return report_;
  }

  /// True for the three run-control codes a driver downgrades to a partial
  /// result (anything else stays a hard error).
  static bool IsStop(const Status& st) { return IsStopCode(st.code()); }
  static bool IsStopCode(StatusCode code) {
    return code == StatusCode::kCancelled ||
           code == StatusCode::kDeadlineExceeded ||
           code == StatusCode::kResourceExhausted;
  }

  // ------------------------------------------------- null-tolerant probes

  /// Starts a run: names the report and re-arms the stop latch. A still-set
  /// CancelToken or an already-expired deadline fast-fails here — the stop
  /// is latched immediately so the first probe (including the pre-build
  /// check in PliCache::Get) stops the run before any work is done, instead
  /// of burning a cache lookup waiting for the first Checkpoint.
  static void BeginRun(RunContext* ctx, const char* driver);

  /// Deterministic barrier (driver thread only): consults the injector, the
  /// deadline, the cancel token, and the latched state, in that order.
  static Status Checkpoint(RunContext* ctx);

  /// Cheap worker-side probe: latched state, cancel token, and a strided
  /// deadline read. Never consults the injector.
  static Status Poll(RunContext* ctx);

  /// Charges `bytes` of scratch/cache construction against the budget and
  /// counts one allocation at `site` for the injector. On either failure the
  /// run latches kResourceExhausted and the stop Status is returned; the
  /// caller must back out without publishing partially built state.
  static Status ChargeAlloc(RunContext* ctx, size_t bytes, const char* site);

  /// ChargeAlloc without the injector consult: the latched state, then the
  /// budget charge (latching kResourceExhausted on failure). For callers
  /// that consult `site` once up front and then retry the charge
  /// themselves (ShardedEncodedRelation::ChargeWithSpill).
  static Status ChargeBudget(RunContext* ctx, size_t bytes, const char* site);

  /// Injector-only probe for fault points that model an allocation without
  /// a meaningful byte count (see FAMTREE_FAULT_POINT).
  static Status FaultPoint(RunContext* ctx, const char* site);

  /// The latched stop Status, or OK when the run is still live. Lets a
  /// caller that only sees a sentinel (e.g. PliCache::Get's nullptr)
  /// recover the reason.
  static Status StopStatus(RunContext* ctx);

  /// Latches an arbitrary hard failure (e.g. a spill-file write error) so
  /// every subsequent probe returns it and in-flight parallel work drains.
  /// Unlike the three run-control codes this does not read as a stop, so
  /// drivers surface it as an error instead of a partial result. Returns
  /// `st` unchanged (also with a null ctx or an OK status).
  static Status Fail(RunContext* ctx, const Status& st);

  /// Records that a limit cut the run short after `completed` of `total`
  /// units; the results returned alongside are the prefix those units
  /// produced.
  static void MarkExhausted(RunContext* ctx, const Status& stop,
                            int64_t completed, int64_t total);

  /// Records a run that finished every unit.
  static void MarkComplete(RunContext* ctx, int64_t units);

 private:
  Status CheckpointImpl();
  Status PollImpl();
  /// Latches the first stop; later calls return the original. Thread-safe.
  Status LatchStop(StatusCode code, const std::string& detail);
  Status LatchedStatus() const;

  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  int64_t unit_batch_ = 64;
  CancelToken* cancel_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  FaultInjector* faults_ = nullptr;

  /// Latched stop code (StatusCode as int; kOk while live).
  std::atomic<int> stop_code_{0};
  std::atomic<int64_t> checkpoints_{0};
  std::atomic<uint32_t> polls_{0};  // strides the deadline clock reads

  mutable std::mutex mu_;  // guards stop_detail_ and report_
  std::string stop_detail_;
  RunReport report_;
};

/// Anytime fan-out: runs fn(i) for i in [0, n) in consecutive batches of
/// ctx->unit_batch() units with a deterministic Checkpoint between batches,
/// and a Poll in front of every unit. Returns the number of leading units
/// whose batches completed entirely — the caller consumes exactly the slots
/// [0, result) and discards the rest, which makes the partial output a
/// prefix of the serial order at any thread count. Non-stop errors from fn
/// propagate unchanged. A null ctx degenerates to one plain ParallelFor
/// over the whole range (returning n).
Result<int64_t> AnytimeParallelFor(RunContext* ctx, ThreadPool* pool,
                                   int64_t n,
                                   const std::function<Status(int64_t)>& fn);

}  // namespace famtree

/// Fine-grained fault points compiled in by -DFAMTREE_FAULTS (the CMake
/// option of the same name; defaults ON for Debug builds). The coarse sites
/// — "pli_build", "evidence_set", "evidence_tile", "csv_rows" — are always
/// compiled; this macro is for hot-loop sites too costly for release
/// builds.
#ifdef FAMTREE_FAULTS
#define FAMTREE_FAULT_POINT(ctx, site) \
  FAMTREE_RETURN_NOT_OK(::famtree::RunContext::FaultPoint((ctx), (site)))
#else
#define FAMTREE_FAULT_POINT(ctx, site) \
  do {                                 \
  } while (0)
#endif

#endif  // FAMTREE_COMMON_RUN_CONTEXT_H_
