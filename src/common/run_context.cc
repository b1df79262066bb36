#include "common/run_context.h"

#include <algorithm>
#include <thread>

namespace famtree {

void RunContext::BeginRun(RunContext* ctx, const char* driver) {
  if (ctx == nullptr) return;
  // Re-arm the latch: a still-cancelled token or an already-expired deadline
  // re-latches at the first probe of the new run.
  ctx->stop_code_.store(0, std::memory_order_release);
  ctx->checkpoints_.store(0, std::memory_order_relaxed);
  ctx->polls_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ctx->mu_);
    ctx->stop_detail_.clear();
    ctx->report_ = RunReport{};
    ctx->report_.driver = driver;
  }
  // Fast-fail a run that is dead on arrival: a token cancelled before the
  // run started or a deadline that already expired latches here, so the
  // very first probe — including PliCache::Get's pre-build check — stops
  // the run before it burns a partition build or cache lookup waiting for
  // the first Checkpoint.
  if (ctx->cancel_ != nullptr && ctx->cancel_->cancelled()) {
    ctx->LatchStop(StatusCode::kCancelled,
                   "run cancelled before it started");
    return;
  }
  if (ctx->has_deadline_ && Clock::now() >= ctx->deadline_) {
    ctx->LatchStop(StatusCode::kDeadlineExceeded,
                   "run deadline expired before it started");
  }
}

Status RunContext::Checkpoint(RunContext* ctx) {
  if (ctx == nullptr) return Status::OK();
  return ctx->CheckpointImpl();
}

Status RunContext::Poll(RunContext* ctx) {
  if (ctx == nullptr) return Status::OK();
  return ctx->PollImpl();
}

Status RunContext::CheckpointImpl() {
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  if (faults_ != nullptr) {
    if (faults_->options().checkpoint_delay.count() > 0) {
      std::this_thread::sleep_for(faults_->options().checkpoint_delay);
    }
    // The injector is consulted first and unconditionally: its check-point
    // counter must advance identically at every thread count, even if a
    // racing worker latched a real limit in the meantime.
    if (faults_->ShouldFailCheckpoint()) {
      return LatchStop(faults_->options().checkpoint_code,
                       "injected fault at check-point " +
                           std::to_string(faults_->checkpoints_seen()));
    }
  }
  int latched = stop_code_.load(std::memory_order_acquire);
  if (latched != 0) return LatchedStatus();
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return LatchStop(StatusCode::kCancelled, "run cancelled via CancelToken");
  }
  if (has_deadline_ && Clock::now() >= deadline_) {
    return LatchStop(StatusCode::kDeadlineExceeded, "run deadline exceeded");
  }
  return Status::OK();
}

Status RunContext::PollImpl() {
  int latched = stop_code_.load(std::memory_order_acquire);
  if (latched != 0) return LatchedStatus();
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return LatchStop(StatusCode::kCancelled, "run cancelled via CancelToken");
  }
  if (has_deadline_) {
    // One clock read per 64 polls keeps the probe cheap enough for
    // per-candidate use while still bounding deadline latency.
    uint32_t p = polls_.fetch_add(1, std::memory_order_relaxed);
    if ((p & 63u) == 0 && Clock::now() >= deadline_) {
      return LatchStop(StatusCode::kDeadlineExceeded,
                       "run deadline exceeded");
    }
  }
  return Status::OK();
}

Status RunContext::ChargeAlloc(RunContext* ctx, size_t bytes,
                               const char* site) {
  if (ctx == nullptr) return Status::OK();
  int latched = ctx->stop_code_.load(std::memory_order_acquire);
  if (latched != 0) return ctx->LatchedStatus();
  if (ctx->faults_ != nullptr && ctx->faults_->ShouldFailAlloc(site)) {
    return ctx->LatchStop(
        StatusCode::kResourceExhausted,
        std::string("injected allocation failure at site '") + site + "'");
  }
  return ChargeBudget(ctx, bytes, site);
}

Status RunContext::ChargeBudget(RunContext* ctx, size_t bytes,
                                const char* site) {
  if (ctx == nullptr) return Status::OK();
  int latched = ctx->stop_code_.load(std::memory_order_acquire);
  if (latched != 0) return ctx->LatchedStatus();
  if (ctx->budget_ != nullptr && bytes > 0 &&
      !ctx->budget_->TryCharge(bytes)) {
    return ctx->LatchStop(
        StatusCode::kResourceExhausted,
        std::string("memory budget exhausted at site '") + site + "' (" +
            std::to_string(ctx->budget_->used()) + " of " +
            std::to_string(ctx->budget_->limit()) + " bytes accrued)");
  }
  return Status::OK();
}

Status RunContext::FaultPoint(RunContext* ctx, const char* site) {
  return ChargeAlloc(ctx, 0, site);
}

Status RunContext::StopStatus(RunContext* ctx) {
  if (ctx == nullptr) return Status::OK();
  return ctx->LatchedStatus();
}

Status RunContext::Fail(RunContext* ctx, const Status& st) {
  if (ctx == nullptr || st.ok()) return st;
  ctx->LatchStop(st.code(), st.message());
  return st;
}

Status RunContext::LatchStop(StatusCode code, const std::string& detail) {
  int expected = 0;
  if (stop_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                         std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mu_);
    stop_detail_ = detail;
    return Status(code, detail);
  }
  return LatchedStatus();
}

Status RunContext::LatchedStatus() const {
  StatusCode code =
      static_cast<StatusCode>(stop_code_.load(std::memory_order_acquire));
  if (code == StatusCode::kOk) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return Status(code, stop_detail_);
}

void RunContext::MarkExhausted(RunContext* ctx, const Status& stop,
                               int64_t completed, int64_t total) {
  if (ctx == nullptr) return;
  // Keep StopStatus consistent with the report even when the driver
  // synthesized the stop itself.
  if (!stop.ok()) ctx->LatchStop(stop.code(), stop.message());
  std::lock_guard<std::mutex> lock(ctx->mu_);
  ctx->report_.exhausted = true;
  ctx->report_.stop_code = stop.code();
  ctx->report_.stop_detail = stop.message();
  ctx->report_.completed_units = completed;
  ctx->report_.total_units = total;
  ctx->report_.checkpoints = ctx->checkpoints_.load(std::memory_order_relaxed);
}

void RunContext::MarkComplete(RunContext* ctx, int64_t units) {
  if (ctx == nullptr) return;
  std::lock_guard<std::mutex> lock(ctx->mu_);
  ctx->report_.exhausted = false;
  ctx->report_.stop_code = StatusCode::kOk;
  ctx->report_.stop_detail.clear();
  ctx->report_.completed_units = units;
  ctx->report_.total_units = units;
  ctx->report_.checkpoints = ctx->checkpoints_.load(std::memory_order_relaxed);
}

Result<int64_t> AnytimeParallelFor(RunContext* ctx, ThreadPool* pool,
                                   int64_t n,
                                   const std::function<Status(int64_t)>& fn) {
  if (ctx == nullptr) {
    // No limits: one plain fan-out over the whole range, zero overhead.
    FAMTREE_RETURN_NOT_OK(ParallelFor(pool, n, fn));
    return n;
  }
  int64_t batch = ctx->unit_batch();
  int64_t done = 0;
  while (done < n) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) return done;
    FAMTREE_RETURN_NOT_OK(gate);
    int64_t end = std::min(n, done + batch);
    Status st = ParallelFor(pool, end - done, [&](int64_t k) -> Status {
      FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
      return fn(done + k);
    });
    // A stop mid-batch discards the whole batch: only fully completed
    // batches count, so the consumed prefix is a multiple of the batch size
    // and identical at any thread count under an injected cutoff.
    if (RunContext::IsStop(st)) return done;
    FAMTREE_RETURN_NOT_OK(st);
    done = end;
  }
  return done;
}

}  // namespace famtree
