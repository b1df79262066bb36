// In-memory span recorder for traced benchmark runs. Spans are recorded
// from the benchmark's own files around each call into a famtree layer:
// name, start, end, the parent span and the job or request id they belong
// to. Counter snapshots (cache, evidence, hybrid, ingest and service stats)
// are recorded at the same boundaries. The recorder measures its own cost,
// which is the trace.overhead_frac metric, and dumps everything as JSON at
// the end of the run.

#ifndef FAMTREE_BENCH_TRACE_H_
#define FAMTREE_BENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "discovery/hybrid/hybrid_fd.h"
#include "engine/pli_cache.h"

namespace famtree::bench {

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;  // since the tracer was created
    int64_t end_ns = -1;
    int parent = -1;
    int64_t id = 0;  // job or request id
  };
  struct CounterRecord {
    std::string name;
    double value = 0.0;
    int span = -1;  // the boundary it was snapshot at
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its index. Thread-safe.
  int Begin(const std::string& name, int parent, int64_t id);
  void End(int span);
  /// Records a counter snapshot taken at `span`'s boundary.
  void Count(const std::string& name, double value, int span);

  /// Adds time the caller spent gathering counter snapshots to the
  /// recorder's own cost.
  void AddOverhead(double seconds);
  double overhead_seconds() const;

  /// Durations in seconds of the closed spans named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Values of the counters named `name`, in recording order.
  std::vector<double> Counters(const std::string& name) const;
  /// Median over root spans (no parent) of the share of the root's
  /// duration its direct children cover; 0 without roots.
  double RootCoverage() const;

  /// Writes spans, counters, per-name self time and `meta` as JSON.
  Status Dump(const std::string& path,
              const std::map<std::string, std::string>& meta) const;

 private:
  int64_t NowNs() const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  double overhead_s_ = 0.0;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int parent, int64_t id)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, parent, id) : -1) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }
  void Close() {
    if (tracer_ != nullptr && !closed_) tracer_->End(index_);
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  int index_;
  bool closed_ = false;
};

/// Records the engine.pli_* counters of `stats` at `span`.
void CountPliStats(Tracer* tracer, const PliCache::Stats& stats, int span);
/// Records the discovery.hybrid.* counters of `stats` at `span`.
void CountHybridStats(Tracer* tracer, const HybridFdStats& stats, int span);

}  // namespace famtree::bench

#endif  // FAMTREE_BENCH_TRACE_H_
