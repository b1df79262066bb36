// Shared pieces of the famtree benchmark: the run result every workload
// fills, seeded input generation, timing, order statistics and the
// canonical forms the correctness gates compare.

#ifndef FAMTREE_BENCH_COMMON_H_
#define FAMTREE_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/attr_set.h"
#include "common/run_context.h"
#include "common/status.h"
#include "discovery/fastdc.h"
#include "discovery/md_discovery.h"
#include "discovery/tane.h"

namespace famtree::bench {

class Tracer;

/// Sizes and gate-test switches of one workload run. The defaults are the
/// measured workload; the self-check shrinks the sizes and flips the
/// switches to prove that the gates fire.
struct Knobs {
  /// Row-count scale: 1.0 is the benchmark size; the self-check uses a
  /// small fraction.
  double scale = 1.0;
  /// Corrupts one expected cover before it is compared (must fail the run).
  bool corrupt_expected = false;
  /// Arms fault injection on some serve requests so their outcomes come
  /// back degraded (must raise the failed count).
  bool force_degraded = false;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  Tracer* tracer = nullptr;  // null = untraced run
  Knobs knobs;
};

/// What one workload run reports. `metrics` holds every end-to-end metric
/// and, in a traced run, the per-layer metrics of the layers it loads.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> gate_errors;  // why `correct` is false
  std::vector<std::string> failures;     // one line per failed operation
  std::map<std::string, double> metrics;

  /// A correctness gate did not hold.
  void GateFail(const std::string& why);
  /// Counts one attempted operation; it failed when `why` is not empty and
  /// is then listed. Returns whether it succeeded.
  bool Op(const std::string& what, const std::string& why);
};

/// Why a layer call failed, or "" when it did not: a non-OK status, an
/// exhausted run report (a partial result), or, for a discovery call, an OK
/// with an empty cover.
std::string WhyFailed(const Status& status, const RunReport& report,
                      bool empty_cover = false);

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);

/// splitmix64: every input of the benchmark derives from --seed through
/// this generator, so one seed gives the same inputs on any platform.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Order statistic by linear interpolation (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

double PeakRssMb();

/// FD as (lhs, rhs, g3 error): the identity the gates compare, sorted.
struct CanonFd {
  AttrSet lhs;
  int rhs = 0;
  double error = 0.0;
  bool operator<(const CanonFd& o) const;
  bool operator==(const CanonFd& o) const;
};
std::vector<CanonFd> Canonical(const std::vector<DiscoveredFd>& fds);
std::string FdsToString(const std::vector<CanonFd>& fds);

/// Exact serializations for bit-identity checks and cross-job comparisons.
std::string DcsDigest(const std::vector<DiscoveredDc>& dcs);
std::string MdsDigest(const std::vector<DiscoveredMd>& mds);

inline double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace famtree::bench

#endif  // FAMTREE_BENCH_COMMON_H_
