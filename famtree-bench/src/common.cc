#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace famtree::bench {

void RunResult::GateFail(const std::string& why) {
  correct = false;
  gate_errors.push_back(why);
}

bool RunResult::Op(const std::string& what, const std::string& why) {
  ++attempted;
  if (why.empty()) return true;
  ++failed;
  failures.push_back(what + ": " + why);
  return false;
}

std::string WhyFailed(const Status& status, const RunReport& report,
                      bool empty_cover) {
  if (!status.ok()) return status.ToString();
  if (report.exhausted) return "exhausted: " + report.stop_detail;
  return empty_cover ? "OK with an empty cover" : "";
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool CanonFd::operator<(const CanonFd& o) const {
  if (lhs.size() != o.lhs.size()) return lhs.size() < o.lhs.size();
  if (lhs != o.lhs) return lhs < o.lhs;
  if (rhs != o.rhs) return rhs < o.rhs;
  return error < o.error;
}

bool CanonFd::operator==(const CanonFd& o) const {
  return lhs == o.lhs && rhs == o.rhs && error == o.error;
}

std::vector<CanonFd> Canonical(const std::vector<DiscoveredFd>& fds) {
  std::vector<CanonFd> out;
  out.reserve(fds.size());
  for (const DiscoveredFd& fd : fds) out.push_back({fd.lhs, fd.rhs, fd.error});
  std::sort(out.begin(), out.end());
  return out;
}

std::string FdsToString(const std::vector<CanonFd>& fds) {
  std::string out;
  for (const CanonFd& fd : fds) {
    out += "{";
    bool first = true;
    for (int a : fd.lhs.ToVector()) {
      if (!first) out += ',';
      out += std::to_string(a);
      first = false;
    }
    char err[32];
    std::snprintf(err, sizeof(err), "%.17g", fd.error);
    out += "}->" + std::to_string(fd.rhs) + "@" + err + " ";
  }
  return out;
}

std::string DcsDigest(const std::vector<DiscoveredDc>& dcs) {
  std::string out;
  char buf[32];
  for (const DiscoveredDc& dc : dcs) {
    std::snprintf(buf, sizeof(buf), "%.17g", dc.violation_fraction);
    out += dc.dc.ToString() + "@" + buf + "\n";
  }
  return out;
}

std::string MdsDigest(const std::vector<DiscoveredMd>& mds) {
  std::string out;
  char buf[64];
  for (const DiscoveredMd& md : mds) {
    std::snprintf(buf, sizeof(buf), "%.17g/%.17g", md.support, md.confidence);
    out += md.md.ToString() + "@" + buf + "\n";
  }
  return out;
}

}  // namespace famtree::bench
