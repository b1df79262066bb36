#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace famtree::bench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Nanoseconds of [lo, hi) covered by the union of `intervals`.
int64_t Covered(std::vector<std::pair<int64_t, int64_t>> intervals,
                int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int parent, int64_t id) {
  int64_t t0 = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t0, -1, parent, id});
  int index = static_cast<int>(spans_.size()) - 1;
  overhead_s_ += static_cast<double>(NowNs() - t0) * 1e-9;
  return index;
}

void Tracer::End(int span) {
  int64_t t0 = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span].end_ns = t0;
  overhead_s_ += static_cast<double>(NowNs() - t0) * 1e-9;
}

void Tracer::Count(const std::string& name, double value, int span) {
  int64_t t0 = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, value, span});
  overhead_s_ += static_cast<double>(NowNs() - t0) * 1e-9;
}

void Tracer::AddOverhead(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  overhead_s_ += seconds;
}

double Tracer::overhead_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_s_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> Tracer::Counters(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const CounterRecord& c : counters_) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

double Tracer::RootCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> shares;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0 || s.end_ns <= s.start_ns) continue;
    int64_t covered =
        Covered(children[static_cast<int>(i)], s.start_ns, s.end_ns);
    shares.push_back(static_cast<double>(covered) /
                     static_cast<double>(s.end_ns - s.start_ns));
  }
  return Median(shares);
}

Status Tracer::Dump(const std::string& path,
                    const std::map<std::string, std::string>& meta) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot create " + path);

  // Self time per span: its duration minus what its children cover.
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    int64_t dur = s.end_ns - s.start_ns;
    int64_t covered =
        Covered(children[static_cast<int>(i)], s.start_ns, s.end_ns);
    self[i] = static_cast<double>(dur - covered) * 1e-9;
    by_name[s.name].first += static_cast<double>(dur) * 1e-9;
    by_name[s.name].second += self[i];
  }

  std::fprintf(f, "{\n  \"meta\": {");
  bool first = true;
  for (const auto& [k, v] : meta) {
    std::fprintf(f, "%s\n    %s: %s", first ? "" : ",", JsonString(k).c_str(),
                 JsonString(v).c_str());
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"overhead_s\": %.9g,\n  \"self_time_s\": {",
               overhead_s_);
  first = true;
  for (const auto& [name, times] : by_name) {
    std::fprintf(f, "%s\n    %s: {\"total\": %.9g, \"self\": %.9g}",
                 first ? "" : ",", JsonString(name).c_str(), times.first,
                 times.second);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n    {\"i\": %zu, \"name\": %s, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"id\": %lld, "
                 "\"self_s\": %.9g}",
                 i == 0 ? "" : ",", i, JsonString(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.id), self[i]);
  }
  std::fprintf(f, "\n  ],\n  \"counters\": [");
  for (size_t i = 0; i < counters_.size(); ++i) {
    const CounterRecord& c = counters_[i];
    std::fprintf(f, "%s\n    {\"name\": %s, \"value\": %.17g, \"span\": %d}",
                 i == 0 ? "" : ",", JsonString(c.name).c_str(), c.value,
                 c.span);
  }
  std::fprintf(f, "\n  ]\n}\n");
  if (std::fclose(f) != 0) return Status::IoError("write failed on " + path);
  return Status::OK();
}

void CountPliStats(Tracer* tracer, const PliCache::Stats& stats, int span) {
  double lookups = static_cast<double>(stats.hits + stats.misses);
  tracer->Count("engine.pli_hits", stats.hits, span);
  tracer->Count("engine.pli_misses", stats.misses, span);
  tracer->Count("engine.pli_builds", stats.builds, span);
  tracer->Count("engine.pli_evictions", stats.evictions, span);
  tracer->Count("engine.pli_hit_ratio",
                lookups > 0 ? stats.hits / lookups : 0, span);
  tracer->Count("engine.pli_mb", Mb(stats.bytes), span);
}

void CountHybridStats(Tracer* tracer, const HybridFdStats& stats, int span) {
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  tracer->Count("discovery.hybrid.sampled_pairs", stats.sampled_pairs, span);
  tracer->Count("discovery.hybrid.sampling_efficiency",
                ratio(stats.sampled_agree_sets, stats.sampled_pairs), span);
  tracer->Count("discovery.hybrid.frontier_checks", stats.frontier_checks,
                span);
  tracer->Count("discovery.hybrid.frontier_violation_ratio",
                ratio(stats.frontier_violations, stats.frontier_checks),
                span);
}

}  // namespace famtree::bench
