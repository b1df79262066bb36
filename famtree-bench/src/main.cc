// famtree-bench benchmark binary. Usage:
//
//   famtree_bench --workload <mine_batch|serve_mixed|ooc_spill> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-dir <dir>]
//                 [--commit <id>]
//   famtree_bench --selfcheck [--seed <n>]
//
// A run prints a summary and its metadata on stderr, one "meta" line and,
// as the last line of stdout, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// per-layer metrics, and the span trace is written under --trace-dir.
// --selfcheck runs smoke-sized workloads and proves that the correctness
// gates and the failure count fire; it exits 0 only if they all do.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace famtree::bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* span;  // per-layer: median duration of spans with this name
};

// Must match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", nullptr},
    {"job_s_p50", "s", nullptr},
    {"rows_per_s", "rows/s", nullptr},
    {"latency_ms_p50", "ms", nullptr},
    {"latency_ms_p99", "ms", nullptr},
    {"throughput_rps", "1/s", nullptr},
    {"ok_frac", "fraction", nullptr},
    {"peak_rss_mb", "MB", nullptr},
};

const MetricDef kPerLayer[] = {
    {"relation.parse_s", "s", "relation.parse"},
    {"relation.parse_rows_per_s", "rows/s", nullptr},
    {"relation.encode_s", "s", "relation.encode"},
    {"ooc.ingest_s", "s", "ooc.ingest"},
    {"ooc.ingest_rows_per_s", "rows/s", nullptr},
    {"ooc.shards", "count", nullptr},
    {"ooc.shards_spilled", "count", nullptr},
    {"ooc.shard_spill_mb", "MB", nullptr},
    {"ooc.pli_run_spill_mb", "MB", nullptr},
    {"ooc.budget_used_mb", "MB", nullptr},
    {"engine.pli_hits", "count", nullptr},
    {"engine.pli_misses", "count", nullptr},
    {"engine.pli_builds", "count", nullptr},
    {"engine.pli_evictions", "count", nullptr},
    {"engine.pli_hit_ratio", "fraction", nullptr},
    {"engine.pli_mb", "MB", nullptr},
    {"engine.evidence_hits", "count", nullptr},
    {"engine.evidence_builds", "count", nullptr},
    {"engine.evidence_hit_ratio", "fraction", nullptr},
    {"engine.append_s", "s", "engine.append"},
    {"discovery.tane_s", "s", "discovery.tane"},
    {"discovery.hybrid_fd_s", "s", "discovery.hybrid_fd"},
    {"discovery.afd_s", "s", "discovery.afd"},
    {"discovery.fastdc_s", "s", "discovery.fastdc"},
    {"discovery.mds_s", "s", "discovery.mds"},
    {"discovery.tane_ooc_s", "s", "discovery.tane_ooc"},
    {"discovery.hybrid_fd_ooc_s", "s", "discovery.hybrid_fd_ooc"},
    {"discovery.cover_repair_s", "s", "discovery.cover_repair"},
    {"discovery.hybrid.sampled_pairs", "count", nullptr},
    {"discovery.hybrid.sampling_efficiency", "fraction", nullptr},
    {"discovery.hybrid.frontier_checks", "count", nullptr},
    {"discovery.hybrid.frontier_violation_ratio", "fraction", nullptr},
    {"quality.repair_s", "s", "quality.repair"},
    {"quality.repair_changes", "count", nullptr},
    {"serve.queue_ms_p50", "ms", nullptr},
    {"serve.queue_ms_p99", "ms", nullptr},
    {"serve.tane.run_ms_p50", "ms", nullptr},
    {"serve.hybrid_fd.run_ms_p50", "ms", nullptr},
    {"serve.fastdc.run_ms_p50", "ms", nullptr},
    {"serve.mds.run_ms_p50", "ms", nullptr},
    {"serve.append.run_ms_p50", "ms", nullptr},
    {"serve.append.latency_ms_p90", "ms", nullptr},
    {"serve.store_hit_ratio", "fraction", nullptr},
    {"serve.shared_flights", "count", nullptr},
    {"serve.retries", "count", nullptr},
    {"serve.degraded", "count", nullptr},
    {"serve.rejected", "count", nullptr},
    {"trace.overhead_frac", "fraction", nullptr},
    {"trace.root_coverage", "fraction", nullptr},
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

RunResult Dispatch(const RunArgs& args) {
  if (args.workload == "mine_batch") return RunMineBatch(args);
  if (args.workload == "serve_mixed") return RunServeMixed(args);
  if (args.workload == "ooc_spill") return RunOocSpill(args);
  RunResult res;
  res.GateFail("unknown workload '" + args.workload + "'");
  return res;
}

/// Fills per-layer metrics the workload left to the trace: span medians
/// and per-job counter medians. A layer the workload does not load has no
/// spans and no counters and reads 0.
void FillPerLayer(const Tracer& tracer, RunResult* res) {
  for (const MetricDef& m : kPerLayer) {
    if (res->metrics.count(m.name)) continue;
    std::vector<double> values = m.span ? tracer.Durations(m.span)
                                        : tracer.Counters(m.name);
    res->metrics[m.name] = Median(values);
  }
  res->metrics["trace.root_coverage"] = tracer.RootCoverage();
}

void PrintSummary(const RunResult& res) {
  for (const std::string& e : res.gate_errors) {
    std::fprintf(stderr, "GATE FAILED: %s\n", e.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "failed op: %s\n", f.c_str());
  }
  for (const auto& [name, value] : res.metrics) {
    std::fprintf(stderr, "  %-44s %s\n", name.c_str(), Number(value).c_str());
  }
}

int RunOnce(const RunArgs& args, const std::string& trace_dir,
            const std::string& commit) {
  std::map<std::string, std::string> meta = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", Number(args.seconds)},
      {"traced", args.tracer ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", FAMTREE_BENCH_BUILD_TYPE},
      {"compiler", FAMTREE_BENCH_COMPILER},
      {"git_commit", commit},
  };
  RunResult res = Dispatch(args);
  res.metrics["ok_frac"] =
      res.attempted > 0
          ? 1.0 - static_cast<double>(res.failed) / res.attempted
          : 0.0;
  res.metrics["peak_rss_mb"] = PeakRssMb();
  if (args.tracer != nullptr) {
    FillPerLayer(*args.tracer, &res);
    std::string path = trace_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    Status st = args.tracer->Dump(path, meta);
    std::fprintf(stderr, "trace: %s\n",
                 st.ok() ? path.c_str() : st.ToString().c_str());
  }
  PrintSummary(res);

  std::string meta_json = "{";
  for (const auto& [k, v] : meta) {
    meta_json += (meta_json.size() > 1 ? ", " : "") + Quote(k) + ": " +
                 Quote(v);
  }
  std::printf("meta: %s}\n", meta_json.c_str());

  std::string metrics;
  for (const MetricDef& m : args.tracer ? std::vector<MetricDef>(
                                              std::begin(kPerLayer),
                                              std::end(kPerLayer))
                                        : std::vector<MetricDef>(
                                              std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    auto it = res.metrics.find(m.name);
    if (it == res.metrics.end()) {
      std::fprintf(stderr, "internal: metric %s not measured\n", m.name);
      return 2;
    }
    metrics += (metrics.empty() ? "" : ", ") + Quote(m.name) +
               ": {\"value\": " + Number(it->second) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      res.correct ? "true" : "false", static_cast<long long>(res.attempted),
      static_cast<long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

/// Smoke-sized runs proving the gates: clean runs pass with no failures, a
/// corrupted expected cover fails the run, a forced degraded outcome is
/// counted as failed, and the closed-form ooc covers match in-memory TANE.
int SelfCheck(uint64_t seed) {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    bad += !ok;
  };
  std::vector<std::string> cover_errors = CheckOocExpectedCovers(seed);
  for (const std::string& e : cover_errors) std::printf("  %s\n", e.c_str());
  expect(cover_errors.empty(), "ooc_spill closed-form covers = in-memory TANE");

  const std::pair<const char*, double> smoke[] = {
      {"mine_batch", 0.02}, {"serve_mixed", 0.1}, {"ooc_spill", 0.01}};
  for (const auto& [workload, scale] : smoke) {
    RunArgs args;
    args.workload = workload;
    args.seed = seed;
    args.seconds = 1;
    args.knobs.scale = scale;
    RunResult clean = Dispatch(args);
    PrintSummary(clean);
    expect(clean.correct && clean.failed == 0 && clean.attempted > 0,
           std::string(workload) + " smoke run is correct with no failures");
    if (std::string(workload) == "serve_mixed") {
      args.knobs.force_degraded = true;
      RunResult degraded = Dispatch(args);
      expect(degraded.correct && degraded.failed > 0,
             "serve_mixed forced degraded outcomes raise the failed count (" +
                 std::to_string(degraded.failed) + " of " +
                 std::to_string(degraded.attempted) + ")");
    } else {
      args.knobs.corrupt_expected = true;
      RunResult corrupted = Dispatch(args);
      expect(!corrupted.correct,
             std::string(workload) + " corrupted expected cover fails the run");
    }
  }
  std::printf("selfcheck: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string trace_dir = ".";
  std::string commit = "unknown";
  bool trace = false;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (selfcheck) return SelfCheck(args.seed);
  if (args.workload != "mine_batch" && args.workload != "serve_mixed" &&
      args.workload != "ooc_spill") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer;
  if (trace) args.tracer = &tracer;
  return RunOnce(args, trace_dir, commit);
}

}  // namespace
}  // namespace famtree::bench

int main(int argc, char** argv) { return famtree::bench::Main(argc, argv); }
