// mine_batch: one client runs cold analysis jobs back to back. Every job
// parses the CSV into a fresh relation, builds a fresh DiscoveryEngine and
// runs the discovery and repair layers once, so each layer below serve does
// cold work with no reuse across jobs.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "relation/csv.h"
#include "sales.h"
#include "trace.h"
#include "workloads.h"

namespace famtree::bench {
namespace {

constexpr int kRows = 500'000;
constexpr double kNoise = 0.002;
constexpr int kMaxLhs = 3;
constexpr double kAfdError = 0.01;
constexpr int kMdSampleRows = 2000;

using S = SalesGenerator;

struct Dataset {
  std::string csv;
  int rows = 0;
  std::vector<std::pair<int, std::string>> noisy;  // row, clean category
};

Dataset Generate(uint64_t seed, int rows) {
  SalesGenerator gen(seed);
  SeedRng rng(seed);
  Dataset d;
  d.rows = rows;
  d.csv = S::CsvHeader();
  d.csv.reserve(static_cast<size_t>(rows) * 48);
  for (int r = 0; r < rows; ++r) {
    S::Row row = gen.Next(rng, kNoise);
    if (row.noisy) d.noisy.push_back({r, gen.CategoryName(row.clean_category)});
    gen.AppendCsv(row, &d.csv);
  }
  return d;
}

AttrSet Set(std::initializer_list<int> attrs) {
  AttrSet s;
  for (int a : attrs) s = s.With(a);
  return s;
}

/// What one job produced, for the gates and the cross-job comparison.
struct JobOutput {
  std::vector<CanonFd> tane, hybrid, afd;
  std::string dcs, mds;
  int64_t repair_changes = -1;
};

/// Runs one job; a failed step is counted, and one the later steps need
/// ends the job.
void RunJob(const Dataset& data, int64_t job, Tracer* tracer, RunResult* res,
            JobOutput* out) {
  Span job_span(tracer, "job", -1, job);
  const int p = job_span.index();
  RunContext ctx;  // no limits: its report tells a partial from a result
  auto op = [&](const char* what, const Status& st, bool empty = false) {
    return res->Op("mine_batch job " + std::to_string(job) + " " + what,
                   WhyFailed(st, ctx.report(), empty));
  };
  std::optional<Relation> parsed;
  {
    Span s(tracer, "relation.parse", p, job);
    Result<Relation> rel = ReadCsvString(data.csv);
    s.Close();
    if (!op("parse", rel.status())) return;
    parsed.emplace(std::move(rel).value());
  }
  const Relation& relation = *parsed;

  EngineOptions engine_options;
  engine_options.context = &ctx;
  std::optional<DiscoveryEngine> engine;
  {
    Span s(tracer, "engine.create", p, job);
    engine.emplace(engine_options);
  }
  {
    Span s(tracer, "relation.encode", p, job);
    Result<PliCache*> cache = engine->CacheFor(relation);
    s.Close();
    if (!op("encode", cache.status())) return;
  }

  auto fd_step = [&](const char* span, const char* what, auto&& call,
                     std::vector<CanonFd>* dst) {
    Span s(tracer, span, p, job);
    Result<std::vector<DiscoveredFd>> fds = call();
    s.Close();
    if (op(what, fds.status(), fds.ok() && fds->empty())) {
      *dst = Canonical(*fds);
    }
  };

  TaneOptions tane;
  tane.max_lhs_size = kMaxLhs;
  tane.context = &ctx;
  fd_step("discovery.tane", "tane",
          [&] { return engine->Tane(relation, tane); }, &out->tane);

  HybridFdStats hstats;
  HybridFdOptions hybrid;
  hybrid.max_lhs_size = kMaxLhs;
  hybrid.context = &ctx;
  hybrid.stats = &hstats;
  fd_step("discovery.hybrid_fd", "hybrid_fd",
          [&] { return engine->HybridFds(relation, hybrid); }, &out->hybrid);

  TaneOptions afd = tane;
  afd.max_error = kAfdError;
  fd_step("discovery.afd", "afd", [&] { return engine->Tane(relation, afd); },
          &out->afd);

  {
    FastDcOptions o;
    o.context = &ctx;
    Span s(tracer, "discovery.fastdc", p, job);
    Result<std::vector<DiscoveredDc>> dcs = engine->FastDc(relation, o);
    s.Close();
    if (op("fastdc", dcs.status())) out->dcs = DcsDigest(*dcs);
  }
  {
    MdDiscoveryOptions o;
    o.sample_rows = kMdSampleRows;
    o.context = &ctx;
    Span s(tracer, "discovery.mds", p, job);
    Result<std::vector<DiscoveredMd>> mds =
        engine->Mds(relation, AttrSet::Single(S::kCity), o);
    s.Close();
    if (op("mds", mds.status())) out->mds = MdsDigest(*mds);
  }
  {
    // Repair with the approximate FDs the data violates (g3 > 0).
    std::vector<Fd> violated;
    for (const CanonFd& fd : out->afd) {
      if (fd.error > 0) violated.emplace_back(fd.lhs, AttrSet::Single(fd.rhs));
    }
    Span s(tracer, "quality.repair", p, job);
    Result<RepairResult> repair = engine->RepairFds(relation, violated);
    s.Close();
    if (op("repair", repair.status())) {
      out->repair_changes = static_cast<int64_t>(repair->changes.size());
      // Every noisy cell must be changed back to its clean value.
      std::set<std::pair<int, std::string>> restored;
      for (const CellChange& c : repair->changes) {
        if (c.col == S::kCategory && c.new_value.is_string()) {
          restored.insert({c.row, c.new_value.as_string()});
        }
      }
      int missed = 0;
      for (const auto& cell : data.noisy) missed += !restored.count(cell);
      if (missed > 0) {
        res->GateFail("mine_batch job " + std::to_string(job) + ": repair "
                      "left " + std::to_string(missed) + " of " +
                      std::to_string(data.noisy.size()) + " noisy cells");
      }
    }
  }

  if (tracer != nullptr) {
    Clock::time_point t0 = Clock::now();
    PliCache::Stats c = engine->CacheStats();
    EvidenceCache::Stats e = engine->EvidenceStats();
    tracer->AddOverhead(SecondsSince(t0));
    double ev_lookups = static_cast<double>(e.hits + e.misses);
    CountPliStats(tracer, c, p);
    tracer->Count("engine.evidence_hits", e.hits, p);
    tracer->Count("engine.evidence_builds", e.builds, p);
    tracer->Count("engine.evidence_hit_ratio",
                  ev_lookups > 0 ? e.hits / ev_lookups : 0, p);
    CountHybridStats(tracer, hstats, p);
    tracer->Count("quality.repair_changes",
                  static_cast<double>(out->repair_changes), p);
  }
  {
    // Tearing the engine and the relation down is part of a cold job.
    Span s(tracer, "engine.teardown", p, job);
    engine.reset();
    parsed.reset();
  }
}

/// The gates on one job's covers.
void CheckCovers(const JobOutput& out, int64_t job, bool corrupt,
                 RunResult* res) {
  const std::string tag = "mine_batch job " + std::to_string(job) + ": ";
  if (out.tane != out.hybrid) {
    res->GateFail(tag + "TANE cover " + FdsToString(out.tane) +
                  "!= hybrid cover " + FdsToString(out.hybrid));
  }
  std::vector<CanonFd> planted = {
      {Set({S::kZip}), S::kCity, 0.0},
      {Set({S::kZip}), S::kState, 0.0},
      {Set({S::kCity}), S::kState, 0.0},
      {Set({S::kProduct, S::kChannel}), S::kPrice, 0.0}};
  if (corrupt) planted.push_back({Set({S::kQty}), S::kCity, 0.0});
  for (const CanonFd& fd : planted) {
    if (!std::binary_search(out.tane.begin(), out.tane.end(), fd)) {
      res->GateFail(tag + "planted FD " + FdsToString({fd}) +
                    "missing from the exact cover");
    }
  }
  // The noisy FD is no exact FD but an approximate one within the bound.
  const AttrSet noisy_lhs = Set({S::kProduct});
  for (const CanonFd& fd : out.tane) {
    if (fd.lhs == noisy_lhs && fd.rhs == S::kCategory) {
      res->GateFail(tag + "noisy FD product->category holds exactly");
    }
  }
  bool afd_found = false;
  for (const CanonFd& fd : out.afd) {
    afd_found |= fd.lhs == noisy_lhs && fd.rhs == S::kCategory &&
                 fd.error > 0 && fd.error <= kAfdError;
  }
  if (!afd_found) res->GateFail(tag + "AFD product->category not found");
}

}  // namespace

RunResult RunMineBatch(const RunArgs& args) {
  RunResult res;
  const int rows = std::max(1000, static_cast<int>(kRows * args.knobs.scale));

  std::vector<double> setups;
  Dataset data;
  auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    Dataset d = Generate(args.seed, rows);
    setups.push_back(SecondsSince(t0));
    if (data.csv.empty()) {
      data = std::move(d);
    } else if (d.csv != data.csv) {
      res.GateFail("input generation differs");
    }
  };
  while (setups.size() < kSetupsBefore) set_up();

  std::vector<double> job_s;
  JobOutput first;
  auto run_job = [&](int64_t job, Tracer* tracer) {
    JobOutput out;
    Clock::time_point t0 = Clock::now();
    RunJob(data, job, tracer, &res, &out);
    double seconds = SecondsSince(t0);
    CheckCovers(out, job, args.knobs.corrupt_expected, &res);
    if (job == 0) {
      first = out;
      return;
    }
    if (out.tane != first.tane || out.afd != first.afd ||
        out.dcs != first.dcs || out.mds != first.mds ||
        out.repair_changes != first.repair_changes) {
      res.GateFail("mine_batch job " + std::to_string(job) +
                   ": output differs from job 0 on the same input");
    }
    job_s.push_back(seconds);
  };
  // Job 0 warms the process up (heap, page cache, thread start-up); it is
  // checked like every job but neither timed nor traced.
  run_job(0, nullptr);
  int64_t jobs = 0;
  Clock::time_point start = Clock::now();
  while (jobs == 0 || SecondsSince(start) < args.seconds) {
    run_job(++jobs, args.tracer);
  }
  double elapsed = SecondsSince(start);
  while (setups.size() < kSetupRepeats) set_up();

  res.metrics["setup_s"] = Median(setups);
  res.metrics["job_s_p50"] = Median(job_s);
  res.metrics["rows_per_s"] = static_cast<double>(rows) * jobs / elapsed;
  res.metrics["latency_ms_p50"] = 1e3 * Median(job_s);
  res.metrics["latency_ms_p99"] = 1e3 * Quantile(job_s, 0.99);
  res.metrics["throughput_rps"] = jobs / elapsed;
  res.metrics["jobs"] = static_cast<double>(jobs);
  if (args.tracer != nullptr) {
    std::vector<double> parse = args.tracer->Durations("relation.parse");
    double parse_med = Median(parse);
    res.metrics["relation.parse_rows_per_s"] =
        parse_med > 0 ? rows / parse_med : 0;
    res.metrics["trace.overhead_frac"] =
        args.tracer->overhead_seconds() / elapsed;
  }
  return res;
}

}  // namespace famtree::bench
