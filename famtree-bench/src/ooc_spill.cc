// ooc_spill: one client runs out-of-core jobs over a CSV file written at
// set-up. Each job ingests the file into a ShardedEncodedRelation under one
// MemoryBudget shared by every call of the job, runs TANE and the hybrid
// out of core, appends a batch that breaks one FD and repairs the cover.
// It is the only workload on relation/ooc; evidence and serve do nothing.
//
// The data makes the exact covers known in closed form. With r the row
// number and p, q, t pairwise-coprime primes whose pairwise products exceed
// the row count (so any two of a, b, d form a key) while each is far below
// it:
//   a = r mod p, b = r mod q, d = r mod t, c = g(a) for a seeded map g
//   onto m << p values (so a -> c holds and nothing else determines c but
//   a key).
// Base cover (|lhs| <= 3): a->c, bd->a, ad->b, bd->c, ab->d.
// The append batch continues r but sets c = g(a) + m, which breaks a->c;
// the grown cover is bd->a, ad->b, ab->c, ad->c, bd->c, ab->d.
// The seed draws the primes, g and a column permutation.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relation/csv.h"
#include "relation/ooc/sharded_relation.h"
#include "relation/ooc/spill.h"
#include "trace.h"
#include "workloads.h"

namespace famtree::bench {
namespace {

constexpr int kRows = 5'000'000;
constexpr double kAppendShare = 0.01;
constexpr size_t kBudgetBytes = 256ull << 20;
constexpr int kMaxLhs = 3;
constexpr int kCDomain = 64;

enum Logical { kA, kB, kC, kD };

bool IsPrime(int64_t n) {
  if (n < 2) return false;
  for (int64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

/// Everything the seed determines.
struct Design {
  int rows = 0;
  int delta_rows = 0;
  int64_t p = 0, q = 0, t = 0;  // moduli of a, b, d
  int m = 0;                    // size of c's domain
  std::vector<int> g;           // a -> c
  int column_of[4] = {0, 1, 2, 3};  // logical attribute -> CSV column

  Design(uint64_t seed, int rows_in) : rows(rows_in) {
    SeedRng rng(seed ^ 0x00c5b111ull);
    delta_rows = std::max(1, static_cast<int>(rows * kAppendShare));
    // Pairwise products must exceed the grown row count.
    int64_t lo = static_cast<int64_t>(
                     std::ceil(std::sqrt(1.05 * (rows + delta_rows)))) + 1;
    // Only a narrow band of primes and a fixed m, so that every seed gives
    // a relation of the same shape and cost.
    std::vector<int64_t> primes;
    for (int64_t n = lo + rng.Below(32); primes.size() < 3; ++n) {
      if (IsPrime(n)) primes.push_back(n);
    }
    p = primes[0];
    q = primes[1];
    t = primes[2];
    m = kCDomain;
    g.resize(p);
    for (int& v : g) v = static_cast<int>(rng.Below(m));
    for (int i = 3; i > 0; --i) {
      std::swap(column_of[i], column_of[rng.Below(i + 1)]);
    }
  }

  std::string Header() const {
    const char* names[4] = {"a", "b", "c", "d"};
    std::string cols[4];
    for (int l = 0; l < 4; ++l) cols[column_of[l]] = names[l];
    return cols[0] + "," + cols[1] + "," + cols[2] + "," + cols[3] + "\n";
  }

  void AppendRow(int64_t r, bool breaking, std::string* out) const {
    int64_t a = r % p;
    int64_t v[4];
    v[column_of[kA]] = a;
    v[column_of[kB]] = r % q;
    v[column_of[kC]] = g[a] + (breaking ? m : 0);
    v[column_of[kD]] = r % t;
    char buf[96];
    int n = std::snprintf(buf, sizeof(buf), "%lld,%lld,%lld,%lld\n",
                          static_cast<long long>(v[0]),
                          static_cast<long long>(v[1]),
                          static_cast<long long>(v[2]),
                          static_cast<long long>(v[3]));
    out->append(buf, static_cast<size_t>(n));
  }

  CanonFd Fd(std::initializer_list<int> lhs, int rhs) const {
    AttrSet s;
    for (int l : lhs) s = s.With(column_of[l]);
    return {s, column_of[rhs], 0.0};
  }

  std::vector<CanonFd> BaseCover() const {
    std::vector<CanonFd> out = {Fd({kA}, kC), Fd({kB, kD}, kA),
                                Fd({kA, kD}, kB), Fd({kB, kD}, kC),
                                Fd({kA, kB}, kD)};
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<CanonFd> GrownCover() const {
    std::vector<CanonFd> out = {Fd({kB, kD}, kA), Fd({kA, kD}, kB),
                                Fd({kA, kB}, kC), Fd({kA, kD}, kC),
                                Fd({kB, kD}, kC), Fd({kA, kB}, kD)};
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string BaseCsv() const {
    std::string out = Header();
    for (int64_t r = 0; r < rows; ++r) AppendRow(r, false, &out);
    return out;
  }

  std::string DeltaCsv() const {
    std::string out = Header();
    for (int64_t r = rows; r < rows + delta_rows; ++r) {
      AppendRow(r, true, &out);
    }
    return out;
  }
};

Status WriteFile(const std::string& path, const Design& design) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  std::string chunk = design.Header();
  for (int64_t r = 0; r < design.rows; ++r) {
    design.AppendRow(r, false, &chunk);
    if (chunk.size() > (1u << 20)) {
      std::fwrite(chunk.data(), 1, chunk.size(), f);
      chunk.clear();
    }
  }
  std::fwrite(chunk.data(), 1, chunk.size(), f);
  bool ok = !std::ferror(f);
  ok &= std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("write failed on " + path);
}

/// Removes the input file however the run ends.
struct FileRemover {
  std::string path;
  ~FileRemover() { std::remove(path.c_str()); }
};

void RunJob(const std::string& path, const Design& design,
            const std::string& delta, int64_t job, bool corrupt,
            Tracer* tracer, RunResult* res) {
  Span job_span(tracer, "job", -1, job);
  const int p = job_span.index();
  const std::string tag = "ooc_spill job " + std::to_string(job) + " ";
  MemoryBudget budget(kBudgetBytes);
  RunContext ctx;
  ctx.set_memory_budget(&budget);
  auto op = [&](const char* what, const Status& st, bool empty = false) {
    return res->Op(tag + what, WhyFailed(st, ctx.report(), empty));
  };
  auto check_cover = [&](const char* what,
                         const Result<std::vector<DiscoveredFd>>& fds,
                         std::vector<CanonFd> expected) {
    if (!op(what, fds.status(), fds.ok() && fds->empty())) return;
    if (corrupt) expected.pop_back();
    std::vector<CanonFd> got = Canonical(*fds);
    if (got != expected) {
      res->GateFail(tag + what + ": cover " + FdsToString(got) +
                    "!= expected " + FdsToString(expected));
    }
  };

  IngestOptions ingest;
  ingest.context = &ctx;
  std::shared_ptr<ShardedEncodedRelation> rel;
  {
    Span s(tracer, "ooc.ingest", p, job);
    auto ingested = ShardedEncodedRelation::IngestCsvFile(path, ingest);
    s.Close();
    if (!op("ingest", ingested.status())) return;
    rel = std::move(ingested).value();
  }
  std::optional<DiscoveryEngine> engine;
  {
    Span s(tracer, "engine.create", p, job);
    engine.emplace();
  }

  TaneOptions tane;
  tane.max_lhs_size = kMaxLhs;
  tane.context = &ctx;
  {
    Span s(tracer, "discovery.tane_ooc", p, job);
    auto fds = engine->TaneOutOfCore(*rel, tane);
    s.Close();
    check_cover("tane_ooc", fds, design.BaseCover());
  }
  HybridFdStats hstats;
  HybridFdOptions hybrid;
  hybrid.max_lhs_size = kMaxLhs;
  hybrid.context = &ctx;
  hybrid.stats = &hstats;
  {
    Span s(tracer, "discovery.hybrid_fd_ooc", p, job);
    auto fds = engine->HybridFdsOutOfCore(*rel, hybrid);
    s.Close();
    check_cover("hybrid_fd_ooc", fds, design.BaseCover());
  }
  bool appended = false;
  {
    Span s(tracer, "engine.append", p, job);
    Status st = engine->AppendCsv(*rel, delta, ingest);
    s.Close();
    appended = op("append", st);
  }
  if (appended) {
    // The repair starts from the base cover, which the two discoveries
    // above are gated to equal.
    std::vector<DiscoveredFd> base;
    for (const CanonFd& fd : design.BaseCover()) {
      base.push_back({fd.lhs, fd.rhs, 0.0});
    }
    HybridFdOptions repair = hybrid;
    repair.stats = nullptr;
    Span s(tracer, "discovery.cover_repair", p, job);
    auto fds = engine->RepairFdCoverOutOfCore(*rel, base, repair);
    s.Close();
    check_cover("cover_repair", fds, design.GrownCover());
  }

  if (tracer != nullptr) {
    Clock::time_point t0 = Clock::now();
    IngestStats is = rel->stats();
    PliCache::Stats c = engine->CacheStats();
    tracer->AddOverhead(SecondsSince(t0));
    tracer->Count("ooc.shards", is.shards, p);
    tracer->Count("ooc.shards_spilled", is.shards_spilled, p);
    tracer->Count("ooc.shard_spill_mb", Mb(is.spill_bytes), p);
    tracer->Count("ooc.pli_run_spill_mb", Mb(c.ooc_spill_bytes), p);
    tracer->Count("ooc.budget_used_mb", Mb(budget.used()), p);
    CountPliStats(tracer, c, p);
    CountHybridStats(tracer, hstats, p);
  }
  {
    // Closing the engine and the relation (spill file included) is part of
    // the job.
    Span s(tracer, "engine.teardown", p, job);
    engine.reset();
    rel.reset();
  }
}

}  // namespace

RunResult RunOocSpill(const RunArgs& args) {
  RunResult res;
  const int rows = std::max(20000, static_cast<int>(kRows * args.knobs.scale));
  const Design design(args.seed, rows);
  FileRemover input{DefaultSpillDir() + "/famtree-bench-ooc-" +
                    std::to_string(::getpid()) + ".csv"};
  std::vector<double> setups;
  std::string delta;
  auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    Status st = WriteFile(input.path, design);
    delta = design.DeltaCsv();
    setups.push_back(SecondsSince(t0));
    if (!st.ok()) res.GateFail("ooc_spill set-up failed: " + st.ToString());
    return st.ok();
  };
  while (setups.size() < kSetupsBefore) {
    if (!set_up()) return res;
  }

  std::vector<double> job_s;
  auto run_job = [&](int64_t job, Tracer* tracer) {
    Clock::time_point t0 = Clock::now();
    RunJob(input.path, design, delta, job, args.knobs.corrupt_expected,
           tracer, &res);
    if (job == 0) return;
    job_s.push_back(SecondsSince(t0));
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
  while (setups.size() < kSetupRepeats) {
    if (!set_up()) return res;
  }

  const double job_rows = design.rows + design.delta_rows;
  res.metrics["setup_s"] = Median(setups);
  res.metrics["job_s_p50"] = Median(job_s);
  res.metrics["rows_per_s"] = job_rows * jobs / elapsed;
  res.metrics["latency_ms_p50"] = 1e3 * Median(job_s);
  res.metrics["latency_ms_p99"] = 1e3 * Quantile(job_s, 0.99);
  res.metrics["throughput_rps"] = jobs / elapsed;
  res.metrics["jobs"] = static_cast<double>(jobs);
  if (args.tracer != nullptr) {
    double ingest = Median(args.tracer->Durations("ooc.ingest"));
    res.metrics["ooc.ingest_rows_per_s"] =
        ingest > 0 ? design.rows / ingest : 0;
    res.metrics["trace.overhead_frac"] =
        args.tracer->overhead_seconds() / elapsed;
  }
  return res;
}

std::vector<std::string> CheckOocExpectedCovers(uint64_t seed) {
  std::vector<std::string> errors;
  const Design design(seed, 20000);
  DiscoveryEngine engine;
  TaneOptions tane;
  tane.max_lhs_size = kMaxLhs;
  auto check = [&](const std::string& csv, const std::vector<CanonFd>& want,
                   const char* what) {
    Result<Relation> rel = ReadCsvString(csv);
    if (!rel.ok()) {
      errors.push_back(std::string(what) + ": " + rel.status().ToString());
      return;
    }
    Result<std::vector<DiscoveredFd>> fds = engine.Tane(*rel, tane);
    if (!fds.ok() || Canonical(*fds) != want) {
      errors.push_back(std::string(what) + ": in-memory TANE gives " +
                       (fds.ok() ? FdsToString(Canonical(*fds))
                                 : fds.status().ToString()) +
                       "but the closed form says " + FdsToString(want));
    }
    engine.ForgetRelation(*rel);
  };
  check(design.BaseCsv(), design.BaseCover(), "ooc base cover");
  std::string grown = design.BaseCsv();
  std::string delta = design.DeltaCsv();
  grown += delta.substr(delta.find('\n') + 1);
  check(grown, design.GrownCover(), "ooc grown cover");
  return errors;
}

}  // namespace famtree::bench
