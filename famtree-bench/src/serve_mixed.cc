// serve_mixed: four closed-loop clients send mixed discovery requests and
// small appends to one DiscoveryService (default ServiceOptions) holding
// three relations. The work here is admission queueing, result-store hits,
// shared-lock waits behind appends, rebuilds of products an append
// invalidated and evidence migration; parse, encode and ingest do none.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "sales.h"
#include "serve/service.h"
#include "trace.h"
#include "workloads.h"

namespace famtree::bench {
namespace {

constexpr int kRelations = 3;
constexpr int kRelationRows[kRelations] = {50000, 25000, 5000};
const char* const kRelationNames[kRelations] = {"large", "medium", "small"};
constexpr int kSmall = 2;  // Mds runs here only: its evidence is O(rows^2)
constexpr int kClients = 4;
constexpr int kAppendRows = 20;
constexpr double kNoise = 0.002;
constexpr int kMaxVerify = 12;
constexpr int kSampleEvery = 8;

using S = SalesGenerator;

const ServeAlgorithm kReadAlgorithms[] = {
    ServeAlgorithm::kTane, ServeAlgorithm::kHybridFd, ServeAlgorithm::kFastDc,
    ServeAlgorithm::kMds};

/// Draws fresh params. max_results never binds here; it varies so that two
/// fresh draws practically never share a result-store key, which leaves the
/// store hits to the explicit repeats of the deck.
ServeParams DrawParams(ServeAlgorithm algorithm, SeedRng& rng) {
  ServeParams p;
  p.max_lhs_size = 2 + static_cast<int>(rng.Below(2));
  p.max_results = 100000 + static_cast<int>(rng.Below(100000));
  if (algorithm == ServeAlgorithm::kTane && rng.Below(2) == 0) {
    p.max_error = 5e-5 * static_cast<double>(1 + rng.Below(1000));  // <= 5%
  }
  p.max_predicates = 2 + static_cast<int>(rng.Below(2));
  p.max_violation_fraction = 1e-5 * static_cast<double>(rng.Below(1000));
  p.md_rhs = AttrSet::Single(rng.Below(2) == 0 ? S::kCity : S::kState);
  p.md_min_confidence = 0.8 + 1e-3 * static_cast<double>(rng.Below(201));
  p.md_min_support = 0.001 + 1e-5 * static_cast<double>(rng.Below(1000));
  return p;
}

/// One request kind of a client's deck; kRepeat re-sends the client's
/// previous read, as a client refreshing an answer would.
struct Kind {
  enum Type { kAppend, kRead, kRepeat } type;
  ServeAlgorithm algorithm = ServeAlgorithm::kTane;
  int relation = 0;
};

/// A client's next 40 requests in a seeded order: 4 appends (one per
/// relation plus one more on relation `round` mod 3), 24 fresh reads (TANE,
/// HybridFd and FastDc twice per relation, Mds 6 times on the small one)
/// and 12 repeats. A fixed deck keeps the mix, and so the share of
/// result-store hits, about the same in every run.
std::vector<Kind> Deck(SeedRng& rng, int64_t round) {
  std::vector<Kind> deck;
  for (int r = 0; r < kRelations; ++r) {
    deck.push_back({Kind::kAppend, ServeAlgorithm::kAppend, r});
    for (int i = 0; i < 2; ++i) {
      deck.push_back({Kind::kRead, ServeAlgorithm::kTane, r});
      deck.push_back({Kind::kRead, ServeAlgorithm::kHybridFd, r});
      deck.push_back({Kind::kRead, ServeAlgorithm::kFastDc, r});
      deck.push_back({Kind::kRead, ServeAlgorithm::kMds, kSmall});
    }
    for (int i = 0; i < 4; ++i) deck.push_back({Kind::kRepeat});
  }
  deck.push_back({Kind::kAppend, ServeAlgorithm::kAppend,
                  static_cast<int>(round % kRelations)});
  for (size_t i = deck.size() - 1; i > 0; --i) {
    std::swap(deck[i], deck[rng.Below(static_cast<int64_t>(i) + 1)]);
  }
  return deck;
}

struct Setup {
  std::vector<Relation> base;  // the registered relations, for replay
  std::unique_ptr<DiscoveryService> service;
};

Result<Setup> SetUp(uint64_t seed, double scale) {
  Setup setup;
  SalesGenerator gen(seed);
  SeedRng rng(seed);
  for (int i = 0; i < kRelations; ++i) {
    RelationBuilder builder(S::Names());
    int rows = std::max(200, static_cast<int>(kRelationRows[i] * scale));
    for (int r = 0; r < rows; ++r) {
      builder.AddRow(gen.ToValues(gen.Next(rng, kNoise)));
    }
    FAMTREE_ASSIGN_OR_RETURN(Relation rel, builder.Build());
    setup.base.push_back(std::move(rel));
  }
  setup.service = std::make_unique<DiscoveryService>();
  for (int i = 0; i < kRelations; ++i) {
    FAMTREE_RETURN_NOT_OK(
        setup.service->AddRelation(kRelationNames[i], setup.base[i]));
  }
  // One warm-up request per relation x algorithm.
  for (int i = 0; i < kRelations; ++i) {
    for (ServeAlgorithm algorithm : kReadAlgorithms) {
      if (algorithm == ServeAlgorithm::kMds && i != kSmall) continue;
      ServeRequest req;
      req.client = "warmup";
      req.relation = kRelationNames[i];
      req.algorithm = algorithm;
      SeedRng params_rng(seed + i);
      req.params = DrawParams(algorithm, params_rng);
      FAMTREE_ASSIGN_OR_RETURN(uint64_t id, setup.service->Submit(req));
      FAMTREE_ASSIGN_OR_RETURN(ServeOutcome out, setup.service->Wait(id));
      if (!out.status.ok() || out.degraded) {
        return Status::Internal(std::string("warm-up ") +
                                ServeAlgorithmName(algorithm) + " on " +
                                kRelationNames[i] + " failed: " +
                                out.status.ToString());
      }
    }
  }
  return setup;
}

/// One request as a client saw it.
struct Record {
  ServeRequest request;
  int relation = 0;
  bool admitted = false;
  bool waited = false;
  ServeOutcome outcome;  // answer vectors kept only for sampled requests
  double latency_s = 0.0;
  bool sampled = false;
  uint64_t id = 0;
};

void ClientLoop(DiscoveryService* service, const SalesGenerator* gen,
                uint64_t seed, int client, double seconds,
                Clock::time_point start, const Knobs& knobs, Tracer* tracer,
                std::vector<Record>* records) {
  SeedRng rng(seed * 1000003 + static_cast<uint64_t>(client) + 1);
  std::map<ServeAlgorithm, int> sampled;
  std::vector<Kind> deck;
  int64_t round = 0;
  std::optional<std::pair<int, ServeRequest>> last_read;  // relation, request
  for (int64_t seq = 0; SecondsSince(start) < seconds; ++seq) {
    if (deck.empty()) deck = Deck(rng, round++);
    const Kind kind = deck.back();
    deck.pop_back();
    Record rec;
    ServeRequest& req = rec.request;
    if (kind.type == Kind::kRepeat && last_read.has_value()) {
      rec.relation = last_read->first;
      req = last_read->second;
    } else {
      req.client = "client" + std::to_string(client);
      req.algorithm = kind.algorithm;
      rec.relation = kind.relation;
      req.relation = kRelationNames[rec.relation];
      if (kind.type == Kind::kAppend) {
        for (int r = 0; r < kAppendRows; ++r) {
          req.append_rows.push_back(gen->ToValues(gen->Next(rng, kNoise)));
        }
      } else {
        req.params = DrawParams(req.algorithm, rng);
      }
    }
    if (req.algorithm != ServeAlgorithm::kAppend) {
      last_read.emplace(rec.relation, req);
      if (knobs.force_degraded && seq % 5 == 0) {
        req.fault_armed = true;
        req.fault.fail_at_checkpoint = 1;
        req.fault.checkpoint_code = StatusCode::kDeadlineExceeded;
      }
    }

    const int64_t span_id = client * 1000000ll + seq;
    Clock::time_point t0 = Clock::now();
    Span request_span(tracer, "serve.request", -1, span_id);
    Result<uint64_t> id = Status::Internal("not submitted");
    {
      Span s(tracer, "serve.submit", request_span.index(), span_id);
      id = service->Submit(req);
    }
    rec.admitted = id.ok();
    if (rec.admitted) {
      rec.id = *id;
      Span s(tracer, "serve.wait", request_span.index(), span_id);
      Result<ServeOutcome> out = service->Wait(*id);
      s.Close();
      rec.waited = out.ok();
      if (out.ok()) rec.outcome = std::move(out).value();
      if (tracer != nullptr && rec.waited) {
        // Where the wait went, from the service's own clock.
        tracer->Count("serve.queue_ms", 1e3 * rec.outcome.queue_seconds,
                      s.index());
        tracer->Count("serve.run_ms", 1e3 * rec.outcome.run_seconds,
                      s.index());
      }
    } else {
      rec.outcome.status = id.status();
    }
    rec.latency_s = SecondsSince(t0);
    request_span.Close();

    const ServeOutcome& o = rec.outcome;
    bool complete = rec.waited && o.status.ok() && !o.degraded;
    if (req.algorithm != ServeAlgorithm::kAppend) {
      rec.sampled = complete && seq % kSampleEvery == 0 &&
                    sampled[req.algorithm]++ < kMaxVerify;
      if (!rec.sampled) {
        rec.outcome.fds.clear();
        rec.outcome.dcs.clear();
        rec.outcome.mds.clear();
      }
    }
    records->push_back(std::move(rec));
  }
}

/// Replays `name`'s appends up to `version` onto its base relation.
Result<Relation> RelationAt(const Relation& base, const std::string& name,
                            uint64_t version, DiscoveryService* service,
                            const std::map<uint64_t, const Record*>& appends) {
  Relation rel = base;
  FAMTREE_ASSIGN_OR_RETURN(std::vector<uint64_t> applied,
                           service->AppliedAppends(name));
  if (version > applied.size()) {
    return Status::Internal("version beyond the applied appends");
  }
  for (uint64_t i = 0; i < version; ++i) {
    auto it = appends.find(applied[i]);
    if (it == appends.end()) return Status::Internal("unknown append ticket");
    FAMTREE_RETURN_NOT_OK(rel.AppendRows(it->second->request.append_rows));
  }
  return rel;
}

/// A direct engine call with the options the service derives from params.
Status DirectCall(const Relation& rel, const ServeRequest& req,
                  ServeOutcome* out) {
  DiscoveryEngine engine;
  const ServeParams& p = req.params;
  switch (req.algorithm) {
    case ServeAlgorithm::kTane: {
      TaneOptions o;
      o.max_error = p.max_error;
      o.max_lhs_size = p.max_lhs_size;
      o.max_results = p.max_results;
      FAMTREE_ASSIGN_OR_RETURN(out->fds, engine.Tane(rel, o));
      return Status::OK();
    }
    case ServeAlgorithm::kHybridFd: {
      HybridFdOptions o;
      o.max_lhs_size = p.max_lhs_size;
      o.max_results = p.max_results;
      FAMTREE_ASSIGN_OR_RETURN(out->fds, engine.HybridFds(rel, o));
      return Status::OK();
    }
    case ServeAlgorithm::kFastDc: {
      FastDcOptions o;
      o.max_predicates = p.max_predicates;
      o.max_violation_fraction = p.max_violation_fraction;
      o.max_results = p.max_results;
      FAMTREE_ASSIGN_OR_RETURN(out->dcs, engine.FastDc(rel, o));
      return Status::OK();
    }
    case ServeAlgorithm::kMds: {
      MdDiscoveryOptions o;
      o.min_support = p.md_min_support;
      o.min_confidence = p.md_min_confidence;
      o.max_lhs_attrs = p.md_max_lhs_attrs;
      o.max_results = p.max_results;
      FAMTREE_ASSIGN_OR_RETURN(out->mds, engine.Mds(rel, p.md_rhs, o));
      return Status::OK();
    }
    case ServeAlgorithm::kAppend:
      break;
  }
  return Status::Internal("no direct call for appends");
}

/// Records the service and engine counters at a phase boundary.
void Snapshot(Tracer* tracer, DiscoveryService& service) {
  if (tracer == nullptr) return;
  Clock::time_point t0 = Clock::now();
  DiscoveryService::Stats st = service.stats();
  PliCache::Stats c = service.engine().CacheStats();
  EvidenceCache::Stats e = service.engine().EvidenceStats();
  tracer->AddOverhead(SecondsSince(t0));
  const std::pair<const char*, double> counters[] = {
      {"serve.stats.submitted", st.submitted},
      {"serve.stats.completed", st.completed},
      {"serve.stats.rejected", st.rejected},
      {"serve.stats.degraded", st.degraded},
      {"serve.stats.retries", st.retries},
      {"serve.stats.store_hits", st.store_hits},
      {"serve.stats.shared_flights", st.shared_flights},
      {"engine.cache.hits", c.hits},
      {"engine.cache.misses", c.misses},
      {"engine.cache.builds", c.builds},
      {"engine.cache.evictions", c.evictions},
      {"engine.cache.mb", Mb(c.bytes)},
      {"engine.evidence.hits", e.hits},
      {"engine.evidence.builds", e.builds},
  };
  for (const auto& [name, value] : counters) tracer->Count(name, value, -1);
}

bool SameAnswer(const ServeOutcome& a, const ServeOutcome& b) {
  if (a.fds.size() != b.fds.size()) return false;
  for (size_t i = 0; i < a.fds.size(); ++i) {
    if (a.fds[i].lhs != b.fds[i].lhs || a.fds[i].rhs != b.fds[i].rhs ||
        a.fds[i].error != b.fds[i].error) {
      return false;
    }
  }
  return DcsDigest(a.dcs) == DcsDigest(b.dcs) &&
         MdsDigest(a.mds) == MdsDigest(b.mds);
}

}  // namespace

RunResult RunServeMixed(const RunArgs& args) {
  RunResult res;
  std::vector<double> setups;
  auto set_up = [&]() -> std::optional<Setup> {
    Clock::time_point t0 = Clock::now();
    Result<Setup> s = SetUp(args.seed, args.knobs.scale);
    setups.push_back(SecondsSince(t0));
    if (!s.ok()) {
      res.GateFail("serve_mixed set-up failed: " + s.status().ToString());
      return std::nullopt;
    }
    return std::move(s).value();
  };
  // Each service shuts down outside the timing; the last one is measured.
  std::optional<Setup> kept;
  while (setups.size() < kSetupsBefore) {
    kept.reset();
    kept = set_up();
    if (!kept) return res;
  }
  Setup& setup = *kept;
  DiscoveryService& service = *setup.service;
  SalesGenerator gen(args.seed);
  Tracer* tracer = args.tracer;

  DiscoveryService::Stats stats0 = service.stats();
  PliCache::Stats cache0 = service.engine().CacheStats();
  EvidenceCache::Stats ev0 = service.engine().EvidenceStats();
  std::vector<std::vector<Record>> per_client(kClients);
  Snapshot(tracer, service);
  Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, &service, &gen, args.seed, c,
                           args.seconds, start, std::cref(args.knobs), tracer,
                           &per_client[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  double elapsed = SecondsSince(start);
  Snapshot(tracer, service);
  DiscoveryService::Stats stats1 = service.stats();
  PliCache::Stats cache1 = service.engine().CacheStats();
  EvidenceCache::Stats ev1 = service.engine().EvidenceStats();

  // Failures, latencies and the no-lost-ticket gate.
  std::vector<double> latency, append_latency, queue;
  std::map<std::string, std::vector<double>> run_ms;
  std::map<uint64_t, const Record*> appends;
  std::vector<const Record*> samples;
  int64_t reads = 0, store_hits = 0;
  double rows = 0;
  for (const std::vector<Record>& records : per_client) {
    for (const Record& rec : records) {
      const ServeOutcome& o = rec.outcome;
      const bool is_append = rec.request.algorithm == ServeAlgorithm::kAppend;
      std::string what = std::string("serve_mixed ") +
                         ServeAlgorithmName(rec.request.algorithm) + " on " +
                         rec.request.relation;
      if (rec.admitted && !rec.waited) {
        res.GateFail(what + ": ticket " + std::to_string(rec.id) + " lost");
      }
      std::string why;
      if (!rec.admitted) {
        why = "rejected: " + o.status.ToString();
      } else if (!rec.waited) {
        why = "lost ticket";
      } else if (!o.status.ok()) {
        why = o.status.ToString();
      } else if (o.degraded || o.report.exhausted) {
        why = "degraded: " + o.report.stop_detail;
      }
      res.Op(what, why);
      if (!rec.waited) continue;
      latency.push_back(rec.latency_s);
      queue.push_back(o.queue_seconds);
      if (is_append) {
        append_latency.push_back(rec.latency_s);
        if (o.status.ok()) appends[rec.id] = &rec;
        run_ms["append"].push_back(1e3 * o.run_seconds);
        rows += kAppendRows;
      } else {
        ++reads;
        store_hits += o.store_hit;
        rows += setup.base[rec.relation].num_rows();
        if (!o.store_hit && !o.shared_flight) {
          run_ms[ServeAlgorithmName(rec.request.algorithm)].push_back(
              1e3 * o.run_seconds);
        }
      }
      if (rec.sampled) samples.push_back(&rec);
    }
  }
  if (stats1.completed != stats1.submitted) {
    res.GateFail("serve_mixed: " + std::to_string(stats1.submitted) +
                 " tickets submitted but " +
                 std::to_string(stats1.completed) + " completed");
  }

  // A sample of complete answers must be bit-identical to direct engine
  // calls on the same relation version.
  // Latest first: later answers replay more appends.
  std::sort(samples.begin(), samples.end(),
            [](const Record* a, const Record* b) { return a->id > b->id; });
  std::map<ServeAlgorithm, int> per_algorithm;
  int verified = 0;
  for (const Record* rec : samples) {
    if (verified >= kMaxVerify) break;
    if (per_algorithm[rec->request.algorithm]++ >= kMaxVerify / 4) continue;
    ++verified;
    const ServeOutcome& served = rec->outcome;
    std::string what = std::string("serve_mixed ticket ") +
                       std::to_string(rec->id) + " (" +
                       ServeAlgorithmName(rec->request.algorithm) + " on " +
                       rec->request.relation + " v" +
                       std::to_string(served.relation_version) + "): ";
    Result<Relation> rel =
        RelationAt(setup.base[rec->relation], rec->request.relation,
                   served.relation_version, &service, appends);
    if (!rel.ok()) {
      res.GateFail(what + "replay failed: " + rel.status().ToString());
      continue;
    }
    if (RelationFingerprint(*rel) != served.fingerprint) {
      res.GateFail(what + "replayed relation has another fingerprint");
      continue;
    }
    ServeOutcome direct;
    Status st = DirectCall(*rel, rec->request, &direct);
    if (!st.ok()) {
      res.GateFail(what + "direct call failed: " + st.ToString());
    } else if (!SameAnswer(served, direct)) {
      res.GateFail(what + "answer differs from the direct engine call");
    }
  }
  if (verified == 0) res.GateFail("serve_mixed: no complete answer sampled");
  kept.reset();  // one service at a time, for peak_rss_mb
  while (setups.size() < kSetupRepeats) {
    if (!set_up()) return res;
  }

  const int64_t completed = static_cast<int64_t>(latency.size());
  res.metrics["setup_s"] = Median(setups);
  res.metrics["job_s_p50"] = Median(latency);
  res.metrics["rows_per_s"] = rows / elapsed;
  res.metrics["latency_ms_p50"] = 1e3 * Median(latency);
  res.metrics["latency_ms_p99"] = 1e3 * Quantile(latency, 0.99);
  res.metrics["throughput_rps"] = completed / elapsed;
  res.metrics["requests"] = static_cast<double>(completed);
  res.metrics["verified"] = verified;
  if (tracer != nullptr) {
    auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a);
    };
    res.metrics["serve.append.latency_ms_p90"] =
        1e3 * Quantile(append_latency, 0.9);
    res.metrics["serve.queue_ms_p50"] = 1e3 * Median(queue);
    res.metrics["serve.queue_ms_p99"] = 1e3 * Quantile(queue, 0.99);
    for (const auto& [name, values] : run_ms) {
      res.metrics["serve." + name + ".run_ms_p50"] = Median(values);
    }
    res.metrics["serve.store_hit_ratio"] =
        reads > 0 ? static_cast<double>(store_hits) / reads : 0;
    res.metrics["serve.shared_flights"] =
        delta(stats0.shared_flights, stats1.shared_flights);
    res.metrics["serve.retries"] = delta(stats0.retries, stats1.retries);
    res.metrics["serve.degraded"] = delta(stats0.degraded, stats1.degraded);
    res.metrics["serve.rejected"] = delta(stats0.rejected, stats1.rejected);
    double hits = static_cast<double>(cache1.hits - cache0.hits);
    double misses = static_cast<double>(cache1.misses - cache0.misses);
    double ev_hits = static_cast<double>(ev1.hits - ev0.hits);
    double ev_misses = static_cast<double>(ev1.misses - ev0.misses);
    res.metrics["engine.pli_hits"] = hits;
    res.metrics["engine.pli_misses"] = misses;
    res.metrics["engine.pli_builds"] =
        static_cast<double>(cache1.builds - cache0.builds);
    res.metrics["engine.pli_evictions"] =
        static_cast<double>(cache1.evictions - cache0.evictions);
    res.metrics["engine.pli_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    res.metrics["engine.pli_mb"] = Mb(static_cast<double>(cache1.bytes));
    res.metrics["engine.evidence_hits"] = ev_hits;
    res.metrics["engine.evidence_builds"] =
        static_cast<double>(ev1.builds - ev0.builds);
    res.metrics["engine.evidence_hit_ratio"] =
        ev_hits + ev_misses > 0 ? ev_hits / (ev_hits + ev_misses) : 0;
    res.metrics["trace.overhead_frac"] = tracer->overhead_seconds() / elapsed;
  }
  return res;
}

}  // namespace famtree::bench
