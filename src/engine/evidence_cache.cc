#include "engine/evidence_cache.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "common/hash.h"

namespace famtree {

uint64_t EncodingFingerprint(const EncodedRelation& encoded) {
  size_t h = HashCombine(0x66616d74, static_cast<size_t>(encoded.num_rows()));
  h = HashCombine(h, static_cast<size_t>(encoded.num_columns()));
  for (int c = 0; c < encoded.num_columns(); ++c) {
    h = HashCombine(h, static_cast<size_t>(encoded.dict_size(c)));
    // The code arrays fix every equality relationship, but order facets
    // and distance metrics read the dictionary values: two relations with
    // the same codes and reversed values share no `<` evidence.
    for (uint32_t code = 0; code < static_cast<uint32_t>(encoded.dict_size(c));
         ++code) {
      h = HashCombine(h, encoded.Decode(c, code).Hash());
    }
    for (uint32_t code : encoded.codes(c)) {
      h = HashCombine(h, static_cast<size_t>(code));
    }
  }
  return static_cast<uint64_t>(h);
}

std::string EvidenceCache::KeyFor(const EncodedRelation& encoded,
                                  const std::vector<EvidenceColumn>& columns) {
  return KeyForFingerprint(EncodingFingerprint(encoded), columns);
}

std::string EvidenceCache::KeyForFingerprint(
    uint64_t fp, const std::vector<EvidenceColumn>& columns) {
  std::string key;
  key.reserve(32 + columns.size() * 32);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  key += buf;
  for (const EvidenceColumn& c : columns) {
    std::snprintf(buf, sizeof(buf), "|%d:%d:%d:", c.attr,
                  static_cast<int>(c.cmp), c.track_max ? 1 : 0);
    key += buf;
    if (c.metric != nullptr) key += c.metric->name();
    for (double t : c.thresholds) {
      // Thresholds compare by exact double, so the key uses the bit
      // pattern, not a rounded decimal print.
      uint64_t bits;
      std::memcpy(&bits, &t, sizeof(bits));
      std::snprintf(buf, sizeof(buf), ",%016llx",
                    static_cast<unsigned long long>(bits));
      key += buf;
    }
  }
  return key;
}

std::string EvidenceCache::KeyForSample(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    PairSample sample) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "#sample:%016llx:%lld",
                static_cast<unsigned long long>(sample.seed),
                static_cast<long long>(sample.draws));
  return KeyFor(encoded, columns) + buf;
}

std::shared_ptr<const EvidenceSet> EvidenceCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.set;
}

std::shared_ptr<const EvidenceSet> EvidenceCache::Insert(
    const std::string& key, std::shared_ptr<const EvidenceSet> set,
    std::vector<EvidenceColumn> config, int num_rows) {
  return Store(key, std::move(set), std::move(config), num_rows,
               /*built=*/true);
}

std::shared_ptr<const EvidenceSet> EvidenceCache::Store(
    const std::string& key, std::shared_ptr<const EvidenceSet> set,
    std::vector<EvidenceColumn> config, int num_rows, bool built) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing build got here first; its (bit-identical) set wins, and the
    // loser's build is not counted.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.set;
  }
  if (built) ++stats_.builds;
  Entry entry;
  entry.set = std::move(set);
  entry.bytes = entry.set->footprint_bytes();
  entry.maintainable = !config.empty();
  entry.config = std::move(config);
  entry.num_rows = num_rows;
  // The stored config must not borrow caller-owned distance tables: the
  // entry outlives the build call, and MaintainAppend rebuilds from it.
  for (EvidenceColumn& c : entry.config) c.table = nullptr;
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  stats_.bytes += entry.bytes;
  auto result = entries_.emplace(key, std::move(entry)).first->second.set;
  while (stats_.bytes > options_.max_bytes && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    auto vit = entries_.find(victim);
    stats_.bytes -= vit->second.bytes;
    ++stats_.evictions;
    entries_.erase(vit);
    lru_.pop_back();
  }
  return result;
}

std::unordered_map<std::string, EvidenceCache::Entry>::iterator
EvidenceCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  stats_.bytes -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  return entries_.erase(it);
}

namespace {

std::string FingerprintPrefix(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

}  // namespace

void EvidenceCache::EraseFingerprint(uint64_t fingerprint) {
  const std::string prefix = FingerprintPrefix(fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = EraseLocked(it);
    } else {
      ++it;
    }
  }
}

Status EvidenceCache::MaintainAppend(const EncodedRelation& encoded,
                                     uint64_t old_fingerprint, int old_rows,
                                     const EvidenceOptions& options) {
  const uint64_t new_fingerprint = EncodingFingerprint(encoded);
  if (new_fingerprint == old_fingerprint) return Status::OK();
  const std::string old_prefix = FingerprintPrefix(old_fingerprint);

  // Snapshot the maintainable entries outside the build work: delta builds
  // can be expensive and must not hold the cache lock.
  struct Work {
    std::string suffix;  // key minus the fingerprint prefix
    std::vector<EvidenceColumn> config;
    std::shared_ptr<const EvidenceSet> base;
  };
  std::vector<Work> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, entry] : entries_) {
      if (key.compare(0, old_prefix.size(), old_prefix) != 0) continue;
      if (!entry.maintainable || entry.num_rows != old_rows) continue;
      work.push_back({key.substr(old_prefix.size()), entry.config, entry.set});
    }
  }

  Status status = Status::OK();
  for (Work& w : work) {
    auto delta = BuildEvidenceDelta(encoded, w.config, old_rows, options);
    if (!delta.ok()) {
      status = delta.status();
      break;
    }
    auto merged = MergeEvidenceSets(*w.base, *delta.value(), options);
    if (!merged.ok()) {
      status = merged.status();
      break;
    }
    // A migration, not a build: the multiset was carried over at
    // new-pairs cost.
    Store(FingerprintPrefix(new_fingerprint) + w.suffix,
          std::move(merged).value(), std::move(w.config), encoded.num_rows(),
          /*built=*/false);
  }

  // Whatever happened, nothing may stay keyed by the dead fingerprint —
  // a later relation hashing to the same content as the *old* state would
  // otherwise be served sets missing the appended rows' pairs. (It can't:
  // the fingerprint covers every cell. But non-maintainable leftovers
  // would still be unreachable garbage.)
  EraseFingerprint(old_fingerprint);
  return status;
}

EvidenceCache::Stats EvidenceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<std::shared_ptr<const EvidenceSet>> GetOrBuildEvidence(
    EvidenceCache* cache, const EncodedRelation& encoded,
    const std::vector<EvidenceColumn>& columns,
    const EvidenceOptions& options) {
  std::string key;
  if (cache != nullptr) {
    key = EvidenceCache::KeyFor(encoded, columns);
    if (auto hit = cache->Lookup(key)) return hit;
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                           BuildEvidence(encoded, columns, options));
  if (cache != nullptr) {
    return cache->Insert(key, std::move(set), columns, encoded.num_rows());
  }
  return set;
}

Result<std::shared_ptr<const EvidenceSet>> GetOrBuildEvidence(
    EvidenceCache* cache, const EncodedRelation& encoded,
    const std::vector<EvidenceColumn>& columns, PairSample sample,
    const EvidenceOptions& options) {
  std::string key;
  if (cache != nullptr) {
    key = EvidenceCache::KeyForSample(encoded, columns, sample);
    if (auto hit = cache->Lookup(key)) return hit;
  }
  FAMTREE_ASSIGN_OR_RETURN(
      std::shared_ptr<const EvidenceSet> set,
      BuildEvidenceForSample(encoded, columns, sample, options));
  if (cache != nullptr) return cache->Insert(key, std::move(set));
  return set;
}

}  // namespace famtree
