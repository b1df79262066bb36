// Golden-file support for the differential suites. Each miner and quality
// application result has one canonical text form (Canon): the dependency's
// ToString(), its measures printed with round-trip precision, and repaired
// relations as WriteCsvString. A case's frozen expected output is the
// Canon text of the serial Value-based oracle that the encoded production
// path replaced; the files live under tests/golden/ and the test binary
// finds them through the FAMTREE_GOLDEN_DIR compile definition. Tests only
// read them — a mismatch is a failure, never a cue to regenerate.

#ifndef FAMTREE_TESTS_GOLDEN_H_
#define FAMTREE_TESTS_GOLDEN_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relation/csv.h"

namespace famtree {
namespace golden {

/// Round-trip decimal form of a double: equal strings iff equal values
/// (NaNs aside), so a golden comparison is as strict as operator==.
inline std::string Num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// Type-tagged exact form of a cell, so an int 2 and a double 2.0 differ.
inline std::string Text(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "i:" + std::to_string(v.as_int());
    case ValueType::kDouble: return "d:" + Num(v.as_double());
    case ValueType::kString: return "s:" + v.as_string();
  }
  return "?";
}

inline std::string Canon(const DiscoveredCfd& x) {
  return x.cfd.ToString() + " support=" + std::to_string(x.support);
}
inline std::string Canon(const DiscoveredOd& x) { return x.od.ToString(); }
inline std::string Canon(const DiscoveredMvd& x) {
  return x.lhs.ToString() + " ->> " + x.rhs.ToString() +
         " spurious=" + Num(x.spurious_ratio);
}
inline std::string Canon(const DiscoveredFhd& x) {
  std::string out = x.lhs.ToString() + " :";
  for (const AttrSet& block : x.blocks) out += " " + block.ToString();
  return out;
}
inline std::string Canon(const DiscoveredPfd& x) {
  return x.lhs.ToString() + " -> " + std::to_string(x.rhs) +
         " p=" + Num(x.probability);
}
inline std::string Canon(const DiscoveredDd& x) {
  return x.dd.ToString() + " support=" + std::to_string(x.support);
}
inline std::string Canon(const DiscoveredNed& x) {
  return x.ned.ToString() + " support=" + std::to_string(x.support) +
         " confidence=" + Num(x.confidence);
}
inline std::string Canon(const DiscoveredMd& x) {
  return x.md.ToString() + " support=" + Num(x.support) +
         " confidence=" + Num(x.confidence);
}
inline std::string Canon(const DiscoveredMfd& x) {
  return x.mfd.ToString() + " delta=" + Num(x.delta);
}
inline std::string Canon(const DiscoveredDc& x) {
  return x.dc.ToString() + " violation=" + Num(x.violation_fraction);
}
inline std::string Canon(const DiscoveredSd& x) {
  return x.sd.ToString() + " confidence=" + Num(x.confidence);
}
inline std::string Canon(const DiscoveredCsd& x) {
  return x.csd.ToString() + " covered=" + std::to_string(x.covered_rows);
}
inline std::string Canon(const Violation& x) {
  std::string out = "rows";
  for (int row : x.rows) out += " " + std::to_string(row);
  return out + " : " + x.description;
}
inline std::string Canon(const Relation& x) { return WriteCsvString(x); }
inline std::string Canon(const RepairResult& x) {
  std::string out = WriteCsvString(x.repaired);
  for (const CellChange& c : x.changes) {
    out += "change " + std::to_string(c.row) + "," + std::to_string(c.col) +
           " " + Text(c.old_value) + " => " + Text(c.new_value) + "\n";
  }
  return out + "remaining=" + std::to_string(x.remaining_violations);
}
inline std::string Canon(const MatchResult& x) {
  std::string out = "clusters=" + std::to_string(x.num_clusters) +
                    " matched_pairs=" + std::to_string(x.matched_pairs) +
                    "\nids";
  for (int id : x.cluster_ids) out += " " + std::to_string(id);
  return out;
}
inline std::string Canon(const ImputeResult& x) {
  return WriteCsvString(x.imputed) + "filled=" + std::to_string(x.filled) +
         " unfilled=" + std::to_string(x.unfilled);
}

/// One line per item, in the miner's output order.
template <typename T>
std::string Canon(const std::vector<T>& items) {
  std::string out;
  for (const T& x : items) out += Canon(x) + "\n";
  return out;
}

/// A golden file's full text: one line per item for a result list, the
/// result's Canon text plus a newline for a single result.
template <typename T>
std::string Document(const std::vector<T>& items) {
  return Canon(items);
}
template <typename T>
std::string Document(const T& result) {
  return Canon(result) + "\n";
}

inline std::string Path(const std::string& name) {
  return std::string(FAMTREE_GOLDEN_DIR) + "/" + name + ".txt";
}

/// Contents of golden file `name`; `*found` reports whether it exists.
inline std::string Read(const std::string& name, bool* found) {
  std::ifstream in(Path(name), std::ios::binary);
  *found = static_cast<bool>(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace golden
}  // namespace famtree

#endif  // FAMTREE_TESTS_GOLDEN_H_
