// Seeded generator of the mixed int/string "sales" table that mine_batch
// and serve_mixed analyse. Its dependency structure is planted:
//
//   zip -> city, city -> state (so zip -> state), {product, channel} -> price
//
// hold exactly; prices are distinct per (product, channel), so price ->
// product and price -> channel hold too. product -> category holds except
// for a noise fraction of category cells, which are replaced by another
// category; so product -> category and price -> category are the only
// approximate FDs with 0 < g3 <= 1% at the benchmark size. The other
// columns are independent with small domains (zip 1000, product 300,
// channel 5, qty 20).

#ifndef FAMTREE_BENCH_SALES_H_
#define FAMTREE_BENCH_SALES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "relation/value.h"

namespace famtree::bench {

class SalesGenerator {
 public:
  enum Column { kZip, kCity, kState, kProduct, kCategory, kChannel, kPrice,
                kQty, kNumColumns };

  struct Row {
    int zip = 0, city = 0, state = 0, product = 0, category = 0,
        channel = 0, price = 0, qty = 0;
    bool noisy = false;
    int clean_category = 0;
  };

  /// The seed draws the planted maps (zip -> city, city -> state, ...).
  explicit SalesGenerator(uint64_t seed);

  /// Draws the next row from `rng`; a `noise` fraction of rows get a wrong
  /// category.
  Row Next(SeedRng& rng, double noise) const;

  static std::vector<std::string> Names();
  static std::string CsvHeader();
  void AppendCsv(const Row& row, std::string* out) const;
  std::vector<Value> ToValues(const Row& row) const;
  std::string CategoryName(int category) const;

 private:
  std::vector<int> city_of_zip_;
  std::vector<int> state_of_city_;
  std::vector<int> category_of_product_;
  std::vector<int> price_of_;  // product * kChannels + channel
};

}  // namespace famtree::bench

#endif  // FAMTREE_BENCH_SALES_H_
