#include "sales.h"

#include <cstdio>
#include <utility>

namespace famtree::bench {
namespace {

constexpr int kZips = 1000;
constexpr int kCities = 200;
constexpr int kStates = 40;
constexpr int kProducts = 300;
constexpr int kCategories = 30;
constexpr int kChannels = 5;
constexpr int kMaxQty = 20;
const char* const kChannelNames[kChannels] = {"web", "store", "phone",
                                              "partner", "mail"};

std::vector<int> DrawMap(SeedRng& rng, int size, int range) {
  std::vector<int> out(size);
  for (int& v : out) v = static_cast<int>(rng.Below(range));
  return out;
}

}  // namespace

SalesGenerator::SalesGenerator(uint64_t seed) {
  SeedRng rng(seed ^ 0x5a1e5ull);
  city_of_zip_ = DrawMap(rng, kZips, kCities);
  state_of_city_ = DrawMap(rng, kCities, kStates);
  category_of_product_ = DrawMap(rng, kProducts, kCategories);
  // Distinct prices: price -> product and price -> channel hold exactly, so
  // price adds no accidental approximate FD.
  price_of_.resize(kProducts * kChannels);
  for (int i = 0; i < kProducts * kChannels; ++i) price_of_[i] = 1 + i;
  for (int i = kProducts * kChannels - 1; i > 0; --i) {
    std::swap(price_of_[i], price_of_[rng.Below(i + 1)]);
  }
}

SalesGenerator::Row SalesGenerator::Next(SeedRng& rng, double noise) const {
  Row row;
  row.zip = static_cast<int>(rng.Below(kZips));
  row.city = city_of_zip_[row.zip];
  row.state = state_of_city_[row.city];
  row.product = static_cast<int>(rng.Below(kProducts));
  row.clean_category = category_of_product_[row.product];
  row.category = row.clean_category;
  row.channel = static_cast<int>(rng.Below(kChannels));
  row.price = price_of_[row.product * kChannels + row.channel];
  row.qty = 1 + static_cast<int>(rng.Below(kMaxQty));
  if (rng.Unit() < noise) {
    row.noisy = true;
    row.category = static_cast<int>(
        (row.clean_category + 1 + rng.Below(kCategories - 1)) % kCategories);
  }
  return row;
}

std::vector<std::string> SalesGenerator::Names() {
  return {"zip", "city", "state", "product", "category", "channel", "price",
          "qty"};
}

std::string SalesGenerator::CsvHeader() {
  return "zip,city,state,product,category,channel,price,qty\n";
}

void SalesGenerator::AppendCsv(const Row& row, std::string* out) const {
  char buf[128];
  int n = std::snprintf(buf, sizeof(buf),
                        "%d,city_%03d,ST%02d,%d,cat_%02d,%s,%d,%d\n",
                        10000 + row.zip, row.city, row.state, row.product,
                        row.category, kChannelNames[row.channel], row.price,
                        row.qty);
  out->append(buf, static_cast<size_t>(n));
}

std::vector<Value> SalesGenerator::ToValues(const Row& row) const {
  char city[16], state[16];
  std::snprintf(city, sizeof(city), "city_%03d", row.city);
  std::snprintf(state, sizeof(state), "ST%02d", row.state);
  return {Value(10000 + row.zip),   Value(city),
          Value(state),             Value(row.product),
          Value(CategoryName(row.category)),
          Value(kChannelNames[row.channel]),
          Value(row.price),         Value(row.qty)};
}

std::string SalesGenerator::CategoryName(int category) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "cat_%02d", category);
  return buf;
}

}  // namespace famtree::bench
