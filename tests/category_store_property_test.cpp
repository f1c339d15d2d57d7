// The flat category store against its preserved tree-based reference:
// as-of cutoff boundaries, randomized equivalence, and the underlying
// CategorySet / FlatStringMap building blocks against std model containers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "filters/category_db.h"
#include "filters/category_set.h"
#include "net/url.h"
#include "oracles/reference_category_store.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace urlf {
namespace {

net::Url url(const std::string& text) {
  auto parsed = net::Url::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

// --- as-of cutoff boundary --------------------------------------------------

TEST(CategorizeAsOf, CutoffBoundaryIsInclusiveAtEveryGranularity) {
  constexpr util::SimTime kAdded{1000};
  constexpr filters::CategoryId kPorn = 3;
  constexpr filters::CategoryId kNews = 7;
  constexpr filters::CategoryId kChat = 11;

  filters::CategoryDatabase db;
  db.addHost("blocked.example.com", kPorn, kAdded);
  db.addHost("example.info", kNews, kAdded);  // registrable-domain fallback
  db.addUrl(url("http://pages.example.org/banned"), kChat, kAdded);

  const net::Url byHost = url("http://blocked.example.com/anything");
  const net::Url byDomain = url("http://www.example.info/page");
  const net::Url byUrl = url("http://pages.example.org/banned");

  // An entry added at T is visible to a deployment synced at exactly T...
  EXPECT_EQ(db.categorizeAsOf(byHost, kAdded), std::set{kPorn});
  EXPECT_EQ(db.categorizeAsOf(byDomain, kAdded), std::set{kNews});
  EXPECT_EQ(db.categorizeAsOf(byUrl, kAdded), std::set{kChat});
  EXPECT_TRUE(db.isCategorizedAsOf(byHost, kAdded));

  // ...and invisible one tick earlier.
  constexpr util::SimTime kBefore{999};
  EXPECT_TRUE(db.categorizeAsOf(byHost, kBefore).empty());
  EXPECT_TRUE(db.categorizeAsOf(byDomain, kBefore).empty());
  EXPECT_TRUE(db.categorizeAsOf(byUrl, kBefore).empty());
  EXPECT_FALSE(db.isCategorizedAsOf(byHost, kBefore));

  // The reference store draws the same boundary.
  oracles::ReferenceCategoryStore reference;
  reference.addHost("blocked.example.com", kPorn, kAdded);
  EXPECT_EQ(reference.categorizeAsOf(byHost, kAdded), std::set{kPorn});
  EXPECT_TRUE(reference.categorizeAsOf(byHost, kBefore).empty());
}

TEST(CategorizeAsOf, KeepsEarliestAddedTimeOnRepeatInsert) {
  filters::CategoryDatabase db;
  db.addHost("h.example.com", 5, util::SimTime{2000});
  db.addHost("h.example.com", 5, util::SimTime{500});  // earlier wins
  db.addHost("h.example.com", 5, util::SimTime{3000});  // later ignored
  const net::Url probe = url("http://h.example.com/");
  EXPECT_TRUE(db.isCategorizedAsOf(probe, util::SimTime{500}));
  EXPECT_FALSE(db.isCategorizedAsOf(probe, util::SimTime{499}));
}

// --- flat ≡ reference on randomized worlds ----------------------------------

TEST(CategoryStoreProperty, FlatMatchesReferenceUnderRandomMutation) {
  const std::vector<std::string> hosts{
      "a.example.com", "b.example.com", "www.a.example.com",
      "example.com",   "example.info",  "news.example.info",
      "x.example.org", "example.org",   "y.example.net",
  };
  const std::vector<std::string> paths{"/", "/page", "/banned?id=1"};

  util::Rng rng(20130814);
  filters::CategoryDatabase flat;
  oracles::ReferenceCategoryStore reference;

  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.uniform(0, 9);
    if (op <= 4) {  // addHost
      const auto category =
          static_cast<filters::CategoryId>(rng.uniform(1, 12));
      const util::SimTime addedAt{
          static_cast<std::int64_t>(rng.uniform(0, 5000))};
      const std::string& host = rng.pick(hosts);
      flat.addHost(host, category, addedAt);
      reference.addHost(host, category, addedAt);
    } else if (op <= 6) {  // addUrl
      const auto category =
          static_cast<filters::CategoryId>(rng.uniform(1, 12));
      const util::SimTime addedAt{
          static_cast<std::int64_t>(rng.uniform(0, 5000))};
      const net::Url target =
          url("http://" + rng.pick(hosts) + rng.pick(paths));
      flat.addUrl(target, category, addedAt);
      reference.addUrl(target, category, addedAt);
    } else if (op == 7) {  // removeHost — exercises backward-shift deletion
      const std::string& host = rng.pick(hosts);
      flat.removeHost(host);
      reference.removeHost(host);
    } else {  // probe
      const net::Url probe =
          url("http://" + rng.pick(hosts) + rng.pick(paths));
      const util::SimTime cutoff{
          static_cast<std::int64_t>(rng.uniform(0, 6000))};
      EXPECT_EQ(flat.categorizeAsOf(probe, cutoff),
                reference.categorizeAsOf(probe, cutoff))
          << probe.toString() << " at step " << step;
      EXPECT_EQ(flat.categorize(probe), reference.categorize(probe));
      EXPECT_EQ(flat.isCategorizedAsOf(probe, cutoff),
                !reference.categorizeAsOf(probe, cutoff).empty());
      const std::string& host = rng.pick(hosts);
      EXPECT_EQ(flat.hostCategories(host), reference.hostCategories(host));
    }
    EXPECT_EQ(flat.entryCount(), reference.entryCount());
  }
}

// --- CategorySet -------------------------------------------------------------

TEST(CategorySet, StaysSortedDedupedAndReusable) {
  filters::CategorySet set;
  EXPECT_TRUE(set.empty());
  for (const filters::CategoryId id : {9, 2, 7, 2, 9, 1}) set.insert(id);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.ids(), (std::vector<filters::CategoryId>{1, 2, 7, 9}));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(3));
  EXPECT_EQ(set.toSet(), (std::set<filters::CategoryId>{1, 2, 7, 9}));

  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(1));
  set.insert(5);
  EXPECT_EQ(set.toSet(), std::set<filters::CategoryId>{5});
}

// --- FlatStringMap vs std::map model ----------------------------------------

TEST(FlatStringMap, MatchesStdMapModelUnderRandomOps) {
  util::FlatStringMap<int> flat;
  std::map<std::string, int, std::less<>> model;
  util::Rng rng(77);

  // A small key universe forces collisions, repeats, erase-of-present and
  // growth through several capacity doublings.
  std::vector<std::string> keys;
  for (int i = 0; i < 120; ++i) keys.push_back("key-" + std::to_string(i));

  for (int step = 0; step < 5000; ++step) {
    const std::string& key = rng.pick(keys);
    switch (rng.uniform(0, 2)) {
      case 0: {  // insert/update
        const int value = static_cast<int>(rng.uniform(0, 1000));
        flat.getOrInsert(key) = value;
        model[key] = value;
        break;
      }
      case 1: {  // erase — exercises Algorithm R backward-shift
        EXPECT_EQ(flat.erase(key), model.erase(key) > 0) << key;
        break;
      }
      default: {  // find
        const int* found = flat.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end()) << key;
        if (found != nullptr) EXPECT_EQ(*found, it->second) << key;
      }
    }
    ASSERT_EQ(flat.size(), model.size());
  }

  // forEach must visit exactly the surviving pairs.
  std::map<std::string, int, std::less<>> visited;
  flat.forEach([&](const std::string& key, const int& value) {
    EXPECT_TRUE(visited.emplace(key, value).second) << "duplicate " << key;
  });
  EXPECT_EQ(visited, model);

  EXPECT_FALSE(flat.erase("never-inserted"));
  EXPECT_EQ(flat.find("never-inserted"), nullptr);
}

}  // namespace
}  // namespace urlf
