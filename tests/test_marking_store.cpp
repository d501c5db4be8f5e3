#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reach/marking_store.h"

namespace cipnet {
namespace {

std::vector<Token> row3(Token a, Token b, Token c) { return {a, b, c}; }

TEST(MarkingStore, StartsEmptyWithWidth) {
  MarkingStore store(3);
  EXPECT_EQ(store.width(), 3u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.arena_bytes(), 0u);
}

TEST(MarkingStore, PushBackAssignsSequentialRows) {
  MarkingStore store(3);
  auto a = row3(1, 0, 2);
  auto b = row3(0, 5, 0);
  EXPECT_EQ(store.push_back(a.data()), 0u);
  EXPECT_EQ(store.push_back(b.data()), 1u);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.view(0), MarkingView(a.data(), 3));
  EXPECT_EQ(store.view(1), MarkingView(b.data(), 3));
  EXPECT_EQ(store.row(1)[1], Token{5});
}

TEST(MarkingStore, ResetChangesWidthAndClears) {
  MarkingStore store(2);
  auto a = std::vector<Token>{1, 1};
  store.push_back(a.data());
  store.reset(4);
  EXPECT_EQ(store.width(), 4u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MarkingStore, WidthZeroRowsAreCounted) {
  // A net with no places still has one (empty) marking; the row count must
  // not be derived from arena_size / width.
  MarkingStore store(0);
  Token dummy = 0;
  EXPECT_EQ(store.push_back(&dummy), 0u);
  EXPECT_EQ(store.push_back(&dummy), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.view(0).size(), 0u);
  EXPECT_EQ(store.view(0), store.view(1));
}

TEST(MarkingStore, ViewsSurviveArenaGrowth) {
  MarkingStore store(2);
  store.reserve(4);
  auto a = std::vector<Token>{7, 9};
  store.push_back(a.data());
  for (Token i = 0; i < 100; ++i) {
    auto r = std::vector<Token>{i, i};
    store.push_back(r.data());
  }
  // Views are index-based (re-taken after growth), rows keep their content.
  EXPECT_EQ(store.view(0), MarkingView(a.data(), 2));
}

TEST(MarkingInterner, FreshThenDuplicate) {
  MarkingStore store(3);
  MarkingInterner interner;
  auto a = row3(1, 2, 3);
  auto r1 = interner.intern(a.data(), store);
  EXPECT_TRUE(r1.fresh);
  EXPECT_EQ(r1.id, 0u);
  auto r2 = interner.intern(a.data(), store);
  EXPECT_FALSE(r2.fresh);
  EXPECT_EQ(r2.id, 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(MarkingInterner, FindAbsentReturnsNullopt) {
  MarkingStore store(3);
  MarkingInterner interner;
  auto a = row3(1, 2, 3);
  auto b = row3(3, 2, 1);
  interner.intern(a.data(), store);
  EXPECT_TRUE(interner.find(a.data(), store).has_value());
  EXPECT_FALSE(interner.find(b.data(), store).has_value());
}

TEST(MarkingInterner, GrowthKeepsEveryRowFindable) {
  // Push well past the initial table capacity to force several rehashes.
  MarkingStore store(2);
  MarkingInterner interner;
  constexpr std::uint32_t kRows = 10'000;
  for (std::uint32_t i = 0; i < kRows; ++i) {
    std::vector<Token> r{i, i ^ 0x55u};
    auto res = interner.intern(r.data(), store);
    EXPECT_TRUE(res.fresh);
    EXPECT_EQ(res.id, i);
  }
  EXPECT_EQ(store.size(), kRows);
  for (std::uint32_t i = 0; i < kRows; ++i) {
    std::vector<Token> r{i, i ^ 0x55u};
    auto found = interner.find(r.data(), store);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
    auto again = interner.intern(r.data(), store);
    EXPECT_FALSE(again.fresh);
    EXPECT_EQ(again.id, i);
  }
  EXPECT_GT(interner.table_bytes(), 0u);
}

TEST(MarkingInterner, LimitBlocksFreshInsertOnly) {
  MarkingStore store(2);
  MarkingInterner interner;
  auto a = std::vector<Token>{1, 0};
  auto b = std::vector<Token>{0, 1};
  interner.intern(a.data(), store, /*limit=*/1);
  // A fresh row at the budget is rejected without mutating anything...
  auto rejected = interner.intern(b.data(), store, /*limit=*/1);
  EXPECT_EQ(rejected.id, MarkingInterner::kNoId);
  EXPECT_TRUE(rejected.fresh);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(interner.size(), 1u);
  // ...while a duplicate of an existing row still resolves.
  auto dup = interner.intern(a.data(), store, /*limit=*/1);
  EXPECT_FALSE(dup.fresh);
  EXPECT_EQ(dup.id, 0u);
}

TEST(MarkingInterner, RebuildReindexesAForeignStore) {
  // A resumed exploration fills a store row-by-row from checkpointed rows
  // and then rebuilds the interner over it; the rebuilt index must resolve
  // every row to its position.
  MarkingStore store(2);
  for (std::uint32_t i = 0; i < 500; ++i) {
    std::vector<Token> r{i, 1000u - i};
    store.push_back(r.data());
  }
  MarkingInterner interner;
  interner.rebuild(store);
  EXPECT_EQ(interner.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    std::vector<Token> r{i, 1000u - i};
    auto found = interner.find(r.data(), store);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
}

TEST(MarkingInterner, ReserveDoesNotDisturbContents) {
  MarkingStore store(2);
  MarkingInterner interner;
  auto a = std::vector<Token>{3, 3};
  interner.intern(a.data(), store);
  interner.reserve(1 << 12);
  auto found = interner.find(a.data(), store);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0u);
}

TEST(MarkingInterner, RowHashIsWidthSensitive) {
  std::vector<Token> zeros{0, 0, 0, 0};
  EXPECT_NE(row_hash(zeros.data(), 3), row_hash(zeros.data(), 4));
}

}  // namespace
}  // namespace cipnet
