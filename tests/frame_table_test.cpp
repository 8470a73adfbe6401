// FrameTable (src/storage/frame_table.h): collisions, wrap-around probe
// runs, backward-shift erase, keys that differ only in bit 63 side by side,
// filling to capacity, and a seeded differential run against
// std::unordered_map.

#include "storage/frame_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace boxagg {
namespace {

// Keys use all 64 bits: a key and the same key with bit 63 set must hash,
// probe and erase independently.
constexpr uint64_t kTopBit = uint64_t{1} << 63;

struct TestFrame {
  uint64_t key = 0;
};

using Table = FrameTable<TestFrame>;

/// Structural invariants: the count matches the occupied slots, the load is
/// <= 1/2, and every key is reachable from its home slot without crossing
/// an empty slot.
void ExpectWellFormed(const Table& t) {
  size_t occupied = 0;
  const size_t n = t.slot_count();
  for (size_t slot = 0; slot < n; ++slot) {
    const Table::Slot& s = t.slot(slot);
    if (s.frame == nullptr) continue;
    ++occupied;
    EXPECT_EQ(s.frame->key, s.key) << "slot " << slot;
    for (size_t i = t.Home(s.key); i != slot; i = (i + 1) % n) {
      ASSERT_NE(t.slot(i).frame, nullptr)
          << "key " << s.key << " in slot " << slot
          << " is cut off from its home by empty slot " << i;
    }
  }
  EXPECT_EQ(occupied, t.size());
  EXPECT_LE(2 * t.size(), n);
}

/// The first `count` keys >= `from` whose home slot is `home`.
std::vector<uint64_t> KeysWithHome(const Table& t, size_t home, size_t count,
                                   uint64_t from = 0) {
  std::vector<uint64_t> keys;
  for (uint64_t k = from; keys.size() < count; ++k) {
    if (t.Home(k) == home) keys.push_back(k);
  }
  return keys;
}

TEST(FrameTable, SlotCountIsPowerOfTwoAtLeastTwiceCapacity) {
  for (size_t cap : {size_t{1}, size_t{8}, size_t{9}, size_t{100},
                     size_t{1024}}) {
    Table t(cap);
    EXPECT_EQ(t.capacity(), cap);
    EXPECT_GE(t.slot_count(), 2 * cap);
    EXPECT_EQ(t.slot_count() & (t.slot_count() - 1), 0u);
    EXPECT_LT(t.slot_count(), 4 * cap + 2);  // the smallest such power
    for (uint64_t k = 0; k < 1000; ++k) EXPECT_LT(t.Home(k), t.slot_count());
  }
}

TEST(FrameTable, KeysSharingAHomeSlotProbeToConsecutiveSlots) {
  Table t(8);
  const std::vector<uint64_t> keys = KeysWithHome(t, 3, 4);
  std::vector<TestFrame> frames(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    frames[i].key = keys[i];
    t.Insert(keys[i], &frames[i]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.slot(3 + i).key, keys[i]);
    EXPECT_EQ(t.Find(keys[i]), &frames[i]);
  }
  // A key with the same home that was never inserted probes the whole run
  // and stops at the first empty slot.
  EXPECT_EQ(t.Find(KeysWithHome(t, 3, 1, keys.back() + 1)[0]), nullptr);
  ExpectWellFormed(t);
}

TEST(FrameTable, ProbeRunWrapsPastTheLastSlot) {
  Table t(8);
  const size_t last = t.slot_count() - 1;
  const std::vector<uint64_t> keys = KeysWithHome(t, last, 3);
  std::vector<TestFrame> frames(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    frames[i].key = keys[i];
    t.Insert(keys[i], &frames[i]);
  }
  EXPECT_EQ(t.slot(last).key, keys[0]);
  EXPECT_EQ(t.slot(0).key, keys[1]);
  EXPECT_EQ(t.slot(1).key, keys[2]);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.Find(keys[i]), &frames[i]);
  }
  // Erasing the run's head shifts the wrapped entries back across the end.
  ASSERT_TRUE(t.Erase(keys[0]));
  EXPECT_EQ(t.slot(last).key, keys[1]);
  EXPECT_EQ(t.slot(0).key, keys[2]);
  EXPECT_EQ(t.slot(1).frame, nullptr);
  EXPECT_EQ(t.Find(keys[0]), nullptr);
  EXPECT_EQ(t.Find(keys[1]), &frames[1]);
  EXPECT_EQ(t.Find(keys[2]), &frames[2]);
  ExpectWellFormed(t);
}

TEST(FrameTable, EraseFromTheMiddleOfAClusterKeepsEverySurvivorReachable) {
  Table t(8);
  // One cluster from slots 4..9 mixing three home slots: 4, 4, 5, 4, 6, 9.
  std::vector<uint64_t> keys = KeysWithHome(t, 4, 3);
  keys.insert(keys.begin() + 2, KeysWithHome(t, 5, 1)[0]);
  keys.push_back(KeysWithHome(t, 6, 1)[0]);
  keys.push_back(KeysWithHome(t, 9, 1)[0]);
  std::vector<TestFrame> frames(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    frames[i].key = keys[i];
    t.Insert(keys[i], &frames[i]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.slot(4 + i).key, keys[i]);
  }
  ExpectWellFormed(t);

  // Erase the second home-4 key (slot 5): every later entry whose home is
  // at or before the hole moves back; the home-9 key stays in its home.
  ASSERT_TRUE(t.Erase(keys[1]));
  EXPECT_FALSE(t.Erase(keys[1]));
  EXPECT_EQ(t.Find(keys[1]), nullptr);
  EXPECT_EQ(t.size(), keys.size() - 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 1) continue;
    EXPECT_EQ(t.Find(keys[i]), &frames[i]) << "key " << i;
  }
  EXPECT_EQ(t.slot(9).key, keys[5]);
  ExpectWellFormed(t);

  // Erase everything else in the middle-out order; survivors stay found.
  for (size_t i : {3u, 0u, 5u, 2u, 4u}) {
    ASSERT_TRUE(t.Erase(keys[i]));
    ExpectWellFormed(t);
  }
  EXPECT_EQ(t.size(), 0u);
  for (size_t i = 0; i < t.slot_count(); ++i) {
    EXPECT_EQ(t.slot(i).frame, nullptr);
  }
}

TEST(FrameTable, LiveAndSnapshotKeysShareOneTable) {
  Table t(16);
  std::vector<TestFrame> low(8);
  std::vector<TestFrame> high(8);
  for (uint64_t id = 0; id < 8; ++id) {
    low[id].key = id;
    high[id].key = id | kTopBit;
    t.Insert(low[id].key, &low[id]);
    t.Insert(high[id].key, &high[id]);
  }
  EXPECT_EQ(t.size(), 16u);
  for (uint64_t id = 0; id < 8; ++id) {
    EXPECT_EQ(t.Find(id), &low[id]);
    EXPECT_EQ(t.Find(id | kTopBit), &high[id]);
  }
  // Erasing low keys leaves their bit-63 twins intact.
  for (uint64_t id = 0; id < 8; id += 2) ASSERT_TRUE(t.Erase(id));
  for (uint64_t id = 0; id < 8; ++id) {
    EXPECT_EQ(t.Find(id), id % 2 == 0 ? nullptr : &low[id]);
    EXPECT_EQ(t.Find(id | kTopBit), &high[id]);
  }
  ExpectWellFormed(t);
}

TEST(FrameTable, FillsToCapacityAndClears) {
  for (size_t cap : {size_t{8}, size_t{9}, size_t{1000}}) {
    Table t(cap);
    std::vector<TestFrame> frames(cap);
    for (size_t i = 0; i < cap; ++i) {
      frames[i].key = i * 7919;  // spread-out ids, like a shard's share
      t.Insert(frames[i].key, &frames[i]);
    }
    EXPECT_EQ(t.size(), cap);
    ExpectWellFormed(t);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(t.Find(frames[i].key), &frames[i]);
    }
    t.Clear();
    EXPECT_EQ(t.size(), 0u);
    for (size_t i = 0; i < cap; ++i) EXPECT_EQ(t.Find(frames[i].key), nullptr);
  }
}

TEST(FrameTable, RandomOpsMatchUnorderedMap) {
  constexpr size_t kCap = 64;
  constexpr int kOps = 120000;
  std::mt19937_64 rng(20021);
  Table t(kCap);
  std::unordered_map<uint64_t, TestFrame*> model;
  std::vector<TestFrame> pool(kCap);
  std::vector<TestFrame*> free_frames;
  for (TestFrame& f : pool) free_frames.push_back(&f);

  // Keys from a small universe (so inserts, hits and erases all recur),
  // half of them with bit 63 set.
  const auto random_key = [&rng] {
    const uint64_t id = rng() % 200;
    return (rng() & 1) != 0 ? id | kTopBit : id;
  };
  for (int op = 0; op < kOps; ++op) {
    const uint64_t key = random_key();
    const auto it = model.find(key);
    switch (rng() % 3) {
      case 0:  // insert
        if (it == model.end() && model.size() < kCap) {
          TestFrame* f = free_frames.back();
          free_frames.pop_back();
          f->key = key;
          t.Insert(key, f);
          model.emplace(key, f);
        }
        break;
      case 1: {  // erase
        const bool present = it != model.end();
        ASSERT_EQ(t.Erase(key), present) << "op " << op;
        if (present) {
          free_frames.push_back(it->second);
          model.erase(it);
        }
        break;
      }
      default:  // find
        ASSERT_EQ(t.Find(key), it == model.end() ? nullptr : it->second)
            << "op " << op;
        break;
    }
    ASSERT_EQ(t.size(), model.size());
    if (op % 1000 == 0) {
      ExpectWellFormed(t);
      for (const auto& [k, f] : model) ASSERT_EQ(t.Find(k), f);
    }
  }
  ExpectWellFormed(t);
}

}  // namespace
}  // namespace boxagg
