// Tests for the data-cube range-sum baselines (prefix-sum cube of [18] and
// the blocked/relative-prefix variant), cross-checked against a dense-array
// oracle and against the BA-tree on the same cell data (the paper's Sec. 1
// claim that its indexes solve cube range-sums too).

#include <gtest/gtest.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "cube/prefix_sum_cube.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

/// Dense-array oracle.
class DenseCube {
 public:
  DenseCube(uint32_t w, uint32_t h)
      : w_(w), h_(h), cells_(static_cast<size_t>(w) * h, 0.0) {}
  void Update(uint32_t x, uint32_t y, double d) {
    cells_[static_cast<size_t>(x) * h_ + y] += d;
  }
  double RangeSum(uint32_t x1, uint32_t y1, uint32_t x2, uint32_t y2) const {
    double s = 0;
    for (uint32_t x = x1; x <= x2; ++x) {
      for (uint32_t y = y1; y <= y2; ++y) {
        s += cells_[static_cast<size_t>(x) * h_ + y];
      }
    }
    return s;
  }

 private:
  uint32_t w_, h_;
  std::vector<double> cells_;
};

TEST(PrefixSumCube, SmallHandChecked) {
  PrefixSumCube cube(4, 4);
  cube.Update(0, 0, 1);
  cube.Update(3, 3, 2);
  cube.Update(1, 2, 5);
  EXPECT_DOUBLE_EQ(cube.RangeSum(0, 0, 3, 3), 8.0);
  EXPECT_DOUBLE_EQ(cube.RangeSum(0, 0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cube.RangeSum(1, 1, 2, 2), 5.0);
  EXPECT_DOUBLE_EQ(cube.RangeSum(3, 3, 3, 3), 2.0);
  EXPECT_DOUBLE_EQ(cube.RangeSum(2, 0, 3, 1), 0.0);
  EXPECT_DOUBLE_EQ(cube.DominanceSum(1, 2), 6.0);
}

TEST(PrefixSumCube, UpdateCostIsDominatedRegion) {
  PrefixSumCube cube(100, 50);
  EXPECT_EQ(cube.UpdateCost(0, 0), 100u * 50u);   // worst case: whole cube
  EXPECT_EQ(cube.UpdateCost(99, 49), 1u);         // best case: one cell
  EXPECT_EQ(cube.UpdateCost(50, 25), 50u * 25u);
}

struct CubeParam {
  uint32_t w, h, block;
  std::string Name() const {
    std::string s = "w";
    s += std::to_string(w);
    s += "_h";
    s += std::to_string(h);
    s += "_b";
    s += std::to_string(block);
    return s;
  }
};

class CubeSweep : public ::testing::TestWithParam<CubeParam> {};

TEST_P(CubeSweep, AllThreeStructuresMatchOracle) {
  const CubeParam p = GetParam();
  DenseCube oracle(p.w, p.h);
  PrefixSumCube prefix(p.w, p.h);
  BlockedPrefixCube blocked(p.w, p.h, p.block);
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> bat(&pool, 2);

  std::mt19937 rng(p.w * 31 + p.h * 7 + p.block);
  std::uniform_int_distribution<uint32_t> ux(0, p.w - 1), uy(0, p.h - 1);
  std::uniform_real_distribution<double> uv(-3, 10);
  for (int i = 0; i < 600; ++i) {
    uint32_t x = ux(rng), y = uy(rng);
    double v = uv(rng);
    oracle.Update(x, y, v);
    prefix.Update(x, y, v);
    blocked.Update(x, y, v);
    ASSERT_TRUE(bat.Insert(Point(x, y), v).ok());
  }
  for (int i = 0; i < 200; ++i) {
    uint32_t x1 = ux(rng), x2 = ux(rng), y1 = uy(rng), y2 = uy(rng);
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    double want = oracle.RangeSum(x1, y1, x2, y2);
    ASSERT_NEAR(prefix.RangeSum(x1, y1, x2, y2), want, 1e-7);
    ASSERT_NEAR(blocked.RangeSum(x1, y1, x2, y2), want, 1e-7);
    // BA-tree as a cube: 4-corner prefix trick over cell coordinates.
    auto bat_prefix = [&](double x, double y) {
      double s = 0;
      EXPECT_TRUE(bat.DominanceSum(Point(x, y), &s).ok());
      return s;
    };
    double got = bat_prefix(x2, y2) - bat_prefix(x1 - 0.5, y2) -
                 bat_prefix(x2, y1 - 0.5) + bat_prefix(x1 - 0.5, y1 - 0.5);
    ASSERT_NEAR(got, want, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CubeSweep,
    ::testing::Values(CubeParam{16, 16, 4}, CubeParam{64, 64, 8},
                      CubeParam{100, 40, 7},   // block doesn't divide side
                      CubeParam{33, 97, 16}),  // narrow, tall, big blocks
    [](const ::testing::TestParamInfo<CubeParam>& info) {
      return info.param.Name();
    });

TEST(BlockedPrefixCube, UpdateCostBetweenPrefixAndLog) {
  BlockedPrefixCube cube(256, 256, 16);
  PrefixSumCube flat(256, 256);
  // Worst-case update: blocked touches ~block^2 + grid^2 cells, far fewer
  // than the flat cube's 256^2.
  EXPECT_LT(cube.UpdateCost(0, 0), flat.UpdateCost(0, 0) / 50);
}

TEST(BlockedPrefixCube, EdgePartialBlocks) {
  BlockedPrefixCube cube(10, 10, 4);  // 3x3 blocks, last ones partial
  DenseCube oracle(10, 10);
  for (uint32_t x = 0; x < 10; ++x) {
    for (uint32_t y = 0; y < 10; ++y) {
      double v = static_cast<double>(x * 10 + y);
      cube.Update(x, y, v);
      oracle.Update(x, y, v);
    }
  }
  for (uint32_t x = 0; x < 10; ++x) {
    for (uint32_t y = 0; y < 10; ++y) {
      ASSERT_NEAR(cube.RangeSum(0, 0, x, y), oracle.RangeSum(0, 0, x, y),
                  1e-9)
          << x << "," << y;
    }
  }
}

TEST(PrefixSumCube, MemoryAccounting) {
  PrefixSumCube cube(100, 100);
  EXPECT_EQ(cube.MemoryBytes(), 101u * 101u * sizeof(double));
  BlockedPrefixCube blocked(100, 100, 10);
  EXPECT_GT(blocked.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace boxagg
