// Page-level goldens of insert-built page trees: the bytes of every live
// page, the tree's PageCount, and the order in which Destroy hands pages back
// to the free list. Bulk loads are pinned elsewhere (the *PageImageGolden
// tests); these cases pin the insert paths instead: B+-tree leaf and internal
// splits, ECDF-B-tree border maintenance (Bu and Bq), BA-tree record splits
// with spilled 1-d border trees, and R*-tree forced reinsertion. Inputs come
// straight from std::mt19937 (no distributions), so they are the same under
// every standard library.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "ecdf/ecdf_btree.h"
#include "poly/poly2.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* b = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 0x100000001b3ull;  // FNV-1a
  }
}

struct Fingerprint {
  uint64_t pages_hash = 0xcbf29ce484222325ull;  // live page bytes, id order
  uint64_t page_count = 0;                      // the tree's PageCount
  uint64_t free_hash = 0xcbf29ce484222325ull;   // free list after Destroy
};

// Fills `tree` through `fill`, then fingerprints it: the bytes of every page
// not on the free list after a flush, PageCount, and the free list that
// Destroy leaves behind.
template <class Tree>
Fingerprint Take(MemPageFile* file, BufferPool* pool, Tree* tree,
                 const std::function<void(Tree*)>& fill) {
  Fingerprint f;
  fill(tree);
  EXPECT_TRUE(pool->FlushAll().ok());
  const std::set<PageId> freed(file->free_list().begin(),
                               file->free_list().end());
  Page page(file->page_size());
  for (PageId id = 0; id < file->page_count(); ++id) {
    if (freed.count(id) != 0) continue;
    EXPECT_TRUE(file->ReadPage(id, &page).ok());
    HashBytes(page.data(), page.size(), &f.pages_hash);
  }
  EXPECT_TRUE(tree->PageCount(&f.page_count).ok());
  EXPECT_TRUE(tree->Destroy().ok());
  EXPECT_EQ(file->live_page_count(), 0u);
  for (PageId id : file->free_list()) {
    HashBytes(&id, sizeof(id), &f.free_hash);
  }
  return f;
}

// A coordinate on a coarse grid, so that keys and points repeat.
double Grid(std::mt19937* rng, uint32_t cells, double step) {
  return static_cast<double>((*rng)() % cells) * step;
}

double SmallValue(std::mt19937* rng) {
  return static_cast<double>((*rng)() % 17) - 8.0;
}

Poly2<3> PolyValue(std::mt19937* rng) {
  Poly2<3> p;
  for (size_t i = 0; i < p.c.size(); ++i) p.c[i] = SmallValue(rng);
  return p;
}

template <class V>
Fingerprint AggCase(uint32_t page_size, int n,
                    const std::function<V(std::mt19937*)>& value) {
  MemPageFile file(page_size);
  BufferPool pool(&file, 128);
  AggBTree<V> tree(&pool);
  return Take<AggBTree<V>>(&file, &pool, &tree, [&](AggBTree<V>* t) {
    std::mt19937 rng(11);
    for (int i = 0; i < n; ++i) {
      const double key = Grid(&rng, 2000, 0.5);
      ASSERT_TRUE(t->Insert(key, value(&rng)).ok());
    }
  });
}

Point GridPoint(std::mt19937* rng, int dims) {
  Point p;
  for (int d = 0; d < dims; ++d) p[d] = Grid(rng, 48, 0.25);
  return p;
}

Fingerprint EcdfCase(int dims, EcdfVariant variant, int n) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  EcdfBTree<double> tree(&pool, dims, variant);
  return Take<EcdfBTree<double>>(
      &file, &pool, &tree, [&](EcdfBTree<double>* t) {
        std::mt19937 rng(static_cast<uint32_t>(20 + dims));
        for (int i = 0; i < n; ++i) {
          const Point p = GridPoint(&rng, dims);
          ASSERT_TRUE(t->Insert(p, SmallValue(&rng)).ok());
        }
      });
}

// Most points sit on a thin band, so a few borders grow far past the inline
// cap and their spilled 1-d trees split.
Fingerprint BaCase(int dims, int n) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, dims);
  return Take<PackedBaTree<double>>(
      &file, &pool, &tree, [&](PackedBaTree<double>* t) {
        std::mt19937 rng(static_cast<uint32_t>(30 + dims));
        for (int i = 0; i < n; ++i) {
          Point p;
          for (int d = 0; d < dims; ++d) p[d] = Grid(&rng, 4096, 1.0 / 16);
          if (i % 5 != 0) p[1] = Grid(&rng, 16, 1.0 / 64);
          ASSERT_TRUE(t->Insert(p, SmallValue(&rng)).ok());
        }
      });
}

Fingerprint RStarCase(int n) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  RStarTree<> tree(&pool, 2);
  return Take<RStarTree<>>(&file, &pool, &tree, [&](RStarTree<>* t) {
    std::mt19937 rng(41);
    for (int i = 0; i < n; ++i) {
      const double x = Grid(&rng, 1000, 0.001);
      const double y = Grid(&rng, 1000, 0.001);
      const double w = Grid(&rng, 30, 0.001);
      const double h = Grid(&rng, 30, 0.001);
      ASSERT_TRUE(t->Insert(Box(Point(x, y), Point(x + w, y + h)),
                            SmallValue(&rng))
                      .ok());
    }
  });
}

struct GoldenCase {
  std::string name;
  std::function<Fingerprint()> run;
  Fingerprint want;
};

// Recorded before the B+-tree split and the owned-page walks were shared
// between the trees; the shared code must reproduce every value.
TEST(PageTreeGolden, InsertBuiltPagesAndFreeOrder) {
  const std::vector<GoldenCase> cases = {
      {"agg_double", [] { return AggCase<double>(256, 3000, SmallValue); },
       {2266827093816447316ull, 164, 5224883727606216613ull}},
      {"agg_poly", [] { return AggCase<Poly2<3>>(1024, 1500, PolyValue); },
       {4143277925930913980ull, 272, 9503379859418358869ull}},
      {"ecdf_bu_2d",
       [] { return EcdfCase(2, EcdfVariant::kUpdateOptimized, 1500); },
       {1101385150447890872ull, 471, 12089759552923052665ull}},
      {"ecdf_bq_2d",
       [] { return EcdfCase(2, EcdfVariant::kQueryOptimized, 1000); },
       {1773654723018665727ull, 416, 9946929138976368953ull}},
      {"ecdf_bu_3d",
       [] { return EcdfCase(3, EcdfVariant::kUpdateOptimized, 800); },
       {4150298435527718757ull, 435, 16832642182096764901ull}},
      {"ecdf_bq_3d",
       [] { return EcdfCase(3, EcdfVariant::kQueryOptimized, 400); },
       {808813880481213009ull, 1343, 13646595710625781457ull}},
      {"ba_2d", [] { return BaCase(2, 4000); },
       {8575996803393897762ull, 2183, 8677068096944255238ull}},
      {"ba_3d", [] { return BaCase(3, 3000); },
       {17777966143505888713ull, 14768, 9263629262728172933ull}},
      {"rstar_2d", [] { return RStarCase(2000); },
       {2798878555991808258ull, 233, 13670961503086541133ull}},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Fingerprint got = c.run();
    EXPECT_EQ(got.pages_hash, c.want.pages_hash);
    EXPECT_EQ(got.page_count, c.want.page_count);
    EXPECT_EQ(got.free_hash, c.want.free_hash);
  }
}

}  // namespace
}  // namespace boxagg
