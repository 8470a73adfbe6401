// functional: Fig. 9c's functional box-sum. Degree-2 value functions on the
// paper's rectangles, indexed by FunctionalBoxSumIndex over a Poly2-valued
// PackedBaTree on an in-memory page file whose buffer holds the whole index.
// It is the only workload that runs the second corner reduction and
// src/poly.

#include <memory>

#include "batree/packed_ba_tree.h"
#include "core/functional_box_sum.h"
#include "harness.h"
#include "poly/poly2.h"
#include "storage/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kDeg = 3;  // per-variable bound for total-degree-2 functions
using Poly = boxagg::Poly2<kDeg>;
using Tree = boxagg::PackedBaTree<Poly>;
using Index = boxagg::FunctionalBoxSumIndex<Tree, kDeg>;
constexpr double kQbs = 0.01;  // Fig. 9c's query box size

/// FunctionalBoxSumIndex::Query's steps, issued from here with a span
/// around each descent; same arithmetic in the same order.
Status TracedQuery(Index& index, const Box& q, double* out) {
  ScopedSpan span(Layer::kFunctionalQuery);
  *out = 0;
  for (uint32_t mask = 0; mask < 4; ++mask) {
    const Point corner = q.Corner(mask, /*dims=*/2);
    Poly agg;
    {
      ScopedSpan descent(Layer::kFunctionalDescent);
      BOXAGG_RETURN_NOT_OK(index.index().DominanceSum(corner, &agg));
    }
    const double sign = ((2 - __builtin_popcount(mask)) % 2 == 0) ? 1.0 : -1.0;
    *out += sign * agg.Evaluate(corner[0], corner[1]);
  }
  return Status::OK();
}

/// NaiveFunctionalBoxSum plus the error-bound magnitude: M sums, over the
/// four query corners, every dominated corner-update tuple evaluated with
/// absolute coefficients, plus |contribution| of every object.
class FunctionalOracle {
 public:
  explicit FunctionalOracle(const std::vector<boxagg::FunctionalObject>& objs) {
    for (const auto& ob : objs) {
      naive_.Insert(ob.box, ob.f);
      for (const auto& u : boxagg::MakeCornerUpdates<kDeg>(ob.box, ob.f)) {
        Poly abs = u.value;
        for (double& c : abs.c) c = std::fabs(c);
        updates_.push_back({u.point, abs});
      }
    }
  }

  Expected Check(const Box& q) const {
    Expected e;
    e.value = naive_.Sum(q);
    for (uint32_t mask = 0; mask < 4; ++mask) {
      const Point corner = q.Corner(mask, /*dims=*/2);
      for (const auto& [pt, abs] : updates_) {
        if (corner.Dominates(pt, 2)) {
          e.magnitude +=
              abs.Evaluate(std::fabs(corner[0]), std::fabs(corner[1]));
        }
      }
    }
    for (const auto& ob : naive_.objects()) {
      e.magnitude +=
          std::fabs(boxagg::IntegralOverIntersection(ob.box, ob.f, q));
    }
    return e;
  }

 private:
  boxagg::NaiveFunctionalBoxSum naive_;
  std::vector<std::pair<Point, Poly>> updates_;
};

Status QueryOne(Index& index, bool traced, const Box& q, double* out) {
  return traced ? TracedQuery(index, q, out) : index.Query(q, out);
}

}  // namespace

void RunFunctional(const Options& o, Report* r) {
  const size_t n = o.tiny ? 2000 : 50000;
  const std::vector<boxagg::FunctionalObject> objs =
      boxagg::workload::MakeFunctional(PaperObjects(n, o.seed), /*degree=*/2,
                                       Mix(o.seed, 1));
  const size_t count_queries = o.tiny ? 100 : 1000;
  StoreConfig c;
  c.pool_pages = n * 3 / 4 + 1024;  // the whole index (~0.55 pages/object)
  auto make_index = [](boxagg::BufferPool* pool) {
    return std::make_unique<Index>(Tree(pool, 2));
  };
  auto count_pass = [&](Setup<Index>& s, bool traced) {
    CountSignature sig;
    BoxStream stream(Mix(o.seed, 2), {kQbs});
    const IoStats io0 = s.pool->stats();
    for (size_t i = 0; i < count_queries; ++i) {
      double v = 0;
      if (Status st = QueryOne(*s.index, traced, stream.Next(), &v); !st.ok()) {
        r->OpFailed(st, "count pass query");
      }
      sig.answers.push_back(v);
    }
    sig.io = sig.query_io = s.pool->stats().Since(io0);
    sig.queries = count_queries;
    return sig;
  };
  std::unique_ptr<Setup<Index>> s =
      SetUpAndCount<Index>(o, c, objs, make_index, count_pass, r);
  if (!s) return;

  Recorded recorded;
  recorded.cap = o.tiny ? 32 : 128;
  BoxStream stream(Mix(o.seed, 3), {kQbs});
  const IoStats before = s->pool->stats();
  RunTimed(
      o, o.tiny ? 10 : 1000, 0,
      [&](bool traced, int64_t deadline, size_t min_steps, Samples* out) {
        uint32_t request = 0;
        while (NowNs() < deadline || out->step_us.size() < min_steps) {
          const Box q = stream.Next();
          SetRequest(++request);
          ScopedSpan op(Layer::kClientOp);
          double v = 0;
          const int64_t t0 = NowNs();
          const Status st = QueryOne(*s->index, traced, q, &v);
          const double ns = static_cast<double>(NowNs() - t0);
          out->step_us.push_back(ns / 1e3);
          out->query_us.push_back(ns / 1e3);
          out->op_ns += ns;
          ++out->ops;
          ++out->answers;
          ++r->attempted;
          if (!st.ok()) r->OpFailed(st, "query");
          recorded.Add(q, v);
        }
      },
      r);
  const IoStats d = s->pool->stats().Since(before);
  if (d.physical_reads != 0 || d.evictions != 0) {
    r->Error("functional: the buffer pool did not hold the whole index");
  }

  const FunctionalOracle oracle(objs);
  recorded.Check(
      o, [&oracle](const Box& q) { return oracle.Check(q); }, objs.size(), r);
  MeasureDecode(s->base.get(), r);
}

}  // namespace perfbench
