// BatchDescent<NodeOps>: the one batched root-to-leaf walk of AggBTree,
// EcdfBTree, PackedBaTree and CompactReplica. The skeleton owns the entry
// and every fetch, visit note and side probe of the walk; each tree
// supplies only its node decode and routing as a NodeOps struct (Empty,
// Open, Leaf, Route, and Less, SideProbe or Base where it sorts its
// probes, defers side probes or has a 1-d case), a template argument with
// no virtual call.
// DESIGN.md §8 states the contract and what runs while a node is pinned.

#ifndef BOXAGG_CORE_BATCH_DESCENT_H_
#define BOXAGG_CORE_BATCH_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "core/arena.h"
#include "geom/point.h"
#include "obs/query_obs.h"
#include "storage/buffer_pool.h"

namespace boxagg {

// LINT:hot-path — the batched descent: no heap allocation past warm-up

/// Side-probe type of a tree whose routing defers none.
struct NoSide {};

/// A BA record's border spilled to its own (d-1)-dim tree: the side probe
/// PackedBaTree and CompactReplica defer to after the unpin.
template <class NodeId>
struct SpilledBorder {
  int dim;      // the border's dimension
  NodeId root;  // its tree
};

/// One node's routing, filled by NodeOps::Route while the node is pinned:
/// the per-child groups, each with the side probes deferred for its probes
/// to after the unpin. Route reserves room first; one group stays in the
/// routing itself, so a one-probe walk takes no arena memory.
template <class NodeId, class Side>
class BatchRouting {
 public:
  struct Group {
    NodeId child;
    uint32_t slot;  // the child's entry in its node (route or record index)
    size_t begin;   // idx[begin, end) go to `child`
    size_t end;
    int n_sides;
    Side sides[kMaxDims];  // in the order Route deferred them
  };

  void Reserve(core::Arena& arena, size_t groups) {
    groups_ = core::ScratchArray(arena, groups, &one_);
  }
  void Add(NodeId child, uint32_t slot, size_t begin, size_t end) {
    groups_[n_++] = Group{child, slot, begin, end, 0, {}};
  }
  /// A side probe for the group added last.
  void Defer(const Side& side) {
    Group& g = groups_[n_ - 1];
    g.sides[g.n_sides++] = side;
  }
  std::span<const Group> groups() const { return {groups_, n_}; }

 private:
  Group* groups_ = nullptr;
  size_t n_ = 0;
  Group one_;
};

/// The shared part of a page tree's NodeOps: a node is a page, a leaf when
/// its type (the u16 at offset 0) is kLeafType.
template <class V, class P, uint16_t kLeafType, class S = NoSide>
struct PageTreeOps {
  using Value = V;
  using Probe = P;
  using NodeId = PageId;
  using Node = const Page*;
  using Side = S;

  BufferPool* pool;
  core::Arena* arena;
  const P* qs;
  V* outs;

  bool Empty(PageId root) const { return root == kInvalidPageId; }
  Status Open(PageId pid, PageGuard* g, Node* page, bool* leaf) const {
    BOXAGG_RETURN_NOT_OK(pool->Fetch(pid, g));
    *page = g->page();
    *leaf = (*page)->ReadAt<uint16_t>(0) == kLeafType;
    return Status::OK();
  }
};

template <class Ops>
struct BatchDescent {
  using V = typename Ops::Value;
  using NodeId = typename Ops::NodeId;

  /// outs[i] = the dominance sum of ops.qs[i] below `root`, i < count.
  /// `clamp_infinity` lowers every coordinate to the largest finite double,
  /// which dominates every storable point, so an unbounded query side works.
  /// An ops whose Base() returns ops (its tree is 1-d) hands the whole
  /// batch to them before any other work.
  static Status Run(Ops ops, NodeId root, size_t count, unsigned level,
                    bool clamp_infinity = false) {
    if constexpr (requires { ops.Base(); }) {
      if (auto base = ops.Base()) {
        using Base = typename decltype(base)::value_type;
        return BatchDescent<Base>::Run(*base, root, count, level,
                                       clamp_infinity);
      }
    }
    for (size_t i = 0; i < count; ++i) ops.outs[i] = V{};
    if (ops.Empty(root) || count == 0) return Status::OK();
    core::Arena& arena = *ops.arena;
    core::ArenaScope scope(arena);
    [[maybe_unused]] typename Ops::Probe one_q;
    if constexpr (std::is_same_v<typename Ops::Probe, Point>) {
      if (clamp_infinity) {
        constexpr double kMax = std::numeric_limits<double>::max();
        Point* qs = core::ScratchArray(arena, count, &one_q);
        for (size_t i = 0; i < count; ++i) {
          qs[i] = ops.qs[i];
          for (double& c : qs[i].coord) c = std::min(c, kMax);
        }
        ops.qs = qs;
      }
    }
    uint32_t one = 0;
    uint32_t* idx = core::ScratchArray(arena, count, &one);
    for (size_t i = 0; i < count; ++i) idx[i] = static_cast<uint32_t>(i);
    if constexpr (requires { ops.Less(ops.qs[0], ops.qs[0]); }) {
      if (count > 1) {
        std::sort(idx, idx + count, [&ops](uint32_t a, uint32_t b) {
          return ops.Less(ops.qs[a], ops.qs[b]) ||
                 (!ops.Less(ops.qs[b], ops.qs[a]) && a < b);
        });
      }
    }
    return Descend(ops, root, idx, count, level);
  }

  /// The walk below `node`: idx[0, m) are the probes whose paths all pass
  /// through it. While every probe takes the same child the walk continues
  /// in place; a node that splits the probes recurses once per child.
  static Status Descend(const Ops& ops, NodeId node, uint32_t* idx, size_t m,
                        unsigned level) {
    for (;; ++level) {
      core::ArenaScope scope(*ops.arena);
      BatchRouting<NodeId, typename Ops::Side> r;
      {
        PageGuard g;
        typename Ops::Node view{};
        bool leaf = false;
        BOXAGG_RETURN_NOT_OK(ops.Open(node, &g, &view, &leaf));
        obs::NoteNodeVisit(level);
        if (m > 1) ops.pool->NoteProbeFetchesSaved(m - 1);
        if (leaf) return ops.Leaf(view, idx, m);
        BOXAGG_RETURN_NOT_OK(ops.Route(view, idx, m, level, &r));
      }
      const auto groups = r.groups();
      if constexpr (!std::is_same_v<typename Ops::Side, NoSide>) {
        for (const auto& gr : groups) {
          for (int s = 0; s < gr.n_sides; ++s) {
            BOXAGG_RETURN_NOT_OK(ops.SideProbe(gr.sides[s], idx + gr.begin,
                                               gr.end - gr.begin, level + 1));
          }
        }
      }
      if (groups.size() == 1) {  // one child takes every probe: walk on
        node = groups[0].child;
        continue;
      }
      for (const auto& gr : groups) {
        BOXAGG_RETURN_NOT_OK(Descend(ops, gr.child, idx + gr.begin,
                                     gr.end - gr.begin, level + 1));
      }
      return Status::OK();
    }
  }
};

/// Probes the border structure below `root` with `members`' queries, each
/// projected by dropping dimension `drop` of `dims`. `sub` is the border's
/// ops, still holding the parent's qs and outs: the projected points and the
/// partial sums (zeroed by Run) live under their own ArenaScope, and each
/// member then adds its partial as one value, in member order. Inlined
/// into the level loop that defers the side probe: out of line, its frame
/// and Status hand-off cost ~40 instructions per spilled border probe.
template <class Ops>
[[gnu::always_inline]] inline Status SideBatch(
    Ops sub, typename Ops::NodeId root, const uint32_t* members, size_t m,
    int drop, int dims, unsigned level) {
  using V = typename Ops::Value;
  core::ArenaScope scope(*sub.arena);
  Point one_pt;
  V one_part{};
  Point* pts = core::ScratchArray(*sub.arena, m, &one_pt);
  V* parts = core::ScratchArray(*sub.arena, m, &one_part);
  for (size_t t = 0; t < m; ++t) {
    pts[t] = sub.qs[members[t]].DropDim(drop, dims);
  }
  obs::NoteBorderProbes(m);
  V* outs = sub.outs;
  sub.qs = pts;
  sub.outs = parts;
  BOXAGG_RETURN_NOT_OK(BatchDescent<Ops>::Run(sub, root, m, level));
  for (size_t t = 0; t < m; ++t) {
    const V part = parts[t];  // a copy GCC can prove apart from outs:
    outs[members[t]] += part;  // Poly2<3> takes 2 vaddpd, not 16 vaddsd
  }
  return Status::OK();
}

// LINT:hot-path-end

}  // namespace boxagg

#endif  // BOXAGG_CORE_BATCH_DESCENT_H_
