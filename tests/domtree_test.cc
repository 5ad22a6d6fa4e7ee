// Unit and property tests for dominator trees: golden structures, the
// Semi-NCA vs. naive-iterative cross-validation, the tree order both
// produce, and subtree sizes (Theorem 6's σ→u machinery).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "domtree/dominator_tree.h"
#include "gen/generators.h"
#include "graph/traversal.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

// Builds a FlatGraphView-compatible CSR from an edge list.
struct FlatGraph {
  std::vector<uint32_t> offsets;
  std::vector<VertexId> targets;

  FlatGraph(VertexId n, std::vector<std::pair<VertexId, VertexId>> edges) {
    offsets.assign(n + 1, 0);
    for (auto [u, v] : edges) ++offsets[u + 1];
    for (VertexId i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    targets.resize(edges.size());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (auto [u, v] : edges) targets[cursor[u]++] = v;
  }

  explicit FlatGraph(const Graph& g) {
    offsets.assign(g.NumVertices() + 1, 0);
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      offsets[u + 1] = offsets[u] + g.OutDegree(u);
    }
    targets.reserve(g.NumEdges());
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v : g.OutNeighbors(u)) targets.push_back(v);
    }
  }

  FlatGraphView View() const {
    return FlatGraphView{{offsets.data(), offsets.size()},
                         {targets.data(), targets.size()}};
  }
};

// A chain 0→1→…→n-1 with a back edge v→v/2 at every 16th vertex: deep
// trees, where the nearest-common-ancestor walks are longest.
FlatGraph DeepChainWithBackEdges(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < n; ++v) {
    if (v + 1 < n) edges.emplace_back(v, v + 1);
    if (v >= 2 && v % 16 == 0) edges.emplace_back(v, v / 2);
  }
  return FlatGraph(n, std::move(edges));
}

// The order contract: every reachable vertex exactly once, the root first,
// and every idom before its vertex.
void ExpectOrderContract(const DominatorTree& tree) {
  const auto n = static_cast<VertexId>(tree.idom.size());
  ASSERT_FALSE(tree.order.empty());
  EXPECT_EQ(tree.order[0], tree.root);
  std::vector<uint32_t> position(n, UINT32_MAX);
  for (uint32_t i = 0; i < tree.order.size(); ++i) {
    const VertexId v = tree.order[i];
    ASSERT_LT(v, n);
    ASSERT_EQ(position[v], UINT32_MAX) << "vertex " << v << " listed twice";
    position[v] = i;
  }
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(position[v] != UINT32_MAX, tree.Reachable(v)) << "vertex " << v;
    if (v != tree.root && tree.Reachable(v)) {
      EXPECT_LT(position[tree.idom[v]], position[v]) << "vertex " << v;
    }
  }
}

void ExpectSameIdoms(const DominatorTree& fast, const DominatorTree& naive) {
  ASSERT_EQ(fast.idom.size(), naive.idom.size());
  for (VertexId v = 0; v < fast.idom.size(); ++v) {
    EXPECT_EQ(fast.idom[v], naive.idom[v]) << "vertex " << v;
  }
}

TEST(DominatorTreeTest, DiamondIdoms) {
  // 0→1, 0→2, 1→3, 2→3: idom(3) = 0 (two disjoint paths).
  FlatGraph g(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  EXPECT_EQ(tree.idom[0], kInvalidVertex);
  EXPECT_EQ(tree.idom[1], 0u);
  EXPECT_EQ(tree.idom[2], 0u);
  EXPECT_EQ(tree.idom[3], 0u);
}

TEST(DominatorTreeTest, ChainIdoms) {
  FlatGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  EXPECT_EQ(tree.idom[1], 0u);
  EXPECT_EQ(tree.idom[2], 1u);
  EXPECT_EQ(tree.idom[3], 2u);
}

TEST(DominatorTreeTest, UnreachableVerticesMarked) {
  FlatGraph g(5, {{0, 1}, {3, 4}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  EXPECT_TRUE(tree.Reachable(0));
  EXPECT_TRUE(tree.Reachable(1));
  EXPECT_FALSE(tree.Reachable(3));
  EXPECT_FALSE(tree.Reachable(4));
  EXPECT_EQ(tree.idom[3], kInvalidVertex);
}

TEST(DominatorTreeTest, TarjanPaperFixture) {
  // The classic 13-vertex example from the Lengauer-Tarjan paper (vertices
  // R,A..L mapped to 0..12 = R,A,B,C,D,E,F,G,H,I,J,K,L).
  //   R: A,B,C  A: D  B: A,D,E  C: F,G  D: L  E: H  F: I  G: I,J
  //   H: E,K   I: K  J: I      K: R,I  L: H
  const VertexId R = 0, A = 1, B = 2, C = 3, D = 4, E = 5, F = 6, G = 7,
                 H = 8, I = 9, J = 10, K = 11, L = 12;
  FlatGraph g(13, {{R, A}, {R, B}, {R, C}, {A, D}, {B, A}, {B, D}, {B, E},
                   {C, F}, {C, G}, {D, L}, {E, H}, {F, I}, {G, I}, {G, J},
                   {H, E}, {H, K}, {I, K}, {J, I}, {K, R}, {K, I}, {L, H}});
  DominatorTree tree = ComputeDominatorTree(g.View(), R);
  // Published idoms: idom(A)=idom(B)=idom(C)=R; idom(D)=R; idom(E)=R;
  // idom(F)=idom(G)=C; idom(H)=R; idom(I)=R; idom(J)=G; idom(K)=R;
  // idom(L)=D.
  EXPECT_EQ(tree.idom[A], R);
  EXPECT_EQ(tree.idom[B], R);
  EXPECT_EQ(tree.idom[C], R);
  EXPECT_EQ(tree.idom[D], R);
  EXPECT_EQ(tree.idom[E], R);
  EXPECT_EQ(tree.idom[F], C);
  EXPECT_EQ(tree.idom[G], C);
  EXPECT_EQ(tree.idom[H], R);
  EXPECT_EQ(tree.idom[I], R);
  EXPECT_EQ(tree.idom[J], G);
  EXPECT_EQ(tree.idom[K], R);
  EXPECT_EQ(tree.idom[L], D);
}

TEST(DominatorTreeTest, DominatesQuery) {
  FlatGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  EXPECT_TRUE(tree.Dominates(0, 3));
  EXPECT_TRUE(tree.Dominates(1, 3));
  EXPECT_TRUE(tree.Dominates(3, 3));
  EXPECT_FALSE(tree.Dominates(3, 1));
}

TEST(DominatorTreeTest, PaperFigure1FullGraphDominators) {
  // In the Figure-1 graph with ALL edges treated as present (sampled graph 1
  // of Figure 3), idom(v8) = v5 and the v5 subtree is
  // {v5, v3, v6, v9, v8, v7} — size 6 (paper Example 2's 5.1 = 5 + 0.1
  // decomposes into this world and the no-(v8,v7) world).
  FlatGraph g(testing::PaperFigure1Graph());
  DominatorTree tree = ComputeDominatorTree(g.View(), testing::kV1);
  EXPECT_EQ(tree.idom[testing::kV8], testing::kV5);
  EXPECT_EQ(tree.idom[testing::kV5], testing::kV1);  // two paths via v2/v4
  EXPECT_EQ(tree.idom[testing::kV7], testing::kV8);
  auto sizes = ComputeSubtreeSizes(tree);
  EXPECT_EQ(sizes[testing::kV5], 6u);
  EXPECT_EQ(sizes[testing::kV1], 9u);
  EXPECT_EQ(sizes[testing::kV2], 1u);
  EXPECT_EQ(sizes[testing::kV9], 1u);  // v8 not dominated by v9 here
}

TEST(SubtreeSizesTest, ChainSizes) {
  FlatGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  auto sizes = ComputeSubtreeSizes(tree);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 2u);
  EXPECT_EQ(sizes[3], 1u);
}

TEST(SubtreeSizesTest, UnreachableGetZero) {
  FlatGraph g(5, {{0, 1}, {3, 4}});
  DominatorTree tree = ComputeDominatorTree(g.View(), 0);
  auto sizes = ComputeSubtreeSizes(tree);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[3], 0u);
  EXPECT_EQ(sizes[4], 0u);
}

TEST(DomTreeDifferential, DeepChainWithBackEdgesMatchesNaive) {
  FlatGraph g = DeepChainWithBackEdges(4000);
  DominatorTree fast = ComputeDominatorTree(g.View(), 0);
  DominatorTree naive = ComputeDominatorTreeNaive(g.View(), 0);
  ExpectSameIdoms(fast, naive);
  ExpectOrderContract(fast);
  ExpectOrderContract(naive);
  EXPECT_EQ(ComputeSubtreeSizes(fast), ComputeSubtreeSizes(naive));
}

TEST(DomTreeDifferential, ReusedWorkspaceMatchesNaiveAsGraphsShrinkAndGrow) {
  // One workspace across graphs of very different sizes: stale semi_,
  // dom_ or ancestor_ entries from a larger graph must not leak into a
  // smaller one, nor the other way round.
  DominatorWorkspace workspace;
  DominatorTree tree;
  std::vector<VertexId> sizes;
  uint64_t seed = 40;
  for (auto [n, m] : {std::pair<VertexId, EdgeId>{500, 2000}, {12, 30},
                      {1000, 3000}, {3, 2}, {200, 800}, {2, 1}, {60, 400}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    FlatGraph g(GenerateErdosRenyi(n, m, ++seed));
    workspace.ComputeDominatorTreeInto(g.View(), 0, &tree);
    DominatorTree naive = ComputeDominatorTreeNaive(g.View(), 0);
    ExpectSameIdoms(tree, naive);
    ExpectOrderContract(tree);
    workspace.ComputeSubtreeSizesInto(tree, &sizes);
    EXPECT_EQ(sizes, ComputeSubtreeSizes(naive));
  }
  FlatGraph deep = DeepChainWithBackEdges(2000);
  workspace.ComputeDominatorTreeInto(deep.View(), 0, &tree);
  ExpectSameIdoms(tree, ComputeDominatorTreeNaive(deep.View(), 0));
}

// ---------------------- Semi-NCA ≡ naive on random graphs -----------------
//
// The case names predate Semi-NCA; they are kept so the ctest ids stay put.

// gtest has no printer for this struct, so it prints the parameter as its
// 24 raw bytes, and gtest_discover_tests builds each case's ctest name from
// that print. Bytes 4..7 used to be padding, whose contents (left over on
// the stack during static initialisation) changed from build to build and
// run to run, and the names with them. `name_tag` makes those bytes part of
// the value, so every case keeps the name it is registered under.
struct RandomGraphParam {
  VertexId n;
  uint32_t name_tag;
  EdgeId m;
  uint64_t seed;
};
static_assert(sizeof(RandomGraphParam) == 24 &&
                  std::has_unique_object_representations_v<RandomGraphParam>,
              "RandomGraphParam must have no padding bytes");

constexpr RandomGraphParam Param(VertexId n, EdgeId m, uint64_t seed,
                                 uint32_t name_tag = 0) {
  return RandomGraphParam{n, name_tag, m, seed};
}

class DomTreeEquivalence : public ::testing::TestWithParam<RandomGraphParam> {};

TEST_P(DomTreeEquivalence, LengauerTarjanMatchesNaive) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.m, p.seed);
  FlatGraph fg(g);
  DominatorTree fast = ComputeDominatorTree(fg.View(), 0);
  DominatorTree naive = ComputeDominatorTreeNaive(fg.View(), 0);
  ASSERT_EQ(fast.idom.size(), naive.idom.size());
  for (VertexId v = 0; v < p.n; ++v) {
    EXPECT_EQ(fast.idom[v], naive.idom[v]) << "vertex " << v;
  }
}

TEST_P(DomTreeEquivalence, OrderIsDfsPreorderAndListsIdomsFirst) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.m, p.seed);
  FlatGraph fg(g);
  DominatorTree fast = ComputeDominatorTree(fg.View(), 0);
  ExpectOrderContract(fast);
  ExpectOrderContract(ComputeDominatorTreeNaive(fg.View(), 0));
  EXPECT_EQ(fast.order, DfsPreorder(g, 0));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DomTreeEquivalence,
    ::testing::Values(Param(10, 15, 1), Param(10, 30, 2),
                      Param(50, 100, 3, 0x65657274),
                      Param(50, 300, 4),
                      Param(200, 500, 5, 0x002c3b03),
                      Param(200, 2000, 6, 0xefe00000),
                      Param(500, 1500, 7),
                      Param(1000, 5000, 8, 0xcac00000)));

class DomTreeRmatEquivalence
    : public ::testing::TestWithParam<RandomGraphParam> {};

TEST_P(DomTreeRmatEquivalence, LengauerTarjanMatchesNaiveOnRmat) {
  const auto& p = GetParam();
  Graph g = GenerateRmat(8, p.m, 0.57, 0.19, 0.19, p.seed);
  FlatGraph fg(g);
  // Root at the first vertex with nonzero out-degree.
  VertexId root = 0;
  while (root < g.NumVertices() && g.OutDegree(root) == 0) ++root;
  ASSERT_LT(root, g.NumVertices());
  DominatorTree fast = ComputeDominatorTree(fg.View(), root);
  DominatorTree naive = ComputeDominatorTreeNaive(fg.View(), root);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(fast.idom[v], naive.idom[v]) << "vertex " << v;
  }
}

TEST_P(DomTreeRmatEquivalence, OrderIsDfsPreorderAndListsIdomsFirstOnRmat) {
  const auto& p = GetParam();
  Graph g = GenerateRmat(8, p.m, 0.57, 0.19, 0.19, p.seed);
  FlatGraph fg(g);
  VertexId root = 0;
  while (root < g.NumVertices() && g.OutDegree(root) == 0) ++root;
  ASSERT_LT(root, g.NumVertices());
  DominatorTree fast = ComputeDominatorTree(fg.View(), root);
  ExpectOrderContract(fast);
  ExpectOrderContract(ComputeDominatorTreeNaive(fg.View(), root));
  EXPECT_EQ(fast.order, DfsPreorder(g, root));
}

INSTANTIATE_TEST_SUITE_P(RmatGraphs, DomTreeRmatEquivalence,
                         ::testing::Values(Param(0, 500, 11),
                                           Param(0, 1000, 12, 0xffffffff),
                                           Param(0, 2000, 13),
                                           Param(0, 4000, 14, 0x00007f58)));

// Semantic property: u dominates v iff removing u disconnects v from the
// root. Verified by brute force on small random graphs.
class DomSemantics : public ::testing::TestWithParam<RandomGraphParam> {};

TEST_P(DomSemantics, SubtreeMembershipEqualsCutReachability) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.m, p.seed);
  FlatGraph fg(g);
  DominatorTree tree = ComputeDominatorTree(fg.View(), 0);
  for (VertexId u = 1; u < p.n; ++u) {
    if (!tree.Reachable(u)) continue;
    VertexMask blocked(p.n);
    blocked.Set(u);
    std::vector<uint8_t> still(p.n, 0);
    for (VertexId v : ReachableFrom(g, 0, &blocked)) still[v] = 1;
    for (VertexId v = 0; v < p.n; ++v) {
      if (!tree.Reachable(v)) continue;
      const bool dominated = tree.Dominates(u, v);
      EXPECT_EQ(dominated, !still[v])
          << "u=" << u << " v=" << v << " (dominated must equal cut)";
    }
  }
}

// Theorem 6: size[u] is the number of vertices that blocking u cuts off
// from the root (u included), for both algorithms' trees.
TEST_P(DomSemantics, SubtreeSizesEqualCutCounts) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.m, p.seed);
  FlatGraph fg(g);
  const VertexId reachable = CountReachable(g, 0);
  for (const DominatorTree& tree : {ComputeDominatorTree(fg.View(), 0),
                                    ComputeDominatorTreeNaive(fg.View(), 0)}) {
    const std::vector<VertexId> sizes = ComputeSubtreeSizes(tree);
    EXPECT_EQ(sizes[0], reachable);
    for (VertexId u = 1; u < p.n; ++u) {
      VertexMask blocked(p.n);
      blocked.Set(u);
      EXPECT_EQ(sizes[u], reachable - CountReachable(g, 0, &blocked))
          << "u=" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallRandom, DomSemantics,
                         ::testing::Values(Param(12, 20, 21),
                                           Param(12, 40, 22, 0xffffffff),
                                           Param(20, 60, 23),
                                           Param(30, 90, 24, 0x00007f58)));

}  // namespace
}  // namespace vblock
