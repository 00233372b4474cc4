#include "metaheur/bstar.hpp"

#include <algorithm>
#include <numeric>

#include "metaheur/chains.hpp"

namespace afp::metaheur {

BStarTree BStarTree::random(int num_blocks, std::mt19937_64& rng) {
  BStarTree t;
  t.left.assign(static_cast<std::size_t>(num_blocks), -1);
  t.right.assign(static_cast<std::size_t>(num_blocks), -1);
  t.parent.assign(static_cast<std::size_t>(num_blocks), -1);
  std::uniform_int_distribution<int> shape(0, floorplan::kNumShapes - 1);
  t.shapes.resize(static_cast<std::size_t>(num_blocks));
  for (int& s : t.shapes) s = shape(rng);

  std::vector<int> order(static_cast<std::size_t>(num_blocks));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  t.root = order[0];
  std::vector<int> in_tree{t.root};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const int b = order[k];
    // Pick a random node with a free slot.
    while (true) {
      std::uniform_int_distribution<int> pick(
          0, static_cast<int>(in_tree.size()) - 1);
      const int host = in_tree[static_cast<std::size_t>(pick(rng))];
      const bool lfree = t.left[static_cast<std::size_t>(host)] < 0;
      const bool rfree = t.right[static_cast<std::size_t>(host)] < 0;
      if (!lfree && !rfree) continue;
      const bool use_left = lfree && (!rfree || coin(rng) < 0.5);
      (use_left ? t.left : t.right)[static_cast<std::size_t>(host)] = b;
      t.parent[static_cast<std::size_t>(b)] = host;
      break;
    }
    in_tree.push_back(b);
  }
  return t;
}

bool BStarTree::valid() const {
  const int n = size();
  if (n == 0) return true;
  if (root < 0 || root >= n || parent[static_cast<std::size_t>(root)] != -1) {
    return false;
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<int> st{root};
  int count = 0;
  while (!st.empty()) {
    const int b = st.back();
    st.pop_back();
    if (b < 0 || b >= n || seen[static_cast<std::size_t>(b)]) return false;
    seen[static_cast<std::size_t>(b)] = true;
    ++count;
    for (int c : {left[static_cast<std::size_t>(b)],
                  right[static_cast<std::size_t>(b)]}) {
      if (c >= 0) {
        if (parent[static_cast<std::size_t>(c)] != b) return false;
        st.push_back(c);
      }
    }
  }
  return count == n;
}

void pack_bstar_into(const floorplan::Instance& inst, const BStarTree& tree,
                     double spacing_um, BStarScratch& scratch,
                     std::vector<geom::Rect>& rects) {
  rects.resize(static_cast<std::size_t>(tree.size()));
  Contour& contour = scratch.contour;
  auto& st = scratch.stack;
  contour.clear();
  st.clear();
  // Preorder DFS; children carry their packed x position.
  st.emplace_back(tree.root, 0.0);
  while (!st.empty()) {
    const auto [b, x] = st.back();
    st.pop_back();
    const auto& sh = inst.blocks[static_cast<std::size_t>(b)]
                         .shapes[static_cast<std::size_t>(
                             tree.shapes[static_cast<std::size_t>(b)])];
    const double w = sh.w + 2.0 * spacing_um;
    const double h = sh.h + 2.0 * spacing_um;
    const double y = contour.query(x, x + w);
    contour.update(x, x + w, y + h);
    rects[static_cast<std::size_t>(b)] = {x + spacing_um, y + spacing_um,
                                          sh.w, sh.h};
    const int l = tree.left[static_cast<std::size_t>(b)];
    const int r = tree.right[static_cast<std::size_t>(b)];
    // Right child keeps x (stacks above); left child starts at x + w.
    if (r >= 0) st.emplace_back(r, x);
    if (l >= 0) st.emplace_back(l, x + w);
  }
}

std::vector<geom::Rect> pack_bstar(const floorplan::Instance& inst,
                                   const BStarTree& tree, double spacing_um) {
  BStarScratch scratch;
  std::vector<geom::Rect> rects;
  pack_bstar_into(inst, tree, spacing_um, scratch, rects);
  return rects;
}

void apply_bstar_move(BStarTree& tree, BStarMove move, std::mt19937_64& rng) {
  const int n = tree.size();
  if (n < 2) return;
  std::uniform_int_distribution<int> pick(0, n - 1);
  switch (move) {
    case BStarMove::kChangeShape: {
      // Exclude the current shape so the move always changes the tree.
      const int b = pick(rng);
      std::uniform_int_distribution<int> shape(0, floorplan::kNumShapes - 2);
      int s = shape(rng);
      if (s >= tree.shapes[static_cast<std::size_t>(b)]) ++s;
      tree.shapes[static_cast<std::size_t>(b)] = s;
      return;
    }
    case BStarMove::kSwapBlocks: {
      const int a = pick(rng);
      int b = pick(rng);
      while (b == a) b = pick(rng);
      auto relabel = [a, b](int x) { return x == a ? b : (x == b ? a : x); };
      BStarTree next = tree;
      auto link = [&](int x) { return x < 0 ? -1 : relabel(x); };
      for (int i = 0; i < n; ++i) {
        const int src = relabel(i);  // block i takes block src's slot
        next.left[static_cast<std::size_t>(i)] =
            link(tree.left[static_cast<std::size_t>(src)]);
        next.right[static_cast<std::size_t>(i)] =
            link(tree.right[static_cast<std::size_t>(src)]);
        next.parent[static_cast<std::size_t>(i)] =
            link(tree.parent[static_cast<std::size_t>(src)]);
      }
      next.root = relabel(tree.root);
      // Shapes travel with the block, not the slot.
      tree.left = std::move(next.left);
      tree.right = std::move(next.right);
      tree.parent = std::move(next.parent);
      tree.root = next.root;
      return;
    }
    case BStarMove::kMoveLeaf: {
      std::vector<int> leaves;
      for (int b = 0; b < n; ++b) {
        if (b != tree.root && tree.left[static_cast<std::size_t>(b)] < 0 &&
            tree.right[static_cast<std::size_t>(b)] < 0) {
          leaves.push_back(b);
        }
      }
      if (leaves.empty()) return;
      std::uniform_int_distribution<int> lp(
          0, static_cast<int>(leaves.size()) - 1);
      const int leaf = leaves[static_cast<std::size_t>(lp(rng))];
      // Detach, remembering the slot so reattachment cannot recreate the
      // identical tree (detaching frees that slot, so at least one other
      // free slot always exists for n >= 2).
      const int par = tree.parent[static_cast<std::size_t>(leaf)];
      const bool was_left = tree.left[static_cast<std::size_t>(par)] == leaf;
      if (was_left) {
        tree.left[static_cast<std::size_t>(par)] = -1;
      } else {
        tree.right[static_cast<std::size_t>(par)] = -1;
      }
      tree.parent[static_cast<std::size_t>(leaf)] = -1;
      // Reattach at a random free slot other than the original.
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      while (true) {
        const int host = pick(rng);
        if (host == leaf) continue;
        const bool lfree = tree.left[static_cast<std::size_t>(host)] < 0;
        const bool rfree = tree.right[static_cast<std::size_t>(host)] < 0;
        if (!lfree && !rfree) continue;
        const bool use_left = lfree && (!rfree || coin(rng) < 0.5);
        if (host == par && use_left == was_left) continue;
        (use_left ? tree.left
                  : tree.right)[static_cast<std::size_t>(host)] = leaf;
        tree.parent[static_cast<std::size_t>(leaf)] = host;
        return;
      }
    }
  }
}

BaselineResult run_sa_bstar(const floorplan::Instance& inst,
                            const BStarSAParams& p, std::mt19937_64& rng) {
  return anneal<BStarChain>(inst, p, rng, "SA-B*[15]");
}

}  // namespace afp::metaheur
