#include "reference.h"

#include <algorithm>
#include <cmath>

#include "common/fixed_point.h"
#include "mpc/field.h"
#include "tree/splits.h"

namespace perfbench {

namespace {

// Split gains closer than this count as a tie: the protocol computes Gini
// gains in fixed point, so CART's strict-greater choice may go either way.
constexpr double kGainTie = 1e-3;
// A released threshold is one of CART's candidates up to fixed-point
// rounding.
constexpr double kThresholdTie = 1e-4;

class CartCheck {
 public:
  CartCheck(const PlainTree& tree, const pivot::Dataset& data,
            const pivot::TreeParams& params)
      : tree_(tree), data_(data), params_(params) {
    for (size_t j = 0; j < data.num_features(); ++j) {
      candidates_.push_back(
          pivot::ComputeSplitCandidates(data.Column(j), params.max_splits));
    }
  }

  std::string Run() {
    std::vector<int> all(data_.num_samples());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    return Node(0, all, std::vector<bool>(data_.num_features(), true), 0);
  }

 private:
  std::vector<double> Counts(const std::vector<int>& samples) const {
    std::vector<double> counts(params_.num_classes, 0.0);
    for (int i : samples) counts[static_cast<int>(data_.labels[i])] += 1.0;
    return counts;
  }

  double BestGain(const std::vector<int>& samples,
                  const std::vector<bool>& available) const {
    double best = -1.0;
    for (size_t j = 0; j < available.size(); ++j) {
      if (!available[j]) continue;
      for (double tau : candidates_[j]) {
        std::vector<double> left(params_.num_classes, 0.0);
        std::vector<double> right(params_.num_classes, 0.0);
        for (int i : samples) {
          auto& side = data_.features[i][j] <= tau ? left : right;
          side[static_cast<int>(data_.labels[i])] += 1.0;
        }
        best = std::max(best, pivot::GiniGain(left, right));
      }
    }
    return best;
  }

  std::string Node(int id, const std::vector<int>& samples,
                   std::vector<bool> available, int depth) const {
    const std::string where = "node " + std::to_string(id) + ": ";
    const PlainNode& n = tree_.nodes[id];
    const bool can_split =
        depth < params_.max_depth &&
        static_cast<int>(samples.size()) >= params_.min_samples_split &&
        std::find(available.begin(), available.end(), true) !=
            available.end();
    const double best = can_split ? BestGain(samples, available) : -1.0;
    if (n.is_leaf) {
      if (best > params_.min_gain + kGainTie) {
        return where + "leaf where CART splits with gain " +
               std::to_string(best);
      }
      const std::vector<double> counts = Counts(samples);
      const int label = static_cast<int>(n.value);
      if (label < 0 || label >= params_.num_classes || n.value != label ||
          counts[label] < *std::max_element(counts.begin(), counts.end())) {
        return where + "leaf label " + std::to_string(n.value) +
               " is not a plurality class";
      }
      return "";
    }
    if (!can_split) return where + "split where CART stops";
    if (n.feature < 0 || n.feature >= static_cast<int>(available.size()) ||
        !available[n.feature]) {
      return where + "split on a feature already used on the path";
    }
    const std::vector<double>& cands = candidates_[n.feature];
    if (std::none_of(cands.begin(), cands.end(), [&](double c) {
          return std::abs(c - n.threshold) <= kThresholdTie;
        })) {
      return where + "threshold " + std::to_string(n.threshold) +
             " is not a split candidate";
    }
    std::vector<int> left, right;
    for (int i : samples) {
      (tree_.GoesLeft(n, data_.features[i]) ? left : right).push_back(i);
    }
    const double gain = pivot::GiniGain(Counts(left), Counts(right));
    if (gain < best - kGainTie || gain <= params_.min_gain - kGainTie) {
      return where + "split gain " + std::to_string(gain) +
             " trails CART's best " + std::to_string(best);
    }
    available[n.feature] = false;
    std::string err = Node(n.left, left, available, depth + 1);
    if (err.empty()) err = Node(n.right, right, available, depth + 1);
    return err;
  }

  const PlainTree& tree_;
  const pivot::Dataset& data_;
  const pivot::TreeParams& params_;
  std::vector<std::vector<double>> candidates_;
};

}  // namespace

bool PlainTree::GoesLeft(const PlainNode& n,
                         const std::vector<double>& row) const {
  if (fixed_compare) {
    return pivot::FixedFromDouble(row[n.feature]) <= n.threshold_fixed;
  }
  return row[n.feature] <= n.threshold;
}

double PlainTree::Evaluate(const std::vector<double>& row) const {
  int id = 0;
  while (!nodes[id].is_leaf) {
    id = GoesLeft(nodes[id], row) ? nodes[id].left : nodes[id].right;
  }
  return nodes[id].value;
}

PlainTree FromBasic(const pivot::PivotTree& tree,
                    const std::vector<std::vector<int>>& feature_map) {
  PlainTree out;
  for (const pivot::PivotNode& n : tree.nodes) {
    PlainNode p;
    p.is_leaf = n.is_leaf;
    if (!n.is_leaf) p.feature = feature_map[n.owner][n.feature_local];
    p.threshold = n.threshold;
    p.value = n.leaf_value;
    p.left = n.left;
    p.right = n.right;
    out.nodes.push_back(p);
  }
  return out;
}

PlainTree FromEnhanced(const std::vector<pivot::PivotTree>& views,
                       const std::vector<std::vector<int>>& feature_map) {
  PlainTree out;
  out.fixed_compare = true;
  const pivot::PivotTree& first = views[0];
  for (size_t i = 0; i < first.nodes.size(); ++i) {
    const pivot::PivotNode& n = first.nodes[i];
    pivot::u128 threshold = 0, leaf = 0;
    for (const pivot::PivotTree& v : views) {
      threshold = pivot::FpAdd(threshold, v.nodes[i].threshold_share);
      leaf = pivot::FpAdd(leaf, v.nodes[i].leaf_share);
    }
    PlainNode p;
    p.is_leaf = n.is_leaf;
    if (!n.is_leaf) p.feature = feature_map[n.owner][n.feature_local];
    p.threshold_fixed = static_cast<int64_t>(pivot::FpToSigned(threshold));
    p.threshold = pivot::FixedToDouble(p.threshold_fixed);
    // Classification leaves share the integer class id.
    p.value = static_cast<double>(pivot::FpToSigned(leaf));
    p.left = n.left;
    p.right = n.right;
    out.nodes.push_back(p);
  }
  return out;
}

std::string CheckAgainstCart(const PlainTree& tree, const pivot::Dataset& data,
                             const pivot::TreeParams& params) {
  if (tree.nodes.empty()) return "empty tree";
  return CartCheck(tree, data, params).Run();
}

}  // namespace perfbench
