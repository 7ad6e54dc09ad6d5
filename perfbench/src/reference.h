#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Plaintext references for the correctness checks, computed apart from the
// protocol: the released tree rebuilt in the clear (the public basic tree,
// or the enhanced tree's shares summed across all parties), its plaintext
// evaluation, and a check that it is a tree plaintext CART grows on the
// same data when near-equal split gains may resolve either way.

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "pivot/model.h"
#include "tree/cart.h"

namespace perfbench {

struct PlainNode {
  bool is_leaf = false;
  int feature = -1;  // global feature index
  double threshold = 0.0;
  int64_t threshold_fixed = 0;  // enhanced trees: the shared fixed-point value
  double value = 0.0;           // leaf label
  int left = -1, right = -1;
};

struct PlainTree {
  // Enhanced trees compare fixed-point encodings, as the protocol does
  // ([x <= tau] on raw fixed-point integers); basic trees compare doubles.
  bool fixed_compare = false;
  std::vector<PlainNode> nodes;

  bool GoesLeft(const PlainNode& n, const std::vector<double>& row) const;
  double Evaluate(const std::vector<double>& row) const;
};

// feature_map[p][j] = global index of party p's local feature j.
PlainTree FromBasic(const pivot::PivotTree& tree,
                    const std::vector<std::vector<int>>& feature_map);
// views[p] = party p's view of one enhanced tree.
PlainTree FromEnhanced(const std::vector<pivot::PivotTree>& views,
                       const std::vector<std::vector<int>>& feature_map);

// Empty when `tree` is a tree plaintext CART (tree/cart.h) could grow on
// `data` under `params`, allowing splits and stops whose Gini gain is
// within fixed-point resolution of CART's choice and any plurality class
// at a leaf; otherwise the first disagreement found.
std::string CheckAgainstCart(const PlainTree& tree, const pivot::Dataset& data,
                             const pivot::TreeParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
