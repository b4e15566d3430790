// Fill-reducing and bandwidth-reducing orderings (paper §IV "Preordering",
// §VII Table II). All orderings return a NEW-TO-OLD permutation: row r of the
// permuted matrix is row perm[r] of the input. Apply with permute_symmetric.
//
// The paper uses SYMAMD, RCM, METIS nested dissection, natural order, and a
// Dulmage–Mendelsohn step to cover the diagonal; all are implemented here
// from scratch, with no external ordering library.
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Reverse Cuthill–McKee on the symmetrized pattern. Processes every
/// connected component from a pseudo-peripheral start; neighbours are visited
/// in increasing-degree order; the final order is reversed.
std::vector<index_t> rcm_order(const CsrMatrix& a);

/// Plain Cuthill–McKee (unreversed) — exposed for tests/ablation.
std::vector<index_t> cm_order(const CsrMatrix& a);

/// Minimum-degree ordering (quotient-graph flavour with mass elimination of
/// indistinguishable supervariables omitted; external-degree greedy). Stands
/// in for SYMAMD/AMD in Table II.
std::vector<index_t> min_degree_order(const CsrMatrix& a);

/// Options for nested dissection.
struct NdOptions {
  index_t leaf_size = 64;   ///< stop recursing below this many vertices
  int max_depth = 48;       ///< recursion guard
};

/// Recursive nested dissection: BFS-halving edge separator converted to a
/// vertex separator; parts ordered recursively, separator last. Stands in for
/// METIS ND.
std::vector<index_t> nested_dissection_order(const CsrMatrix& a,
                                             const NdOptions& opts = {});

/// Natural ordering (identity permutation of size n).
std::vector<index_t> natural_order(index_t n);

/// Maximum-transversal row permutation (Dulmage–Mendelsohn first phase):
/// permutes rows so every diagonal entry is structurally nonzero, via
/// Hopcroft–Karp maximum bipartite matching on the pattern. Throws Error if
/// the matrix is structurally singular. Returns new-to-old row permutation.
std::vector<index_t> dulmage_mendelsohn_rows(const CsrMatrix& a);

/// Maximum bipartite matching (rows -> cols) by Hopcroft–Karp; returns for
/// each column the matched row (kInvalidIndex if unmatched) and the matching
/// size. Exposed for tests.
struct Matching {
  std::vector<index_t> row_of_col;
  std::vector<index_t> col_of_row;
  index_t size = 0;
};
Matching hopcroft_karp(const CsrMatrix& a);

/// Names used by the Table-II bench and the sensitivity example.
enum class OrderingKind { kNatural, kRcm, kMinDegree, kNestedDissection };

const char* ordering_name(OrderingKind k);

std::vector<index_t> make_ordering(const CsrMatrix& a, OrderingKind k);

}  // namespace javelin
