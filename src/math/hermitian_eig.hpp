#pragma once
// Dense Hermitian eigendecomposition.
//
// The TCC matrix (DESIGN.md §2) is Hermitian positive semi-definite; SOCS
// needs its full spectrum.  Algorithm: complex Householder reduction to real
// symmetric tridiagonal form followed by implicit-shift QL with eigenvector
// accumulation (the classic EISPACK htridi/tql2 pair).

#include <vector>

#include "math/cplx.hpp"
#include "math/grid.hpp"

namespace nitho {

/// Eigendecomposition A = V diag(w) V^H of a Hermitian matrix.
struct EighResult {
  std::vector<double> eigenvalues;  ///< ascending order
  Grid<cd> eigenvectors;            ///< column j pairs with eigenvalues[j]
};

/// Householder + implicit QL.  A must be square Hermitian (only its lower
/// triangle is trusted) and finite: a NaN or Inf entry throws check_error
/// before any work is done.  O(n^3), suitable for n up to a few thousand.
///
/// Threads: the O(n^2) row loops of each Householder step and the replay of
/// each batch of QL rotations run on the shared pool (common/parallel.hpp),
/// so concurrent eigh calls serialize on it, and a call from inside a
/// parallel_for task runs serially on that thread.  The result is the same
/// bit for bit at every pool size: each matrix element sees the same
/// operations in the same order as in the serial algorithm (DESIGN.md §5.4).
EighResult eigh(const Grid<cd>& a);

}  // namespace nitho
