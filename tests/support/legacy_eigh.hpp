#pragma once
// Reference Hermitian eigensolvers, kept in tests/ so the shipped library
// has one implementation of the decomposition (math/hermitian_eig.hpp).

#include "math/grid.hpp"
#include "math/hermitian_eig.hpp"

namespace nitho::test {

/// The serial Householder + implicit QL solver as it stood before eigh
/// split its loops over the shared pool: reflector updates and QL plane
/// rotations applied one whole matrix at a time, column by column.  eigh
/// must reproduce its eigenvalues and eigenvectors bit for bit.
EighResult legacy_eigh(const Grid<cd>& a);

/// Cyclic complex Jacobi rotations; slower but independently derived.
/// max_sweeps bounds the outer iteration; throws if not converged.
EighResult eigh_jacobi(const Grid<cd>& a, int max_sweeps = 50);

/// ||A v - w v||_inf over all eigenpairs: a residual diagnostic.
double eigh_residual(const Grid<cd>& a, const EighResult& r);

}  // namespace nitho::test
