#pragma once
// The pruned SOCS inverse: a centered crop of kernel . spectrum products
// scattered onto an s x s DFT grid, then an inverse 2-D transform that
// touches only the rows the scatter wrote.  One implementation, templated on
// the real type, serves the aerial-image engine (double, litho/engine.cpp)
// and the batched autodiff ops (float, nn/ops_fft.cpp) — DESIGN.md §6.2,
// §6.3 and §8.2.

#include <algorithm>
#include <complex>
#include <vector>

#include "common/simd.hpp"
#include "fft/fft.hpp"

namespace nitho {

/// DFT index of centered-crop position a (crop size n) on a big-point grid:
/// the composed center_embed + ifftshift map (DESIGN.md §6.2).
inline int wrapped_index(int a, int n, int big) {
  const int signed_freq = a - n / 2;
  return (signed_freq + big) % big;
}

/// Where the rows of a centered n-point crop land on an s-point grid:
/// `rows[a]` is the grid row of crop row a, `band` the same rows sorted —
/// the only rows a pruned inverse transforms.  Crop columns follow the same
/// rule, so they ascend by one (mod s) from wrapped_index(0, m, s).
struct CropBand {
  CropBand() = default;
  CropBand(int n, int s) : rows(static_cast<std::size_t>(n)) {
    for (int a = 0; a < n; ++a) {
      rows[static_cast<std::size_t>(a)] = wrapped_index(a, n, s);
    }
    band = rows;
    std::sort(band.begin(), band.end());
  }
  std::vector<int> rows;
  std::vector<int> band;
};

/// Writes one band row of the scatter: the m products krow . srow land on
/// grid columns col0, col0 + 1, ... (mod s) of `drow` (s elements), and
/// every other element of the row is +0 — so the row is dense, as
/// ifft2_pruned_run requires.  The column map wraps at most once, so the
/// products form two contiguous segments, each a straight elementwise
/// simd::cmul.  With `brev` (the plan's bitrev_table(); radix-2 sizes) each
/// element goes to its bit-reversed position instead, for the *_prerev
/// transforms: the products pass through `tmp` (>= m elements), and since
/// cmul lanes span independent elements, one length-m call bit-matches the
/// two-segment split (a permuted zero fill is still all zeros).
template <typename R>
void scatter_band_row(std::complex<R>* drow, const std::complex<R>* krow,
                      const std::complex<R>* srow, int m, int s, int col0,
                      const int* brev, std::complex<R>* tmp) {
  const std::complex<R> zero(R(0), R(0));
  const int seg1 = std::min(m, s - col0);
  if (brev != nullptr) {
    std::fill(drow, drow + s, zero);
    simd::cmul(tmp, krow, srow, m);
    for (int c = 0; c < seg1; ++c) drow[brev[col0 + c]] = tmp[c];
    for (int c = seg1; c < m; ++c) drow[brev[c - seg1]] = tmp[c];
  } else {
    std::fill(drow + (m - seg1), drow + col0, zero);
    std::fill(drow + col0 + seg1, drow + s, zero);
    simd::cmul(drow + col0, krow, srow, seg1);
    simd::cmul(drow, krow + seg1, srow + seg1, m - seg1);
  }
}

/// Inverse 2-D DFT (rows, then columns) of an s x s plane whose only nonzero
/// rows are `band_rows` (sorted).  Those rows must hold dense data; every
/// other row is treated as structurally zero and is NEVER READ, so callers
/// do not pre-zero the plane — the column pass gathers +0 for the off-band
/// positions itself.  Bit-identical to the full transform: a structurally
/// zero row inverse-transforms to zeros, which enter the column pass only
/// additively (DESIGN.md §6.3).
///
/// Band-row pass: a centered crop wraps to at most two runs of consecutive
/// rows — each run is contiguous memory, so one inverse_many per run
/// amortizes the per-transform dispatch.  Column pass: a block of columns
/// per sweep over the band rows (contiguous reads), transformed by one
/// inverse_many; ~1024 gathered elements per block keep the strip in L1
/// while amortizing the per-stage twiddle walk across the whole block.
/// `write(r, c0, cb, cols, scale)` consumes row r of the current column
/// block — element q sits at cols[q * s + r] — with scale = s² undoing the
/// transforms' 1/s per pass; it may overwrite the plane's block columns,
/// which are never read again.  `prerev_rows` promises the caller scattered
/// each band row's elements into bit-reversed positions (radix-2 sizes
/// only; see fft.hpp bitrev_table()), so the row pass skips its
/// permutation pass too.
template <typename R, typename WriteRow>
void ifft2_pruned_run(std::complex<R>* z, int s,
                      const std::vector<int>& band_rows,
                      const FftPlan<R>& plan, Fft2WorkspaceT<R>& ws,
                      bool prerev_rows, WriteRow&& write) {
  using C = std::complex<R>;
  C* scratch = ws.scratch_for(plan);
  for (std::size_t i = 0; i < band_rows.size();) {
    std::size_t j = i + 1;
    while (j < band_rows.size() && band_rows[j] == band_rows[j - 1] + 1) ++j;
    C* seg = z + static_cast<std::ptrdiff_t>(band_rows[i]) * s;
    const int cnt = static_cast<int>(j - i);
    if (prerev_rows) {
      plan.inverse_many_prerev(seg, cnt, scratch);
    } else {
      plan.inverse_many(seg, cnt, scratch);
    }
    i = j;
  }
  const R scale = static_cast<R>(s) * static_cast<R>(s);
  const int col_block = std::max(4, 1024 / s);
  // Radix-2 sizes: gather straight into bit-reversed row positions and skip
  // the transforms' permutation pass (a permutation of the zero fills is
  // still all zeros, so the fill stays a plain memset).
  const int* brev = plan.bitrev_table();
  C* cols = ws.col_buffer(col_block * s);
  for (int c0 = 0; c0 < s; c0 += col_block) {
    const int cb = std::min(col_block, s - c0);
    std::fill(cols, cols + static_cast<std::ptrdiff_t>(cb) * s,
              C(R(0), R(0)));
    for (const int r : band_rows) {
      const C* src = z + static_cast<std::ptrdiff_t>(r) * s + c0;
      C* dst = cols + (brev != nullptr ? brev[r] : r);
      for (int q = 0; q < cb; ++q) dst[q * s] = src[q];
    }
    if (brev != nullptr) {
      plan.inverse_many_prerev(cols, cb, scratch);
    } else {
      plan.inverse_many(cols, cb, scratch);
    }
    for (int r = 0; r < s; ++r) write(r, c0, cb, cols, scale);
  }
}

}  // namespace nitho
