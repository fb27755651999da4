#include "math/hermitian_eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace nitho {
namespace {

// Row tasks of the pooled loops carry about this many complex multiply-adds
// each, so an n = 841 step splits into dozens of chunks while a step of a
// small matrix stays one chunk (parallel_for then runs it inline).
constexpr std::int64_t kChunkMacs = 4096;

// Plane rotations the QL sweeps record before they are replayed over the
// eigenvector rows: ~200 KB of (index, c, s), read once per row from L2.
constexpr std::size_t kRotationBatch = 8192;

// Q rows whose reflector coefficients are formed together (four-row dots)
// before those rows are updated.
constexpr std::int64_t kQRowBlock = 16;

std::int64_t rows_per_chunk(std::int64_t row_len) {
  return std::max<std::int64_t>(1, kChunkMacs / row_len);
}

// The complex loops below spell out (a + bi)(c + di) = (ac - bd, ad + bc),
// the product std::complex<double> computes for finite operands; written on
// the re/im doubles (std::complex<double> is array-compatible with
// double[2]) they carry no NaN-recovery branch, so GCC can vectorize the
// element-wise ones.  eigh admits finite input only, which keeps these
// loops bit-identical to the std::complex arithmetic they replace.

// out[r] = sum_j rows[r][j] * v[j] for R rows, each accumulated in
// ascending j.  The R sums are independent chains, so interleaving them
// hides the add latency a single running sum is bound by.
template <int R>
void dots(const cd* const* rows, const cd* v, int m, cd* out) {
  const double* x[R];
  for (int r = 0; r < R; ++r) x[r] = reinterpret_cast<const double*>(rows[r]);
  const double* y = reinterpret_cast<const double*>(v);
  double re[R] = {}, im[R] = {};
  for (int j = 0; j < m; ++j) {
    const double c = y[2 * j], d = y[2 * j + 1];
    for (int r = 0; r < R; ++r) {
      const double a = x[r][2 * j], b = x[r][2 * j + 1];
      re[r] += a * c - b * d;
      im[r] += a * d + b * c;
    }
  }
  for (int r = 0; r < R; ++r) out[r] = cd(re[r], im[r]);
}

// dots() over rows(b) .. rows(e - 1), four at a time.
template <typename RowAt>
void dots_range(std::int64_t b, std::int64_t e, RowAt rows, const cd* v,
                int m, cd* out) {
  const cd* r4[4];
  std::int64_t i = b;
  for (; i + 4 <= e; i += 4) {
    for (int r = 0; r < 4; ++r) r4[r] = rows(i + r);
    dots<4>(r4, v, m, out + (i - b));
  }
  for (; i < e; ++i) {
    r4[0] = rows(i);
    dots<1>(r4, v, m, out + (i - b));
  }
}

// row[j] -= s * conj(u[j]) + t * conj(v[j]) for j in [0, m).
void sub_rank2(cd* row, cd s, const cd* u, cd t, const cd* v, int m) {
  double* x = reinterpret_cast<double*>(row);
  const double* uu = reinterpret_cast<const double*>(u);
  const double* vv = reinterpret_cast<const double*>(v);
  const double sa = s.real(), sb = s.imag();
  const double ta = t.real(), tb = t.imag();
  for (int j = 0; j < m; ++j) {
    const double uc = uu[2 * j], ud = -uu[2 * j + 1];
    const double vc = vv[2 * j], vd = -vv[2 * j + 1];
    x[2 * j] -= (sa * uc - sb * ud) + (ta * vc - tb * vd);
    x[2 * j + 1] -= (sa * ud + sb * uc) + (ta * vd + tb * vc);
  }
}

// row[j] -= s * conj(v[j]) for j in [0, m).
void sub_scaled_conj(cd* row, cd s, const cd* v, int m) {
  double* x = reinterpret_cast<double*>(row);
  const double* vv = reinterpret_cast<const double*>(v);
  const double sa = s.real(), sb = s.imag();
  for (int j = 0; j < m; ++j) {
    const double c = vv[2 * j], d = -vv[2 * j + 1];
    x[2 * j] -= sa * c - sb * d;
    x[2 * j + 1] -= sa * d + sb * c;
  }
}

// Complex Householder reflector in LAPACK zlarfg convention.
// Given x (length m, x[0] = alpha), produce (v, tau, beta) with v[0] = 1 and
// (I - conj(tau) v v^H) x = beta e1, beta real.
struct Reflector {
  std::vector<cd> v;  // length m, v[0] == 1
  cd tau{0.0, 0.0};
  double beta = 0.0;
};

Reflector make_reflector(const std::vector<cd>& x) {
  const int m = static_cast<int>(x.size());
  Reflector r;
  r.v.assign(x.begin(), x.end());
  const cd alpha = x[0];
  double tail2 = 0.0;
  for (int i = 1; i < m; ++i) tail2 += norm2(x[i]);

  if (tail2 == 0.0 && alpha.imag() == 0.0) {
    r.v[0] = cd(1.0, 0.0);
    r.tau = cd(0.0, 0.0);
    r.beta = alpha.real();
    return r;
  }
  const double xnorm = std::sqrt(norm2(alpha) + tail2);
  const double beta = (alpha.real() >= 0.0) ? -xnorm : xnorm;
  r.beta = beta;
  r.tau = cd((beta - alpha.real()) / beta, -alpha.imag() / beta);
  const cd scale = 1.0 / (alpha - beta);
  r.v[0] = cd(1.0, 0.0);
  for (int i = 1; i < m; ++i) r.v[i] = x[i] * scale;
  return r;
}

// One recorded QL plane rotation of columns (i, i + 1).
struct Rotation {
  int i;
  double c, s;
};

// Applies rot, in order, to R rows of z at once.  Rotation i - 1 reads
// the column i that rotation i just wrote, so one row is a dependent chain;
// R rows interleave R independent ones.
template <int R>
void rotate_rows(double* const* rows, const std::vector<Rotation>& rot) {
  for (const Rotation& t : rot) {
    for (int r = 0; r < R; ++r) {
      double* zi = rows[r] + 2 * t.i;
      const double gr = zi[0], gi = zi[1];
      const double fr = zi[2], fi = zi[3];
      zi[2] = t.s * gr + t.c * fr;
      zi[3] = t.s * gi + t.c * fi;
      zi[0] = t.c * gr - t.s * fr;
      zi[1] = t.c * gi - t.s * fi;
    }
  }
}

// Applies the recorded rotations, in order, to every row of z: row k sees
// exactly the sequence of updates the column-at-a-time loop gave it, one
// row (contiguous, L1-resident) at a time instead of a column stride per
// rotation.  Rows are independent, so they split over the pool.
void replay_rotations(const std::vector<Rotation>& rot, Grid<cd>& z) {
  if (rot.empty()) return;
  const auto count = static_cast<std::int64_t>(rot.size());
  const std::int64_t grain = 4 * rows_per_chunk(4 * count);  // 4-row groups
  parallel_for_chunked(z.rows(), grain, [&](std::int64_t b, std::int64_t e) {
    double* rows[4];
    auto row = [&](std::int64_t k) {
      return reinterpret_cast<double*>(z.row(static_cast<int>(k)));
    };
    std::int64_t k = b;
    for (; k + 4 <= e; k += 4) {
      for (int r = 0; r < 4; ++r) rows[r] = row(k + r);
      rotate_rows<4>(rows, rot);
    }
    for (; k < e; ++k) {
      rows[0] = row(k);
      rotate_rows<1>(rows, rot);
    }
  });
}

// Implicit-shift QL on a real symmetric tridiagonal (d diag, e subdiag with
// e[i] coupling i and i+1), accumulating the real plane rotations into the
// complex column basis z.  Classic EISPACK tql2, except that the d/e
// recurrence (which never reads z) runs ahead and its rotations are
// replayed over z in batches (replay_rotations).
void tridiag_ql(std::vector<double>& d, std::vector<double>& e, Grid<cd>& z) {
  const int n = static_cast<int>(d.size());
  if (n <= 1) return;
  e.resize(n, 0.0);  // e[n-1] used as scratch

  // Deflation needs an absolute floor in addition to the classic relative
  // test: rank-deficient inputs (the TCC) produce clusters where both
  // neighbouring diagonals are ~0 and a purely relative test never fires.
  double anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    double row = std::abs(d[i]);
    if (i > 0) row += std::abs(e[i - 1]);
    if (i < n - 1) row += std::abs(e[i]);
    anorm = std::max(anorm, row);
  }
  const double floor_tol = 1e-15 * anorm;

  std::vector<Rotation> rot;
  rot.reserve(kRotationBatch + static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd + floor_tol) break;
      }
      if (m != l) {
        check(iter++ < 64, "tridiagonal QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        int i = m - 1;
        bool underflow = false;
        for (; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {  // this rotation is not applied
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rot.push_back(Rotation{i, c, s});
        }
        if (rot.size() >= kRotationBatch) {
          replay_rotations(rot, z);
          rot.clear();
        }
        if (underflow && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  replay_rotations(rot, z);
}

void sort_ascending(EighResult& r) {
  const int n = static_cast<int>(r.eigenvalues.size());
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return r.eigenvalues[a] < r.eigenvalues[b];
  });
  std::vector<double> w(n);
  for (int j = 0; j < n; ++j) w[j] = r.eigenvalues[order[j]];
  Grid<cd> v(n, n);
  for (int i = 0; i < n; ++i) {
    const cd* src = r.eigenvectors.row(i);
    cd* dst = v.row(i);
    for (int j = 0; j < n; ++j) dst[j] = src[order[j]];
  }
  r.eigenvalues = std::move(w);
  r.eigenvectors = std::move(v);
}

}  // namespace

EighResult eigh(const Grid<cd>& a_in) {
  const int n = a_in.rows();
  check(a_in.cols() == n, "eigh requires a square matrix");
  check(std::all_of(a_in.begin(), a_in.end(),
                    [](cd z) {
                      return std::isfinite(z.real()) && std::isfinite(z.imag());
                    }),
        "eigh requires a finite matrix (found a NaN or Inf entry)");
  EighResult res;
  res.eigenvalues.assign(n, 0.0);
  res.eigenvectors = Grid<cd>(n, n);
  if (n == 0) return res;

  // Work on the Hermitian average so slightly asymmetric inputs (numerical
  // noise from TCC accumulation) are handled gracefully.
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));

  Grid<cd>& q = res.eigenvectors;
  for (int i = 0; i < n; ++i) q(i, i) = cd(1.0, 0.0);

  std::vector<double> d(n), e(n > 1 ? n - 1 : 0, 0.0);

  // Householder tridiagonalization: for each column k zero A[k+2.., k] and
  // make the subdiagonal real; accumulate Q = H_0 H_1 ... .  The three
  // O(n^2) loops of a step are independent across rows, so each splits
  // over the pool; every row keeps its sequential j order (DESIGN.md §5.4).
  std::vector<cd> x, p, w;
  for (int k = 0; k + 1 < n; ++k) {
    const int m = n - 1 - k;  // reflector length
    x.assign(m, cd{});
    for (int i = 0; i < m; ++i) x[i] = a(k + 1 + i, k);
    Reflector h = make_reflector(x);
    e[k] = h.beta;

    if (h.tau != cd(0.0, 0.0)) {
      const std::int64_t grain = rows_per_chunk(m);
      // Trailing block update B <- (I - conj(tau) v v^H) B (I - tau v v^H)
      //                        =  B - v w^H - w v^H,
      // with p = tau * B v and w = p - (conj(tau) (v^H p) / 2) v.
      p.assign(m, cd{});
      const cd* v = h.v.data();
      auto b_row = [&](std::int64_t i) {
        return a.row(k + 1 + static_cast<int>(i)) + (k + 1);
      };
      auto q_row = [&](std::int64_t i) {
        return q.row(static_cast<int>(i)) + (k + 1);
      };
      parallel_for_chunked(m, grain, [&](std::int64_t b, std::int64_t end) {
        dots_range(b, end, b_row, v, m, p.data() + b);
        for (std::int64_t i = b; i < end; ++i) p[i] = h.tau * p[i];
      });
      cd vhp{};
      for (int i = 0; i < m; ++i) vhp += std::conj(h.v[i]) * p[i];
      const cd half = 0.5 * std::conj(h.tau) * vhp;
      // Derivation (DESIGN.md §5.4):
      //   B' = B - conj(tau) v p0^H - tau p0 v^H + |tau|^2 s v v^H,
      // where p0 = B v, s = v^H p0 (real).  With p = tau p0 this groups as
      //   B' = B - v w^H - w v^H,  w = p - (conj(tau) (v^H p) / 2) v.
      w.assign(m, cd{});
      for (int i = 0; i < m; ++i) w[i] = p[i] - half * h.v[i];
      // One dispatch for the rank-2 update of B's m rows (tasks [0, m)) and
      // the accumulation Q <- Q (I - tau v v^H) over Q's n rows (tasks
      // [m, m + n), columns k+1..n-1): the two write disjoint matrices.
      parallel_for_chunked(m + n, grain, [&](std::int64_t b, std::int64_t end) {
        for (std::int64_t i = b; i < std::min<std::int64_t>(end, m); ++i) {
          sub_rank2(b_row(i), h.v[i], w.data(), w[i], v, m);
        }
        const std::int64_t qb = std::max<std::int64_t>(b, m) - m;
        const std::int64_t qe = end - m;
        cd coef[kQRowBlock];
        for (std::int64_t c0 = qb; c0 < qe; c0 += kQRowBlock) {
          const std::int64_t c1 = std::min<std::int64_t>(qe, c0 + kQRowBlock);
          dots_range(c0, c1, q_row, v, m, coef);
          for (std::int64_t i = c0; i < c1; ++i) {
            sub_scaled_conj(q_row(i), h.tau * coef[i - c0], v, m);
          }
        }
      });
    }
    a(k + 1, k) = cd(h.beta, 0.0);
  }
  for (int i = 0; i < n; ++i) d[i] = a(i, i).real();

  tridiag_ql(d, e, q);
  res.eigenvalues = std::move(d);
  sort_ascending(res);
  return res;
}

}  // namespace nitho
