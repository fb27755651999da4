#pragma once
// Output checks.  A served result must be bit-identical to a direct
// FastLitho call on the kernel snapshot that served it; a training or ILT
// loss trajectory must be finite and end below where it started.  Every
// mismatch is reported to the caller, which counts it as a failed
// operation — a check never passes silently.

#include <vector>

#include "math/grid.hpp"
#include "nitho/fast_litho.hpp"
#include "report.hpp"
#include "serve/request_queue.hpp"

namespace perfbench {

/// Same shape and the same bits in every cell (NaN payloads included).
bool same_bits(const nitho::Grid<double>& a, const nitho::Grid<double>& b);

/// The direct, synchronous answer the server must reproduce.
nitho::Grid<double> direct_result(const nitho::FastLitho& litho,
                                  const nitho::Grid<double>& mask, int out_px,
                                  nitho::serve::RequestKind kind);

/// True when `served` is exactly what `litho` computes directly.
bool served_matches(const nitho::FastLitho& litho,
                    const nitho::Grid<double>& mask, int out_px,
                    nitho::serve::RequestKind kind,
                    const nitho::Grid<double>& served);

/// A served result kept for the check, with what it must reproduce: the
/// direct call on `litho` (the kernel snapshot current when the request was
/// submitted) for `mask` at `out_px`.
struct ServedSample {
  const nitho::FastLitho* litho = nullptr;
  const nitho::Grid<double>* mask = nullptr;
  int out_px = 0;
  nitho::serve::RequestKind kind = nitho::serve::RequestKind::kAerial;
  nitho::Grid<double> result;
};

/// Checks every sample; each mismatch counts as a failed operation in `r`
/// (the operation itself was counted when it completed).  Returns the
/// number of mismatches.
int check_served(const std::vector<ServedSample>& samples, Report& r);

/// Every loss finite, at least two of them, and the last below the first.
bool loss_decreased(const std::vector<double>& losses);

}  // namespace perfbench
