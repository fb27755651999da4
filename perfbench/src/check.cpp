#include "check.hpp"

#include <cmath>
#include <cstring>


namespace perfbench {

bool same_bits(const nitho::Grid<double>& a, const nitho::Grid<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

nitho::Grid<double> direct_result(const nitho::FastLitho& litho,
                                  const nitho::Grid<double>& mask, int out_px,
                                  nitho::serve::RequestKind kind) {
  return kind == nitho::serve::RequestKind::kResist
             ? litho.resist_from_mask(mask, out_px)
             : litho.aerial_from_mask(mask, out_px);
}

bool served_matches(const nitho::FastLitho& litho,
                    const nitho::Grid<double>& mask, int out_px,
                    nitho::serve::RequestKind kind,
                    const nitho::Grid<double>& served) {
  return same_bits(direct_result(litho, mask, out_px, kind), served);
}

int check_served(const std::vector<ServedSample>& samples, Report& r) {
  int bad = 0;
  for (const ServedSample& s : samples) {
    if (!served_matches(*s.litho, *s.mask, s.out_px, s.kind, s.result)) {
      ++bad;
      ++r.failed;
    }
  }
  return bad;
}

bool loss_decreased(const std::vector<double>& losses) {
  if (losses.size() < 2) return false;
  for (const double l : losses) {
    if (!std::isfinite(l)) return false;
  }
  return losses.back() < losses.front();
}

}  // namespace perfbench
