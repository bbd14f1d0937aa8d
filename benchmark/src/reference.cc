#include "reference.h"

#include <algorithm>
#include <cmath>

#include "stream/synthetic.h"
#include "util/check.h"

namespace slickbench {

Reference::Reference(uint64_t seed) {
  slick::stream::SyntheticSensorSource source(seed);
  x_ = source.MakeEnergySeries(kPeriod, 0);
  prefix_.resize(kPeriod);
  for (uint64_t i = 0; i < kPeriod; ++i) {
    x_[i] = std::round(x_[i] * 1000.0);
    prefix_[i] = total_;
    total_ += static_cast<uint64_t>(x_[i]);
  }
}

double Reference::WindowMax(uint64_t n, uint64_t range) const {
  double m = At(n - range);
  for (uint64_t i = n - range + 1; i < n; ++i) m = std::max(m, At(i));
  return m;
}

void Reference::Prepare(uint64_t slide) {
  SLICK_CHECK(slide >= 1 && kPeriod % slide == 0,
              "checksum slides must divide the input period");
  if (strided_.count(slide) != 0) return;
  std::vector<uint64_t>& q = strided_[slide];
  q.resize(kPeriod / slide);
  uint64_t acc = 0;
  for (uint64_t i = 0; i < q.size(); ++i) {
    acc += prefix_[i * slide];
    q[i] = acc;
  }
}

uint64_t Reference::StridedPrefixSum(uint64_t slide, uint64_t k) const {
  // With m = kPeriod / slide samples per period and k = c·m + i:
  //   Σ_{j<=k} Prefix(j·slide) = total·m·c(c−1)/2 + c·q[m−1]
  //                              + (i + 1)·c·total + q[i]
  const std::vector<uint64_t>& q = strided_.at(slide);
  const uint64_t m = q.size();
  const uint64_t c = k / m;
  const uint64_t i = k % m;
  const uint64_t pairs = c % 2 == 0 ? (c / 2) * (c - 1) : c * ((c - 1) / 2);
  return total_ * m * pairs + c * q[m - 1] + (i + 1) * c * total_ + q[i];
}

uint64_t Reference::AnswerSum(uint64_t range, uint64_t slide, uint64_t n0,
                              uint64_t n1) const {
  SLICK_CHECK(range % slide == 0 && n0 >= range,
              "closed-form checksum needs slide | range and a warm window");
  const uint64_t k0 = n0 / slide + 1;
  const uint64_t k1 = n1 / slide;
  if (k1 < k0) return 0;
  const uint64_t d = range / slide;
  const uint64_t ends = StridedPrefixSum(slide, k1) -
                        StridedPrefixSum(slide, k0 - 1);
  const uint64_t starts = StridedPrefixSum(slide, k1 - d) -
                          StridedPrefixSum(slide, k0 - 1 - d);
  return ends - starts;
}

}  // namespace slickbench
