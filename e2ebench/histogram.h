#ifndef XPV_E2EBENCH_HISTOGRAM_H_
#define XPV_E2EBENCH_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace xpv::e2e {

/// A log-bucketed latency histogram over nanoseconds: values below 64 are
/// exact, larger ones fall into 64 sub-buckets per power of two (1.6%
/// relative width). Recording is an array increment — no allocation on the
/// timed path — and quantiles interpolate linearly inside the bucket, so a
/// reported percentile moves continuously with the data rather than
/// snapping to bucket edges.
class LogHistogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }

  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  /// The q-quantile (0 <= q <= 1) in nanoseconds; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double seen = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= target) {
        return Lower(i) + (target - seen) / c * (Upper(i) - Lower(i));
      }
      seen += c;
    }
    return Upper(kBuckets - 1);
  }

  /// Samples strictly beyond the q-quantile: the support of a tail
  /// percentile (the benchmark reports one only with >= 10 such samples).
  uint64_t CountBeyond(double q) const {
    return total_ - static_cast<uint64_t>(q * static_cast<double>(total_));
  }

 private:
  static constexpr int kSubBits = 6;  // 64 sub-buckets per octave.
  static constexpr int kOctaves = 40;  // Up to 2^46 ns (~20 hours).
  static constexpr size_t kBuckets =
      (size_t{1} << kSubBits) * (kOctaves + 1);

  static size_t Index(uint64_t v) {
    if (v < (uint64_t{1} << kSubBits)) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    if (shift >= kOctaves) return kBuckets - 1;
    const uint64_t sub = (v >> shift) & ((uint64_t{1} << kSubBits) - 1);
    return (static_cast<size_t>(shift) + 1) * (size_t{1} << kSubBits) +
           static_cast<size_t>(sub);
  }

  static double Lower(size_t i) {
    const size_t per = size_t{1} << kSubBits;
    if (i < per) return static_cast<double>(i);
    const size_t shift = i / per - 1;
    const uint64_t sub = i % per;
    return static_cast<double>((per + sub) << shift);
  }

  static double Upper(size_t i) {
    const size_t per = size_t{1} << kSubBits;
    if (i < per) return static_cast<double>(i + 1);
    const size_t shift = i / per - 1;
    const uint64_t sub = i % per;
    return static_cast<double>((per + sub + 1) << shift);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

}  // namespace xpv::e2e

#endif  // XPV_E2EBENCH_HISTOGRAM_H_
