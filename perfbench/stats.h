// Statistics rules of the benchmark, kept apart from the workloads so that
// stats_test.cc can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least q*n samples at or
/// below it. Returns 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Samples that lie beyond the nearest-rank q-quantile of an n-sample.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t at = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return at >= n ? 0 : n - at;
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; fewer make it the reading of a handful of outliers.
constexpr std::size_t kMinBeyond = 10;

inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// Median over `slices` consecutive, equal-count slices of `v` (kept in
/// request order) of each slice's q-quantile. Host interference on a shared
/// machine comes in bursts; a burst moves only the slices it overlaps, so the
/// median slice reads the run's undisturbed state. Samples past the last
/// whole slice are dropped. Returns 0 when a slice would be empty.
inline double sliced_quantile(const std::vector<double>& v, double q,
                              std::size_t slices) {
  const std::size_t per = slices ? v.size() / slices : 0;
  if (per == 0) return 0.0;
  std::vector<double> at;
  for (std::size_t s = 0; s < slices; ++s) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(s * per);
    at.push_back(quantile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per)), q));
  }
  return quantile(std::move(at), 0.5);
}

/// Open-loop latency counts from when the request was due, not from when
/// the generator got round to sending it: a stalled generator (or a stalled
/// system that delays the generator) then shows in every request it delays.
inline double due_latency_ms(double due_ms, double answered_ms) {
  return answered_ms - due_ms;
}

/// Deadline accounting over requests sent. A request that is refused or
/// fails never delivered a preliminary answer, so it is a miss; a request
/// with no deadline meets it by answering at all.
class DeadlineTally {
 public:
  void answered(bool met_deadline) {
    ++sent_;
    if (met_deadline) ++hits_;
  }
  void refused() { ++sent_; }

  std::size_t sent() const { return sent_; }
  std::size_t hits() const { return hits_; }
  double hit_ratio() const {
    return sent_ ? static_cast<double>(hits_) / static_cast<double>(sent_)
                 : 0.0;
  }

 private:
  std::size_t sent_ = 0;
  std::size_t hits_ = 0;
};

/// Median over inputs of num[i] / den[i], where both were timed back to back
/// on input i. Pairing cancels host drift that moves both timings alike;
/// a ratio of two medians would not.
inline double paired_ratio_median(const std::vector<double>& num,
                                  const std::vector<double>& den) {
  if (num.size() != den.size() || num.empty()) {
    throw std::invalid_argument("paired_ratio_median: unpaired samples");
  }
  std::vector<double> r;
  r.reserve(num.size());
  for (std::size_t i = 0; i < num.size(); ++i) {
    if (!(den[i] > 0.0)) {
      throw std::invalid_argument("paired_ratio_median: zero denominator");
    }
    r.push_back(num[i] / den[i]);
  }
  return quantile(std::move(r), 0.5);
}

}  // namespace perfbench
