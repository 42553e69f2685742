#include "harness/speed.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

// xorshift64: every step depends on the last, so the compiler can neither
// vectorize nor shorten the loop.
constexpr std::uint64_t kBurstSteps = std::uint64_t{1} << 22;
constexpr std::size_t kBursts = 15;
volatile std::uint64_t sink;

double burst_s() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = sink | 1U;
  for (std::uint64_t i = 0; i < kBurstSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

double loop_burst_s() {
  std::vector<double> times;
  for (std::size_t i = 0; i < kBursts; ++i) times.push_back(burst_s());
  const auto mid = times.begin() + kBursts / 2;
  std::nth_element(times.begin(), mid, times.end());
  return *mid;
}

double speed_scale(double before_s, double after_s) {
  const double mean = 0.5 * (before_s + after_s);
  if (!(mean > 0.0)) throw std::domain_error("speed_scale: no loop time");
  return kReferenceBurstS / mean;
}

void scale_from(std::vector<double>& times, std::size_t from, double scale) {
  for (std::size_t i = from; i < times.size(); ++i) times[i] *= scale;
}

}  // namespace perfbench
