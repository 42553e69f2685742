// Output checking, digests, sample statistics and the result line.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Operations attempted and failed. A failed output check or an exception
// escaping a call is one failed operation.
class Ops {
 public:
  // One operation; returns `ok`.
  bool check(bool ok, std::string_view what);
  // `attempted` operations of one kind, `failed` of them failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             std::string_view what);
  // Runs `fn` (returning bool) as one checked operation; an exception is a
  // failure.
  template <class Fn>
  bool attempt(std::string_view what, Fn&& fn) {
    try {
      return check(fn(), what);
    } catch (const std::exception& e) {
      return check(false, std::string{what} + ": " + e.what());
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

// FNV-1a over the bit patterns of the simulated results.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// The stored digest for (workload, seed) from a reference file of
// "<workload> <seed> <hex>" lines ('#' starts a comment); nullopt when the
// file has no entry (or does not exist).
[[nodiscard]] std::optional<std::string> reference_digest(
    const std::string& path, std::string_view workload, std::uint64_t seed);

// Checks a round's digest against the stored reference (when there is one)
// and against the run's first round: one operation.
bool check_digest(Ops& ops, const std::string& digest,
                  const std::optional<std::string>& reference,
                  const std::string& first_round);

struct Quantile {
  double value{0.0};
  std::size_t samples{0};
};

// Percentile p in [0, 100] by linear interpolation between closest ranks;
// {0, 0} for no samples.
[[nodiscard]] Quantile percentile(std::vector<double> values, double p);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

// The final stdout line: {"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..},..}}. Throws std::domain_error on a
// non-finite value.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
