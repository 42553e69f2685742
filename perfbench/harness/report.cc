#include "harness/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool Ops::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "perfbench: FAILED %.*s\n",
                   static_cast<int>(what.size()), what.data());
    }
  }
  return ok;
}

void Ops::tally(std::uint64_t attempted, std::uint64_t failed,
                std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: FAILED %llu of %llu %.*s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted),
                 static_cast<int>(what.size()), what.data());
  }
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::optional<std::string> reference_digest(const std::string& path,
                                            std::string_view workload,
                                            std::uint64_t seed) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string name;
    std::uint64_t s = 0;
    std::string hex;
    if ((fields >> name >> s >> hex) && name == workload && s == seed) {
      return hex;
    }
  }
  return std::nullopt;
}

bool check_digest(Ops& ops, const std::string& digest,
                  const std::optional<std::string>& reference,
                  const std::string& first_round) {
  if (reference && digest != *reference) {
    return ops.check(false, "digest " + digest + " != reference " +
                                *reference);
  }
  return ops.check(digest == first_round,
                   "digest " + digest + " != first round " + first_round);
}

Quantile percentile(std::vector<double> values, double p) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return {values[lo] + (values[hi] - values[lo]) * frac, values.size()};
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::domain_error("metric " + m.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
