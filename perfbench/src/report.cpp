#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0 || !(p > 0.0) || p > 100.0) {
    throw std::invalid_argument("nearest_rank needs n > 0 and 0 < p <= 100");
  }
  // p * n / 100 keeps integral products exact (99 * 1000 / 100 == 990);
  // the epsilon absorbs the rounding of fractional p such as 99.9.
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) {
  if (n == 0) {
    return false;
  }
  return p <= 50.0 || samples_beyond(n, p) >= kMinBeyond;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample set");
  }
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

double error_rate(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0 || failed > attempted) {
    throw std::invalid_argument("error_rate needs 0 <= failed <= attempted "
                                "and attempted > 0");
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) {
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) {
      throw std::invalid_argument("span parent out of range");
    }
    const double lo = std::max(s.start, spans[p].start);
    const double hi = std::min(s.end, spans[p].end);
    if (hi > lo) {
      children[p].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    self[i] = std::max(0.0, spans[i].end - spans[i].start) - covered;
  }
  return self;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
