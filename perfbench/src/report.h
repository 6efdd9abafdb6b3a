#pragma once
/// \file report.h
/// \brief The benchmark's own arithmetic: percentiles under the
/// "ten samples beyond" rule, span self time, and the error rate. Pure
/// functions with no dependency on the pilot stack, so the self-test
/// binary checks them in isolation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index (1-based) of percentile `p` (0 < p <= 100) among
/// `n` samples: ceil(p/100 * n).
std::size_t nearest_rank(std::size_t n, double p);

/// Samples strictly beyond the nearest-rank percentile: n - rank.
std::size_t samples_beyond(std::size_t n, double p);

/// True when percentile `p` of `n` samples has at least kMinBeyond
/// samples beyond it (the median is always reportable when n >= 1).
bool tail_supported(std::size_t n, double p);

/// Nearest-rank percentile of `samples` (sorted in place). Throws
/// std::invalid_argument on an empty set.
double percentile(std::vector<double>& samples, double p);

/// Failed operations over attempted ones. Throws std::invalid_argument
/// when nothing was attempted or more failed than were attempted.
double error_rate(std::uint64_t failed, std::uint64_t attempted);

/// One traced interval. `parent` indexes the span that caused it within
/// the same vector (-1 for a root); spans of one unit or object share
/// `key`.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t key = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Per-span self time: the span's duration minus the part of its interval
/// covered by the union of its children (each child clipped to the
/// parent). Overlapping and nested children are counted once.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Shortest round-trip decimal rendering of a double, for JSON output.
std::string format_number(double value);

}  // namespace perfbench
