// Arithmetic the benchmark reports with: the tail-percentile rule, the
// attainment / drop-fraction definitions, the run digest and the layer
// split. Kept free of simulation code so bench_math_test.cpp can pin each
// rule on hand-made inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile that is only reported when the sample supports it:
/// the nearest-rank q-quantile (the ceil(q * n)-th smallest value), valid
/// when at least `min_beyond` samples rank after it. `beyond` is how many do.
struct Tail {
  bool ok = false;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

inline Tail tail_percentile(std::vector<double> v, double q,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.n = v.size();
  if (t.n == 0) return t;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(t.n)));
  rank = std::min(std::max<std::size_t>(rank, 1), t.n);  // 1-based
  t.beyond = t.n - rank;
  if (t.beyond < min_beyond) return t;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  t.ok = true;
  t.value = v[rank - 1];
  return t;
}

/// Terminal outcome counts of one SLO tier, as serving::TierCounts keeps
/// them: `drops` counts every lost query (early drops and sheds alike).
struct TierOutcome {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t on_time = 0;
  std::uint64_t drops = 0;
};

/// Attainment and loss shares over a run's tiers. Only on-time completions
/// attain; a late completion, an early drop and a shed all count as misses.
struct Accounting {
  std::uint64_t arrivals = 0;
  std::uint64_t on_time = 0;
  std::uint64_t drops = 0;
  double slo_attainment = 0.0;
  double strict_attainment = 0.0;  // tier 0 only
  double drop_frac = 0.0;
  /// arrivals == completions + drops, for every tier and in total.
  bool reconciled = true;
};

template <std::size_t K>
Accounting account(const std::array<TierOutcome, K>& tiers) {
  static_assert(K >= 1, "tier 0 is the strict tier");
  Accounting a;
  std::uint64_t completions = 0;
  for (const TierOutcome& t : tiers) {
    a.reconciled = a.reconciled && t.arrivals == t.completions + t.drops &&
                   t.on_time <= t.completions;
    a.arrivals += t.arrivals;
    a.on_time += t.on_time;
    a.drops += t.drops;
    completions += t.completions;
  }
  a.reconciled = a.reconciled && a.arrivals == completions + a.drops;
  auto share = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  a.slo_attainment = share(a.on_time, a.arrivals);
  a.strict_attainment = share(tiers[0].on_time, tiers[0].arrivals);
  a.drop_frac = share(a.drops, a.arrivals);
  return a;
}

/// FNV-1a over the exact bits of every value added, in order. Two runs
/// with the same inputs and the same program must produce the same digest;
/// any difference in a count or in one ulp of a simulated metric changes it.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Host-time split of one timed run: the layers timed around public calls
/// plus the event loop's residual. The residual is wall minus the timed
/// layers, so the parts add up to the wall time by construction; a negative
/// residual means the layer timers overlap and the split is invalid.
struct Split {
  double wall_s = 0.0;
  double gen_s = 0.0;     // arrival generation (stream + tier draw)
  double submit_s = 0.0;  // ServingSystem::submit
  double plan_s = 0.0;    // AllocationStrategy::plan inside the run
  double loop_self_s() const { return wall_s - gen_s - submit_s - plan_s; }
  bool valid() const {
    return wall_s > 0.0 && gen_s >= 0.0 && submit_s >= 0.0 && plan_s >= 0.0 &&
           loop_self_s() >= 0.0;
  }
};

}  // namespace perfbench
