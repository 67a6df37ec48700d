// Tests for the benchmark's own arithmetic (bench_math.hpp). Plain checks,
// no test framework: the benchmark package builds without one.
//
//   ctest --test-dir .bench_build/perfbench
#include <array>
#include <cstdio>
#include <vector>

#include "perfbench/bench_math.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void test_median() {
  check(perfbench::median({}) == 0.0, "median of nothing is 0");
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void test_tail_needs_ten_beyond() {
  // p90 of 99 values has only 9 beyond it: no value.
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  const perfbench::Tail none = perfbench::tail_percentile(v, 0.90);
  check(!none.ok && none.n == 99 && none.beyond == 9, "p90 of 99: no tail");

  // 100 values: the 90th smallest, exactly ten beyond it.
  v.push_back(100.0);
  const perfbench::Tail hundred = perfbench::tail_percentile(v, 0.90);
  check(hundred.ok && hundred.value == 90.0 && hundred.beyond == 10,
        "p90 of 100 is the 90th value with ten beyond");

  // 1000 shuffled values 1..1000: p90 is 900 with 100 beyond; p99 is 990
  // with exactly ten beyond; p99.5 has only five beyond.
  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back((i * 7919) % 1000 + 1);
  const perfbench::Tail p90 = perfbench::tail_percentile(big, 0.90);
  int beyond = 0;
  for (double x : big) beyond += x > p90.value ? 1 : 0;
  check(p90.ok && p90.value == 900.0 && beyond == 100, "p90 of 1000");
  const perfbench::Tail p99 = perfbench::tail_percentile(big, 0.99);
  check(p99.ok && p99.value == 990.0 && p99.beyond == 10, "p99 of 1000");
  check(!perfbench::tail_percentile(big, 0.995).ok, "p99.5 of 1000: no tail");
}

void test_attainment_counts_drops_and_sheds_as_misses() {
  // Tier 0: 100 arrivals, 90 on time, 5 late, 5 dropped.
  // Tier 1: 50 arrivals, 20 on time, 30 lost (sheds are part of drops).
  // Tier 2: 50 arrivals, all shed.
  std::array<perfbench::TierOutcome, 3> tiers = {{
      {100, 95, 90, 5},
      {50, 20, 20, 30},
      {50, 0, 0, 50},
  }};
  const perfbench::Accounting a = perfbench::account(tiers);
  check(a.reconciled, "balanced tiers reconcile");
  check(a.arrivals == 200 && a.on_time == 110 && a.drops == 85,
        "totals sum over tiers");
  check(a.slo_attainment == 110.0 / 200.0, "late, dropped, shed all miss");
  check(a.strict_attainment == 0.9, "strict attainment is tier 0 only");
  check(a.drop_frac == 85.0 / 200.0, "drop_frac counts drops and sheds");

  // One query missing from a tier breaks reconciliation.
  tiers[1].completions = 19;
  check(!perfbench::account(tiers).reconciled, "lost query detected");
  // Untiered runs: attainment equals strict attainment.
  std::array<perfbench::TierOutcome, 3> one = {{{10, 8, 7, 2}, {}, {}}};
  const perfbench::Accounting u = perfbench::account(one);
  check(u.slo_attainment == u.strict_attainment && u.slo_attainment == 0.7,
        "untiered attainment equals strict attainment");
}

void test_digest() {
  perfbench::Digest empty;
  check(empty.value() == 0xcbf29ce484222325ULL, "empty digest is the basis");

  auto digest = [](double x, std::uint64_t n) {
    perfbench::Digest d;
    d.add(x);
    d.add(n);
    return d.value();
  };
  check(digest(0.25, 7) == digest(0.25, 7), "same inputs, same digest");
  check(digest(0.25, 7) != digest(0.25, 8), "a count changes the digest");
  const double next = 0.25 + 0.25 * 2.220446049250313e-16;
  check(digest(0.25, 7) != digest(next, 7), "one ulp changes the digest");
  perfbench::Digest ab;
  ab.add(std::uint64_t{1});
  ab.add(std::uint64_t{2});
  perfbench::Digest ba;
  ba.add(std::uint64_t{2});
  ba.add(std::uint64_t{1});
  check(ab.value() != ba.value(), "order matters");
}

void test_residual_split() {
  perfbench::Split s;
  s.wall_s = 1.0;
  s.gen_s = 0.1;
  s.submit_s = 0.2;
  s.plan_s = 0.3;
  check(s.valid(), "layers inside the wall are valid");
  const double sum = s.gen_s + s.submit_s + s.plan_s + s.loop_self_s();
  check(sum == s.wall_s, "the split covers the wall exactly");
  s.plan_s = 0.8;
  check(!s.valid(), "layers exceeding the wall are invalid");
}

}  // namespace

int main() {
  test_median();
  test_tail_needs_ten_beyond();
  test_attainment_counts_drops_and_sheds_as_misses();
  test_digest();
  test_residual_split();
  if (failures == 0) std::printf("perfbench_math_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
