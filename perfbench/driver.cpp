// The repository benchmark: drives one named workload through the serving
// system's public API and prints its end-to-end metrics (--trace 0) or its
// per-layer split (--trace 1). See README.md in this directory.
//
//   loki_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--commit <id>]
//
// One run repeats the workload's whole simulation (set-up included) on
// inputs drawn from the seed until --seconds of host time have passed,
// reports the simulated metrics of a fixed set of inputs and medians of the
// host-time figures over all repetitions, and checks every repetition. The
// last line of stdout is the JSON result.
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "perfbench/bench_math.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/degrade.hpp"
#include "serving/strategy_registry.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace loki;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (all threads, so the allocator's pool
/// threads count), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// SplitMix64: derives the independent input seeds of one run from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads. Every demand level, fault time and tier weight is a constant
// here; nothing is derived from the program under test at run time (the
// fig5/fig10 benches scale their traces by find_capacity, which would let a
// planner change silently change the workload). All three are open-loop
// Poisson arrivals in simulated time: each arrival is scheduled at its due
// time by the simulator, so the generator can never run late.
// ---------------------------------------------------------------------------

enum class Demand { kConstant, kDiurnal, kStep };

struct Workload {
  const char* name;
  bool three_task;  // traffic_analysis_pipeline vs the two-task variant
  int cluster;
  double duration_s;
  Demand demand;
  double peak_qps;  // constant level / diurnal peak / level after the step
  double base_qps;  // step: level before the midpoint
  double rm_period_s;
  /// Fig. 10 tiered arm: tier mix, watermarks, remainder priority, fallback
  /// chain, a crash of workers 0-1 and a metrics warm-up.
  bool flash_crash;
};

constexpr double kSloS = 0.250;
constexpr double kDrainS = 5.0;
// 0.8 x the 1335 qps find_capacity reports for the three-task pipeline on
// 20 workers, stored as a constant.
constexpr double kFig5PeakQps = 1068.0;

const Workload kWorkloads[] = {
    // Data plane does nearly all the work (heap, routing scans, batching);
    // four plan() calls per input: the bypass case for solver changes.
    {"steady-96w", false, 96, 120.0, Demand::kConstant, 4500.0, 0.0, 10.0,
     false},
    // The paper's Fig. 5 regime with accuracy scaling active; plan() is about
    // half of the wall time: the case for control-plane changes.
    {"diurnal-fig5", true, 20, 300.0, Demand::kDiurnal, kFig5PeakQps, 0.0,
     10.0, false},
    // Fig. 10's tiered arm: admission and shedding in submit(), the MILP's
    // overload step, fault detection and retries.
    {"flash-crash-tiered", true, 20, 600.0, Demand::kStep, 668.0, 334.0, 5.0,
     true},
};

constexpr std::array<double, 3> kTierMix = {0.2, 0.4, 0.4};
constexpr std::array<double, 3> kWatermarks = {1024.0, 2.0, 0.5};
constexpr int kCrashedWorkers = 2;
constexpr double kCrashAt = 0.625;    // share of the run
constexpr double kRecoverAt = 0.875;  // share of the run
constexpr double kWarmupS = 30.0;

trace::DemandCurve make_curve(const Workload& w, std::uint64_t seed) {
  trace::TraceConfig t;
  t.duration_s = w.duration_s;
  t.peak_qps = w.peak_qps;
  t.seed = seed;
  switch (w.demand) {
    case Demand::kConstant:
      t.shape = trace::TraceShape::kConstant;
      t.noise_frac = 0.0;
      break;
    case Demand::kDiurnal:
      t.shape = trace::TraceShape::kAzureDiurnal;
      break;
    case Demand::kStep:
      t.shape = trace::TraceShape::kStep;
      t.base_fraction = w.base_qps / w.peak_qps;
      t.noise_frac = 0.0;
      break;
  }
  return trace::generate_trace(t);
}

// ---------------------------------------------------------------------------
// The plan() wrapper: times every plan() call and checks each plan it hands
// back with the same validation gate the fallback chain uses.
// ---------------------------------------------------------------------------

class TimedStrategy final : public serving::AllocationStrategy {
 public:
  TimedStrategy(std::unique_ptr<serving::AllocationStrategy> inner,
                const pipeline::PipelineGraph* graph, int cluster_size)
      : inner_(std::move(inner)), graph_(graph), cluster_(cluster_size) {}

  serving::PlanResult plan(const serving::PlanRequest& req) override {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    serving::PlanResult r = inner_->plan(req);
    const auto t1 = Clock::now();
    const double cpu1 = process_cpu_s();
    const double wall = seconds_between(t0, t1);
    call_ms.push_back(1e3 * wall);
    if (in_run) {
      ++run_calls;
      run_s += wall;
      run_cpu_s += cpu1 - cpu0;
    }
    solver += r.solver;
    const int cap = serving::effective_cluster_size(cluster_, req,
                                                    graph_->num_tasks());
    if (const char* why = serving::validate_plan(r.plan, *graph_, cap)) {
      invalid.emplace_back(why);
    }
    threads_max = std::max(threads_max, thread_count());
    return r;
  }
  std::string name() const override { return inner_->name(); }

  /// Set while the timed run is in progress (the epoch-0 plan runs in
  /// ServingSystem::start(), i.e. in set-up).
  bool in_run = false;
  std::vector<double> call_ms;  // every call, set-up included
  std::uint64_t run_calls = 0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  serving::SolverStats solver;
  std::vector<std::string> invalid;
  int threads_max = 0;

 private:
  std::unique_ptr<serving::AllocationStrategy> inner_;
  const pipeline::PipelineGraph* graph_;
  int cluster_;
};

// ---------------------------------------------------------------------------
// The arrival pump: single-threaded, one event per arrival, over
// trace::ArrivalStream. Timers are compiled in and switched by `traced`.
// ---------------------------------------------------------------------------

struct Pump {
  sim::Simulation* sim = nullptr;
  serving::ServingSystem* system = nullptr;
  trace::ArrivalStream* stream = nullptr;
  trace::TierSampler* tiers = nullptr;
  bool traced = false;

  int next_tier = 0;
  std::uint64_t submitted = 0;
  double gen_s = 0.0;
  double submit_s = 0.0;
  std::size_t pending_max = 0;

  /// Schedules the first arrival (none when the trace is empty).
  void arm() {
    const double t = stream->next();
    if (t < 0.0) return;
    next_tier = tiers->next();
    sim->schedule_at(t, [this]() { fire(); });
  }

  void fire() {
    ++submitted;
    if (!traced) {
      system->submit(next_tier);
      const double t = stream->next();
      if (t < 0.0) return;
      next_tier = tiers->next();
      sim->schedule_at(t, [this]() { fire(); });
      return;
    }
    pending_max = std::max(pending_max, sim->pending());
    const auto t0 = Clock::now();
    system->submit(next_tier);
    const auto t1 = Clock::now();
    const double t = stream->next();
    if (t >= 0.0) next_tier = tiers->next();
    const auto t2 = Clock::now();
    submit_s += seconds_between(t0, t1);
    gen_s += seconds_between(t1, t2);
    if (t >= 0.0) sim->schedule_at(t, [this]() { fire(); });
  }
};

// ---------------------------------------------------------------------------
// One repetition: set-up, timed run, outputs.
// ---------------------------------------------------------------------------

struct SimOut {
  perfbench::Accounting acc;
  std::array<perfbench::TierOutcome, serving::kNumTiers> tiers{};
  std::uint64_t completions = 0;
  std::uint64_t shed = 0;
  std::uint64_t forwards = 0;
  double accuracy = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p999 = 0.0;
  double servers_mean = 0.0;
  cluster::StageCounters stages;
  serving::SolverStats solver;
  std::uint64_t events = 0;
  std::uint64_t plan_calls = 0;
  obs::Snapshot obs;
};

struct Rep {
  std::uint64_t input = 0;
  bool traced = false;
  double setup_s = 0.0;
  double profile_s = 0.0;
  double trace_gen_s = 0.0;
  double probe_s = 0.0;
  double capacity_qps = 0.0;
  perfbench::Split split;
  double run_cpu_s = 0.0;
  double plan_cpu_s = 0.0;
  std::uint64_t submitted = 0;
  std::size_t pending_max = 0;
  std::vector<double> plan_ms;  // capacity probe, then the serving strategy
  int threads_max = 0;
  SimOut out;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
};

std::uint64_t digest_of(const SimOut& o, double capacity_qps) {
  perfbench::Digest d;
  for (const auto& t : o.tiers) {
    d.add(t.arrivals);
    d.add(t.completions);
    d.add(t.on_time);
    d.add(t.drops);
  }
  d.add(o.shed);
  d.add(o.forwards);
  d.add(o.accuracy);
  d.add(o.latency_ms_p50);
  d.add(o.latency_ms_p999);
  d.add(o.servers_mean);
  d.add(capacity_qps);
  d.add(o.stages.enqueued);
  d.add(o.stages.queue_wait_s);
  d.add(o.stages.batches);
  d.add(o.stages.batch_items);
  d.add(o.stages.execute_s);
  d.add(o.stages.swaps);
  d.add(o.stages.swap_stall_s);
  d.add(o.solver.milp_solves);
  d.add(o.solver.nodes_explored);
  d.add(o.solver.lp_iterations);
  d.add(o.solver.lp_phase1_iterations);
  d.add(o.solver.warm_start_hits);
  d.add(o.solver.cold_solves);
  d.add(o.solver.epoch_warm_hits);
  d.add(o.solver.epoch_cache_skips);
  d.add(o.solver.max_gap);
  d.add(o.events);
  d.add(o.plan_calls);
  for (const auto& [name, value] : o.obs.counters) {
    d.add(name);
    d.add(value);
  }
  return d.value();
}

Rep run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  const auto t_start = Clock::now();

  const pipeline::PipelineGraph graph =
      w.three_task ? pipeline::traffic_analysis_pipeline()
                   : pipeline::traffic_analysis_two_task_pipeline();
  auto t = Clock::now();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  rep.profile_s = seconds_between(t, Clock::now());

  t = Clock::now();
  const trace::DemandCurve curve = make_curve(w, derive_seed(seed, 0));
  rep.trace_gen_s = seconds_between(t, Clock::now());

  serving::SystemConfig scfg;
  scfg.allocator.cluster_size = w.cluster;
  scfg.allocator.slo_s = kSloS;
  scfg.rm_period_s = w.rm_period_s;
  auto& strategies = serving::StrategyRegistry::global();
  TimedStrategy strategy(
      strategies.create("loki-milp", scfg.allocator, &graph, profiles), &graph,
      w.cluster);

  // The capacity probe's plans (cold, single-epoch, default multiplicative
  // factors, so the same instances for every input) join the plan() sample.
  t = Clock::now();
  {
    TimedStrategy probe(
        strategies.create("loki-milp", scfg.allocator, &graph, profiles),
        &graph, w.cluster);
    rep.capacity_qps = exp::find_capacity(
        probe, 10.0, 30000.0, pipeline::default_mult_factors(graph), 10.0);
    rep.plan_ms = probe.call_ms;
    rep.threads_max = probe.threads_max;
    for (const std::string& why : probe.invalid) {
      rep.errors.push_back("probe plan failed validate_plan: " + why);
    }
  }
  rep.probe_s = seconds_between(t, Clock::now());

  std::unique_ptr<serving::AllocationStrategy> near_warm;
  std::unique_ptr<serving::AllocationStrategy> greedy;
  std::vector<double> tier_mix;
  if (w.flash_crash) {
    scfg.metrics_warmup_s = kWarmupS;
    scfg.tiers.enabled = true;
    scfg.tiers.depth_watermark = kWatermarks;
    scfg.tiers.remainder_priority = true;
    tier_mix.assign(kTierMix.begin(), kTierMix.end());
    for (int i = 0; i < kCrashedWorkers; ++i) {
      fault::append(scfg.fault_plan,
                    fault::crash_plan(i, kCrashAt * w.duration_s,
                                      kRecoverAt * w.duration_s));
    }
    // The fallback chain's lower rungs: a near-warm MILP resolve and greedy.
    serving::AllocatorConfig near = scfg.allocator;
    near.near_warm_start = true;
    near_warm = strategies.create("loki-milp", near, &graph, profiles);
    greedy = strategies.create("greedy", scfg.allocator, &graph, profiles);
    scfg.fallback.enabled = true;
    scfg.fallback.near_warm = near_warm.get();
    scfg.fallback.greedy = greedy.get();
  }

  obs::Registry registry;
  scfg.registry = &registry;
  sim::Simulation sim;
  serving::ServingSystem system(&sim, &graph, profiles, &strategy, scfg);
  system.start();

  trace::ArrivalConfig acfg;
  acfg.seed = derive_seed(seed, 1);
  trace::ArrivalStream stream(curve, acfg);
  trace::TierSampler tiers(tier_mix, derive_seed(seed, 2));
  Pump pump;
  pump.sim = &sim;
  pump.system = &system;
  pump.stream = &stream;
  pump.tiers = &tiers;
  pump.traced = traced;
  pump.arm();
  const double t_end = w.duration_s + kDrainS;

  const auto t_run = Clock::now();
  rep.setup_s = seconds_between(t_start, t_run);
  const double cpu0 = process_cpu_s();
  strategy.in_run = true;
  sim.run_until(t_end);
  strategy.in_run = false;
  const double cpu1 = process_cpu_s();
  rep.split.wall_s = seconds_between(t_run, Clock::now());
  rep.run_cpu_s = cpu1 - cpu0;
  system.finish(t_end);

  rep.submitted = pump.submitted;
  rep.pending_max = pump.pending_max;
  rep.split.gen_s = pump.gen_s;
  rep.split.submit_s = pump.submit_s;
  rep.split.plan_s = strategy.run_s;
  rep.plan_cpu_s = strategy.run_cpu_s;
  rep.plan_ms.insert(rep.plan_ms.end(), strategy.call_ms.begin(),
                     strategy.call_ms.end());
  rep.threads_max =
      std::max({rep.threads_max, strategy.threads_max, thread_count()});
  for (const std::string& why : strategy.invalid) {
    rep.errors.push_back("plan failed validate_plan: " + why);
  }

  const serving::Metrics& m = system.metrics();
  SimOut& o = rep.out;
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const serving::TierCounts& tc = m.tier(k);
    o.tiers[static_cast<std::size_t>(k)] = {tc.arrivals, tc.completions,
                                            tc.on_time, tc.drops};
  }
  o.acc = perfbench::account(o.tiers);
  o.completions = m.completions();
  o.shed = m.shed();
  o.forwards = m.forwards();
  o.accuracy = m.mean_accuracy();
  o.latency_ms_p50 = 1e3 * m.latency().quantile(0.5);
  o.latency_ms_p999 = 1e3 * m.latency().quantile(0.999);
  o.servers_mean = m.mean_servers_used();
  o.stages = system.stage_counters();
  o.solver = strategy.solver;
  o.events = sim.processed();
  o.plan_calls = strategy.run_calls;
  o.obs = registry.snapshot();
  rep.digest = digest_of(o, rep.capacity_qps);

  if (!o.acc.reconciled || o.acc.arrivals != m.arrivals() ||
      o.completions + m.drops() != m.arrivals()) {
    rep.errors.push_back("arrivals != completions + drops");
  }
  if (w.flash_crash ? o.acc.arrivals > rep.submitted
                    : o.acc.arrivals != rep.submitted) {
    rep.errors.push_back("metered arrivals do not match submitted arrivals");
  }
  // latency_ms_p999 is an exact quantile only with >= 100 samples beyond it.
  if (m.latency().count() < 100000) {
    rep.errors.push_back("fewer than 1e5 completions for latency_ms_p999");
  }
  if (!rep.split.valid()) rep.errors.push_back("layer timers exceed the wall");
  return rep;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  Metric(std::string n, double v, std::string u, std::string b = "")
      : name(std::move(n)), value(v), unit(std::move(u)), better(std::move(b)) {}
  std::string name;
  double value;
  std::string unit;
  std::string better;  // "higher" or "lower"; end-to-end metrics only
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

template <typename F>
double median_of(const std::vector<const Rep*>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep* r : reps) v.push_back(f(*r));
  return perfbench::median(std::move(v));
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: loki_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace_flag = -1;
  std::string commit = "unknown";
  if (argc % 2 != 1) return usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      trace_flag = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && (end == val || *end != '\0')) {
      return usage(("bad value for " + key).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0) || (trace_flag != 0 && trace_flag != 1)) {
    return usage("--seconds must be > 0 and --trace 0 or 1");
  }
  const bool trace_run = trace_flag == 1;
  exp::register_builtin_strategies();

  // Repeat until the time budget is spent. Each repetition simulates one
  // input drawn from the seed (input j: arrivals, tiers and demand noise
  // from derive_seed(seed, 100 + j)). The simulated metrics are means over
  // inputs 0 .. kSimInputs-1, so they are fixed by the seed; the host
  // timings are pooled over every repetition, i.e. over as many inputs as
  // the time allows (plan() cost depends on the exact MILP instance, so one
  // input's handful of control epochs would make a noisy sample). Input 0
  // runs twice to check that the program repeats itself. A traced run
  // pairs an untraced and a traced repetition on every input, which also
  // checks that the timers leave the simulation unchanged.
  constexpr std::uint64_t kSimInputs = 16;
  const auto input_of = [&](std::size_t i) -> std::uint64_t {
    return trace_run ? i / 2 : (i == 0 ? 0 : i - 1);
  };
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = trace_run && i % 2 == 1;
    reps.push_back(
        run_rep(*w, derive_seed(seed, 100 + input_of(i)), traced));
    reps.back().input = input_of(i);
    const bool time_left = seconds_between(t0, Clock::now()) < seconds;
    const bool enough =
        trace_run ? reps.size() >= 4 && reps.size() % 2 == 0
                  : reps.back().input + 1 >= kSimInputs;
    if (!time_left && enough) break;
  }

  // Checks: every repetition must be clean, and bit-identical to the first
  // repetition of the same input.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<const Rep*> first_of;  // first repetition of each input
  for (const Rep& r : reps) {
    attempted += r.submitted;
    if (r.input == first_of.size()) first_of.push_back(&r);
    std::vector<std::string> errors = r.errors;
    if (r.digest != first_of[r.input]->digest) {
      errors.push_back("digest differs from the first repetition of input " +
                       std::to_string(r.input));
    }
    for (const std::string& e : errors) {
      std::printf("FAIL: %s\n", e.c_str());
    }
    if (!errors.empty()) {
      correct = false;
      failed += r.submitted;
    }
  }

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& r : reps) (r.traced ? traced : plain).push_back(&r);
  int threads_max = 0;
  for (const Rep& r : reps) threads_max = std::max(threads_max, r.threads_max);
  // Untraced runs report the simulated metrics of inputs 0 .. kSimInputs-1
  // and digest exactly those; traced runs report the counts of input 0.
  const std::size_t n_sim = trace_run ? 1 : kSimInputs;
  const std::vector<const Rep*> sim_inputs(
      first_of.begin(), first_of.begin() + static_cast<std::ptrdiff_t>(n_sim));
  perfbench::Digest run_digest;
  for (const Rep* r : sim_inputs) run_digest.add(r->digest);

  std::printf("workload %s seed %" PRIu64 ": %zu repetitions (%zu traced) "
              "over %zu inputs, digest of inputs 0-%zu %016" PRIx64 "\n",
              w->name, seed, reps.size(), traced.size(), first_of.size(),
              n_sim - 1, run_digest.value());
  std::printf("host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"GCC %s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\", "
              "\"process.threads_max\": %d}\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE, commit.c_str(), threads_max);

  std::vector<Metric> metrics;
  if (!trace_run) {
    const auto sim = [&](auto f) {
      double sum = 0.0;
      for (const Rep* r : sim_inputs) sum += f(r->out);
      return sum / static_cast<double>(sim_inputs.size());
    };
    std::vector<double> plan_ms;
    for (const Rep* r : plain) {
      plan_ms.insert(plan_ms.end(), r->plan_ms.begin(), r->plan_ms.end());
    }
    // The tail is p90, not the highest percentile with ten calls beyond it:
    // over the 500-2000 pooled calls of a run that rule sits at p98-p99.5,
    // which on steady-96w is the cold first plan of each input (one call in
    // 18, 3-17 ms by instance) and elsewhere is decided by host stalls; its
    // quartile spread across seeds reached 0.25-0.48.
    constexpr double kPlanTailQ = 0.90;
    const perfbench::Tail tail = perfbench::tail_percentile(plan_ms, kPlanTailQ);
    if (!tail.ok) {
      std::printf("plan_ms_tail: %zu plan() calls leave only %zu beyond p90, "
                  "fewer than 10\n", tail.n, tail.beyond);
      correct = false;
    } else {
      std::printf("plan_ms_tail is p90 of %zu plan() calls (%zu beyond it)\n",
                  tail.n, tail.beyond);
    }
    const auto rep_median = [&](auto f) { return median_of(plain, f); };
    metrics = {
        {"sim_arrivals_per_s", rep_median([](const Rep& r) {
           return static_cast<double>(r.submitted) / r.split.wall_s;
         }), "arrivals/s", "higher"},
        {"cpu_us_per_arrival", rep_median([](const Rep& r) {
           return 1e6 * r.run_cpu_s / static_cast<double>(r.submitted);
         }), "us", "lower"},
        {"plan_ms_p50", perfbench::median(plan_ms), "ms", "lower"},
        {"plan_ms_tail", tail.value, "ms", "lower"},
        {"setup_s", rep_median([](const Rep& r) { return r.setup_s; }), "s",
         "lower"},
        {"peak_rss_mb", peak_rss_mib(), "MiB", "lower"},
        {"slo_attainment",
         sim([](const SimOut& o) { return o.acc.slo_attainment; }), "fraction",
         "higher"},
        {"strict_attainment",
         sim([](const SimOut& o) { return o.acc.strict_attainment; }),
         "fraction", "higher"},
        {"accuracy", sim([](const SimOut& o) { return o.accuracy; }),
         "fraction", "higher"},
        {"latency_ms_p50", sim([](const SimOut& o) { return o.latency_ms_p50; }),
         "ms", "lower"},
        {"latency_ms_p999",
         sim([](const SimOut& o) { return o.latency_ms_p999; }), "ms", "lower"},
        {"servers_mean", sim([](const SimOut& o) { return o.servers_mean; }),
         "workers", "lower"},
        {"drop_frac", sim([](const SimOut& o) { return o.acc.drop_frac; }),
         "fraction", "lower"},
        {"capacity_qps", reps.front().capacity_qps, "qps", "higher"},
    };
  } else {
    auto med = [&](auto f) { return median_of(traced, f); };
    // Reps alternate untraced / traced on the same input: the overhead is
    // the median over those pairs of the traced wall over the untraced one.
    std::vector<double> overhead;
    for (std::size_t i = 0; i + 1 < reps.size(); i += 2) {
      overhead.push_back(reps[i + 1].split.wall_s / reps[i].split.wall_s - 1.0);
    }
    const double traced_wall = med([](const Rep& r) { return r.split.wall_s; });
    // Counts are those of input 0 (traced and untraced alike, by the digest
    // check).
    const SimOut& o = reps.front().out;
    const double events = static_cast<double>(o.events);
    const double arrivals = static_cast<double>(reps.front().submitted);
    const auto counter = [&](const char* name) {
      return static_cast<double>(o.obs.counter_value(name));
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    metrics = {
        {"trace.gen_s", med([](const Rep& r) { return r.split.gen_s; }), "s"},
        {"sim.loop_self_s",
         med([](const Rep& r) { return r.split.loop_self_s(); }), "s"},
        {"sim.ns_per_event",
         med([](const Rep& r) {
           return 1e9 * r.split.loop_self_s() /
                  static_cast<double>(r.out.events);
         }),
         "ns"},
        {"sim.events", events, "count"},
        {"sim.events_per_arrival", ratio(events, arrivals), "events/arrival"},
        {"sim.pending_max",
         static_cast<double>(traced.front()->pending_max), "count"},
        {"serving.submit_s", med([](const Rep& r) { return r.split.submit_s; }),
         "s"},
        {"serving.submit_ns_per_call",
         med([](const Rep& r) {
           return 1e9 * r.split.submit_s / static_cast<double>(r.submitted);
         }),
         "ns"},
        {"serving.plan_calls", static_cast<double>(o.plan_calls), "count"},
        {"serving.plan_s", med([](const Rep& r) { return r.split.plan_s; }),
         "s"},
        {"serving.plan_cpu_s", med([](const Rep& r) { return r.plan_cpu_s; }),
         "s"},
        {"solver.pivots", static_cast<double>(o.solver.lp_iterations),
         "count"},
        {"solver.phase1_pivots",
         static_cast<double>(o.solver.lp_phase1_iterations), "count"},
        {"solver.phase1_share",
         ratio(o.solver.lp_phase1_iterations, o.solver.lp_iterations),
         "fraction"},
        {"solver.nodes", static_cast<double>(o.solver.nodes_explored),
         "count"},
        {"solver.milp_solves", static_cast<double>(o.solver.milp_solves),
         "count"},
        {"solver.cold_solves", static_cast<double>(o.solver.cold_solves),
         "count"},
        {"solver.warm_hits", static_cast<double>(o.solver.warm_start_hits),
         "count"},
        {"solver.epoch_warm_hits",
         static_cast<double>(o.solver.epoch_warm_hits), "count"},
        {"solver.epoch_cache_skips",
         static_cast<double>(o.solver.epoch_cache_skips), "count"},
        {"solver.max_gap", o.solver.max_gap, "objective"},
        {"cluster.batches", static_cast<double>(o.stages.batches), "count"},
        {"cluster.batch_size_mean",
         ratio(static_cast<double>(o.stages.batch_items),
               static_cast<double>(o.stages.batches)),
         "items"},
        {"cluster.queue_wait_ms_mean",
         1e3 * ratio(o.stages.queue_wait_s,
                     static_cast<double>(o.stages.enqueued)),
         "ms"},
        {"cluster.swaps", static_cast<double>(o.stages.swaps), "count"},
        {"cluster.swap_stall_s", o.stages.swap_stall_s, "s"},
        {"serving.shed", static_cast<double>(o.shed), "count"},
        {"serving.forwards", static_cast<double>(o.forwards), "count"},
        {"serving.degrade.admission_shed",
         counter("serving.degrade.admission_shed"), "count"},
        {"serving.degrade.overload_shed",
         counter("serving.degrade.overload_shed"), "count"},
        {"serving.degrade.retries", counter("serving.degrade.retries"),
         "count"},
        {"serving.degrade.plan_fallbacks",
         counter("serving.degrade.plan_fallbacks"), "count"},
        {"serving.degrade.plans_retained",
         counter("serving.degrade.plan_retained"), "count"},
        {"fault.crashes", counter("serving.fault.crashes"), "count"},
        {"fault.stranded_retried", counter("serving.fault.stranded_retried"),
         "count"},
        {"fault.stranded_dropped", counter("serving.fault.stranded_dropped"),
         "count"},
        {"setup.profile_s", med([](const Rep& r) { return r.profile_s; }), "s"},
        {"setup.trace_gen_s", med([](const Rep& r) { return r.trace_gen_s; }),
         "s"},
        {"setup.capacity_probe_s", med([](const Rep& r) { return r.probe_s; }),
         "s"},
        {"bench.trace_overhead_frac", perfbench::median(overhead),
         "fraction"},
        {"process.threads_max", static_cast<double>(threads_max), "threads"},
    };
    const perfbench::Split& sp = traced.front()->split;
    std::printf("input 0 traced: wall %.4f s = gen %.4f + submit %.4f + plan "
                "%.4f + loop self %.4f (%.0f%% / %.0f%% / %.0f%% / %.0f%%)\n",
                sp.wall_s, sp.gen_s, sp.submit_s, sp.plan_s, sp.loop_self_s(),
                100 * sp.gen_s / sp.wall_s, 100 * sp.submit_s / sp.wall_s,
                100 * sp.plan_s / sp.wall_s, 100 * sp.loop_self_s() / sp.wall_s);
    std::printf("per-layer medians over %zu traced repetitions (median wall "
                "%.4f s):\n", traced.size(), traced_wall);
  }

  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-14s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str(),
                m.better.empty() ? "" : " is better");
  }
  print_json(correct, attempted, failed, metrics);
  return 0;
}
