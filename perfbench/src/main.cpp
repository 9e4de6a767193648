// perfbench: the repository benchmark driver binary (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect <hex digest>] [--spans-out <file>]
//
// --trace 0 times the public workload call (exp::run_simulation or
// exp::run_replications) with tracing off and prints the end-to-end metrics.
// --trace 1 runs the workload call once untraced, then the traced replay, and
// prints the per-layer metrics if the replay reproduces the call bit for bit.
// The last stdout line is always the JSON result; exit status 1 means an
// output check failed, 2 a usage error, 3 a build that must not be timed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/montecarlo.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using manet::Size;
using manet::exp::AggregatedMetrics;
using manet::exp::RunMetrics;

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const Size m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<Size>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- Output digest: every (name, value bit pattern) in output order. ---

struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void bytes(const void* p, Size n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (Size i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  }
  void name(const std::string& s) { bytes(s.data(), s.size() + 1); }
  void value(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
};

std::uint64_t digest_of(const RunMetrics& m) {
  Digest d;
  for (const auto& [name, value] : m.values) {
    d.name(name);
    d.value(value);
  }
  return d.h;
}

std::uint64_t digest_of(const AggregatedMetrics& m) {
  Digest d;
  for (const auto& name : m.names()) {
    const auto s = m.summary(name);
    d.name(name);
    d.value(static_cast<double>(s.count));
    for (const double v : {s.mean, s.stddev, s.ci95, s.min, s.max}) d.value(v);
  }
  return d.h;
}

// --- One workload call. ---

struct CallResult {
  double wall_s = 0.0;
  double ticks = 0.0;  ///< measured ticks, summed over replications
  std::uint64_t digest = 0;
  std::string error;   ///< non-empty: an output check failed
  RunMetrics single;   ///< replications == 1
  AggregatedMetrics aggregated;  ///< replications > 1
};

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

/// Runs the workload's public entry point once on scenario \p scenario
/// (\p setup_only: duration 0) and checks the invariants every correct run
/// satisfies.
CallResult call_workload(const Workload& w, Size scenario, bool setup_only,
                         manet::common::ThreadPool& pool) {
  manet::exp::ScenarioConfig cfg = w.scenarios[scenario];
  if (setup_only) cfg.duration = 0.0;
  const double expect_ticks = std::floor(cfg.duration / cfg.tick + 1e-9);
  CallResult r;
  const auto start = std::chrono::steady_clock::now();
  if (w.replications > 1) {
    r.aggregated = manet::exp::run_replications(cfg, w.replications, w.options, &pool);
    r.wall_s = seconds_since(start);
    r.digest = digest_of(r.aggregated);
    const auto ticks = r.aggregated.summary("ticks");
    const auto phi = r.aggregated.summary("phi_rate");
    const auto gamma = r.aggregated.summary("gamma_rate");
    r.ticks = ticks.mean * static_cast<double>(ticks.count);
    if (ticks.count != w.replications || ticks.min != expect_ticks ||
        ticks.max != expect_ticks) {
      r.error = "wrong tick count";
    } else if (phi.count != w.replications || gamma.count != w.replications ||
               !finite_nonneg(phi.min) || !finite_nonneg(gamma.min)) {
      r.error = "phi_rate/gamma_rate missing or invalid";
    }
    return r;
  }
  r.single = manet::exp::run_simulation(cfg, w.options);
  r.wall_s = seconds_since(start);
  r.digest = digest_of(r.single);
  const RunMetrics& m = r.single;
  r.ticks = m.get("ticks");
  if (r.ticks != expect_ticks) {
    r.error = "wrong tick count";
  } else if (!finite_nonneg(m.get("phi_rate")) || !finite_nonneg(m.get("gamma_rate")) ||
             m.get("total_rate") != m.get("phi_rate") + m.get("gamma_rate")) {
    r.error = "phi_rate/gamma_rate missing or inconsistent";
  } else if (w.options.query_load > 0 &&
             m.get("query_lookups") != expect_ticks * static_cast<double>(w.options.query_load)) {
    r.error = "query_lookups does not match the load";
  } else if (cfg.sessions && !setup_only &&
             m.get("session_delivered") + m.get("session_lost") > m.get("session_packets")) {
    r.error = "session packets do not add up";
  }
  return r;
}

// --- Result printing. ---

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, Size attempted, Size failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (Size i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Stamp {
  long nproc = 0;
  unsigned hardware_concurrency = 0;
  Size threads = 0;
  const char* build_type = PERFBENCH_BUILD_TYPE;
  const char* compiler = PERFBENCH_COMPILER;

  std::string json(const std::string& workload, std::uint64_t seed) const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
                  "\"hardware_concurrency\": %u, \"threads\": %zu, \"build_type\": \"%s\", "
                  "\"compiler\": \"%s\"}",
                  workload.c_str(), static_cast<unsigned long long>(seed), nproc,
                  hardware_concurrency, threads, build_type, compiler);
    return buf;
  }
};

bool optimised_build() {
#if defined(__OPTIMIZE__)
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- --trace 0: end-to-end metrics. ---

/// Folds per-scenario digests, in scenario order, into the workload's digest.
std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  Digest d;
  for (const std::uint64_t v : digests) d.bytes(&v, sizeof v);
  return d.h;
}

int run_timed(const Workload& w, double seconds, bool has_expect, std::uint64_t expect,
              manet::common::ThreadPool& pool) {
  const Size scenarios = w.scenarios.size();
  Size attempted = 0, failed = 0;
  double ticks = 0.0;
  std::vector<double> walls[2];                // [0] set-up calls, [1] workload calls
  std::vector<std::uint64_t> digests[2] = {std::vector<std::uint64_t>(scenarios),
                                           std::vector<std::uint64_t>(scenarios)};
  std::vector<bool> seen[2] = {std::vector<bool>(scenarios), std::vector<bool>(scenarios)};
  auto checked_call = [&](Size scenario, bool setup_only) {
    const CallResult r = call_workload(w, scenario, setup_only, pool);
    const int kind = setup_only ? 0 : 1;
    ++attempted;
    std::string error = r.error;
    if (error.empty() && seen[kind][scenario] && r.digest != digests[kind][scenario]) {
      error = "output differs from an earlier call on the same scenario";
    }
    if (!seen[kind][scenario]) {
      digests[kind][scenario] = r.digest;
      seen[kind][scenario] = true;
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s call on scenario %zu failed: %s\n",
                   setup_only ? "set-up" : "workload", scenario, error.c_str());
    }
    if (!setup_only) ticks = r.ticks;
    return r.wall_s;
  };

  // One untimed workload call first: the first call in a process pays
  // one-off costs (fresh heap pages, pool start-up, idle cores waking) that
  // no later call repeats. Its output is checked like every other call's.
  checked_call(0, false);
  // Rounds over every scenario, a set-up call then a workload call each, so
  // that drift hits both alike: one round, then more while another fits in
  // the time budget.
  const auto start = std::chrono::steady_clock::now();
  double round_s = 0.0;
  do {
    const auto round_start = std::chrono::steady_clock::now();
    for (Size s = 0; s < scenarios; ++s) {
      walls[0].push_back(checked_call(s, true));
      walls[1].push_back(checked_call(s, false));
    }
    round_s = seconds_since(round_start);
  } while (seconds_since(start) + round_s <= seconds);

  const std::uint64_t digest = fold_digests(digests[1]);
  std::printf("perfbench digest %016llx\n", static_cast<unsigned long long>(digest));
  if (has_expect && digest != expect) {
    ++failed;
    std::fprintf(stderr, "perfbench: output digest %016llx does not match the reference %016llx\n",
                 static_cast<unsigned long long>(digest), static_cast<unsigned long long>(expect));
  }
  std::fprintf(stderr, "perfbench: set-up walls (s):");
  for (const double v : walls[0]) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\nperfbench: workload walls (s):");
  for (const double v : walls[1]) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  const double run_s = median(walls[1]);
  const double setup_s = median(walls[0]);
  const double tick_wall = run_s - setup_s;
  print_result(failed == 0, attempted, failed,
               {{"run_s", run_s, "s"},
                {"setup_s", setup_s, "s"},
                {"ticks_per_s", tick_wall > 0.0 ? ticks / tick_wall : 0.0, "1/s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return failed == 0 ? 0 : 1;
}

// --- --trace 1: per-layer metrics from the traced replay. ---

struct TimedCall {
  const char* name;
  bool sharded;
};

/// Every call the replay wraps in a span, in run_simulation's tick order.
constexpr TimedCall kTimedCalls[] = {
    {"mobility.advance", false},      {"net.unit_disk.update", true},
    {"sim.fault.refresh", false},     {"cluster.repair", false},
    {"net.link_tracker.update", true}, {"lm.handoff.update", true},
    {"lm.handoff.fault", false},      {"cluster.diff", false},
    {"lm.handover.tick", false},      {"routing.tables.build", false},
    {"traffic.sessions.tick", false}, {"lm.query.publish", false},
    {"lm.query.lookup", true},        {"cluster.states.observe", false},
};

/// Spans outside the ticks (set-up and the end-of-run flatten), reported
/// as their self time summed per replay, median over replays.
constexpr const char* kSetupCalls[][2] = {
    {"exp.setup.materialize", "exp.setup.materialize_ms"},
    {"net.unit_disk.build", "net.unit_disk.build_ms"},
    {"cluster.builder.build", "cluster.builder.build_ms"},
    {"mobility.warmup", "mobility.warmup_ms"},
    {"lm.handoff.prime", "lm.handoff.prime_ms"},
    {"exp.flatten", "exp.flatten_ms"},
    {"exp.flatten.measure_hops", "exp.flatten.measure_hops_ms"},
};

/// Compares the replays' outputs with the workload call's, bit for bit.
std::string fidelity_error(const CallResult& call, std::span<const ReplayResult> replays) {
  if (replays.size() == 1) {
    for (const auto& [name, got] : replays.front().outputs.values) {
      const double want = call.single.get(name);
      if (std::memcmp(&want, &got, sizeof want) != 0) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s: run_simulation %.17g, replay %.17g", name.c_str(),
                      want, got);
        return buf;
      }
    }
    return "";
  }
  // Replications: fold the replays exactly as run_replications does (index
  // order, absent values skipped) and compare the summaries.
  std::map<std::string, manet::analysis::Accumulator> folded;
  for (const auto& r : replays) {
    for (const auto& [name, value] : r.outputs.values) {
      if (!std::isnan(value)) folded[name].add(value);
    }
  }
  for (const auto& [name, acc] : folded) {
    const auto want = call.aggregated.summary(name);
    const double pairs[][2] = {{want.mean, acc.mean()}, {want.min, acc.min()},
                               {want.max, acc.max()}};
    for (const auto& p : pairs) {
      if (std::memcmp(&p[0], &p[1], sizeof p[0]) != 0 || want.count != acc.count()) {
        return name + ": run_replications summary differs from the replays";
      }
    }
  }
  return "";
}

int run_traced(const Workload& w, bool has_expect, std::uint64_t expect,
               manet::common::ThreadPool& pool, const std::string& spans_out,
               const Stamp& stamp, std::uint64_t seed) {
  // Per scenario: the untraced workload call, then the replay fanned out
  // like that call (one replay per replication on the same pool), each
  // replay into its own recorder.
  const Size reps = w.replications;
  const Size scenarios = w.scenarios.size();
  Size attempted = 0;
  std::vector<SpanRecorder> recorders(scenarios * reps);
  std::vector<ReplayResult> replays(scenarios * reps);
  std::vector<std::uint64_t> digests(scenarios);
  std::vector<double> rep_max, rep_imbalance;
  double untraced_wall = 0.0, traced_wall = 0.0;
  for (Size sc = 0; sc < scenarios; ++sc) {
    const CallResult call = call_workload(w, sc, false, pool);
    digests[sc] = call.digest;
    untraced_wall += call.wall_s;
    const auto fan_start = std::chrono::steady_clock::now();
    auto replay_one = [&](Size r) {
      manet::exp::ScenarioConfig cfg = w.scenarios[sc];
      if (reps > 1) cfg.seed = manet::common::derive_seed(cfg.seed, r);
      replays[sc * reps + r] = replay_simulation(cfg, w.options, recorders[sc * reps + r]);
    };
    if (reps > 1) {
      pool.parallel_for(reps, replay_one);
    } else {
      replay_one(0);
    }
    traced_wall += seconds_since(fan_start);
    attempted += 1 + reps;
    const std::span<const ReplayResult> mine(replays.data() + sc * reps, reps);
    std::vector<double> walls;
    for (const auto& r : mine) walls.push_back(r.wall_s);
    rep_max.push_back(*std::max_element(walls.begin(), walls.end()));
    rep_imbalance.push_back(rep_max.back() / median(walls));
    const std::string error = call.error.empty() ? fidelity_error(call, mine) : call.error;
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench: traced run failed on scenario %zu: %s\n", sc, error.c_str());
      print_result(false, attempted, 1, {});
      return 1;
    }
  }
  const std::uint64_t digest = fold_digests(digests);
  if (has_expect && digest != expect) {
    std::fprintf(stderr, "perfbench: output digest %016llx does not match the reference %016llx\n",
                 static_cast<unsigned long long>(digest), static_cast<unsigned long long>(expect));
    print_result(false, attempted, 1, {});
    return 1;
  }

  // Per-tick self time per call, over every replayed tick of every replay.
  std::vector<double> tick_wall, tick_self;
  std::map<std::string, std::vector<double>> self_by_tick;
  std::map<std::string, double> wall_sum, cpu_sum, cpu_threads;
  std::map<std::string, std::vector<double>> setup_ms;
  std::vector<double> rep_walls;
  LayerCounts counts;
  Size tick_offset = 0;
  for (Size r = 0; r < replays.size(); ++r) {
    const auto& spans = recorders[r].spans();
    const auto ticks = static_cast<Size>(replays[r].counts.ticks);
    for (const auto& call_def : kTimedCalls) {
      self_by_tick[call_def.name].resize(tick_offset + ticks);
    }
    std::map<std::string, double> setup_sum;
    for (Size i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = recorders[r].self_time(static_cast<int>(i));
      const std::string name = s.name;
      if (s.tick < 0) {
        setup_sum[name] += self;
        continue;
      }
      const Size t = tick_offset + static_cast<Size>(s.tick);
      if (name == "exp.tick") {
        tick_wall.push_back(s.end - s.start);
        tick_self.push_back(self);
        continue;
      }
      self_by_tick[name].at(t) += self;
      wall_sum[name] += s.end - s.start;
      if (s.threads > 0) {
        cpu_sum[name] += s.cpu;
        cpu_threads[name] = s.threads;
      }
    }
    for (const auto& setup : kSetupCalls) setup_ms[setup[1]].push_back(1e3 * setup_sum[setup[0]]);
    rep_walls.push_back(replays[r].wall_s);
    counts.add(replays[r].counts);
    tick_offset += ticks;
  }

  double tick_total = 0.0;
  for (const double t : tick_wall) tick_total += t;
  const double n_ticks = std::max(1.0, counts.ticks);
  auto per_tick = [&](double v) { return v / n_ticks; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  std::vector<Metric> out;
  for (const auto& call_def : kTimedCalls) {
    const std::string base = call_def.name;
    const auto& samples = self_by_tick[base];
    double self_total = 0.0;
    for (const double v : samples) self_total += v;
    out.push_back({base + ".ms", 1e3 * median(samples), "ms"});
    out.push_back({base + ".p90_ms", 1e3 * quantile(samples, 0.9), "ms"});
    out.push_back({base + ".share", ratio(self_total, tick_total), "ratio"});
    if (call_def.sharded) {
      out.push_back({base + ".cpu_util",
                     ratio(cpu_sum[base], wall_sum[base] * cpu_threads[base]), "ratio"});
    }
  }
  const double lookups = counts.query_lookups;
  const std::vector<Metric> counted = {
      {"lm.handoff.entries_moved", per_tick(counts.entries_moved), "count"},
      {"lm.handoff.transfer_hops", per_tick(counts.transfer_hops), "count"},
      {"lm.handoff.priced_pairs", per_tick(counts.priced_pairs), "count"},
      {"lm.handoff.unreachable", per_tick(counts.unreachable), "count"},
      {"lm.reliable.retx_ratio", ratio(counts.retx, counts.lossy_packets), "ratio"},
      {"lm.reliable.failed_transfers", per_tick(counts.failed_transfers), "count"},
      {"net.unit_disk.moved_nodes", per_tick(counts.moved_nodes), "count"},
      {"net.unit_disk.bridges", per_tick(counts.bridges), "count"},
      {"net.unit_disk.changed_ratio", per_tick(counts.changed_ticks), "ratio"},
      {"net.unit_disk.full_rescan_ratio", per_tick(counts.full_rescan_ticks), "ratio"},
      {"net.link_tracker.events", per_tick(counts.link_events), "count"},
      {"cluster.repair.dirty_vertices", per_tick(counts.dirty_vertices), "count"},
      {"cluster.repair.reseeds", per_tick(counts.reseeds), "count"},
      {"exp.tick.rebuild_ratio", per_tick(counts.rebuild_ticks), "ratio"},
      {"cluster.diff.migrations", per_tick(counts.migrations), "count"},
      {"cluster.diff.events", per_tick(counts.reorg_events), "count"},
      {"routing.tables.builds", per_tick(counts.table_builds), "count"},
      {"traffic.sessions.packets", per_tick(counts.session_packets), "count"},
      {"traffic.sessions.loss_rate", ratio(counts.session_lost, counts.session_packets), "ratio"},
      {"traffic.sessions.misroute_rate", ratio(counts.session_misrouted, counts.session_packets),
       "ratio"},
      {"lm.handover.timeout_ratio", ratio(counts.handover_timeouts, counts.handover_started),
       "ratio"},
      {"lm.handover.retries", per_tick(counts.handover_retries), "count"},
      {"lm.query.lookup_ns", lookups > 0 ? 1e9 * wall_sum["lm.query.lookup"] / lookups : 0.0,
       "ns"},
      {"lm.query.hit_rate", ratio(counts.query_hits, lookups), "ratio"},
      {"exp.setup.connect_attempts", counts.connect_attempts / static_cast<double>(replays.size()),
       "count"},
      {"exp.tick.ms", 1e3 * median(tick_wall), "ms"},
      {"exp.tick.p90_ms", 1e3 * quantile(tick_wall, 0.9), "ms"},
      {"exp.tick.unattributed_ms", 1e3 * median(tick_self), "ms"},
      {"exp.montecarlo.rep_s", median(rep_walls), "s"},
      {"exp.montecarlo.rep_max_s", median(rep_max), "s"},
      {"exp.montecarlo.imbalance", median(rep_imbalance), "ratio"},
      {"exp.trace_overhead_ratio", ratio(traced_wall, untraced_wall), "ratio"},
  };
  out.insert(out.end(), counted.begin(), counted.end());
  for (const auto& setup : kSetupCalls) out.push_back({setup[1], median(setup_ms[setup[1]]), "ms"});

  if (!spans_out.empty()) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\"stamp\": %s,\n\"replays\": [", stamp.json(w.name, seed).c_str());
    for (Size r = 0; r < replays.size(); ++r) {
      std::fprintf(f, "%s\n{\"scenario\": %zu, \"replication\": %zu, \"spans\": ",
                   r == 0 ? "" : ",", r / reps, r % reps);
      recorders[r].write_json(f);
      std::fputc('}', f);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }
  print_result(true, attempted, 0, out);
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--expect <hex>] [--spans-out <file>]\n",
               msg);
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload, spans_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool has_expect = false;
  std::uint64_t expect = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--expect") {
        expect = std::stoull(val, nullptr, 16);
        has_expect = true;
      } else if (arg == "--spans-out") {
        spans_out = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  Workload w;
  try {
    w = make_workload(workload, seed);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  Stamp stamp;
  stamp.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  stamp.hardware_concurrency = std::thread::hardware_concurrency();
  stamp.threads = threads_used(w);
  std::printf("perfbench stamp %s\n", stamp.json(w.name, seed).c_str());
  std::fflush(stdout);
  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: invalid: %s build is not optimised; refusing to time it\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  manet::common::ThreadPool pool(w.pool_threads);
  return trace == 0 ? run_timed(w, seconds, has_expect, expect, pool)
                    : run_traced(w, has_expect, expect, pool, spans_out, stamp, seed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
