// program_serve — whole CallPrograms served through
// serve::EngineFarm::execute_program on one shard, with the aeopt rewriter
// (optimize_on_submit) and plan-directed residency (residency_plan) on.
// The only workload in which the analysis passes do work.
//
// Programs are built from motifs, each of which gives one rewrite class
// something to do: a fusable pointwise chain, dead stores, a proven
// identity (range), a re-read that reordering turns into reuse, and a
// side-only Sad.  Sizes are heavy-tailed (Pareto, taken at stratum
// midpoints) over three shared QCIF inputs.  A program of a given size
// always has the same call graph — motif kinds and their input frames
// cycle in a fixed order — because the analysis passes' cost depends
// steeply on that graph, and the longest program sets the tail; the seed
// picks the input pixels, the op parameters and the order of the pool.
//
// References are the unoptimized programs on the software backend.  Every
// pass over the pool starts right after the pool's last program has run
// (the warm-up runs it too), so each program's modeled cycles must repeat
// exactly from pass to pass.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/alloc.hpp"
#include "analysis/domain.hpp"
#include "analysis/optimizer.hpp"
#include "analysis/planner.hpp"
#include "analysis/verifier.hpp"
#include "bench.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "image/synth.hpp"
#include "metrics.hpp"
#include "serve/farm.hpp"

namespace aebench {

namespace {

using namespace ae;
using analysis::CallProgram;

// Assumed, not measured traffic (no source gives program sizes): a Pareto
// shape of 1.3 over 2..40 motifs puts the median program near 3 motifs and
// the longest at 40 (about 100 calls), so a few long programs, where the
// analysis passes' cost grows fastest, weigh on the pass time and the tail.
constexpr int kPrograms = 32;
constexpr int kInputs = 3;
constexpr int kMinMotifs = 2;
constexpr int kMaxMotifs = 40;
constexpr double kParetoAlpha = 1.3;
constexpr int kMotifKinds = 5;

alib::Call gradient() {
  return alib::Call::make_intra(alib::PixelOp::GradientMag,
                                alib::Neighborhood::con8());
}

alib::Call pointwise(alib::PixelOp op, i32 value) {
  alib::OpParams params;
  if (op == alib::PixelOp::Threshold) params.threshold = value;
  if (op == alib::PixelOp::Scale) params.scale_num = value;
  return alib::Call::make_intra(op, alib::Neighborhood::con0(),
                                ChannelMask::y(), ChannelMask::y(), params);
}

// Appends the `index`-th motif of a program over its external inputs.
void add_motif(CallProgram& p, int index, Rng& rng) {
  const i32 x = index % kInputs;
  const i32 y = (index + 1) % kInputs;
  const i32 z = (index + 2) % kInputs;
  switch (index % kMotifKinds) {
    case 0: {  // fuse: gradient -> scale -> threshold
      i32 f = p.add_call(gradient(), x);
      f = p.add_call(pointwise(alib::PixelOp::Scale, rng.uniform(2, 3)), f);
      p.mark_output(p.add_call(
          pointwise(alib::PixelOp::Threshold, rng.uniform(40, 90)), f));
      break;
    }
    case 1: {  // dead-elim: a median nobody reads beside a live threshold
      p.add_call(alib::Call::make_intra(alib::PixelOp::Median,
                                        alib::Neighborhood::con8()),
                 x);
      p.mark_output(p.add_call(
          pointwise(alib::PixelOp::Threshold, rng.uniform(30, 60)), y));
      break;
    }
    case 2: {  // range: Add(x, Threshold(x, 255)) is proven to be x
      const i32 flat = p.add_call(pointwise(alib::PixelOp::Threshold, 255), x);
      const i32 sum =
          p.add_call(alib::Call::make_inter(alib::PixelOp::Add), x, flat);
      p.mark_output(
          p.add_call(pointwise(alib::PixelOp::Scale, rng.uniform(2, 3)), sum));
      break;
    }
    case 3: {  // reorder: x is evicted by an unrelated inter call, re-read
      p.mark_output(p.add_call(gradient(), x));
      p.mark_output(
          p.add_call(alib::Call::make_inter(alib::PixelOp::AbsDiff), y, z));
      p.mark_output(p.add_call(
          pointwise(alib::PixelOp::Threshold, rng.uniform(20, 40)), x));
      break;
    }
    default: {  // side-only: the Sad's value is its side accumulator
      p.add_call(alib::Call::make_inter(alib::PixelOp::Sad), x, y);
      break;
    }
  }
}

struct Pool {
  std::vector<img::Image> inputs;
  std::vector<CallProgram> programs;
  std::vector<CallProgram> optimized;  // what execute_program will run
  std::vector<analysis::ProgramRunResult> refs;
  double software_model_s = 0.0;
  std::size_t longest = 0;
  std::map<std::string, int> rewrites_by_kind;  // over the whole pool
};

Pool make_pool(u64 seed) {
  Pool pool;
  Rng rng(mix_seed(seed, 0x9A06));
  for (int i = 0; i < kInputs; ++i)
    pool.inputs.push_back(
        img::make_test_frame(img::formats::kQcif, rng.next_u64()));
  std::vector<int> motifs;
  for (int i = 0; i < kPrograms; ++i) {
    const double u = (i + 0.5) / kPrograms;
    const double m = kMinMotifs / std::pow(1.0 - u, 1.0 / kParetoAlpha);
    motifs.push_back(std::min(kMaxMotifs, static_cast<int>(m)));
  }
  // Seeded order, except that the program at the third quartile of size
  // always comes last: it is also the warm-up program, so set-up does the
  // same work under every seed.
  std::swap(motifs[kPrograms * 3 / 4], motifs.back());
  for (int i = kPrograms - 2; i > 0; --i)
    std::swap(motifs[static_cast<std::size_t>(i)],
              motifs[rng.bounded(static_cast<u32>(i + 1))]);
  for (const int count : motifs) {
    CallProgram p;
    for (int i = 0; i < kInputs; ++i)
      p.add_input(img::formats::kQcif, "in" + std::to_string(i));
    for (int k = 0; k < count; ++k) add_motif(p, k, rng);
    pool.programs.push_back(std::move(p));
  }
  alib::SoftwareBackend software;
  for (std::size_t i = 0; i < pool.programs.size(); ++i) {
    const CallProgram& p = pool.programs[i];
    analysis::OptimizeResult opt = analysis::optimize_program(p);
    for (const analysis::RewriteRecord& r : opt.log.records)
      ++pool.rewrites_by_kind[r.kind];
    pool.optimized.push_back(std::move(opt.program));
    pool.refs.push_back(analysis::run_program(p, software, pool.inputs));
    pool.software_model_s += pool.refs.back().stats.model_seconds;
    if (p.calls().size() > pool.programs[pool.longest].calls().size())
      pool.longest = i;
  }
  return pool;
}

serve::FarmOptions farm_options() {
  serve::FarmOptions options;
  options.shards = 1;
  options.optimize_on_submit = true;
  options.residency_plan = true;
  return options;
}

std::string check(const serve::ProgramExecution& got, const Pool& pool,
                  std::size_t i) {
  const analysis::ProgramRunResult& ref = pool.refs[i];
  if (got.run.outputs.size() != ref.outputs.size())
    return "output count differs";
  for (std::size_t o = 0; o < ref.outputs.size(); ++o)
    if (!(got.run.outputs[o] == ref.outputs[o]))
      return "output " + std::to_string(o) + " pixels differ";
  if (!same_side(got.run.side, ref.side)) return "side accumulators differ";
  if (!got.allocated) return "program ran without a residency plan";
  std::string why;
  if (!analysis::residency_plan_legal(pool.optimized[i], got.residency, &why))
    return "illegal residency plan: " + why;
  return "";
}

struct Pass {
  double busy_s = 0.0;
  std::vector<double> latencies_s;
  std::vector<u64> cycles;
  double rewrites = 0.0, rejected = 0.0, words_saved = 0.0;
};

}  // namespace

RunResult run_program_serve(const RunConfig& config) {
  RunResult result;
  const Pool pool = make_pool(config.seed);
  std::size_t total_calls = 0;
  for (const CallProgram& p : pool.programs) total_calls += p.calls().size();
  result.note("program_serve.pool",
              std::to_string(kPrograms) + " programs, " +
                  std::to_string(total_calls) + " calls, longest " +
                  std::to_string(pool.programs[pool.longest].calls().size()) +
                  " calls, over " + std::to_string(kInputs) + " QCIF inputs");
  result.note("program_serve.farm",
              "1 shard, 1 client running one execute_program at a time");
  // The workload exists to give every rewrite class work; a pool in which
  // one never fires would measure something else.
  for (const char* kind : {"dead-elim", "range", "fuse", "reorder"}) {
    const auto it = pool.rewrites_by_kind.find(kind);
    const int count = it == pool.rewrites_by_kind.end() ? 0 : it->second;
    result.note(std::string("program_serve.rewrites.") + kind,
                std::to_string(count));
    if (count == 0)
      result.fail(std::string("program_serve: no ") + kind +
                  " rewrite in the pool");
  }

  std::unique_ptr<serve::EngineFarm> farm;
  // Set-up: a one-shard farm warmed by one pass over the pool, which ends
  // with the pool's last program, so every timed pass starts from the
  // residency that program leaves.  (Warming with that program alone takes
  // about 12 ms, whose median moved by a third between two sets of runs.)
  // A previous farm's shutdown is not set-up time.
  const double setup_s = median_setup_seconds(
      3,
      [&] {
        farm = std::make_unique<serve::EngineFarm>(farm_options());
        for (const CallProgram& p : pool.programs)
          (void)farm->execute_program(p, pool.inputs);
      },
      [&] { farm.reset(); });

  std::vector<u64> first_cycles;
  const auto run_pass = [&](Tracer& tracer) {
    Pass pass;
    for (std::size_t i = 0; i < pool.programs.size(); ++i) {
      ++result.attempted;
      serve::ProgramExecution got;
      const Clock::time_point t0 = Clock::now();
      try {
        ScopedSpan item(tracer, "program.item", static_cast<i64>(i));
        ScopedSpan span(tracer, "serve.program", static_cast<i64>(i));
        got = farm->execute_program(pool.programs[i], pool.inputs);
      } catch (const std::exception& e) {
        result.fail(std::string("program_serve: ") + e.what());
        continue;
      }
      const double dt = seconds_since(t0);
      pass.busy_s += dt;
      pass.latencies_s.push_back(dt);
      pass.cycles.push_back(got.run.stats.cycles);
      pass.rewrites += static_cast<double>(got.log.records.size());
      pass.rejected += got.log.rejected;
      pass.words_saved += static_cast<double>(got.residency.words_saved);
      const std::string why = check(got, pool, i);
      if (!why.empty())
        result.fail("program_serve: program " + std::to_string(i) + ": " + why);
    }
    if (first_cycles.empty()) {
      first_cycles = pass.cycles;
      if (pass.words_saved <= 0)
        result.fail("program_serve: the residency plans saved no PCI words");
    } else if (pass.cycles != first_cycles)
      result.fail("program_serve: modeled cycles changed between passes");
    return pass;
  };
  const auto run_for = [&](double seconds, Tracer& tracer,
                           std::vector<Pass>& passes) {
    const Clock::time_point start = Clock::now();
    do {
      passes.push_back(run_pass(tracer));
    } while (seconds_since(start) < seconds);
  };
  const auto per_program = [](const std::vector<Pass>& passes) {
    double busy = 0.0;
    std::size_t n = 0;
    for (const Pass& p : passes) {
      busy += p.busy_s;
      n += p.latencies_s.size();
    }
    return busy / static_cast<double>(std::max<std::size_t>(1, n));
  };
  const double spc = farm->config().seconds_per_cycle();

  if (!config.trace) {
    MetricTable e2e(false);
    Tracer off(false);
    std::vector<Pass> passes;
    run_for(config.seconds, off, passes);
    std::vector<double> latencies, pass_s;
    for (const Pass& p : passes) {
      latencies.insert(latencies.end(), p.latencies_s.begin(),
                       p.latencies_s.end());
      pass_s.push_back(p.busy_s);
    }
    u64 cycles = 0;
    for (const u64 c : first_cycles) cycles += c;
    e2e.set("setup_s", setup_s);
    e2e.set("items_per_s", median_pass_rate(pass_s, kPrograms, result));
    add_latency(latencies, e2e, result);
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("engine_cycles", static_cast<double>(cycles) / kPrograms);
    e2e.set("modeled_speedup",
            pool.software_model_s / (static_cast<double>(cycles) * spc));
    e2e.emit(result);
    result.note("program_serve.items", "programs");
    result.note("program_serve.modeled_speedup_definition",
                "software-model seconds of the unoptimized programs over "
                "board seconds of the optimized, plan-directed runs");
    return result;
  }

  MetricTable layers(true);
  Tracer off(false);
  std::vector<Pass> untraced, traced;
  run_for(config.seconds / 2, off, untraced);
  const serve::FarmStats before = farm->stats();
  Tracer tracer(true);
  run_for(config.seconds / 2, tracer, traced);
  const serve::FarmStats after = farm->stats();

  // The analysis passes, timed from outside on the same programs with the
  // options execute_program uses, and a replay of each optimized program
  // through a bare session for the per-mode session times.
  analysis::AllocOptions alloc_options;
  alloc_options.plan.config = farm->config();
  std::vector<double> opt_longest, alloc_longest;
  core::EngineSession session;
  SpanBackend traced_session(session, tracer, session_span_name);
  for (std::size_t i = 0; i < pool.programs.size(); ++i) {
    const CallProgram& p = pool.programs[i];
    const auto item = static_cast<i64>(i);
    ScopedSpan root(tracer, "program.analysis", item);
    {
      ScopedSpan span(tracer, "analysis.verify", item);
      (void)analysis::verify_program(p);
    }
    {
      ScopedSpan span(tracer, "analysis.plan", item);
      (void)analysis::plan_program(p);
    }
    {
      ScopedSpan span(tracer, "analysis.domain", item);
      (void)analysis::analyze_domain(p);
    }
    Clock::time_point t0 = Clock::now();
    analysis::OptimizeResult opt;
    {
      ScopedSpan span(tracer, "analysis.opt", item);
      opt = analysis::optimize_program(p);
    }
    if (i == pool.longest) opt_longest.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "analysis.alloc", item);
      (void)analysis::allocate_residency(opt.program, alloc_options);
    }
    if (i == pool.longest) alloc_longest.push_back(seconds_since(t0));
    ScopedSpan replay(tracer, "program.replay", item);
    session.invalidate();
    (void)analysis::run_program(opt.program, traced_session, pool.inputs);
  }

  double programs = 0.0, rewrites = 0.0, rejected = 0.0, words = 0.0;
  for (const Pass& p : traced) {
    programs += static_cast<double>(p.latencies_s.size());
    rewrites += p.rewrites;
    rejected += p.rejected;
    words += p.words_saved;
  }
  const auto spans = tracer.summarize();
  const auto mean_ms = [&](const char* name) {
    const Tracer::Layer layer = find_layer(spans, name);
    return layer.count == 0
               ? 0.0
               : layer.total_ms / static_cast<double>(layer.count);
  };
  layers.set("analysis.verify_ms", mean_ms("analysis.verify"));
  layers.set("analysis.plan_ms", mean_ms("analysis.plan"));
  layers.set("analysis.domain_ms", mean_ms("analysis.domain"));
  layers.set("analysis.opt_ms", mean_ms("analysis.opt"));
  layers.set("analysis.alloc_ms", mean_ms("analysis.alloc"));
  layers.set("analysis.opt_ms_longest", median(opt_longest) * 1e3);
  layers.set("analysis.alloc_ms_longest", median(alloc_longest) * 1e3);
  layers.set("analysis.rewrites_applied", rewrites / programs);
  layers.set("analysis.rewrites_rejected", rejected / programs);
  layers.set("analysis.alloc_words_saved", words / programs);
  layers.set("serve.program_exec_ms", mean_ms("serve.program") -
                                          mean_ms("analysis.opt") -
                                          mean_ms("analysis.alloc"));
  layers.set("serve.planned_words_saved",
             static_cast<double>(after.planned_words_saved -
                                 before.planned_words_saved) /
                 static_cast<double>(after.planned_programs -
                                     before.planned_programs));
  set_session_call_layers(spans, kPrograms, layers);
  set_residency_layers(session_delta(after.shards.front().session,
                                     before.shards.front().session),
                       programs, layers);
  // The overhead compares execute_program itself, traced and untraced; the
  // analysis and replay spans are extra work of the traced run only.
  finish_trace(config, tracer, per_program(untraced), per_program(traced),
               find_layer(spans, "program.item").total_ms * 1e-3 / programs,
               layers, result);
  layers.emit(result);
  return result;
}

}  // namespace aebench
