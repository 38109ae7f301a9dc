// farm_calls — per-call serving traffic: a closed loop of client threads,
// each keeping a fixed window of calls outstanding, into a serve::EngineFarm
// with every analysis option off.  The mix is the paper's CON_8 gradient,
// inter AbsDiff and side-only Sad calls over a pool of CIF frames larger
// than the shards' combined input slots, drawn with Zipf-skewed popularity,
// so affinity routing and residency both win and lose.
//
// Latency runs from submit() to the moment the client sees the result
// ready, so queue wait is included.  Clients look for finished calls every
// kPollMicros at the latest, which bounds how late a completion is seen.
//
// The farm's modeled clocks depend on host thread interleaving today, so
// the end-to-end engine_cycles and modeled_speedup come from replaying a
// fixed prefix of the call stream through a bare core::EngineSession; the
// farm's own modeled figures are per-layer and non-gating.
#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

constexpr int kShards = 2;
constexpr int kClients = 2;
// Outstanding calls per client.  Two clients keep 16 calls in flight, so
// a hot shard's queue passes the farm's spill depth (8) and the scheduler's
// spill path works too.
constexpr int kWindow = 8;

// The call mix, from two sources.  Paper Table 3 ("Movie") makes 4070
// intra and 3085 inter calls; its intra calls are CON_8 neighbourhood
// calls and its inter calls side-port accumulations (GmeAccum).  The
// repository's canonical farm mix (bench/farm_throughput.cpp) issues three
// CON_8 gradients per AbsDiff.  So gradients take Table 3's intra share,
// AbsDiff a third of that, and Sad, whose value is its side accumulator,
// the rest of the inter share.
constexpr double kGradientShare = 4070.0 / (4070.0 + 3085.0);  // 56.9 %
constexpr double kAbsDiffShare = kGradientShare / 3.0;         // 19.0 %

// Assumed, not measured traffic (no source gives them): the pool size, the
// partners per frame and the popularity skew.  The pool is three times the
// shards' combined input slots (2 x 2), so residency cannot hold it; a
// Zipf exponent of 1.1 makes the hottest frame about a third of all draws,
// enough for affinity routing to pay and for hot shards to spill.
constexpr int kFramePool = 12;
constexpr int kPartners = 2;      // second inputs per frame
constexpr double kZipfExponent = 1.1;
constexpr int kStreamLength = 1 << 14;  // calls per client before wrapping
constexpr int kReplayCalls = 160;
constexpr int kPollMicros = 200;
// The p99 rests on at least ten samples beyond it.
constexpr std::size_t kMinCalls = 1100;

enum class Kind : u8 { Gradient, AbsDiff, Sad };

struct CallDesc {
  Kind kind = Kind::Gradient;
  int frame = 0;
  int partner = 0;  // index into the frame's partner list (inter kinds)
};

struct Inputs {
  std::vector<img::Image> frames;
  std::vector<std::array<int, kPartners>> partners;
  std::vector<std::vector<CallDesc>> streams;  // one per client
  // References: [frame] for gradients, [frame * kPartners + k] for inter.
  std::vector<alib::CallResult> gradient_ref, absdiff_ref, sad_ref;
};

alib::Call make_call(Kind kind) {
  switch (kind) {
    case Kind::Gradient:
      return alib::Call::make_intra(alib::PixelOp::GradientMag,
                                    alib::Neighborhood::con8());
    case Kind::AbsDiff:
      return alib::Call::make_inter(alib::PixelOp::AbsDiff);
    case Kind::Sad:
      return alib::Call::make_inter(alib::PixelOp::Sad);
  }
  return {};
}

const alib::Call& call_of(Kind kind) {
  static const alib::Call calls[] = {make_call(Kind::Gradient),
                                     make_call(Kind::AbsDiff),
                                     make_call(Kind::Sad)};
  return calls[static_cast<int>(kind)];
}

Inputs make_inputs(u64 seed) {
  Inputs in;
  Rng rng(mix_seed(seed, 0xFA4));
  for (int f = 0; f < kFramePool; ++f)
    in.frames.push_back(
        img::make_test_frame(img::formats::kCif, rng.next_u64()));
  for (int f = 0; f < kFramePool; ++f) {
    std::array<int, kPartners> p{};
    for (int k = 0; k < kPartners; ++k) {
      int g = f;
      while (g == f) g = static_cast<int>(rng.bounded(kFramePool));
      p[static_cast<std::size_t>(k)] = g;
    }
    in.partners.push_back(p);
  }
  // Zipf popularity by pool index.  The ranking is the same under every
  // seed: which frames are hot decides how affinity routing spreads the
  // load over the shards, and a seed should change the pixels and the call
  // sequence, not that balance.
  std::vector<double> cdf;
  double total = 0.0;
  for (int r = 0; r < kFramePool; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfExponent);
    cdf.push_back(total);
  }
  const auto draw_frame = [&] {
    const double u = rng.uniform01() * total;
    int r = 0;
    while (r + 1 < kFramePool && cdf[static_cast<std::size_t>(r)] < u) ++r;
    return r;
  };
  for (int c = 0; c < kClients; ++c) {
    std::vector<CallDesc> stream;
    for (int i = 0; i < kStreamLength; ++i) {
      CallDesc d;
      const double u = rng.uniform01();
      d.kind = u < kGradientShare                   ? Kind::Gradient
               : u < kGradientShare + kAbsDiffShare ? Kind::AbsDiff
                                                    : Kind::Sad;
      d.frame = draw_frame();
      d.partner = static_cast<int>(rng.bounded(kPartners));
      stream.push_back(d);
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

const img::Image* second_input(const Inputs& in, const CallDesc& d) {
  if (d.kind == Kind::Gradient) return nullptr;
  return &in.frames[static_cast<std::size_t>(
      in.partners[static_cast<std::size_t>(d.frame)]
                 [static_cast<std::size_t>(d.partner)])];
}

const alib::CallResult& reference(const Inputs& in, const CallDesc& d) {
  const auto pair = static_cast<std::size_t>(d.frame * kPartners + d.partner);
  switch (d.kind) {
    case Kind::Gradient:
      return in.gradient_ref[static_cast<std::size_t>(d.frame)];
    case Kind::AbsDiff:
      return in.absdiff_ref[pair];
    case Kind::Sad:
      return in.sad_ref[pair];
  }
  return in.gradient_ref[0];
}

void compute_references(Inputs& in) {
  alib::SoftwareBackend software;
  for (int f = 0; f < kFramePool; ++f) {
    const img::Image& a = in.frames[static_cast<std::size_t>(f)];
    in.gradient_ref.push_back(software.execute(call_of(Kind::Gradient), a));
    for (int k = 0; k < kPartners; ++k) {
      CallDesc d{Kind::AbsDiff, f, k};
      in.absdiff_ref.push_back(
          software.execute(call_of(Kind::AbsDiff), a, second_input(in, d)));
      in.sad_ref.push_back(
          software.execute(call_of(Kind::Sad), a, second_input(in, d)));
    }
  }
}

serve::FarmOptions farm_options() {
  serve::FarmOptions options;
  options.shards = kShards;
  options.validate_before_execute = false;
  options.cost_aware_routing = false;
  options.admission_budget_cycles = 0;
  options.optimize_on_submit = false;
  options.residency_plan = false;
  return options;
}

struct LoopResult {
  i64 completed = 0;
  i64 mismatches = 0;
  double wall_s = 0.0;
  std::vector<double> latencies_s;
  double submit_s = 0.0;  // summed time inside submit()
  std::vector<std::string> failures;
  // Completed calls per second over one-second windows, host and modeled.
  std::vector<double> window_calls_per_s;
  std::vector<double> modeled_window_calls_per_s;
};

// The closed loop: every client keeps kWindow calls in flight until the
// time is up (and at least kMinCalls completed), then drains.
LoopResult run_loop(serve::EngineFarm& farm, const Inputs& in, double seconds,
                    Tracer& tracer) {
  LoopResult out;
  std::atomic<bool> stop{false};
  std::atomic<i64> completed{0};
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_done = start;

  const auto client = [&](int c) {
    struct Pending {
      const CallDesc* desc;
      Clock::time_point submitted;
      std::future<alib::CallResult> future;
    };
    const std::vector<CallDesc>& stream =
        in.streams[static_cast<std::size_t>(c)];
    std::size_t next = 0;
    std::deque<Pending> window;
    std::vector<double> latencies;
    double submit_s = 0.0;
    i64 mismatches = 0;
    std::vector<std::string> failures;
    Clock::time_point my_last = start;
    const auto submit_one = [&] {
      const CallDesc& d = stream[next++ % stream.size()];
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(tracer, "serve.submit", c);
      const img::Image& a = in.frames[static_cast<std::size_t>(d.frame)];
      window.push_back(
          {&d, t0, farm.submit(call_of(d.kind), a, second_input(in, d))});
      submit_s += seconds_since(t0);
    };
    const auto serve = [&] {
      while (true) {
        while (!stop.load(std::memory_order_relaxed) &&
               window.size() < static_cast<std::size_t>(kWindow))
          submit_one();
        if (window.empty()) break;
        // Note every call that is ready now, then check them.
        std::vector<std::pair<Pending, Clock::time_point>> ready;
        for (auto it = window.begin(); it != window.end();) {
          if (it->future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            ready.emplace_back(std::move(*it), Clock::now());
            it = window.erase(it);
          } else {
            ++it;
          }
        }
        if (ready.empty()) {
          window.front().future.wait_for(
              std::chrono::microseconds(kPollMicros));
          continue;
        }
        while (!stop.load(std::memory_order_relaxed) &&
               window.size() < static_cast<std::size_t>(kWindow))
          submit_one();
        for (auto& [p, done] : ready) {
          tracer.record("serve.call", p.submitted, done, c);
          latencies.push_back(std::chrono::duration<double>(done - p.submitted)
                                  .count());
          my_last = std::max(my_last, done);
          try {
            const alib::CallResult got = p.future.get();
            const std::string why =
                compare_results(got, reference(in, *p.desc));
            if (!why.empty()) {
              ++mismatches;
              failures.push_back("farm_calls: " + why);
            }
          } catch (const std::exception& e) {
            ++mismatches;
            failures.push_back(std::string("farm_calls: ") + e.what());
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    // A throwing submit() must not escape the thread: it is recorded as a
    // failure and ends this client.
    try {
      serve();
    } catch (const std::exception& e) {
      ++mismatches;
      failures.push_back(std::string("farm_calls: client stopped: ") +
                         e.what());
    }
    std::lock_guard<std::mutex> lock(mu);
    out.latencies_s.insert(out.latencies_s.end(), latencies.begin(),
                           latencies.end());
    out.submit_s += submit_s;
    out.mismatches += mismatches;
    out.failures.insert(out.failures.end(), failures.begin(), failures.end());
    last_done = std::max(last_done, my_last);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  // The main thread samples completions and the farm's modeled clock over
  // one-second windows while the clients run.
  const core::EngineConfig engine = farm.config();
  serve::FarmStats prev = farm.stats();
  i64 prev_completed = 0;
  Clock::time_point window_start = start;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const i64 done = completed.load();
    const bool time_up = seconds_since(start) >= seconds &&
                         done >= static_cast<i64>(kMinCalls);
    const double window_s = seconds_since(window_start);
    if (window_s >= 1.0 || time_up) {
      out.window_calls_per_s.push_back(
          static_cast<double>(done - prev_completed) / window_s);
      const serve::FarmStats now = farm.stats();
      const double modeled =
          static_cast<double>(now.makespan_cycles() - prev.makespan_cycles()) *
          engine.seconds_per_cycle();
      if (modeled > 0)
        out.modeled_window_calls_per_s.push_back(
            static_cast<double>(now.completed - prev.completed) / modeled);
      prev = now;
      prev_completed = done;
      window_start = Clock::now();
    }
    if (time_up || seconds_since(start) >= 3 * seconds) break;
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  farm.drain();
  out.completed = completed.load();
  out.wall_s = std::chrono::duration<double>(last_done - start).count();
  return out;
}

struct Replay {
  u64 cycles = 0;
  double software_model_s = 0.0;
  double service_s = 0.0;
  i64 calls = 0;
  i64 mismatches = 0;
  std::vector<u64> per_call_cycles;
};

// A fixed prefix of the interleaved client streams through a bare session:
// the deterministic modeled cost of the mix and its per-call service time.
// `backend` is `session` itself or a span decorator in front of it.
Replay replay(const Inputs& in, int calls, core::EngineSession& session,
              alib::Backend& backend) {
  Replay out;
  for (int i = 0; i < calls; ++i) {
    const CallDesc& d =
        in.streams[static_cast<std::size_t>(i % kClients)]
                  [static_cast<std::size_t>(i / kClients)];
    const u64 before = session.stats().cycles;
    const Clock::time_point t0 = Clock::now();
    const alib::CallResult got =
        backend.execute(call_of(d.kind),
                        in.frames[static_cast<std::size_t>(d.frame)],
                        second_input(in, d));
    out.service_s += seconds_since(t0);
    out.per_call_cycles.push_back(session.stats().cycles - before);
    out.cycles += out.per_call_cycles.back();
    const alib::CallResult& ref = reference(in, d);
    out.software_model_s += ref.stats.model_seconds;
    if (!compare_results(got, ref).empty()) ++out.mismatches;
    ++out.calls;
  }
  return out;
}

}  // namespace

RunResult run_farm_calls(const RunConfig& config) {
  RunResult result;
  Inputs in = make_inputs(config.seed);
  compute_references(in);
  result.note("farm.shards", std::to_string(kShards));
  result.note("farm.clients", std::to_string(kClients));
  result.note("farm.window", std::to_string(kWindow));
  result.note("farm.frame_pool", std::to_string(kFramePool) + " CIF frames");
  result.note("farm.loop", "closed loop, " + std::to_string(kClients) +
                               " clients x " + std::to_string(kWindow) +
                               " outstanding calls");

  // Set-up: a farm up and serving — construction (scheduler and shard
  // threads), then every distinct call of the mix once (every frame seeds
  // the routing table).  A few calls alone take tens of ms, too short a
  // phase to time steadily on a shared host.
  std::unique_ptr<serve::EngineFarm> farm;
  const auto make_ready = [&] {
    farm = std::make_unique<serve::EngineFarm>(farm_options());
    std::vector<std::future<alib::CallResult>> warm;
    for (int f = 0; f < kFramePool; ++f)
      for (const Kind k : {Kind::Gradient, Kind::AbsDiff, Kind::Sad})
        for (int p = 0; p < (k == Kind::Gradient ? 1 : kPartners); ++p) {
          const CallDesc d{k, f, p};
          warm.push_back(farm->submit(call_of(k),
                                      in.frames[static_cast<std::size_t>(f)],
                                      second_input(in, d)));
        }
    for (auto& w : warm) (void)w.get();
  };
  // A previous farm's shutdown is not set-up time.
  const double setup_s =
      median_setup_seconds(3, make_ready, [&] { farm.reset(); });

  const auto account = [&](const LoopResult& loop) {
    result.attempted += loop.completed;
    if (loop.mismatches > 0)
      result.fail(loop.failures.empty() ? "farm_calls: mismatch"
                                        : loop.failures.front(),
                  loop.mismatches);
  };
  const auto account_replay = [&](const Replay& r) {
    result.attempted += r.calls;
    if (r.mismatches > 0)
      result.fail("farm_calls: replay mismatch", r.mismatches);
  };

  if (!config.trace) {
    MetricTable e2e(false);
    Tracer off(false);
    const LoopResult loop = run_loop(*farm, in, config.seconds, off);
    account(loop);
    farm.reset();
    core::EngineSession session;
    const Replay r = replay(in, kReplayCalls, session, session);
    account_replay(r);
    // Determinism guard: a second replay must price every call the same.
    core::EngineSession again_session;
    const Replay again =
        replay(in, kReplayCalls / 4, again_session, again_session);
    account_replay(again);
    if (!std::equal(again.per_call_cycles.begin(), again.per_call_cycles.end(),
                    r.per_call_cycles.begin()))
      result.fail("farm_calls: replayed modeled cycles changed");
    e2e.set("setup_s", setup_s);
    e2e.set("items_per_s", median(loop.window_calls_per_s));
    result.note("farm_calls.mean_calls_per_s",
                std::to_string(static_cast<double>(loop.completed) /
                               loop.wall_s));
    add_latency(loop.latencies_s, e2e, result);
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("engine_cycles", static_cast<double>(r.cycles) / r.calls);
    e2e.set("modeled_speedup",
            r.software_model_s /
                (static_cast<double>(r.cycles) *
                 session.config().seconds_per_cycle()));
    e2e.emit(result);
    result.note("farm_calls.items", "calls");
    result.note("farm_calls.engine_cycles_definition",
                "mean modeled cycles of the first " +
                    std::to_string(kReplayCalls) +
                    " calls of the stream replayed on one bare EngineSession");
    return result;
  }

  MetricTable layers(true);
  Tracer off(false);
  const LoopResult untraced = run_loop(*farm, in, config.seconds / 2, off);
  account(untraced);
  farm.reset();
  make_ready();
  Tracer tracer(true);
  // Counters are taken as differences, so set-up traffic does not count.
  const serve::FarmStats before = farm->stats();
  const LoopResult traced = run_loop(*farm, in, config.seconds / 2, tracer);
  account(traced);
  const serve::FarmStats after = farm->stats();
  const double engine_spc = farm->config().seconds_per_cycle();
  farm.reset();

  core::EngineSession session;
  SpanBackend traced_session(session, tracer, session_span_name);
  const Replay r = replay(in, kReplayCalls, session, traced_session);
  account_replay(r);
  const double n = static_cast<double>(traced.completed);
  double latency_sum = 0.0;
  for (const double s : traced.latencies_s) latency_sum += s;
  const double service_ms = r.service_s / static_cast<double>(r.calls) * 1e3;
  const auto spans = tracer.summarize();
  set_session_call_layers(spans, static_cast<double>(r.calls), layers);
  layers.set("core.session_service_ms", service_ms);
  layers.set("serve.submit_ms", traced.submit_s / n * 1e3);
  layers.set("serve.wait_ms", latency_sum / n * 1e3 - service_ms);
  const auto per_call = [n](auto a, auto b) {
    return static_cast<double>(a - b) / n;
  };
  layers.set("serve.batches", per_call(after.batches, before.batches));
  layers.set("serve.affinity_hits",
             per_call(after.affinity_hits, before.affinity_hits));
  layers.set("serve.affinity_spills",
             per_call(after.affinity_spills, before.affinity_spills));
  layers.set("serve.peak_queue_depth",
             static_cast<double>(after.peak_queue_depth));
  layers.set("serve.overlap_kcycles",
             per_call(after.overlap_cycles_saved,
                      before.overlap_cycles_saved) / 1e3);
  core::SessionStats sessions;
  for (std::size_t s = 0; s < after.shards.size(); ++s) {
    const core::SessionStats d = session_delta(after.shards[s].session,
                                               before.shards[s].session);
    sessions.inputs_transferred += d.inputs_transferred;
    sessions.inputs_reused += d.inputs_reused;
    sessions.board_copies += d.board_copies;
    sessions.outputs_elided += d.outputs_elided;
  }
  set_residency_layers(sessions, n, layers);
  const double makespan_cycles =
      per_call(after.makespan_cycles(), before.makespan_cycles());
  layers.set("serve.makespan_cycles", makespan_cycles);
  layers.set("serve.modeled_calls_per_s", 1.0 / (makespan_cycles * engine_spc));
  const std::vector<double>& windows = traced.modeled_window_calls_per_s;
  if (!windows.empty()) {
    const auto [lo, hi] = std::minmax_element(windows.begin(), windows.end());
    layers.set("serve.modeled_spread_pct", (*hi - *lo) / median(windows) * 100);
    result.note("serve.modeled_calls_per_s_windows",
                std::to_string(windows.size()) + " one-second windows, min " +
                    std::to_string(*lo) + ", max " + std::to_string(*hi) +
                    " (non-gating: farm modeled time depends on host "
                    "interleaving)");
  }
  // With kClients x kWindow calls in flight all the time, the
  // submit-to-ready spans add up to that many times the wall time of the
  // loop (Little's law); a client that lets its window run dry shows here.
  finish_trace(config, tracer, untraced.wall_s / untraced.completed,
               traced.wall_s / n,
               find_layer(spans, "serve.call").total_ms * 1e-3 /
                   (kClients * kWindow) / n,
               layers, result);
  layers.emit(result);
  return result;
}

}  // namespace aebench
