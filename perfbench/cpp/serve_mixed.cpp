// serve-mixed: the mission service's request path, with cache hits beside
// fresh-seed misses.
//
// The timed operation is one batch of kBatch requests, sent back to back
// (closed loop) to an in-process MissionService with one worker thread.
// Each request takes MissionServer's path minus the socket.  The client
// encodes it: JSON lines for even positions, WRB1 for odd ones.  The server
// side decodes it and resolves it with to_mission_request.  The batch goes
// to MissionService::submit_batch, which looks up the cache, coalesces
// duplicates, admits and executes the misses.  Each response is encoded,
// then decoded by the client.  Three in four requests repeat a 16-seed hot
// set of the default scenario (cache hits after set-up).  The rest carry
// seeds never sent before, so they execute, insert into the cache and,
// after the first ~4096, evict.
//
// Why batches on one worker: a single request takes a few milliseconds, and
// on a shared host the scheduler's stalls moved its p99 by 30% or more from
// run to run.  The stalls also moved the latency of a batch fanned out over
// 4 workers, because the batch waits for its slowest worker.  A batch
// served by one worker is sequential CPU work and stays steady.  The
// per-request, open-loop view is measured in traced runs: a fixed-rate
// schedule over MissionServer's unix socket, with default ServiceOptions.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "runner/runner.hpp"
#include "svc/digest.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wrsn;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kHotSeeds = 16;
constexpr double kHotShare = 0.75;
/// Requests per batch (about 12 of them misses).  The larger the batch, the
/// smaller the share of its time a stall of the host takes.
constexpr std::size_t kBatch = 48;
/// The tail is the p95 per window of this many batches (10 beyond it),
/// reported as the median over windows.  A run serves at least one window.
constexpr std::size_t kTailWindow = 200;
constexpr double kTailQ = 0.95;
constexpr std::size_t kWarmupFresh = 128;
/// Offered rate of the traced open-loop socket phase, well below what 4
/// connections sustain.
constexpr double kOpenLoopRps = 1000.0;
/// In the open loop a connection sleeps until this long before a request is
/// due, then spins, so the timer's wake-up jitter does not count as latency.
constexpr auto kSpinLead = std::chrono::microseconds(250);
/// Stream ids of the phases' request schedules.
constexpr std::uint64_t kTracedStreams = 1ull << 30;
constexpr std::uint64_t kOpenLoopStream = 1ull << 31;

struct Request {
  std::uint64_t seed = 0;
  bool attack = true;
  bool hot = false;
  std::string repro;
};

/// What the service answered to one request.
struct Served {
  std::uint64_t result_digest = 0;
  std::uint64_t scenario_digest = 0;
  std::uint64_t seed = 0;
  bool ok = false;  ///< kOk status, no transport or codec error
};

Served served_from(const svc::MissionResponse& r, bool transport_ok) {
  return {r.outcome.result_digest, r.outcome.scenario_digest, r.outcome.seed,
          transport_ok && r.status == svc::MissionStatus::kOk};
}

Request make_request(std::uint64_t seed, bool attack, bool hot) {
  Request r;
  r.seed = seed;
  r.attack = attack;
  r.hot = hot;
  r.repro = std::string("mode=") + (attack ? "attack" : "benign") +
            ";seed=" + std::to_string(seed);
  return r;
}

std::vector<Request> hot_set(std::uint64_t seed) {
  std::vector<Request> hot;
  for (std::size_t i = 0; i < kHotSeeds; ++i) {
    hot.push_back(make_request(derive_seed(seed, 1, i) >> 12, i % 2 == 0, true));
  }
  return hot;
}

/// `count` requests of stream `stream`: hot with probability kHotShare (a
/// seeded draw), else a fresh seed.
std::vector<Request> make_schedule(std::uint64_t seed, std::uint64_t stream,
                                   std::size_t count,
                                   const std::vector<Request>& hot) {
  Rng rng(derive_seed(seed, 2, stream));
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    if (rng.bernoulli(kHotShare)) {
      out.push_back(hot[std::size_t(rng.uniform_int(0, kHotSeeds - 1))]);
    } else {
      out.push_back(make_request(derive_seed(seed, 3 + stream, j) >> 12,
                                 j % 2 == 0, false));
    }
  }
  return out;
}

/// Serves `requests` as one batch (see the file comment) and appends what
/// was served to `out`.  With a span log, the stages get spans.
void serve_batch(svc::MissionService& service,
                 std::span<const Request> requests, std::vector<Served>& out,
                 SpanLog* log, std::uint64_t op) {
  const ScopedSpan root(log, "batch", op);
  std::string bytes, error;
  std::vector<svc::MissionRequest> parsed(requests.size());
  {
    const ScopedSpan span(log, "svc.parse", op);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      svc::WireRequest wire, received;
      wire.id = i;
      wire.repro = requests[i].repro;
      const bool ok =
          i % 2 == 1 ? (svc::encode_request_frame(wire, bytes),
                        svc::decode_request_frame(bytes, received, error))
                     : svc::decode_request_json(svc::encode_request_json(wire),
                                                received, error);
      if (!ok) throw std::runtime_error("request codec: " + error);
      parsed[i] = svc::to_mission_request(received);
    }
  }
  std::vector<svc::MissionResponse> responses;
  {
    const ScopedSpan span(log, "svc.submit", op);
    responses = service.submit_batch(parsed);
  }
  const ScopedSpan span(log, "svc.encode", op);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    svc::WireResponse reply, back;
    reply.id = i;
    reply.response = responses[i];
    const bool ok =
        i % 2 == 1 ? (svc::encode_response_frame(reply, bytes),
                      svc::decode_response_frame(bytes, back, error))
                   : svc::decode_response_json(svc::encode_response_json(reply),
                                               back, error);
    out.push_back(served_from(back.response, ok && back.id == i));
  }
}

struct Batches {
  std::uint64_t stream_base = 0;
  std::vector<Served> served;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  /// The requests sent, regenerated from their streams.
  std::vector<Request> schedule(std::uint64_t seed,
                                const std::vector<Request>& hot) const {
    std::vector<Request> out;
    for (std::uint64_t k = 0; k < op_ms.size(); ++k) {
      const std::vector<Request> batch =
          make_schedule(seed, stream_base + k, kBatch, hot);
      out.insert(out.end(), batch.begin(), batch.end());
    }
    return out;
  }
};

/// Serves batches back to back until `seconds` have elapsed and at least
/// `min_batches` are done; batch k is stream `stream_base + k`.
Batches run_batches(svc::MissionService& service, std::uint64_t seed,
                    std::uint64_t stream_base, double seconds,
                    std::size_t min_batches, const std::vector<Request>& hot,
                    SpanLog* log) {
  Batches b;
  b.stream_base = stream_base;
  const auto started = Clock::now();
  const double cpu0 = process_cpu_s();
  for (std::uint64_t k = 0;
       k < min_batches || ms_since(started) < seconds * 1000.0; ++k) {
    const std::vector<Request> batch =
        make_schedule(seed, stream_base + k, kBatch, hot);
    const auto t0 = Clock::now();
    serve_batch(service, batch, b.served, log, k);
    b.op_ms.push_back(ms_since(t0));
  }
  b.cpu_s = process_cpu_s() - cpu0;
  b.wall_s = ms_since(started) / 1000.0;
  return b;
}

/// One request of the open loop; times in ms since the phase start.
struct Timing {
  double due_ms = 0.0;
  double send_ms = 0.0;
  double done_ms = 0.0;
};

/// Sends `schedule` at `rate` requests per second over `clients`, in order,
/// each request on the first free connection.  Latency is timed from the
/// request's due time, so a stall also charges the requests behind it.
void run_open_loop(std::vector<std::unique_ptr<svc::MissionClient>>& clients,
                   const std::vector<Request>& schedule, double rate,
                   std::vector<Timing>& timing, std::vector<Served>& served) {
  timing.assign(schedule.size(), {});
  served.assign(schedule.size(), {});
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto since_start = [start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      bool broken = false;
      for (std::size_t j = next++; j < schedule.size(); j = next++) {
        Timing& t = timing[j];
        t.due_ms = 1000.0 * double(j) / rate;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(t.due_ms));
        std::this_thread::sleep_until(due - kSpinLead);
        while (Clock::now() < due) std::this_thread::yield();
        t.send_ms = since_start();
        if (!broken) {
          try {
            served[j] = served_from(clients[c]->call(c, schedule[j].repro),
                                    true);
          } catch (const std::exception&) {
            broken = true;  // a failed connection stays failed
          }
        }
        t.done_ms = since_start();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Standalone run_mission digests of `requests`, parsed the way the server
/// parses them, run on `workers` threads; `exec_ms` gets each run's time.
std::vector<std::uint64_t> standalone_digests(
    const std::vector<const Request*>& requests, std::size_t workers,
    std::vector<double>& exec_ms) {
  std::vector<svc::MissionRequest> parsed;
  for (const Request* r : requests) {
    svc::WireRequest wire;
    wire.repro = r->repro;
    parsed.push_back(svc::to_mission_request(wire));
  }
  struct Out {
    std::uint64_t digest = 0;
    double ms = 0.0;
  };
  const std::vector<Out> outs = runner::run_trials(
      std::span<const svc::MissionRequest>(parsed),
      [](const svc::MissionRequest& req, Rng&) {
        const auto t0 = Clock::now();
        const analysis::ScenarioResult result =
            analysis::run_mission(req.config, req.mode);
        Out o;
        o.ms = ms_since(t0);
        o.digest = analysis::digest_result(result);
        return o;
      },
      {.threads = workers, .label = "perfbench-serve"});
  std::vector<std::uint64_t> digests;
  for (const Out& o : outs) {
    digests.push_back(o.digest);
    exec_ms.push_back(o.ms);
  }
  return digests;
}

/// Checks that every served result digest equals a standalone run's (hot
/// seeds are run once each) and that the served seed is the requested one.
/// Returns the standalone run times of the fresh-seed requests.
std::vector<double> check_served(Report& report,
                                 const std::vector<Request>& schedule,
                                 const std::vector<Served>& served,
                                 const std::vector<Request>& hot,
                                 std::size_t workers) {
  std::vector<const Request*> hot_ptrs, fresh;
  for (const Request& h : hot) hot_ptrs.push_back(&h);
  for (const Request& r : schedule) {
    if (!r.hot) fresh.push_back(&r);
  }
  std::vector<double> exec_ms, hot_ms;
  const std::vector<std::uint64_t> hot_digests =
      standalone_digests(hot_ptrs, workers, hot_ms);
  const std::vector<std::uint64_t> fresh_digests =
      standalone_digests(fresh, workers, exec_ms);

  std::vector<std::uint64_t> expected, got;
  std::size_t next_fresh = 0;
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const Request& req = schedule[j];
    if (req.hot) {
      const auto at = std::find_if(hot.begin(), hot.end(), [&](const Request& h) {
        return h.seed == req.seed && h.attack == req.attack;
      });
      expected.push_back(hot_digests[std::size_t(at - hot.begin())]);
    } else {
      expected.push_back(fresh_digests[next_fresh++]);
    }
    // Failed requests are already counted; compare what was served.
    got.push_back(served[j].ok ? served[j].result_digest : expected.back());
    if (served[j].ok) {
      report.expect_value("request " + std::to_string(j) + " served seed",
                          double(req.seed), double(served[j].seed));
    }
  }
  report.expect_digests("served result digests vs standalone run_mission",
                        expected, got);
  return exec_ms;
}

svc::ServiceOptions one_worker() {
  svc::ServiceOptions options;
  options.threads = 1;
  return options;
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& report) {
  const std::size_t connections = worker_count();
  const std::vector<Request> hot = hot_set(args.seed);
  report.context("batch_requests", double(kBatch));
  report.context("service_workers", 1.0);

  // Set-up: start the service and serve the hot set once (it executes and
  // fills the cache) plus a batch of fresh seeds.
  auto service = std::make_unique<svc::MissionService>(one_worker());
  {
    std::vector<Request> warm = hot;
    for (std::size_t i = 0; i < kWarmupFresh; ++i) {
      warm.push_back(make_request(derive_seed(args.seed, 100, i) >> 12,
                                  i % 2 == 0, false));
    }
    std::vector<Served> discarded;
    serve_batch(*service, warm, discarded, nullptr, 0);
  }
  const double setup_s = setup_seconds(args);
  if (args.setup_only) {
    report_setup(report, args, setup_s);
    return;
  }

  // Untraced batches: the whole run, or half of it when traced.
  const Batches plain = run_batches(
      *service, args.seed, 0, args.trace ? args.seconds / 2 : args.seconds,
      kTailWindow, hot, nullptr);
  const double rss = peak_rss_mb();

  // Traced: batches with spans for a quarter of the run, then the open loop
  // over the socket, against a service with default options.
  SpanLog log;
  Batches traced;
  std::vector<Request> open_schedule;
  std::vector<Timing> open_timing;
  std::vector<Served> open_served;
  svc::ServiceStats stats;
  if (args.trace) {
    traced = run_batches(*service, args.seed, kTracedStreams,
                         args.seconds / 4, 1, hot, &log);
    stats = service->stats();
    service = std::make_unique<svc::MissionService>();
    const std::string socket_path = args.out_dir + "/perfbench-svc.sock";
    svc::MissionServer server(*service, socket_path);
    server.start();
    std::vector<std::unique_ptr<svc::MissionClient>> clients;
    for (std::size_t c = 0; c < connections; ++c) {
      clients.push_back(
          std::make_unique<svc::MissionClient>(socket_path, c % 2 == 1));
    }
    open_schedule = make_schedule(args.seed, kOpenLoopStream,
                                  std::size_t(kOpenLoopRps * args.seconds / 4),
                                  hot);
    run_open_loop(clients, open_schedule, kOpenLoopRps, open_timing,
                  open_served);
    clients.clear();
    server.stop();
  }
  service.reset();

  // Correctness, after timing: every request of every phase.
  std::vector<Request> schedule = plain.schedule(args.seed, hot);
  std::vector<Served> served = plain.served;
  const std::vector<Request> traced_schedule = traced.schedule(args.seed, hot);
  schedule.insert(schedule.end(), traced_schedule.begin(),
                  traced_schedule.end());
  served.insert(served.end(), traced.served.begin(), traced.served.end());
  schedule.insert(schedule.end(), open_schedule.begin(), open_schedule.end());
  served.insert(served.end(), open_served.begin(), open_served.end());
  std::size_t failed = 0;
  for (const Served& s : served) failed += s.ok ? 0 : 1;
  report.ops(served.size(), failed);
  report.context("requests", double(served.size()));
  const std::vector<double> exec_ms =
      check_served(report, schedule, served, hot, connections);

  if (!args.trace) {
    report_setup(report, args, setup_s);
    report.metric("peak_rss_mb", rss, "MB");
    report_latency(report, plain.op_ms, kTailQ, kTailWindow);
    report.metric("ops_per_s", double(plain.op_ms.size()) / plain.wall_s,
                  "1/s");
    report.metric("ops_per_cpu_s", double(plain.op_ms.size()) / plain.cpu_s,
                  "1/s");
    return;
  }

  // Per-layer: the batch service's tallies and layer table...
  const double requests = double(stats.requests);
  report.metric("svc.hit_ratio",
                requests > 0 ? double(stats.cache_hits) / requests : 0.0,
                "ratio");
  report.metric("svc.executions", double(stats.executions), "count");
  report.metric("svc.coalesced", double(stats.coalesced), "count");
  report.metric("svc.evictions", double(stats.evictions), "count");
  report.metric("svc.shed", double(stats.shed), "count");
  report.metric("svc.queue_peak", double(stats.queue_peak), "count");
  double exec_mean = 0.0;
  for (const double ms : exec_ms) exec_mean += ms / double(exec_ms.size());
  report.metric("svc.exec_ms", exec_mean, "ms");
  // Span self times per request (a batch is kBatch requests).
  const std::vector<Span> spans = log.take();
  const LayerTable layers = layer_table(spans);
  const double per_request = 1.0 / double(kBatch);
  report.metric("svc.parse_us",
                layers.per_op_ms("svc.parse") * per_request * 1000.0, "us");
  report.metric("svc.submit_ms", layers.per_op_ms("svc.submit") * per_request,
                "ms");
  report.metric("svc.encode_us",
                layers.per_op_ms("svc.encode") * per_request * 1000.0, "us");
  report.metric("svc.unattributed_ms",
                layers.unattributed_ms / double(layers.ops) * per_request,
                "ms");
  dump_layers(report, layers, spans, args,
              "serve-mixed-seed" + std::to_string(args.seed) + ".spans.jsonl");
  report.metric("obs.trace_overhead_pct",
                100.0 * (median(traced.op_ms) / median(plain.op_ms) - 1.0),
                "%");

  // ...scenario_digest replayed on the traced requests, against the digests
  // the service served...
  std::vector<svc::MissionRequest> parsed;
  for (const Request& r : traced_schedule) {
    svc::WireRequest wire;
    wire.repro = r.repro;
    parsed.push_back(svc::to_mission_request(wire));
  }
  std::vector<std::uint64_t> digests(parsed.size()), got(parsed.size());
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < parsed.size(); ++j) {
    digests[j] = svc::scenario_digest(parsed[j].config, parsed[j].mode);
  }
  report.metric("svc.digest_us", ms_since(t0) * 1000.0 / double(parsed.size()),
                "us");
  for (std::size_t j = 0; j < parsed.size(); ++j) {
    got[j] = traced.served[j].ok ? traced.served[j].scenario_digest
                                 : digests[j];
  }
  report.expect_digests("served scenario digests vs replay", digests, got);

  // ...and the open loop: per-request latency at a fixed rate over the
  // socket, default ServiceOptions.
  std::vector<double> latency;
  double late = 0.0;
  for (const Timing& t : open_timing) {
    latency.push_back(t.done_ms - t.due_ms);
    late += t.send_ms - t.due_ms;
  }
  std::sort(latency.begin(), latency.end());
  report.metric("svc.open_p50_ms", percentile(latency, 0.5), "ms");
  report.metric("svc.open_p99_ms", percentile(latency, 0.99), "ms");
  report.metric("gen.late_ms", late / double(open_timing.size()), "ms");
}

}  // namespace perfbench
