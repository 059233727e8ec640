// serve_open_loop: 2x2 in-process ranks serve the train_transformer model
// under MiCS p=2 with per-batch layerwise gathers. Each partition group
// is one replica: its shard 0 drains a DynamicBatcher of its own. One
// generator (the main thread) submits Poisson arrivals on a schedule
// fixed in advance from the seed; one collector per replica waits on
// the replies in submission order (a replica completes its requests in
// that order, so no reply is stamped late by waiting on another).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/topology.h"
#include "comm/world.h"
#include "common.h"
#include "kernels/kernels.h"
#include "net/backend.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "tensor/tensor.h"
#include "train/transformer_model.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mics::Status;

constexpr int kWorld = 4;
constexpr int kGpusPerNode = 2;
constexpr int kPartition = 2;
constexpr int kReplicas = kWorld / kPartition;
/// Offered load: about a quarter of the ~1500-1900 req/s this configuration
/// sustains without a growing backlog on a 4-vCPU x86 VM.
constexpr double kOfferedRate = 400.0;  // requests / s
constexpr int kMaxRequestSamples = 4;
/// Latency limit for slo_attainment, on the scheduled-send-to-reply time.
constexpr double kSloMs = 50.0;
/// Distinct samples requests are drawn from; every reply row is checked
/// against a single-sample ServeBatch of its sample.
constexpr int kPoolSamples = 64;
constexpr int kWarmupRequests = 32;
constexpr int kSetupReps = 5;
constexpr double kTraceBlockUs = 500e3;
constexpr int64_t kCollectiveTimeoutMs = 15000;

mics::TransformerClassifier::Config ModelConfig() {
  mics::TransformerClassifier::Config c;
  c.vocab = 64;
  c.seq_len = 32;
  c.dim = 64;
  c.heads = 4;
  c.ffn = 128;
  c.blocks = 2;
  c.classes = 4;
  return c;
}

/// The generated workload: a pool of samples and an arrival schedule.
struct Workload {
  int64_t seq_len = 0;
  int64_t classes = 0;
  std::vector<std::vector<int32_t>> pool;  // [kPoolSamples][seq_len]
  struct Request {
    double offset_us = 0.0;  // scheduled send time from t0
    std::vector<int> samples;  // pool indices
    mics::Tensor input;
  };
  std::vector<Request> requests;
  std::vector<Request> warmup;
};

Workload MakeWorkload(uint64_t seed, double seconds) {
  const mics::TransformerClassifier::Config cfg = ModelConfig();
  Workload w;
  w.seq_len = cfg.seq_len;
  w.classes = cfg.classes;
  mics::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  for (int i = 0; i < kPoolSamples; ++i) {
    w.pool.push_back(rng.Tokens(cfg.seq_len, static_cast<int32_t>(cfg.vocab)));
  }
  auto make = [&](int samples) {
    Workload::Request r;
    r.input = mics::Tensor({samples, cfg.seq_len}, mics::DType::kI32);
    for (int s = 0; s < samples; ++s) {
      const int idx = static_cast<int>(rng.Uniform(kPoolSamples));
      r.samples.push_back(idx);
      std::memcpy(r.input.i32() + s * cfg.seq_len, w.pool[idx].data(),
                  sizeof(int32_t) * static_cast<size_t>(cfg.seq_len));
    }
    return r;
  };
  // A Poisson process conditioned on its count: n arrivals at sorted
  // uniform times in [0, T). Request sizes are a shuffled balanced
  // multiset of 1..kMaxRequestSamples, so every seed offers the same
  // number of samples.
  const int64_t n = static_cast<int64_t>(kOfferedRate * seconds + 0.5);
  std::vector<double> times(static_cast<size_t>(n));
  for (double& t : times) t = rng.UniformDouble() * seconds * 1e6;
  std::sort(times.begin(), times.end());
  std::vector<int> sizes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    sizes[static_cast<size_t>(i)] = 1 + static_cast<int>(i % kMaxRequestSamples);
  }
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(sizes[static_cast<size_t>(i)],
              sizes[rng.Uniform(static_cast<uint64_t>(i + 1))]);
  }
  for (int64_t i = 0; i < n; ++i) {
    Workload::Request r = make(sizes[static_cast<size_t>(i)]);
    r.offset_us = times[static_cast<size_t>(i)];
    w.requests.push_back(std::move(r));
  }
  for (int i = 0; i < kWarmupRequests; ++i) {
    w.warmup.push_back(make(1 + i % kMaxRequestSamples));
  }
  return w;
}

void SleepUntilUs(double target_us) {
  const double now = NowUs();
  if (target_us <= now) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(target_us - now));
}

/// What happened to one timed request.
struct Outcome {
  bool submitted = false;
  bool ok = false;
  double submit_start_us = 0.0;
  double submit_end_us = 0.0;
  double reply_us = 0.0;
  double queue_wait_us = 0.0;
  std::vector<float> scores;
};

/// FIFO from the generator to one replica's collector.
class ReplyQueue {
 public:
  void Push(int64_t index, mics::serve::ReplyFuture future) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back({index, std::move(future)});
    cv_.notify_one();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_one();
  }
  /// Next item, or nullopt when closed and drained.
  std::optional<std::pair<int64_t, mics::serve::ReplyFuture>> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    auto item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int64_t, mics::serve::ReplyFuture>> items_;
  bool closed_ = false;
};

/// One serving cluster from World creation to teardown.
struct RepOutcome {
  Status status;
  double setup_us = 0.0;
  double t0_us = 0.0;
  std::vector<Outcome> outcomes;
  std::vector<double> lag_us;
  /// Single-sample ServeBatch rows per replica: [replica][pool][classes].
  std::vector<std::vector<std::vector<float>>> reference;
  CounterSnapshot c0, c1;
};

/// Drains whatever a dead driver left queued, failing it, so no future
/// stays pending.
void FailLeftovers(mics::serve::DynamicBatcher* batcher, const Status& why) {
  batcher->Shutdown();
  for (;;) {
    auto next = batcher->NextBatch();
    if (!next.ok() || !next.value().has_value()) return;
    batcher->FailBatch(*next.value(), why);
  }
}

RepOutcome RunRep(const Workload& w, uint64_t seed, bool timed,
                  SpanLog* spans) {
  RepOutcome out;
  const double t_begin = NowUs();
  const mics::RankTopology topo{kWorld, kGpusPerNode};
  mics::RendezvousOptions rv;
  rv.timeout_ms = kCollectiveTimeoutMs;
  rv.max_retries = 0;
  mics::World world(kWorld, rv);

  std::vector<std::unique_ptr<mics::serve::DynamicBatcher>> batchers;
  for (int r = 0; r < kReplicas; ++r) {
    mics::serve::BatcherOptions bo;
    bo.max_batch_samples = 8;
    bo.max_wait_us = 2000;
    auto b = mics::serve::DynamicBatcher::Create(bo);
    if (!b.ok()) {
      out.status = b.status();
      return out;
    }
    batchers.push_back(std::move(b).value());
  }
  out.reference.assign(kReplicas, {});

  std::vector<Status> statuses(kWorld);
  std::vector<std::thread> ranks;
  for (int rank = 0; rank < kWorld; ++rank) {
    ranks.emplace_back([&, rank] {
      const int replica = rank / kPartition;
      mics::serve::DynamicBatcher* batcher =
          batchers[static_cast<size_t>(replica)].get();
      auto body = [&]() -> Status {
        MICS_ASSIGN_OR_RETURN(
            mics::CommBackendFactory backend,
            mics::CommBackendFactory::InProcess(&world, &topo, rank));
        mics::TransformerClassifier model(ModelConfig());
        mics::serve::ServeOptions so;
        so.strategy = mics::serve::Strategy::kMiCS;
        so.partition_group_size = kPartition;
        so.gather_mode = mics::serve::GatherMode::kPerBatch;
        so.prefetch_depth = 2;
        so.async_prefetch = true;
        MICS_ASSIGN_OR_RETURN(
            std::unique_ptr<mics::serve::ServeEngine> engine,
            mics::serve::ServeEngine::Create(backend.factory(), topo, so,
                                             &model, rank));
        MICS_RETURN_NOT_OK(engine->LoadParameters(seed));
        if (engine->is_driver()) {
          MICS_RETURN_NOT_OK(engine->DriverLoop(batcher));
        } else {
          MICS_RETURN_NOT_OK(engine->FollowerLoop());
        }
        if (!timed) return Status::OK();
        // Reference scores: every pool sample alone, through the same
        // engine (SPMD across the partition group).
        std::vector<std::vector<float>> ref;
        for (const std::vector<int32_t>& sample : w.pool) {
          mics::Tensor x({1, w.seq_len}, mics::DType::kI32);
          std::memcpy(x.i32(), sample.data(),
                      sizeof(int32_t) * static_cast<size_t>(w.seq_len));
          const double b = NowUs();
          MICS_ASSIGN_OR_RETURN(mics::Tensor scores, engine->ServeBatch(x));
          if (spans != nullptr) {
            spans->AddLeaf(rank, "serve.ServeBatch(probe)", b, NowUs(), -1);
          }
          ref.emplace_back(scores.f32(), scores.f32() + scores.numel());
        }
        if (engine->is_driver()) {
          out.reference[static_cast<size_t>(replica)] = std::move(ref);
        }
        return Status::OK();
      };
      Status st = body();
      if (!st.ok()) FailLeftovers(batcher, st);
      statuses[static_cast<size_t>(rank)] = st;
    });
  }

  // Warm-up: closed loop, alternating replicas, until every reply is in.
  bool warm_ok = true;
  for (size_t i = 0; i < w.warmup.size(); ++i) {
    auto f = batchers[i % kReplicas]->Submit(w.warmup[i].input, w.seq_len);
    if (!f.ok() || !f.value().Wait().ok()) {
      warm_ok = false;
      break;
    }
  }
  out.setup_us = NowUs() - t_begin;

  if (timed && warm_ok) {
    const std::vector<std::string> counters = LayerCounterNames();
    const int64_t n = static_cast<int64_t>(w.requests.size());
    out.outcomes.resize(static_cast<size_t>(n));
    out.lag_us.reserve(static_cast<size_t>(n));
    std::vector<ReplyQueue> queues(kReplicas);
    std::vector<std::thread> collectors;
    for (int r = 0; r < kReplicas; ++r) {
      collectors.emplace_back([&, r] {
        const int track = kWorld + r;
        while (auto item = queues[static_cast<size_t>(r)].Pop()) {
          auto reply = item->second.Wait();
          Outcome& o = out.outcomes[static_cast<size_t>(item->first)];
          o.reply_us = NowUs();
          o.ok = reply.ok();
          if (!o.ok) continue;
          o.queue_wait_us = reply.value().queue_wait_us;
          const mics::Tensor& s = reply.value().scores;
          o.scores.assign(s.f32(), s.f32() + s.numel());
          const double sched =
              out.t0_us + w.requests[static_cast<size_t>(item->first)]
                              .offset_us;
          if (spans != nullptr &&
              static_cast<int64_t>((sched - out.t0_us) / kTraceBlockUs) % 2 ==
                  1) {
            const int64_t id = spans->NextId(track);
            const double queued = o.submit_end_us;
            const double formed = queued + o.queue_wait_us;
            spans->AddLeaf(track, "loadgen.lag", sched, o.submit_start_us, id);
            spans->AddLeaf(track, "serve.Submit", o.submit_start_us,
                           o.submit_end_us, id);
            spans->AddLeaf(track, "serve.queue", queued, formed, id);
            spans->AddLeaf(track, "serve.batch_and_reply", formed,
                           o.reply_us, id);
            spans->Add(track, "serve.request", sched, o.reply_us, id, -1);
          }
        }
      });
    }

    out.c0 = SnapshotCounters(counters);
    out.t0_us = NowUs();
    for (int64_t i = 0; i < n; ++i) {
      const Workload::Request& req = w.requests[static_cast<size_t>(i)];
      const double due = out.t0_us + req.offset_us;
      SleepUntilUs(due);
      Outcome& o = out.outcomes[static_cast<size_t>(i)];
      o.submit_start_us = NowUs();
      out.lag_us.push_back(o.submit_start_us - due);
      auto f = batchers[static_cast<size_t>(i % kReplicas)]->Submit(
          req.input, w.seq_len);
      o.submit_end_us = NowUs();
      if (!f.ok()) continue;  // refused: counted as failed
      o.submitted = true;
      queues[static_cast<size_t>(i % kReplicas)].Push(i, std::move(f).value());
    }
    for (ReplyQueue& q : queues) q.Close();
    for (std::thread& t : collectors) t.join();
    out.c1 = SnapshotCounters(counters);
  }

  for (auto& b : batchers) b->Shutdown();
  for (std::thread& t : ranks) t.join();
  for (int rank = 0; rank < kWorld; ++rank) {
    const Status& st = statuses[static_cast<size_t>(rank)];
    if (!st.ok() && out.status.ok()) {
      out.status = Status(st.code(), "rank " + std::to_string(rank) + ": " +
                                         st.message());
    }
  }
  if (out.status.ok() && !warm_ok) {
    out.status = Status::Internal("a warm-up request failed");
  }
  return out;
}

}  // namespace

RunResult RunServeOpenLoop(const RunConfig& config) {
  RunResult result;
  result.Note("workload serve_open_loop: in-process backend, world 4 "
              "(2 nodes x 2), MiCS p=2, per-batch layerwise gathers, " +
              std::to_string(kReplicas) + " replicas; open loop at " +
              FormatDouble(kOfferedRate) + " req/s of 1-" +
              std::to_string(kMaxRequestSamples) + " samples");
  result.Note(std::string("kernel backend: ") + mics::kernels::ActiveName());
  const Workload w = MakeWorkload(config.seed, config.seconds);

  std::vector<double> setups_us;
  const int reps = config.trace ? 1 : kSetupReps;
  for (int rep = 0; rep + 1 < reps; ++rep) {
    RepOutcome r = RunRep(w, config.seed, false, nullptr);
    if (!r.status.ok()) {
      result.Mismatch("set-up repetition failed: " + r.status.ToString());
      return result;
    }
    setups_us.push_back(r.setup_us);
  }
  SpanLog spans(kWorld + kReplicas);
  StealMonitor steal;
  RepOutcome run =
      RunRep(w, config.seed, true, config.trace ? &spans : nullptr);
  steal.Stop();
  setups_us.push_back(run.setup_us);
  if (!run.status.ok()) {
    result.Mismatch("serving failed: " + run.status.ToString());
  }

  // Failure accounting and the probe check: every reply row must equal
  // the single-sample ServeBatch scores of its sample, bit for bit.
  const int64_t n = static_cast<int64_t>(w.requests.size());
  result.attempted = n;
  int64_t refused = 0, failed = 0, mismatched = 0, completed_samples = 0;
  std::vector<double> latency_ms, reply_us, queue_ms, service_ms;
  double last_reply_us = run.t0_us;
  int64_t within = 0;
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(run.outcomes.size());
       ++i) {
    const Outcome& o = run.outcomes[static_cast<size_t>(i)];
    const Workload::Request& req = w.requests[static_cast<size_t>(i)];
    if (!o.submitted) {
      ++refused;
      continue;
    }
    if (!o.ok) {
      ++failed;
      continue;
    }
    const std::vector<std::vector<float>>& ref =
        run.reference[static_cast<size_t>(i % kReplicas)];
    bool same = o.scores.size() ==
                req.samples.size() * static_cast<size_t>(w.classes);
    for (size_t s = 0; same && s < req.samples.size(); ++s) {
      const std::vector<float>& want =
          ref.empty() ? std::vector<float>() : ref[req.samples[s]];
      same = want.size() == static_cast<size_t>(w.classes) &&
             std::memcmp(want.data(), o.scores.data() + s * w.classes,
                         sizeof(float) * want.size()) == 0;
    }
    if (!same) {
      ++mismatched;
      continue;
    }
    const double lat = (o.reply_us - (run.t0_us + req.offset_us)) / 1e3;
    latency_ms.push_back(lat);
    reply_us.push_back(o.reply_us);
    queue_ms.push_back(o.queue_wait_us / 1e3);
    service_ms.push_back(
        (o.reply_us - o.submit_start_us - o.queue_wait_us) / 1e3);
    within += lat <= kSloMs ? 1 : 0;
    completed_samples += static_cast<int64_t>(req.samples.size());
    last_reply_us = std::max(last_reply_us, o.reply_us);
  }
  const int64_t never = n - static_cast<int64_t>(run.outcomes.size());
  result.failed = refused + failed + mismatched + std::max<int64_t>(0, never);
  if (mismatched > 0) {
    result.Mismatch(std::to_string(mismatched) +
                    " replies differ from single-sample ServeBatch scores");
  }
  for (int r = 1; r < kReplicas; ++r) {
    if (run.reference[static_cast<size_t>(r)] != run.reference[0]) {
      result.Mismatch("replicas disagree on single-sample scores");
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests: %lld attempted, %lld refused, %lld failed, "
                "%lld mismatched; probe pool %d samples",
                static_cast<long long>(n), static_cast<long long>(refused),
                static_cast<long long>(failed),
                static_cast<long long>(mismatched), kPoolSamples);
  result.Note(buf);
  if (!result.correct) return result;

  // Latencies come from the requests answered in calm slices.
  const std::vector<char> calm = steal.CalmMask(reply_us);
  std::vector<double> kept;
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    if (calm[i]) kept.push_back(latency_ms[i]);
  }
  const Tail lat = Summarize(kept, kTailQuantile);
  result.latencies_ms = latency_ms;
  if (!config.trace) {
    const double span_s = (last_reply_us - run.t0_us) / 1e6;
    result.Add("samples_per_s",
               span_s > 0.0 ? static_cast<double>(completed_samples) / span_s
                            : 0.0,
               "1/s");
    result.Add("latency_ms_p50", lat.p50, "ms");
    result.Add("latency_ms_tail", lat.value, "ms");
    result.Add("slo_attainment",
               n > 0 ? static_cast<double>(within) / static_cast<double>(n)
                     : 0.0,
               "share");
    AddSetup(setups_us, &result);
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    std::snprintf(buf, sizeof(buf),
                  "%lld of %lld replies in calm slices; tail = median of "
                  "p%.4g over %lld windows of %lld (all replies: p50 %.3f, "
                  "p99 %.3f ms); SLO %.0f ms",
                  static_cast<long long>(lat.samples),
                  static_cast<long long>(latency_ms.size()),
                  lat.quantile * 100.0, static_cast<long long>(lat.windows),
                  static_cast<long long>(lat.window),
                  Quantile(latency_ms, 0.5), Quantile(latency_ms, 0.99),
                  kSloMs);
    result.Note(buf);
    result.Note(steal.Describe());
    return result;
  }

  // Per-layer (traced pass); metrics that do not apply read zero.
  const double sent = Delta(run.c0, run.c1, "net.bytes_sent.intra_node") +
                      Delta(run.c0, run.c1, "net.bytes_sent.inter_node");
  result.Add("net.bytes_sent_per_iter", sent, "B");
  result.Add("net.bytes_sent_intra_per_iter",
             Delta(run.c0, run.c1, "net.bytes_sent.intra_node"), "B");
  result.Add("net.bytes_sent_inter_per_iter",
             Delta(run.c0, run.c1, "net.bytes_sent.inter_node"), "B");
  result.Add("net.frames_per_iter", Delta(run.c0, run.c1, "net.frames_sent"),
             "count");
  result.Add("net.recv_deadline_exceeded",
             Delta(run.c0, run.c1, "net.recv.deadline_exceeded"), "count");
  if (sent != 0.0) result.Mismatch("net bytes moved on the in-process backend");

  const Tail queue = Summarize(queue_ms, kTailQuantile);
  const double batches = Delta(run.c0, run.c1, "serve.batches");
  auto per_batch = [&](double v) { return batches > 0.0 ? v / batches : 0.0; };
  const double engine_batches = Delta(run.c0, run.c1, "serve.engine.batches");
  result.Add("serve.queue_wait_ms_p50", queue.p50, "ms");
  result.Add("serve.queue_wait_ms_tail", queue.value, "ms");
  result.Add("serve.service_ms_p50", Median(service_ms), "ms");
  result.Add("serve.batch_samples_mean",
             engine_batches > 0.0
                 ? Delta(run.c0, run.c1, "serve.engine.samples") /
                       engine_batches
                 : 0.0,
             "count");
  result.Add("serve.gathers_per_batch",
             per_batch(Delta(run.c0, run.c1, "comm.all_gather.calls")),
             "count");
  const double ag = Delta(run.c0, run.c1, "comm.all_gather.bytes");
  result.Add("comm.all_gather.bytes_per_batch", per_batch(ag), "B");
  result.Add("serve.failed_batches",
             Delta(run.c0, run.c1, "serve.failed_batches"), "count");
  result.Add("serve.rejected", Delta(run.c0, run.c1, "serve.rejected"),
             "count");
  const Tail lag = Summarize(run.lag_us, 0.99);
  result.Add("loadgen.lag_ms_p99", lag.value / 1e3, "ms");
  result.Add("env.cpu_steal_share", steal.Share(), "share");
  // Serving throughput is pinned to the offered rate, so the tracing
  // overhead shows as latency: traced over untraced p50, minus one.
  std::vector<double> traced_ms, untraced_ms;
  for (int64_t i = 0; i < n; ++i) {
    const Outcome& o = run.outcomes[static_cast<size_t>(i)];
    if (!o.ok) continue;
    const double off = w.requests[static_cast<size_t>(i)].offset_us;
    const double v = (o.reply_us - (run.t0_us + off)) / 1e3;
    (static_cast<int64_t>(off / kTraceBlockUs) % 2 == 1 ? traced_ms
                                                        : untraced_ms)
        .push_back(v);
  }
  const double p50_untraced = Median(untraced_ms);
  result.Add("trace.overhead_share",
             p50_untraced > 0.0 ? Median(traced_ms) / p50_untraced - 1.0 : 0.0,
             "share");

  const double ag_split =
      Delta(run.c0, run.c1, "comm.all_gather.intra_node_bytes") +
      Delta(run.c0, run.c1, "comm.all_gather.inter_node_bytes");
  if (std::fabs(ag_split - ag) > 1e-9 * std::max(1.0, ag)) {
    result.Mismatch("comm.all_gather bytes != intra + inter");
  }

  const std::map<std::string, double> self = spans.SelfTimeUs();
  std::string line = "self time, total over traced requests (ms):";
  for (const auto& [name, us] : self) {
    line += " " + name + "=" + FormatDouble(us / 1e3);
  }
  result.Note(line);
  const std::string path = config.out_dir + "/serve_open_loop.spans.json";
  Status wrote = spans.WriteChromeTrace(
      path, {"rank 0", "rank 1", "rank 2", "rank 3", "collector 0",
             "collector 1"});
  result.Note(wrote.ok() ? "spans: " + std::to_string(spans.size()) +
                               " written to " + path
                         : "spans not written: " + wrote.ToString());
  return result;
}

}  // namespace perfbench
