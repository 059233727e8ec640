// Training workloads: train_transformer (in-process, kernel-bound) and
// train_wide_socket (loopback TCP, collective/transport-bound).
//
// One "cluster" is `world` rank threads running the SDP protocol
//   GatherParams -> sample -> ForwardBackward -> ReduceMicroStepGrads
//   (x micro_steps) -> FinishIterationAndStep -> AverageScalar
// and meeting at a Gate after every iteration. The gate's completion
// (one thread, before any rank is released) stamps the global iteration
// end, decides whether to stop, and switches tracing on or off for the
// next iteration, so every rank runs the same iteration count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/topology.h"
#include "comm/world.h"
#include "common.h"
#include "kernels/kernels.h"
#include "net/backend.h"
#include "net/tcp_store.h"
#include "net/transport.h"
#include "tensor/tensor.h"
#include "train/dataset.h"
#include "train/mlp_model.h"
#include "train/sharded_data_parallel.h"
#include "train/transformer_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mics::Status;

constexpr int kWarmupIters = 3;
constexpr int kSetupReps = 5;
/// Timed iterations of the socket run replayed over the in-process
/// backend for the socket == in-process bit check.
constexpr int kCrossCheckIters = 10;
/// Length of each traced / untraced block in a --trace 1 run.
constexpr double kTraceBlockUs = 500e3;
constexpr int64_t kCollectiveTimeoutMs = 15000;

struct TrainSpec {
  const char* name = "";
  mics::BackendKind backend = mics::BackendKind::kInProcess;
  int world = 4;
  int gpus_per_node = 2;
  int partition = 2;
  mics::Strategy strategy = mics::Strategy::kMiCS;
  bool transformer = true;
  mics::TransformerClassifier::Config tcfg;
  mics::MlpModel::Config mcfg;
  int64_t micro_batch = 1;
  int micro_steps = 1;
  /// Iteration-time limit for slo_attainment.
  double iter_slo_ms = 100.0;

  int64_t global_batch() const {
    return static_cast<int64_t>(world) * micro_batch * micro_steps;
  }

  /// Analytic forward+backward FLOPs of one ForwardBackward call
  /// (matmuls only; backward = 2x forward).
  double FlopsPerCall() const {
    double fwd = 0.0;
    if (transformer) {
      const double s = static_cast<double>(tcfg.seq_len);
      const double d = static_cast<double>(tcfg.dim);
      const double f = static_cast<double>(tcfg.ffn);
      fwd = static_cast<double>(tcfg.blocks) *
                (8.0 * s * d * d + 4.0 * s * s * d + 4.0 * s * d * f) +
            2.0 * d * static_cast<double>(tcfg.classes);
    } else {
      const double i = static_cast<double>(mcfg.input_dim);
      const double h = static_cast<double>(mcfg.hidden);
      fwd = 2.0 * (i * h + h * static_cast<double>(mcfg.classes));
    }
    return 3.0 * fwd * static_cast<double>(micro_batch);
  }

  std::string Geometry() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s backend, world %d (%d nodes x %d), %s p=%d, "
                  "micro-batch %lld x %d micro-steps, global batch %lld",
                  mics::ToString(backend), world, world / gpus_per_node,
                  gpus_per_node, mics::StrategyName(strategy), partition,
                  static_cast<long long>(micro_batch), micro_steps,
                  static_cast<long long>(global_batch()));
    return buf;
  }
};

TrainSpec TransformerSpec() {
  TrainSpec s;
  s.name = "train_transformer";
  s.transformer = true;
  s.tcfg.vocab = 64;
  s.tcfg.seq_len = 32;
  s.tcfg.dim = 64;
  s.tcfg.heads = 4;
  s.tcfg.ffn = 128;
  s.tcfg.blocks = 2;
  s.tcfg.classes = 4;
  s.partition = 2;
  s.micro_batch = 8;
  s.micro_steps = 2;
  s.iter_slo_ms = 100.0;
  return s;
}

TrainSpec WideSocketSpec() {
  TrainSpec s;
  s.name = "train_wide_socket";
  s.backend = mics::BackendKind::kSocket;
  s.transformer = false;
  s.mcfg.input_dim = 1024;
  s.mcfg.hidden = 2048;
  s.mcfg.classes = 8;
  s.partition = 4;
  s.micro_batch = 1;
  s.micro_steps = 2;
  s.iter_slo_ms = 200.0;
  return s;
}

enum Phase { kGather, kData, kForwardBackward, kReduce, kStep, kLossSync,
             kNumPhases };
const char* const kPhaseSpan[kNumPhases] = {
    "train.GatherParams",        "train.dataset.Sample",
    "kernels.ForwardBackward",   "train.ReduceMicroStepGrads",
    "train.FinishIterationAndStep", "train.AverageScalar"};

/// One rank's traced iteration.
struct RankIter {
  double start_us = 0.0;
  double end_us = 0.0;  // after AverageScalar, before the gate
  double phase_us[kNumPhases] = {};
};

/// How long a cluster runs after its warm-up.
struct RunPlan {
  bool stop_after_warmup = false;
  double seconds = 0.0;    // > 0: stop at the first gate past this
  int fixed_iters = 0;     // > 0: stop after this many timed iterations
  bool trace_blocks = false;
};

/// Everything a cluster run leaves behind.
struct ClusterOutcome {
  Status status;
  double setup_us = 0.0;
  double timed_start_us = 0.0;
  std::vector<double> iter_end_us;
  std::vector<char> iter_traced;
  std::vector<std::vector<float>> losses;  // [rank][iteration]
  std::vector<std::vector<RankIter>> traced;  // [rank][traced iteration]
  CounterSnapshot c0, c1;
};

/// State the gate's completion writes and ranks read after the gate.
struct Control {
  int completed = 0;
  bool timed = false;
  bool traced_now = false;
  bool stop = false;
};

std::unique_ptr<mics::train::Model> MakeModel(const TrainSpec& spec) {
  if (spec.transformer) {
    return std::make_unique<mics::TransformerClassifier>(spec.tcfg);
  }
  return std::make_unique<mics::MlpModel>(spec.mcfg);
}

/// Deterministic batches from the workload seed: a pure function of
/// (seed, step, rank).
class Batches {
 public:
  Batches(const TrainSpec& spec, uint64_t seed) {
    if (spec.transformer) {
      mics::SyntheticSequenceDataset::Config c;
      c.vocab = spec.tcfg.vocab;
      c.seq_len = spec.tcfg.seq_len;
      c.classes = spec.tcfg.classes;
      // Mostly-noise sequences keep the task from being solved outright:
      // once the loss reaches zero, Adam's moments decay into denormals
      // and every phase slows down several-fold as the run goes on.
      c.noise_prob = 0.85f;
      seq_ = std::make_unique<mics::SyntheticSequenceDataset>(c, seed);
    } else {
      mics::SyntheticClassificationDataset::Config c;
      c.input_dim = spec.mcfg.input_dim;
      c.classes = spec.mcfg.classes;
      // Heavily overlapping clusters, for the same reason: the loss
      // stays near its Bayes floor instead of reaching zero.
      c.cluster_stddev = 1.0f;
      c.center_scale = 0.02f;
      cls_ = std::make_unique<mics::SyntheticClassificationDataset>(c, seed);
    }
  }
  Status Sample(int64_t step, int rank, int64_t batch, mics::Tensor* x,
                std::vector<int32_t>* y) const {
    return seq_ ? seq_->Sample(step, rank, batch, x, y)
                : cls_->Sample(step, rank, batch, x, y);
  }

 private:
  std::unique_ptr<mics::SyntheticSequenceDataset> seq_;
  std::unique_ptr<mics::SyntheticClassificationDataset> cls_;
};

/// One rank: set up, warm up, then iterate until the gate says stop.
Status RankMain(const TrainSpec& spec, uint64_t seed, int rank,
                const mics::CommFactory& factory,
                const mics::RankTopology& topo, Gate* gate,
                const Control* ctl, SpanLog* spans,
                std::vector<float>* losses, std::vector<RankIter>* traced) {
  std::unique_ptr<mics::train::Model> model = MakeModel(spec);
  mics::SdpOptions sdp_options;
  sdp_options.strategy = spec.strategy;
  sdp_options.partition_group_size = spec.partition;
  MICS_ASSIGN_OR_RETURN(
      std::unique_ptr<mics::ShardedDataParallel> sdp,
      mics::ShardedDataParallel::Create(factory, topo, sdp_options,
                                        model->NumParams(), rank));
  MICS_RETURN_NOT_OK(sdp->BindModel(model.get(), seed));
  Batches batches(spec, seed + 1);

  int64_t step = 0;
  for (;;) {
    const bool trace = ctl->timed && ctl->traced_now;
    RankIter it;
    const int64_t iter_id = trace ? spans->NextId(rank) : -1;
    // Runs one call; when tracing, times it and records its span.
    auto phase = [&](Phase p, auto&& fn) -> Status {
      if (!trace) return fn();
      const double b = NowUs();
      Status st = fn();
      const double e = NowUs();
      it.phase_us[p] += e - b;
      spans->AddLeaf(rank, kPhaseSpan[p], b, e, iter_id);
      return st;
    };
    if (trace) it.start_us = NowUs();
    float loss_sum = 0.0f;
    for (int micro = 0; micro < spec.micro_steps; ++micro) {
      MICS_RETURN_NOT_OK(phase(kGather, [&] { return sdp->GatherParams(); }));
      mics::Tensor x;
      std::vector<int32_t> y;
      MICS_RETURN_NOT_OK(phase(kData, [&] {
        return batches.Sample(step++, rank, spec.micro_batch, &x, &y);
      }));
      MICS_RETURN_NOT_OK(phase(kForwardBackward, [&]() -> Status {
        MICS_ASSIGN_OR_RETURN(float loss, model->ForwardBackward(x, y));
        loss_sum += loss;
        return Status::OK();
      }));
      MICS_RETURN_NOT_OK(
          phase(kReduce, [&] { return sdp->ReduceMicroStepGrads(); }));
    }
    MICS_RETURN_NOT_OK(
        phase(kStep, [&] { return sdp->FinishIterationAndStep(); }));
    float loss = loss_sum / static_cast<float>(spec.micro_steps);
    MICS_RETURN_NOT_OK(
        phase(kLossSync, [&] { return sdp->AverageScalar(&loss); }));
    if (trace) {
      it.end_us = NowUs();
      spans->Add(rank, "train.iteration", it.start_us, it.end_us, iter_id,
                 -1);
      traced->push_back(it);
    }
    losses->push_back(loss);
    if (!gate->ArriveAndWait()) {
      return Status::Unavailable("a peer rank failed");
    }
    if (ctl->stop) return Status::OK();
  }
}

/// Stands up a fresh cluster (store + mesh or World), runs warm-up and
/// then `plan`, and tears it down. setup_us runs from the first line of
/// this function to the gate closing the last warm-up iteration.
ClusterOutcome RunCluster(const TrainSpec& spec, uint64_t seed,
                          const RunPlan& plan, SpanLog* spans) {
  ClusterOutcome out;
  const double t_begin = NowUs();
  const mics::RankTopology topo{spec.world, spec.gpus_per_node};
  out.losses.resize(static_cast<size_t>(spec.world));
  out.traced.resize(static_cast<size_t>(spec.world));
  const std::vector<std::string> counters = LayerCounterNames();

  Control ctl;
  Gate gate(spec.world, [&] {
    const double t = NowUs();
    ++ctl.completed;
    if (!ctl.timed) {
      if (ctl.completed < kWarmupIters) return;
      out.setup_us = t - t_begin;
      if (plan.stop_after_warmup) {
        ctl.stop = true;
        return;
      }
      ctl.timed = true;
      ctl.traced_now = false;
      out.timed_start_us = t;
      out.c0 = SnapshotCounters(counters);
      return;
    }
    out.iter_end_us.push_back(t);
    out.iter_traced.push_back(ctl.traced_now ? 1 : 0);
    const int timed_iters = static_cast<int>(out.iter_end_us.size());
    const bool done = plan.fixed_iters > 0
                          ? timed_iters >= plan.fixed_iters
                          : t - out.timed_start_us >= plan.seconds * 1e6;
    if (done) {
      ctl.stop = true;
      out.c1 = SnapshotCounters(counters);
      return;
    }
    ctl.traced_now =
        plan.trace_blocks &&
        static_cast<int64_t>((t - out.timed_start_us) / kTraceBlockUs) % 2 ==
            1;
  });

  mics::RendezvousOptions rv;
  rv.timeout_ms = kCollectiveTimeoutMs;
  rv.max_retries = 0;
  std::unique_ptr<mics::World> world;
  std::unique_ptr<mics::net::TcpStoreServer> store;
  std::vector<std::unique_ptr<mics::net::SocketTransport>> transports(
      static_cast<size_t>(spec.world));
  if (spec.backend == mics::BackendKind::kInProcess) {
    world = std::make_unique<mics::World>(spec.world, rv);
  } else {
    auto started = mics::net::TcpStoreServer::Start();
    if (!started.ok()) {
      out.status = started.status();
      return out;
    }
    store = std::move(started).value();
  }

  std::vector<Status> statuses(static_cast<size_t>(spec.world));
  std::vector<std::thread> threads;
  for (int rank = 0; rank < spec.world; ++rank) {
    threads.emplace_back([&, rank] {
      auto body = [&]() -> Status {
        mics::Result<mics::CommBackendFactory> backend =
            Status::Internal("unset");
        if (world) {
          backend = mics::CommBackendFactory::InProcess(world.get(), &topo,
                                                        rank);
        } else {
          mics::net::TransportOptions topt;
          topt.connect_timeout_ms = kCollectiveTimeoutMs;
          topt.recv_timeout_ms = kCollectiveTimeoutMs;
          MICS_ASSIGN_OR_RETURN(
              transports[static_cast<size_t>(rank)],
              mics::net::SocketTransport::Connect(store->addr(), rank,
                                                  spec.world, &topo, topt));
          backend = mics::CommBackendFactory::Socket(
              transports[static_cast<size_t>(rank)].get(), &topo);
        }
        MICS_RETURN_NOT_OK(backend.status());
        return RankMain(spec, seed, rank, backend.value().factory(), topo,
                        &gate, &ctl, spans,
                        &out.losses[static_cast<size_t>(rank)],
                        &out.traced[static_cast<size_t>(rank)]);
      };
      Status st = body();
      if (!st.ok()) gate.Abort();
      statuses[static_cast<size_t>(rank)] = st;
    });
  }
  for (std::thread& t : threads) t.join();
  // Every rank passed the last gate, so no collective is in flight when
  // the transports close.
  for (auto& t : transports) {
    if (t) t->Shutdown();
  }
  for (int rank = 0; rank < spec.world; ++rank) {
    const Status& st = statuses[static_cast<size_t>(rank)];
    if (!st.ok() && (out.status.ok() || (out.status.IsUnavailable() &&
                                         !st.IsUnavailable()))) {
      out.status = Status(st.code(), "rank " + std::to_string(rank) + ": " +
                                         st.message());
    }
  }
  return out;
}

/// Bitwise equality of two loss sequences over their first `n` entries.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b,
              size_t n, size_t* first_diff) {
  for (size_t i = 0; i < n; ++i) {
    if (i >= a.size() || i >= b.size() ||
        std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      *first_diff = i;
      return false;
    }
  }
  return true;
}

/// Checks shared by every cluster run: status, finite losses, and every
/// rank reporting the same averaged loss bits.
void CheckCluster(const char* what, const ClusterOutcome& c,
                  RunResult* result) {
  if (!c.status.ok()) {
    result->Mismatch(std::string(what) + " failed: " + c.status.ToString());
    return;
  }
  const std::vector<float>& r0 = c.losses[0];
  for (size_t i = 0; i < r0.size(); ++i) {
    if (!std::isfinite(r0[i])) {
      result->Mismatch(std::string(what) + ": non-finite loss at iteration " +
                       std::to_string(i));
      return;
    }
  }
  for (size_t r = 1; r < c.losses.size(); ++r) {
    size_t diff = 0;
    if (c.losses[r].size() != r0.size() ||
        !SameBits(c.losses[r], r0, r0.size(), &diff)) {
      result->Mismatch(std::string(what) + ": rank " + std::to_string(r) +
                       " loss differs from rank 0");
      return;
    }
  }
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Iteration latencies (ms) of the timed window, optionally restricted
/// to traced (1) or untraced (0) iterations.
std::vector<double> IterLatenciesMs(const ClusterOutcome& c, int traced) {
  std::vector<double> lat;
  double prev = c.timed_start_us;
  for (size_t i = 0; i < c.iter_end_us.size(); ++i) {
    if (traced < 0 || c.iter_traced[i] == traced) {
      lat.push_back((c.iter_end_us[i] - prev) / 1e3);
    }
    prev = c.iter_end_us[i];
  }
  return lat;
}

double SamplesPerSecond(const TrainSpec& spec,
                        const std::vector<double>& lat_ms) {
  double total_ms = 0.0;
  for (double v : lat_ms) total_ms += v;
  return total_ms > 0.0 ? static_cast<double>(lat_ms.size()) *
                              static_cast<double>(spec.global_batch()) /
                              (total_ms / 1e3)
                        : 0.0;
}

void AddEndToEnd(const TrainSpec& spec, const ClusterOutcome& timed,
                 const std::vector<double>& setups_us,
                 const StealMonitor& steal, RunResult* result) {
  const std::vector<double> lat = IterLatenciesMs(timed, -1);
  result->latencies_ms = lat;
  // Timings come from the iterations that ended in calm slices.
  const std::vector<char> calm = steal.CalmMask(timed.iter_end_us);
  std::vector<double> kept;
  for (size_t i = 0; i < lat.size(); ++i) {
    if (calm[i]) kept.push_back(lat[i]);
  }
  const Tail tail = Summarize(kept, kTailQuantile);
  int64_t within = 0;
  for (double v : lat) within += v <= spec.iter_slo_ms ? 1 : 0;
  const double attempted = static_cast<double>(result->attempted);
  result->Add("samples_per_s", SamplesPerSecond(spec, kept), "1/s");
  result->Add("latency_ms_p50", tail.p50, "ms");
  result->Add("latency_ms_tail", tail.value, "ms");
  result->Add("slo_attainment",
              attempted > 0 ? static_cast<double>(within) / attempted : 0.0,
              "share");
  AddSetup(setups_us, result);
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "iterations: %lld timed, %lld in calm slices (all: %s "
                "samples/s); tail = median of p%.4g over %lld windows of "
                "%lld; iteration SLO %.0f ms",
                static_cast<long long>(lat.size()),
                static_cast<long long>(tail.samples),
                FormatDouble(SamplesPerSecond(spec, lat)).c_str(),
                tail.quantile * 100.0, static_cast<long long>(tail.windows),
                static_cast<long long>(tail.window), spec.iter_slo_ms);
  result->Note(buf);
  result->Note(steal.Describe());
}

/// Per-layer metrics of a traced run, plus the conservation checks.
void AddPerLayer(const TrainSpec& spec, const ClusterOutcome& c,
                 const SpanLog& spans, double single_rank_sps,
                 const StealMonitor& steal, RunResult* result) {
  const double iters = static_cast<double>(c.iter_end_us.size());
  auto per_iter = [&](const std::string& counter) {
    return iters > 0 ? Delta(c.c0, c.c1, counter) / iters : 0.0;
  };

  // Phase sums over every (rank, traced iteration).
  double phase_us[kNumPhases] = {};
  double wall_us = 0.0;
  int64_t rank_iters = 0;
  std::vector<double> fb_per_call_ms;
  for (const std::vector<RankIter>& rank : c.traced) {
    for (const RankIter& it : rank) {
      for (int p = 0; p < kNumPhases; ++p) phase_us[p] += it.phase_us[p];
      wall_us += it.end_us - it.start_us;
      ++rank_iters;
    }
  }
  // Rank skew: per traced iteration, max - min forward-backward time.
  std::vector<double> skew_ms;
  const size_t n_traced = c.traced.empty() ? 0 : c.traced[0].size();
  for (size_t i = 0; i < n_traced; ++i) {
    double lo = 1e300, hi = 0.0;
    for (const std::vector<RankIter>& rank : c.traced) {
      if (i >= rank.size()) continue;
      lo = std::min(lo, rank[i].phase_us[kForwardBackward]);
      hi = std::max(hi, rank[i].phase_us[kForwardBackward]);
    }
    skew_ms.push_back((hi - lo) / 1e3);
  }
  const double ri = rank_iters > 0 ? static_cast<double>(rank_iters) : 1.0;
  auto ms_per_iter = [&](Phase p) { return phase_us[p] / ri / 1e3; };
  double covered = 0.0;
  for (int p = 0; p < kNumPhases; ++p) covered += phase_us[p];
  const double coverage = wall_us > 0.0 ? covered / wall_us : 0.0;
  const double comm_us =
      phase_us[kGather] + phase_us[kReduce] + phase_us[kLossSync];
  const double calls_fb =
      ri * static_cast<double>(spec.micro_steps);  // FB calls traced

  result->Add("train.iteration_ms", wall_us / ri / 1e3, "ms");
  result->Add("kernels.fb_ms", ms_per_iter(kForwardBackward), "ms");
  result->Add("kernels.fb_gflops",
              phase_us[kForwardBackward] > 0.0
                  ? spec.FlopsPerCall() * calls_fb /
                        (phase_us[kForwardBackward] * 1e3)
                  : 0.0,
              "GFLOP/s");
  result->Add("train.gather_ms", ms_per_iter(kGather), "ms");
  result->Add("train.reduce_ms", ms_per_iter(kReduce), "ms");
  result->Add("train.step_ms", ms_per_iter(kStep), "ms");
  result->Add("train.loss_sync_ms", ms_per_iter(kLossSync), "ms");
  result->Add("train.data_ms", ms_per_iter(kData), "ms");
  result->Add("train.comm_share", wall_us > 0.0 ? comm_us / wall_us : 0.0,
              "share");
  result->Add("train.rank_skew_ms", Median(skew_ms), "ms");
  result->Add("train.phase_coverage", coverage, "share");

  // Bytes and calls per iteration: deltas of the library's counters,
  // summed over ranks.
  const double ag_bytes = per_iter("comm.all_gather.bytes");
  const double rs_bytes = per_iter("comm.reduce_scatter.bytes");
  double calls = 0.0, inter = 0.0;
  for (const char* op : {"all_gather", "reduce_scatter", "all_reduce",
                         "broadcast", "reduce", "gather", "scatter",
                         "all_to_all", "barrier"}) {
    calls += per_iter(std::string("comm.") + op + ".calls");
    inter += per_iter(std::string("comm.") + op + ".inter_node_bytes");
  }
  result->Add("comm.all_gather.bytes_per_iter", ag_bytes, "B");
  result->Add("comm.reduce_scatter.bytes_per_iter", rs_bytes, "B");
  result->Add("comm.all_reduce.bytes_per_iter",
              per_iter("comm.all_reduce.bytes"), "B");
  result->Add("comm.inter_node_bytes_per_iter", inter, "B");
  result->Add("comm.calls_per_iter", calls, "count");
  // Rates: bytes moved by the traced iterations over the time ranks
  // spent inside the calls that moved them (bytes and time both summed
  // over ranks, so this is a per-rank rate).
  const double traced_iters = ri / static_cast<double>(spec.world);
  auto gbps = [](double bytes, double us) {
    return us > 0.0 ? bytes / (us * 1e3) : 0.0;
  };
  result->Add("comm.gather_gbps",
              gbps(ag_bytes * traced_iters, phase_us[kGather]), "GB/s");
  result->Add("comm.reduce_gbps",
              gbps(rs_bytes * traced_iters, phase_us[kReduce]), "GB/s");

  const double sent_intra = per_iter("net.bytes_sent.intra_node");
  const double sent_inter = per_iter("net.bytes_sent.inter_node");
  result->Add("net.bytes_sent_per_iter", sent_intra + sent_inter, "B");
  result->Add("net.bytes_sent_intra_per_iter", sent_intra, "B");
  result->Add("net.bytes_sent_inter_per_iter", sent_inter, "B");
  result->Add("net.frames_per_iter", per_iter("net.frames_sent"), "count");
  result->Add("net.wire_gbps",
              gbps((sent_intra + sent_inter) * traced_iters,
                   comm_us + phase_us[kStep]),
              "GB/s");
  result->Add("net.recv_deadline_exceeded",
              Delta(c.c0, c.c1, "net.recv.deadline_exceeded"), "count");

  const double sps_untraced = SamplesPerSecond(spec, IterLatenciesMs(c, 0));
  const double sps_traced = SamplesPerSecond(spec, IterLatenciesMs(c, 1));
  result->Add("train.single_rank_samples_per_s", single_rank_sps, "1/s");
  result->Add("train.scaling_efficiency",
              single_rank_sps > 0.0
                  ? sps_untraced /
                        (static_cast<double>(spec.world) * single_rank_sps)
                  : 0.0,
              "share");
  result->Add("env.cpu_steal_share", steal.Share(), "share");
  result->Add("trace.overhead_share",
              sps_untraced > 0.0 ? 1.0 - sps_traced / sps_untraced : 0.0,
              "share");

  // Self time per span name (the iteration span's self time is the part
  // of the iteration no timed call covers).
  const std::map<std::string, double> self = spans.SelfTimeUs();
  std::string line = "self time per traced rank-iteration (ms):";
  for (const auto& [name, us] : self) {
    line += " " + name + "=" + FormatDouble(us / ri / 1e3);
  }
  result->Note(line);

  // Conservation: every all-gather byte is either intra- or inter-node;
  // every byte one rank sent, another received; the timed calls cover
  // the iteration.
  const double ag_split = per_iter("comm.all_gather.intra_node_bytes") +
                          per_iter("comm.all_gather.inter_node_bytes");
  if (std::fabs(ag_split - ag_bytes) > 1e-9 * std::max(1.0, ag_bytes)) {
    result->Mismatch("comm.all_gather bytes " + FormatDouble(ag_bytes) +
                     " != intra + inter " + FormatDouble(ag_split));
  }
  const double recv = Delta(c.c0, c.c1, "net.bytes_received.intra_node") +
                      Delta(c.c0, c.c1, "net.bytes_received.inter_node");
  const double sent = Delta(c.c0, c.c1, "net.bytes_sent.intra_node") +
                      Delta(c.c0, c.c1, "net.bytes_sent.inter_node");
  if (sent != recv) {
    result->Mismatch("net bytes sent " + FormatDouble(sent) +
                     " != received " + FormatDouble(recv));
  }
  if (spec.backend == mics::BackendKind::kInProcess && sent != 0.0) {
    result->Mismatch("net bytes moved on the in-process backend");
  }
  if (rank_iters > 0 && coverage < 0.95) {
    result->Mismatch("train.phase_coverage " + FormatDouble(coverage) +
                     " < 0.95");
  }
}

RunResult RunTraining(const TrainSpec& spec, const RunConfig& config) {
  RunResult result;
  result.Note(std::string("workload ") + spec.name + ": " + spec.Geometry());
  result.Note(std::string("kernel backend: ") + mics::kernels::ActiveName());

  // Set-up repetitions: fresh clusters that stop after warm-up. Their
  // warm-up losses must repeat bit for bit.
  std::vector<double> setups_us;
  std::vector<float> warm_ref;
  const int reps = config.trace ? 1 : kSetupReps;
  for (int rep = 0; rep + 1 < reps; ++rep) {
    RunPlan setup_only;
    setup_only.stop_after_warmup = true;
    ClusterOutcome c = RunCluster(spec, config.seed, setup_only, nullptr);
    CheckCluster("set-up repetition", c, &result);
    if (!result.correct) return result;
    setups_us.push_back(c.setup_us);
    size_t diff = 0;
    if (rep == 0) {
      warm_ref = c.losses[0];
    } else if (!SameBits(c.losses[0], warm_ref, kWarmupIters, &diff)) {
      result.Mismatch("warm-up loss bits differ between set-up repetitions "
                      "at iteration " + std::to_string(diff));
      return result;
    }
  }

  SpanLog spans(spec.world);
  RunPlan plan;
  plan.seconds = config.seconds;
  plan.trace_blocks = config.trace;
  StealMonitor steal;
  ClusterOutcome timed = RunCluster(spec, config.seed, plan, &spans);
  steal.Stop();
  result.attempted = static_cast<int64_t>(timed.iter_end_us.size());
  if (!timed.status.ok()) {
    result.attempted += 1;
    result.failed = 1;
  }
  CheckCluster("timed run", timed, &result);
  if (!result.correct) return result;
  setups_us.push_back(timed.setup_us);
  size_t diff = 0;
  if (!warm_ref.empty() &&
      !SameBits(timed.losses[0], warm_ref, kWarmupIters, &diff)) {
    result.Mismatch("timed run warm-up loss bits differ from set-up "
                    "repetitions at iteration " + std::to_string(diff));
  }
  const std::vector<float>& losses = timed.losses[0];
  const size_t checked =
      std::min(losses.size(), static_cast<size_t>(kWarmupIters +
                                                   kCrossCheckIters));
  result.Note("loss bits digest (iterations 0.." +
              std::to_string(checked - 1) + "): " +
              Hex(BitsDigest(std::vector<float>(
                  losses.begin(), losses.begin() +
                                      static_cast<long>(checked)))));
  result.Note("loss: first " + FormatDouble(losses.front()) + ", last " +
              FormatDouble(losses.back()) + " after " +
              std::to_string(losses.size()) + " iterations");

  // The socket == in-process contract: replay the same iterations over
  // in-process threads and compare loss bits.
  if (spec.backend == mics::BackendKind::kSocket) {
    TrainSpec ref = spec;
    ref.backend = mics::BackendKind::kInProcess;
    RunPlan fixed;
    fixed.fixed_iters = static_cast<int>(checked) - kWarmupIters;
    if (fixed.fixed_iters > 0) {
      ClusterOutcome c = RunCluster(ref, config.seed, fixed, nullptr);
      CheckCluster("in-process reference", c, &result);
      if (result.correct && !SameBits(c.losses[0], losses, checked, &diff)) {
        result.Mismatch("socket loss bits differ from the in-process "
                        "backend at iteration " + std::to_string(diff));
      }
      result.Note("socket == in-process loss bits over " +
                  std::to_string(checked) + " iterations: " +
                  (result.correct ? "yes" : "NO"));
    }
  }

  if (!config.trace) {
    AddEndToEnd(spec, timed, setups_us, steal, &result);
    return result;
  }

  // Single-rank baseline of the same per-rank task (traced pass only).
  double single_rank_sps = 0.0;
  if (spec.transformer) {
    TrainSpec one = spec;
    one.world = 1;
    one.gpus_per_node = 1;
    one.partition = 1;
    one.strategy = mics::Strategy::kDDP;
    RunPlan base;
    base.seconds = std::min(3.0, std::max(1.0, config.seconds / 4.0));
    ClusterOutcome c = RunCluster(one, config.seed, base, nullptr);
    CheckCluster("single-rank baseline", c, &result);
    single_rank_sps = SamplesPerSecond(one, IterLatenciesMs(c, -1));
  }
  AddPerLayer(spec, timed, spans, single_rank_sps, steal, &result);
  const std::string path =
      config.out_dir + "/" + spec.name + ".spans.json";
  std::vector<std::string> tracks;
  for (int r = 0; r < spec.world; ++r) tracks.push_back("rank " +
                                                        std::to_string(r));
  Status wrote = spans.WriteChromeTrace(path, tracks);
  result.Note(wrote.ok() ? "spans: " + std::to_string(spans.size()) +
                               " written to " + path
                         : "spans not written: " + wrote.ToString());
  return result;
}

}  // namespace

RunResult RunTrainTransformer(const RunConfig& config) {
  return RunTraining(TransformerSpec(), config);
}

RunResult RunTrainWideSocket(const RunConfig& config) {
  return RunTraining(WideSocketSpec(), config);
}

}  // namespace perfbench
