// Shared pieces of the perfbench binary: the clock, order statistics,
// the iteration gate ranks meet at, the in-memory span log, counter
// snapshots and the result a workload hands back to main().

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
double NowUs();

/// Nearest-rank q-quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A latency distribution summarized as its median and a tail. The
/// tail is taken per window of consecutive samples just large enough to
/// leave `kMinBeyond` samples beyond the percentile, and the median over
/// windows is reported: one burst of interference from other tenants
/// moves one window, not the result.
struct Tail {
  static constexpr int64_t kMinBeyond = 10;
  double p50 = 0.0;
  double value = 0.0;     // median over windows of the window percentile
  double quantile = 0.0;  // which percentile `value` is
  int64_t samples = 0;    // size of the distribution
  int64_t window = 0;     // samples per window
  int64_t windows = 0;    // complete windows (1 when the run is short)
};

/// The percentile every workload reports as latency_ms_tail: windows of
/// 40 leave 10 samples beyond it. On a shared VM host stalls moved p90 of
/// open-loop serving by a third to a half between identical runs; p75 is
/// the highest percentile that stayed inside the benchmark's bound.
constexpr double kTailQuantile = 0.75;

/// Summarizes time-ordered `values` at percentile `q`. A run shorter than
/// one window is summarized whole, at the highest of q, p99, p95, p90,
/// p75 and p50 that leaves kMinBeyond samples beyond it.
Tail Summarize(const std::vector<double>& values, double q);

/// Barrier for the rank threads of one cluster. The last thread to
/// arrive runs `on_complete` before any thread is released, so state it
/// writes is visible to every rank after ArriveAndWait returns. Abort()
/// releases every waiter with false (a rank that failed must not leave
/// its peers waiting).
class Gate {
 public:
  Gate(int parties, std::function<void()> on_complete);
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool ArriveAndWait();
  void Abort();

 private:
  const int parties_;
  std::function<void()> on_complete_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// One closed span: a call into a layer, timed from the benchmark.
struct Span {
  const char* name = "";
  int track = 0;  // rank, or the load-generator/collector track
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // id of the iteration or request span; -1 = root
};

/// In-memory span store: one vector per track, so each rank thread
/// appends without a lock. Written out only when the run ends.
class SpanLog {
 public:
  explicit SpanLog(int tracks) : tracks_(static_cast<size_t>(tracks)) {}

  /// Reserves an id for a span that will be closed later (so children
  /// can name it as their parent before it ends).
  int64_t NextId(int track);
  void Add(int track, const char* name, double start_us, double end_us,
           int64_t id, int64_t parent);
  /// Convenience for leaf spans.
  void AddLeaf(int track, const char* name, double start_us, double end_us,
               int64_t parent) {
    Add(track, name, start_us, end_us, NextId(track), parent);
  }

  int64_t size() const;

  /// Sum, per span name, of each span's self time: its duration minus
  /// the part of its interval its child spans cover.
  std::map<std::string, double> SelfTimeUs() const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  mics::Status WriteChromeTrace(const std::string& path,
                                const std::vector<std::string>& track_names)
      const;

 private:
  struct Track {
    std::vector<Span> spans;
    int64_t next = 0;
  };
  std::vector<Track> tracks_;
};

/// Values of named process-wide counters (obs::MetricsRegistry).
using CounterSnapshot = std::map<std::string, double>;
CounterSnapshot SnapshotCounters(const std::vector<std::string>& names);
double Delta(const CounterSnapshot& before, const CounterSnapshot& after,
             const std::string& name);

/// The comm.<op>.* and net.* counters the benchmark reads.
std::vector<std::string> LayerCounterNames();

/// Samples the VM's CPU steal time (/proc/stat: time the host ran other
/// guests while this one wanted to run) every 100 ms on its own thread,
/// from construction until Stop(). Steal on a shared cloud VM comes in
/// episodes of seconds to minutes and slows every workload here by up to
/// half, so the end-to-end timings are taken from the calmest slices.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  void Stop();
  /// Steal share of all CPU time over the monitored span.
  double Share() const;
  /// Per time (NowUs clock): whether it falls in a calm 1 s slice, one
  /// whose steal share is at most the first quartile of the slices'
  /// (so at least a quarter of them). Times outside the span count as
  /// calm.
  std::vector<char> CalmMask(const std::vector<double>& times_us) const;
  /// "k of n slices calm, steal x% (calm slices <= y%)" for the report.
  std::string Describe() const;

 private:
  struct Sample {
    double t_us = 0.0;
    double steal = 0.0;
    double total = 0.0;
  };
  struct Slice {
    double end_us = 0.0;
    double share = 0.0;
  };
  void Loop();
  std::vector<Slice> Slices() const;
  double CalmThreshold(const std::vector<Slice>& slices) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// Process high-water resident set, MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON summary.
  std::vector<std::string> notes;
  /// Correctness failures, each one line.
  std::vector<std::string> mismatches;
  /// Per-operation latencies of the timed window (iterations or
  /// requests), written to the output directory for inspection.
  std::vector<double> latencies_ms;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Mismatch(const std::string& line) {
    correct = false;
    mismatches.push_back(line);
  }
};

/// Reports the median set-up time as setup_s and lists every set-up.
void AddSetup(const std::vector<double>& setups_us, RunResult* result);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Formats a double with all its significant digits.
std::string FormatDouble(double v);

/// FNV-1a over the bit patterns of `values`.
uint64_t BitsDigest(const std::vector<float>& values);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
