#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

size_t RankIndex(size_t n, double q) {
  const double pos = std::ceil(q * static_cast<double>(n));
  size_t k = pos <= 1.0 ? 0 : static_cast<size_t>(pos) - 1;
  return std::min(k, n - 1);
}

/// Samples per window that leave kMinBeyond samples beyond quantile q.
int64_t TailWindow(double q) {
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(Tail::kMinBeyond) / (1.0 - q) - 1e-9));
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t k = RankIndex(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Tail Summarize(const std::vector<double>& values, double q) {
  Tail t;
  t.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return t;
  t.p50 = Median(values);
  const int64_t window = TailWindow(q);
  if (t.samples >= window) {
    std::vector<double> tails;
    for (int64_t w = 0; (w + 1) * window <= t.samples; ++w) {
      tails.push_back(Quantile(
          std::vector<double>(values.begin() + w * window,
                              values.begin() + (w + 1) * window),
          q));
    }
    t.value = Median(tails);
    t.quantile = q;
    t.window = window;
    t.windows = static_cast<int64_t>(tails.size());
    return t;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  t.window = t.samples;
  t.windows = 1;
  for (double cand : {q, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (cand > q) continue;
    const size_t k = RankIndex(n, cand);
    if (static_cast<int64_t>(n - 1 - k) >= Tail::kMinBeyond || cand <= 0.5) {
      t.value = sorted[k];
      t.quantile = cand;
      break;
    }
  }
  return t;
}

Gate::Gate(int parties, std::function<void()> on_complete)
    : parties_(parties), on_complete_(std::move(on_complete)) {}

bool Gate::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_) return false;
  const uint64_t gen = generation_;
  if (++arrived_ == parties_) {
    if (on_complete_) on_complete_();
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return true;
  }
  cv_.wait(lock, [&] { return generation_ != gen || aborted_; });
  return generation_ != gen;
}

void Gate::Abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

int64_t SpanLog::NextId(int track) {
  Track& t = tracks_[static_cast<size_t>(track)];
  return (static_cast<int64_t>(track) << 40) | t.next++;
}

void SpanLog::Add(int track, const char* name, double start_us,
                  double end_us, int64_t id, int64_t parent) {
  tracks_[static_cast<size_t>(track)].spans.push_back(
      {name, track, start_us, end_us, id, parent});
}

int64_t SpanLog::size() const {
  int64_t n = 0;
  for (const Track& t : tracks_) n += static_cast<int64_t>(t.spans.size());
  return n;
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  // Children of a span live on the same track (each rank or request
  // track nests its own calls), so the union is taken per track.
  std::map<std::string, double> self;
  for (const Track& t : tracks_) {
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : t.spans) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_us, s.end_us});
    }
    for (const Span& s : t.spans) {
      double covered = 0.0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<double, double>>& iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_begin = 0.0;
        double cur_end = -1.0;
        for (const auto& [b0, e0] : iv) {
          const double b = std::max(b0, s.start_us);
          const double e = std::min(e0, s.end_us);
          if (e <= b) continue;
          if (b > cur_end) {
            if (cur_end > cur_begin) covered += cur_end - cur_begin;
            cur_begin = b;
            cur_end = e;
          } else {
            cur_end = std::max(cur_end, e);
          }
        }
        if (cur_end > cur_begin) covered += cur_end - cur_begin;
      }
      self[s.name] += (s.end_us - s.start_us) - covered;
    }
  }
  return self;
}

mics::Status SpanLog::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::string>& track_names) const {
  std::ofstream out(path);
  if (!out) return mics::Status::InvalidArgument("cannot write " + path);
  out << "[\n";
  bool first = true;
  for (size_t i = 0; i < track_names.size(); ++i) {
    out << (first ? "" : ",\n")
        << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << i
        << R"(,"args":{"name":")" << track_names[i] << "\"}}";
    first = false;
  }
  char buf[256];
  for (const Track& t : tracks_) {
    for (const Span& s : t.spans) {
      std::snprintf(buf, sizeof(buf),
                    R"({"ph":"X","name":"%s","pid":1,"tid":%d,"ts":%.3f,)"
                    R"("dur":%.3f,"args":{"id":%lld,"parent":%lld}})",
                    s.name, s.track, s.start_us, s.end_us - s.start_us,
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent));
      out << (first ? "" : ",\n") << buf;
      first = false;
    }
  }
  out << "\n]\n";
  out.close();
  if (!out) return mics::Status::Internal("short write to " + path);
  return mics::Status::OK();
}

CounterSnapshot SnapshotCounters(const std::vector<std::string>& names) {
  mics::obs::MetricsRegistry& reg = mics::obs::MetricsRegistry::Global();
  CounterSnapshot snap;
  for (const std::string& n : names) snap[n] = reg.GetCounter(n)->Value();
  return snap;
}

double Delta(const CounterSnapshot& before, const CounterSnapshot& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::vector<std::string> LayerCounterNames() {
  std::vector<std::string> names;
  for (const char* op : {"all_gather", "reduce_scatter", "all_reduce",
                         "broadcast", "reduce", "gather", "scatter",
                         "all_to_all", "barrier"}) {
    for (const char* field :
         {"calls", "bytes", "inter_node_bytes", "intra_node_bytes"}) {
      names.push_back(std::string("comm.") + op + "." + field);
    }
  }
  for (const char* n :
       {"net.frames_sent", "net.frames_received", "net.bytes_sent.intra_node",
        "net.bytes_sent.inter_node", "net.bytes_received.intra_node",
        "net.bytes_received.inter_node", "net.recv.deadline_exceeded",
        "serve.requests", "serve.rejected", "serve.batches",
        "serve.failed_batches", "serve.engine.batches",
        "serve.engine.samples"}) {
    names.push_back(n);
  }
  return names;
}

namespace {

/// Aggregate steal and total CPU jiffies from /proc/stat; zeros when it
/// cannot be read (then every slice counts as calm).
void ReadCpuJiffies(double* steal, double* total) {
  *steal = 0.0;
  *total = 0.0;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  double v = 0.0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    *total += v;
    if (i == 7) *steal = v;
  }
}

constexpr double kStealSampleUs = 100e3;
constexpr int kSamplesPerSlice = 10;  // 1 s slices

}  // namespace

StealMonitor::StealMonitor() : thread_([this] { Loop(); }) {}

StealMonitor::~StealMonitor() { Stop(); }

void StealMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Sample s;
    s.t_us = NowUs();
    ReadCpuJiffies(&s.steal, &s.total);
    samples_.push_back(s);
    if (stop_) return;
    cv_.wait_for(lock, std::chrono::duration<double, std::micro>(
                           kStealSampleUs),
                 [&] { return stop_; });
  }
}

double StealMonitor::Share() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  const double total = samples_.back().total - samples_.front().total;
  return total > 0.0 ? (samples_.back().steal - samples_.front().steal) / total
                     : 0.0;
}

std::vector<StealMonitor::Slice> StealMonitor::Slices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Slice> slices;
  for (size_t i = kSamplesPerSlice; i < samples_.size();
       i += kSamplesPerSlice) {
    const Sample& a = samples_[i - kSamplesPerSlice];
    const Sample& b = samples_[i];
    const double total = b.total - a.total;
    slices.push_back(
        {b.t_us, total > 0.0 ? (b.steal - a.steal) / total : 0.0});
  }
  return slices;
}

double StealMonitor::CalmThreshold(const std::vector<Slice>& slices) const {
  std::vector<double> shares;
  for (const Slice& s : slices) shares.push_back(s.share);
  return Quantile(shares, 0.25);
}

std::vector<char> StealMonitor::CalmMask(
    const std::vector<double>& times_us) const {
  const std::vector<Slice> slices = Slices();
  std::vector<char> calm(times_us.size(), 1);
  if (slices.size() < 2) return calm;
  const double threshold = CalmThreshold(slices);
  for (size_t i = 0; i < times_us.size(); ++i) {
    auto it = std::lower_bound(
        slices.begin(), slices.end(), times_us[i],
        [](const Slice& s, double t) { return s.end_us < t; });
    if (it != slices.end() && it->share > threshold) calm[i] = 0;
  }
  return calm;
}

std::string StealMonitor::Describe() const {
  const std::vector<Slice> slices = Slices();
  const double threshold = slices.empty() ? 0.0 : CalmThreshold(slices);
  int64_t calm = 0;
  for (const Slice& s : slices) calm += s.share <= threshold ? 1 : 0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "host steal %.2f%% of CPU time; %lld of %zu 1 s slices calm "
                "(steal <= %.2f%%)",
                100.0 * Share(), static_cast<long long>(calm), slices.size(),
                100.0 * threshold);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddSetup(const std::vector<double>& setups_us, RunResult* result) {
  result->Add("setup_s", Median(setups_us) / 1e6, "s");
  std::string line = "setup reps (s):";
  for (double us : setups_us) {
    line += ' ';
    line += FormatDouble(us / 1e6);
  }
  result->Note(line);
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t BitsDigest(const std::vector<float>& values) {
  uint64_t h = 1469598103934665603ull;
  for (float f : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench
