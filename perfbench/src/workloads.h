// The three perfbench workloads. Each builds its cluster from the
// library's public API only (ShardedDataParallel, train::Model,
// CommBackendFactory / SocketTransport, ServeEngine / DynamicBatcher,
// obs::MetricsRegistry counters) and times the calls from here.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// 2x2 in-process ranks, MiCS p=2, transformer classifier: kernel-bound.
RunResult RunTrainTransformer(const RunConfig& config);

/// 2x2 ranks over loopback TCP, MiCS p=4 (hierarchical all-gather),
/// wide MLP at micro-batch 1: collective- and transport-bound.
RunResult RunTrainWideSocket(const RunConfig& config);

/// 2x2 in-process ranks serving the transformer (MiCS p=2, per-batch
/// layerwise gathers) under open-loop Poisson arrivals.
RunResult RunServeOpenLoop(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
