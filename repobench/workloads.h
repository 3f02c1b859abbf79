#ifndef NLQ_REPOBENCH_WORKLOADS_H_
#define NLQ_REPOBENCH_WORKLOADS_H_

#include "bench.h"
#include "common/status.h"

namespace nlq::repobench {

/// build_resident (spilled = false) and build_spilled: one embedded
/// Database, one driving thread, closed loop over the five model
/// classes on a generated mixture table.
Status RunBuildWorkload(const BenchOptions& options, bool spilled,
                        RunReport* report);

/// serve_mixed: an in-process server on loopback, NlqClient threads in
/// a closed loop over refresh / build_grouped / score / append.
Status RunServeWorkload(const BenchOptions& options, RunReport* report);

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_WORKLOADS_H_
