// The benchmark's workloads; each fills a Report (see BENCHMARK.json and
// perfbench/README.md for what each measures and why it exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunWarmBatch(const Options& o, Report* r);
void RunColdFile(const Options& o, Report* r);
void RunUpdateMix(const Options& o, Report* r);
void RunFunctional(const Options& o, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
