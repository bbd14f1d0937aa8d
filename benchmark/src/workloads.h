#pragma once

#include "common.h"
#include "reference.h"

namespace slickbench {

// Each workload runs its untraced pass (end-to-end metrics and the
// counters every layer exposes), then, with opt.trace, the traced pass
// (span-derived per-layer metrics). Wrong answers and lost tuples are
// recorded with Results::Fail.
void RunAcqSum(const Options& opt, Reference& ref, Results& out);
void RunAcqMax(const Options& opt, Reference& ref, Results& out);
void RunPipeInproc(const Options& opt, Reference& ref, Results& out);
void RunIngestTcp(const Options& opt, Reference& ref, Results& out);
void RunIngestShm(const Options& opt, Reference& ref, Results& out);

}  // namespace slickbench
