#pragma once

#include "harness.hpp"

namespace perfbench {

/// Run every per-layer probe and add its metrics to `result`. Spans of the
/// probes go to `spans`.
void probe_layers(const Options& options, ddnn::obs::SpanTracer& spans, Result& result);

}  // namespace perfbench
