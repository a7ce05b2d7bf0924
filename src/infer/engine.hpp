// Inference-engine selection.
//
// Two execution paths produce a model's eval-mode outputs:
//   kAutograd — the original path: every forward goes through autograd ops
//               and Variable graph nodes (NoGradGuard suppresses the tape
//               but not the per-op allocations).
//   kPlan     — the dedicated engine: each block lowers to a kernel plan
//               over plain Tensors with a per-thread Workspace; binary
//               conv/FC layers run on cached bit-packed weights via
//               XNOR-popcount kernels (src/tensor/bitgemm.hpp).
//
// The two are bit-identical: XNOR-popcount over ±1 operands is exact
// integer arithmetic, and every float kernel in the plan path either calls
// the same compiled function as the autograd path or accumulates the same
// terms in the same order. Eval mode always runs the plan engine; the
// autograd forward trains, and the parity tests pin it through
// set_engine_kind() as the reference the plan engine must match.
#pragma once

namespace ddnn::infer {

enum class EngineKind { kAutograd, kPlan };

/// Active engine (kPlan unless a test pinned another). The caller still
/// gates on eval mode — the plan engine never runs while training or while
/// the tape is recording.
EngineKind engine_kind();

/// Pin the active engine (the parity tests' seam).
void set_engine_kind(EngineKind kind);

}  // namespace ddnn::infer
