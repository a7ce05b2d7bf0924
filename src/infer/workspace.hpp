// Memory-planned activation arena for the inference engine.
//
// The plan engine executes a model section as a chain of kernels over plain
// Tensors; every intermediate activation is drawn from a Workspace. Sections
// run through run_section(), which drives the workspace through one of two
// paths per (section, input-signature):
//
//  - record: the first invocation runs the body with fresh heap tensors
//    while logging a lifetime interval per acquire() (note_use() extends a
//    tensor's interval to the current tick). The intervals are packed
//    (infer/planner.hpp) into a minimal-peak arena that is cached.
//  - replay: every later invocation hands out offset views into the cached
//    arena — zero heap allocations, bounded peak, bit-identical results
//    (same kernels, same operands, different addresses).
//
// Plans are keyed by input shapes (plus a caller-provided extra signature,
// e.g. aggregator activity masks), so alternating batch sizes each get
// their own warm plan instead of thrashing reallocations.
//
// Plan lifetime: plans die with their model. Section ids are never reused;
// a destroyed model retires its ids (retire_section_ids), and each thread's
// workspace drops their plans, arenas and slice decisions at its next
// record. Replays never look at the retire log.
//
// Kernel discipline: acquire the output FIRST, then note_use() every input
// that may live in the workspace, then run the kernel. The planner only
// keeps two intervals apart while their lifetimes overlap; noting an input
// before acquiring the output would let the packer alias them.
//
// Lifetime contract: tensors returned by run_section() are deep copies and
// safe to keep. Tensors handed out by acquire() are views into a recycled
// arena and die with the section invocation; poison mode (DDNN_POISON=1 or
// infer::set_poison) fills the arena with signaling NaNs before each replay
// so an escaped view is caught instead of silently reading recycled data.
//
// When a memory budget is set (infer::set_mem_budget, CLI --mem-budget),
// run_section() slices the batch dimension: it shrinks the per-chunk row
// count until the chunk's packed plan fits the budget, runs the section
// chunk by chunk, and stitches full-batch outputs — extra passes traded for
// bounded residency. Only a section whose single-row plan still exceeds the
// budget fails, with a diagnostic naming the section and both sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "infer/planner.hpp"
#include "tensor/tensor.hpp"

namespace ddnn::infer {

/// Identity of one executing section: tier (for peak stats), process-unique
/// instance id (from next_section_id(), keys the plan cache) and a stable
/// name for diagnostics.
struct SectionDesc {
  SectionTier tier = SectionTier::kDevice;
  int id = 0;
  const char* name = "section";
};

class Workspace {
 public:
  /// A tensor of `shape` with unspecified contents. Recording: a fresh heap
  /// tensor whose lifetime starts now. Replay: a view into the planned
  /// arena at this acquire's offset. Outside a section: a fresh heap tensor
  /// (lets layer kernels run standalone in tests).
  Tensor acquire(const Shape& shape);

  /// acquire() + zero fill (for accumulators).
  Tensor acquire_zero(const Shape& shape);

  /// Record that the kernel about to run reads `t`. Extends `t`'s lifetime
  /// interval to the current tick while recording; no-op for tensors not
  /// drawn from this workspace and during replay. Call AFTER acquiring the
  /// kernel's output (see the discipline note above).
  void note_use(const Tensor& t);

  /// Heap allocations ever performed by acquire() (record/idle paths only;
  /// replays allocate nothing). Pinned by the warm-reuse regression test.
  std::size_t alloc_count() const { return alloc_count_; }

  /// Cached plans (tests/diagnostics).
  std::size_t plans() const { return plans_.size(); }

  /// Total bytes of all cached plan arenas — this workspace's resident
  /// planned-activation footprint.
  std::int64_t arena_bytes() const;

  /// Drop all cached plans and arenas (tests).
  void clear_plans();

 private:
  friend std::vector<Tensor> run_section(
      Workspace& ws, const SectionDesc& desc, const std::vector<Tensor>& inputs,
      const std::string& extra_sig,
      const std::function<std::vector<Tensor>(const std::vector<Tensor>&,
                                              Workspace&)>& body);

  enum class Mode { kIdle, kRecord, kReplay };

  struct PlanEntry {
    MemoryPlan plan;
    Tensor arena;  // Shape{max(arena_floats, 1)}
  };
  struct SliceDecision {
    std::int64_t rows = 0;
    std::uint64_t epoch = 0;
  };
  using PlanKey = std::pair<int, std::string>;  // (section id, signature)

  /// Erase the plans and slice decisions of every section id retired
  /// since the last call (see retire_section_ids).
  void drop_retired();

  PlanEntry& plan_for(const SectionDesc& desc, const std::string& sig,
                      const std::vector<Tensor>& inputs,
                      const std::function<std::vector<Tensor>(
                          const std::vector<Tensor>&, Workspace&)>& body,
                      std::vector<Tensor>* outs);
  std::vector<Tensor> replay(const SectionDesc& desc, PlanEntry& entry,
                             const std::vector<Tensor>& inputs,
                             const std::function<std::vector<Tensor>(
                                 const std::vector<Tensor>&, Workspace&)>& body);

  Mode mode_ = Mode::kIdle;
  std::size_t alloc_count_ = 0;

  // Recording state.
  std::vector<PlanInterval> rec_intervals_;
  std::vector<Tensor> rec_tensors_;  // keepalive: keeps data() keys unique
  std::unordered_map<const float*, std::size_t> rec_index_;
  int rec_tick_ = 0;

  // Replay state.
  const MemoryPlan* replay_plan_ = nullptr;
  const char* replay_name_ = "";
  Tensor replay_arena_;
  std::size_t replay_cursor_ = 0;

  std::map<PlanKey, PlanEntry> plans_;
  std::map<PlanKey, SliceDecision> slices_;
  std::size_t retired_seen_ = 0;  // read position in the retire log
};

/// Execute one model section under the memory planner: record or replay the
/// plan for `inputs`' signature, slice the batch dimension when a memory
/// budget demands it, attribute the executed arena peak to `desc.tier`, and
/// return deep copies of the body's outputs. `extra_sig` folds any
/// non-shape execution parameters (e.g. aggregator activity masks) into the
/// plan key. The body must draw every intermediate from the given
/// workspace and must not invoke run_section itself.
std::vector<Tensor> run_section(
    Workspace& ws, const SectionDesc& desc, const std::vector<Tensor>& inputs,
    const std::string& extra_sig,
    const std::function<std::vector<Tensor>(const std::vector<Tensor>&,
                                            Workspace&)>& body);

/// run_section() on the calling thread's workspace.
std::vector<Tensor> run_section(
    const SectionDesc& desc, const std::vector<Tensor>& inputs,
    const std::string& extra_sig,
    const std::function<std::vector<Tensor>(const std::vector<Tensor>&,
                                            Workspace&)>& body);

/// Declare section ids dead: their model was destroyed, and ids are never
/// reused. Each thread's workspace drops their plans, arenas and slice
/// decisions at its next plan miss. Negative ids are ignored.
void retire_section_ids(const std::vector<int>& ids);

/// The calling thread's workspace (one arena set per thread, so
/// batch-parallel evaluation workers never share plans or storage).
Workspace& tls_workspace();

/// arena_bytes() of the calling thread's workspace — what a server that
/// pins each connection to one thread reports as its per-connection
/// activation footprint (`ddnn serve`).
std::int64_t thread_arena_bytes();

}  // namespace ddnn::infer
