// Memory-planner tests: interval packing (validity, bounds, exhaustive
// optimality on small plans), record/replay arena reuse, batch slicing under
// a hard memory budget, the per-tier peak stats, and plan lifetime (a
// destroyed model's plans are freed on every thread that recorded them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "infer/engine.hpp"
#include "infer/planner.hpp"
#include "infer/workspace.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ddnn {
namespace {

using infer::MemoryPlan;
using infer::PlanInterval;

/// Restores an unlimited memory budget when a test scope ends.
struct BudgetGuard {
  explicit BudgetGuard(std::int64_t bytes) { infer::set_mem_budget(bytes); }
  ~BudgetGuard() { infer::set_mem_budget(0); }
};

PlanInterval iv(std::int64_t numel, int def, int last_use) {
  PlanInterval i;
  i.numel = numel;
  i.def = def;
  i.last_use = last_use;
  return i;
}

/// Structural checks every packing must satisfy: lifetime-overlapping
/// intervals get disjoint byte ranges, the arena is exactly the highest
/// interval end, and packed sits between the live-peak lower bound and the
/// naive sum-of-sizes upper bound.
void expect_valid_packing(const MemoryPlan& plan) {
  std::int64_t naive = 0;
  std::int64_t end = 0;
  for (const auto& i : plan.intervals) {
    EXPECT_GE(i.offset, 0);
    naive += i.numel;
    end = std::max(end, i.offset + i.numel);
  }
  EXPECT_EQ(plan.naive_floats, naive);
  EXPECT_EQ(plan.arena_floats, end);
  EXPECT_LE(plan.arena_floats, plan.naive_floats);
  EXPECT_GE(plan.arena_floats, plan.live_peak_floats);
  for (std::size_t a = 0; a < plan.intervals.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.intervals.size(); ++b) {
      const auto& x = plan.intervals[a];
      const auto& y = plan.intervals[b];
      if (!infer::intervals_overlap(x, y)) continue;
      const bool disjoint =
          x.offset + x.numel <= y.offset || y.offset + y.numel <= x.offset;
      EXPECT_TRUE(disjoint) << "intervals " << a << " and " << b
                            << " overlap in time and share bytes";
    }
  }
}

/// Exhaustive minimal arena size. Some optimal packing is left-justified —
/// every interval sits at offset 0 or flush against another interval's end
/// (shift each down until blocked) — so enumerating all placement orders
/// with those candidate offsets visits an optimal layout. Exponential; small
/// fixtures only.
std::int64_t brute_force_min_arena(const std::vector<PlanInterval>& ivs) {
  std::vector<std::size_t> order(ivs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end());
  std::int64_t best = 0;
  for (const auto& i : ivs) best += i.numel;  // naive layout always works
  do {
    std::vector<std::int64_t> offs(ivs.size(), -1);
    std::function<void(std::size_t, std::int64_t)> place =
        [&](std::size_t k, std::int64_t arena) {
          if (arena >= best) return;  // cannot improve
          if (k == order.size()) {
            best = arena;
            return;
          }
          const PlanInterval& cur = ivs[order[k]];
          std::vector<std::int64_t> cands{0};
          for (std::size_t p = 0; p < k; ++p) {
            cands.push_back(offs[order[p]] + ivs[order[p]].numel);
          }
          for (const std::int64_t off : cands) {
            bool ok = true;
            for (std::size_t p = 0; p < k && ok; ++p) {
              const PlanInterval& prev = ivs[order[p]];
              if (!infer::intervals_overlap(cur, prev)) continue;
              ok = off + cur.numel <= offs[order[p]] ||
                   offs[order[p]] + prev.numel <= off;
            }
            if (!ok) continue;
            offs[order[k]] = off;
            place(k + 1, std::max(arena, off + cur.numel));
          }
        };
    place(0, 0);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

// ----------------------------------------------------------- pack_plan unit

TEST(PackPlan, EmptyPlanIsEmptyArena) {
  const MemoryPlan plan = infer::pack_plan({});
  EXPECT_EQ(plan.arena_floats, 0);
  EXPECT_EQ(plan.naive_floats, 0);
  EXPECT_EQ(plan.live_peak_floats, 0);
}

TEST(PackPlan, PingPongChainReusesDeadBuffers) {
  // a -> b -> c, each step reading only its predecessor: a and c can share.
  const MemoryPlan plan =
      infer::pack_plan({iv(8, 0, 1), iv(8, 1, 2), iv(8, 2, 3)});
  expect_valid_packing(plan);
  EXPECT_EQ(plan.arena_floats, 16);
  EXPECT_EQ(plan.live_peak_floats, 16);
  EXPECT_EQ(plan.naive_floats, 24);
}

TEST(PackPlan, FullyOverlappingIntervalsCannotShare) {
  const MemoryPlan plan =
      infer::pack_plan({iv(4, 0, 3), iv(6, 1, 3), iv(2, 2, 3)});
  expect_valid_packing(plan);
  EXPECT_EQ(plan.arena_floats, 12);  // = naive: everything live at tick 3
}

TEST(PackPlan, SmallFixturesMatchExhaustiveOptimum) {
  const std::vector<std::vector<PlanInterval>> fixtures = {
      // Chain with a skip: ends share under the middle interval.
      {iv(4, 0, 1), iv(3, 1, 2), iv(4, 2, 3)},
      // Two disjoint mids under one long-lived buffer.
      {iv(2, 0, 5), iv(5, 1, 2), iv(3, 3, 4)},
      // Ping-pong with unequal sizes.
      {iv(8, 0, 1), iv(2, 1, 2), iv(8, 2, 3), iv(2, 3, 4)},
      // A wide fan: one producer read by three later consumers.
      {iv(6, 0, 3), iv(4, 1, 2), iv(4, 2, 3), iv(4, 3, 4)},
      // Everything overlaps everything.
      {iv(1, 0, 4), iv(2, 0, 4), iv(3, 0, 4), iv(4, 0, 4)},
  };
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const MemoryPlan plan = infer::pack_plan(fixtures[f]);
    expect_valid_packing(plan);
    EXPECT_EQ(plan.arena_floats, brute_force_min_arena(fixtures[f]))
        << "fixture " << f;
  }
}

TEST(PackPlan, RandomRecordingShapedPlansPackValidly) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    std::vector<PlanInterval> ivs;
    for (int i = 0; i < n; ++i) {
      // Mimic a real recording: defs are the strictly-increasing acquire
      // ticks, last_use extends a bounded distance forward.
      const auto numel = 1 + static_cast<std::int64_t>(rng.uniform(0.0, 64.0));
      const int last =
          std::min(n - 1, i + static_cast<int>(rng.uniform(0.0, 4.0)));
      ivs.push_back(iv(numel, i, last));
    }
    expect_valid_packing(infer::pack_plan(ivs));
  }
}

// ----------------------------------------------------- record/replay arena

/// Four-step elementwise ping-pong chain; every intermediate reads only its
/// predecessor, so a planned arena holds exactly two live buffers.
std::vector<Tensor> pingpong_chain(const std::vector<Tensor>& in,
                                   infer::Workspace& ws) {
  Tensor a = ws.acquire(in[0].shape());
  ws.note_use(in[0]);
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = in[0][i] * 2.0f;
  Tensor b = ws.acquire(in[0].shape());
  ws.note_use(a);
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = a[i] + 1.0f;
  Tensor c = ws.acquire(in[0].shape());
  ws.note_use(b);
  for (std::int64_t i = 0; i < c.numel(); ++i) c[i] = b[i] * 0.5f;
  Tensor d = ws.acquire(in[0].shape());
  ws.note_use(c);
  for (std::int64_t i = 0; i < d.numel(); ++i) d[i] = c[i] - 3.0f;
  return {d};
}

TEST(RunSection, ReplaysBitIdenticallyInsideTwoBufferArena) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kEdge,
                                infer::next_section_id(), "pingpong"};
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{4, 16}, rng);

  infer::reset_plan_stats();
  const auto rec = infer::run_section(ws, desc, {x}, "", pingpong_chain);
  const std::size_t warm = ws.alloc_count();
  const auto rep = infer::run_section(ws, desc, {x}, "", pingpong_chain);

  ASSERT_EQ(rec.size(), 1u);
  ASSERT_EQ(rec[0].shape(), x.shape());
  EXPECT_EQ(0, std::memcmp(rec[0].data(), rep[0].data(),
                           static_cast<std::size_t>(x.numel()) *
                               sizeof(float)));
  // Replay allocates nothing (record pass already built the arena)...
  EXPECT_EQ(ws.alloc_count(), warm);
  // ...and the executed plan packed four equal intermediates into two:
  // packed peak strictly below the naive sum, reported per tier in bytes.
  const auto stats = infer::plan_stats();
  const std::int64_t buf = x.numel() * static_cast<std::int64_t>(sizeof(float));
  EXPECT_EQ(stats.edge_peak_bytes, 2 * buf);
  EXPECT_EQ(stats.device_peak_bytes, 0);
  EXPECT_EQ(stats.cloud_peak_bytes, 0);
}

TEST(RunSection, PeakStatsTakeMaxAcrossTiersAndReset) {
  infer::reset_plan_stats();
  infer::note_plan_peak(infer::SectionTier::kDevice, 100);
  infer::note_plan_peak(infer::SectionTier::kDevice, 40);  // ignored: smaller
  infer::note_plan_peak(infer::SectionTier::kCloud, 7);
  const auto stats = infer::plan_stats();
  EXPECT_EQ(stats.device_peak_bytes, 100);
  EXPECT_EQ(stats.edge_peak_bytes, 0);
  EXPECT_EQ(stats.cloud_peak_bytes, 7);
  EXPECT_EQ(stats.peak(infer::SectionTier::kDevice), 100);
  infer::reset_plan_stats();
  EXPECT_EQ(infer::plan_stats().device_peak_bytes, 0);
}

// --------------------------------------------------------- budget slicing

TEST(Budget, SlicesBatchToFitAndStitchesBitIdentically) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "sliced"};
  Rng rng(19);
  const Tensor x = Tensor::randn(Shape{8, 16}, rng);
  const std::int64_t row_bytes = 16 * static_cast<std::int64_t>(sizeof(float));

  // Unbudgeted reference: full-batch plan, arena = 2 buffers of 8 rows.
  infer::reset_plan_stats();
  const auto ref = infer::run_section(ws, desc, {x}, "", pingpong_chain);
  EXPECT_EQ(infer::plan_stats().device_peak_bytes, 2 * 8 * row_bytes);

  // Budget for two buffers of two rows: the batch must be sliced 8 -> 2.
  BudgetGuard guard(2 * 2 * row_bytes);
  infer::reset_plan_stats();
  const auto got = infer::run_section(ws, desc, {x}, "", pingpong_chain);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].shape(), x.shape());
  EXPECT_EQ(0, std::memcmp(ref[0].data(), got[0].data(),
                           static_cast<std::size_t>(x.numel()) *
                               sizeof(float)));
  const auto stats = infer::plan_stats();
  EXPECT_GT(stats.device_peak_bytes, 0);
  EXPECT_LE(stats.device_peak_bytes, 2 * 2 * row_bytes);

  // Warm sliced passes reuse the cached chunk plans: no new allocations.
  const std::size_t warm = ws.alloc_count();
  infer::run_section(ws, desc, {x}, "", pingpong_chain);
  EXPECT_EQ(ws.alloc_count(), warm);
}

TEST(Budget, RemainderChunkGetsItsOwnPlan) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "remainder"};
  Rng rng(23);
  const Tensor x = Tensor::randn(Shape{5, 6}, rng);
  const auto ref = infer::run_section(ws, desc, {x}, "", pingpong_chain);

  // Budget for two 2-row buffers: chunks of 2, 2 and a 1-row remainder.
  BudgetGuard guard(2 * 2 * 6 * static_cast<std::int64_t>(sizeof(float)));
  const auto got = infer::run_section(ws, desc, {x}, "", pingpong_chain);
  ASSERT_EQ(got[0].shape(), x.shape());
  EXPECT_EQ(0, std::memcmp(ref[0].data(), got[0].data(),
                           static_cast<std::size_t>(x.numel()) *
                               sizeof(float)));
}

TEST(Budget, InfeasibleBudgetNamesTheSectionAndBothSizes) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kCloud,
                                infer::next_section_id(), "tiny_budget"};
  Rng rng(29);
  const Tensor x = Tensor::randn(Shape{4, 16}, rng);

  // Even a single-row slice needs 2 * 16 floats = 128 B; ask for 8 B.
  BudgetGuard guard(8);
  try {
    infer::run_section(ws, desc, {x}, "", pingpong_chain);
    FAIL() << "expected an infeasible-budget error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tiny_budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--mem-budget"), std::string::npos) << msg;
  }
}

TEST(Budget, NegativeBudgetIsRejected) {
  EXPECT_THROW(infer::set_mem_budget(-1), Error);
  EXPECT_EQ(infer::mem_budget(), 0);
}

TEST(Budget, ChangingTheBudgetInvalidatesCachedSliceDecisions) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "rebudget"};
  Rng rng(31);
  const Tensor x = Tensor::randn(Shape{8, 4}, rng);
  const auto ref = infer::run_section(ws, desc, {x}, "", pingpong_chain);

  const std::int64_t row_bytes = 4 * static_cast<std::int64_t>(sizeof(float));
  for (const std::int64_t rows : {4, 1, 2}) {
    BudgetGuard guard(2 * rows * row_bytes);
    const auto got = infer::run_section(ws, desc, {x}, "", pingpong_chain);
    ASSERT_EQ(got[0].shape(), x.shape());
    EXPECT_EQ(0, std::memcmp(ref[0].data(), got[0].data(),
                             static_cast<std::size_t>(x.numel()) *
                                 sizeof(float)))
        << "rows=" << rows;
  }
}

// ---------------------------------------------------------- plan lifetime

/// Pins the pool size and the plan engine for a scope, then restores the
/// pool default and the engine it replaced.
struct PlanEngineGuard {
  explicit PlanEngineGuard(int threads) : prev(infer::engine_kind()) {
    ThreadPool::set_size(threads);
    infer::set_engine_kind(infer::EngineKind::kPlan);
  }
  ~PlanEngineGuard() {
    infer::set_engine_kind(prev);
    ThreadPool::set_size(0);
  }
  infer::EngineKind prev;
};

const data::MvmcDataset& lifetime_data() {
  static const data::MvmcDataset ds = [] {
    data::MvmcConfig cfg;
    cfg.train_samples = 4;
    cfg.test_samples = 40;
    cfg.seed = 11;
    return data::MvmcDataset::generate(cfg);
  }();
  return ds;
}

const std::vector<int> kAllDevices{0, 1, 2, 3, 4, 5};

core::DdnnConfig preset_e() {
  return core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud);
}

TEST(PlanLifetime, RetiredSectionPlansAreDroppedAtTheNextMiss) {
  infer::Workspace ws;
  const int dead = infer::next_section_id();
  const int live = infer::next_section_id();
  Rng rng(37);
  const Tensor x = Tensor::randn(Shape{4, 8}, rng);
  infer::run_section(ws, {infer::SectionTier::kDevice, dead, "dead"}, {x}, "",
                     pingpong_chain);
  infer::run_section(ws, {infer::SectionTier::kDevice, live, "live"}, {x}, "",
                     pingpong_chain);
  EXPECT_EQ(ws.plans(), 2u);

  infer::retire_section_ids({dead, -1});
  // Replays touch no shared state, so the dead plan survives a hit...
  infer::run_section(ws, {infer::SectionTier::kDevice, live, "live"}, {x}, "",
                     pingpong_chain);
  EXPECT_EQ(ws.plans(), 2u);
  // ...and goes at the next miss (a new shape for the live section).
  const Tensor y = Tensor::randn(Shape{2, 8}, rng);
  infer::run_section(ws, {infer::SectionTier::kDevice, live, "live"}, {y}, "",
                     pingpong_chain);
  EXPECT_EQ(ws.plans(), 2u);  // live at two shapes; dead's plan is gone
}

TEST(PlanLifetime, TenModelsInARowHoldOneModelsArenas) {
  PlanEngineGuard engine(1);
  infer::Workspace& ws = infer::tls_workspace();
  ws.clear_plans();
  std::int64_t first_bytes = 0;
  std::size_t first_plans = 0;
  for (int i = 0; i < 10; ++i) {
    {
      core::DdnnModel model(preset_e());
      core::evaluate_exits(model, lifetime_data().test(), kAllDevices,
                           /*batch_size=*/16);
    }
    if (i == 0) {
      first_bytes = ws.arena_bytes();
      first_plans = ws.plans();
    }
  }
  EXPECT_GT(first_bytes, 0);
  EXPECT_EQ(ws.arena_bytes(), first_bytes);
  EXPECT_EQ(ws.plans(), first_plans);
}

TEST(PlanLifetime, PoolWorkersDropPlansOfModelsDestroyedOnTheCaller) {
  const auto& test = lifetime_data().test();
  // Serial reference: one model's outputs and its full plan footprint (every
  // batch shape the pool's workers can see).
  std::int64_t one_model_bytes = 0;
  core::ExitEval ref;
  {
    PlanEngineGuard engine(1);
    infer::tls_workspace().clear_plans();
    core::DdnnModel model(preset_e());
    ref = core::evaluate_exits(model, test, kAllDevices, /*batch_size=*/4);
    one_model_bytes = infer::tls_workspace().arena_bytes();
  }
  ASSERT_GT(one_model_bytes, 0);

  PlanEngineGuard engine(4);
  for (int i = 0; i < 6; ++i) {
    // Plans are recorded on the pool's workers; the model dies here, on the
    // caller, and the next model's misses on each worker free them.
    core::DdnnModel model(preset_e());
    const auto got =
        core::evaluate_exits(model, test, kAllDevices, /*batch_size=*/4);
    for (std::size_t e = 0; e < ref.num_exits(); ++e) {
      EXPECT_TRUE(got.exit_probs[e].allclose(ref.exit_probs[e], 0.0f))
          << "model " << i << " exit " << e;
    }
  }
  // Whatever thread runs a probe chunk holds at most one model's plans.
  std::vector<std::int64_t> seen(64, 0);
  parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t k = lo; k < hi; ++k) {
      seen[static_cast<std::size_t>(k)] = infer::thread_arena_bytes();
    }
  });
  EXPECT_LE(*std::max_element(seen.begin(), seen.end()), one_model_bytes);
}

}  // namespace
}  // namespace ddnn
