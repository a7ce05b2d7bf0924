#include "infer/workspace.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "util/error.hpp"

namespace ddnn::infer {

namespace {

using SectionBody =
    std::function<std::vector<Tensor>(const std::vector<Tensor>&, Workspace&)>;

/// Plan-cache signature: input shapes plus the caller's extra parameters.
std::string section_sig(const std::vector<Tensor>& inputs,
                        const std::string& extra) {
  std::string sig;
  for (const auto& t : inputs) {
    sig += t.shape().to_string();
    sig += ';';
  }
  sig += '|';
  sig += extra;
  return sig;
}

// Append-only log of retired section ids; each workspace keeps its own read
// position. An id costs 4 bytes here for the life of the process.
std::mutex g_retired_mu;
std::vector<int> g_retired;

std::vector<Tensor> narrow_inputs(const std::vector<Tensor>& inputs,
                                  std::int64_t start, std::int64_t len) {
  std::vector<Tensor> out;
  out.reserve(inputs.size());
  for (const auto& t : inputs) out.push_back(t.narrow0(start, len));
  return out;
}

}  // namespace

Tensor Workspace::acquire(const Shape& shape) {
  DDNN_CHECK(shape.numel() > 0,
             "workspace acquire of empty shape " << shape.to_string());
  switch (mode_) {
    case Mode::kIdle: {
      ++alloc_count_;
      return Tensor(shape);
    }
    case Mode::kRecord: {
      ++alloc_count_;
      Tensor t{shape};
      PlanInterval iv;
      iv.numel = shape.numel();
      iv.def = rec_tick_++;
      iv.last_use = iv.def;
      rec_index_[t.data()] = rec_intervals_.size();
      rec_intervals_.push_back(iv);
      rec_tensors_.push_back(t);
      return t;
    }
    case Mode::kReplay: {
      DDNN_CHECK(replay_cursor_ < replay_plan_->intervals.size(),
                 "memory plan divergence in section '"
                     << replay_name_ << "': more acquires than planned");
      const PlanInterval& iv = replay_plan_->intervals[replay_cursor_];
      DDNN_CHECK(iv.numel == shape.numel(),
                 "memory plan divergence in section '"
                     << replay_name_ << "': acquire " << replay_cursor_
                     << " wants " << shape.numel() << " floats, plan has "
                     << iv.numel);
      ++replay_cursor_;
      return Tensor::view_into(replay_arena_, iv.offset, shape);
    }
  }
  return Tensor();  // unreachable
}

Tensor Workspace::acquire_zero(const Shape& shape) {
  Tensor t = acquire(shape);
  t.zero();
  return t;
}

void Workspace::note_use(const Tensor& t) {
  if (mode_ != Mode::kRecord || !t.defined()) return;
  const auto it = rec_index_.find(t.data());
  if (it == rec_index_.end()) return;  // section input or parameter
  PlanInterval& iv = rec_intervals_[it->second];
  iv.last_use = std::max(iv.last_use, rec_tick_ - 1);
}

void Workspace::clear_plans() {
  plans_.clear();
  slices_.clear();
}

void retire_section_ids(const std::vector<int>& ids) {
  const std::lock_guard<std::mutex> lock(g_retired_mu);
  for (const int id : ids) {
    if (id >= 0) g_retired.push_back(id);
  }
}

void Workspace::drop_retired() {
  std::vector<int> ids;
  {
    const std::lock_guard<std::mutex> lock(g_retired_mu);
    ids.assign(g_retired.begin() + static_cast<std::ptrdiff_t>(retired_seen_),
               g_retired.end());
    retired_seen_ = g_retired.size();
  }
  for (const int id : ids) {
    const PlanKey lo{id, std::string()};
    const PlanKey hi{id + 1, std::string()};
    plans_.erase(plans_.lower_bound(lo), plans_.lower_bound(hi));
    slices_.erase(slices_.lower_bound(lo), slices_.lower_bound(hi));
  }
}

Workspace::PlanEntry& Workspace::plan_for(const SectionDesc& desc,
                                          const std::string& sig,
                                          const std::vector<Tensor>& inputs,
                                          const SectionBody& body,
                                          std::vector<Tensor>* outs) {
  const PlanKey key{desc.id, sig};
  const auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  // Only a miss reads the shared retire log, so replays take no lock; dead
  // models' arenas are freed here.
  drop_retired();

  // Record: run the body once with fresh heap tensors, logging an interval
  // per acquire. Outputs get a final note_use so nothing the caller will
  // copy out can be packed under a later buffer.
  rec_intervals_.clear();
  rec_index_.clear();
  rec_tensors_.clear();
  rec_tick_ = 0;
  mode_ = Mode::kRecord;
  std::vector<Tensor> result;
  try {
    result = body(inputs, *this);
    for (const auto& o : result) note_use(o);
  } catch (...) {
    mode_ = Mode::kIdle;
    rec_intervals_.clear();
    rec_index_.clear();
    rec_tensors_.clear();
    throw;
  }
  mode_ = Mode::kIdle;
  rec_index_.clear();
  rec_tensors_.clear();

  PlanEntry entry;
  entry.plan = pack_plan(std::move(rec_intervals_));
  rec_intervals_.clear();
  entry.arena =
      Tensor(Shape{std::max<std::int64_t>(entry.plan.arena_floats, 1)});
  ++alloc_count_;  // the arena itself; replays then allocate nothing
  *outs = std::move(result);
  return plans_.emplace(key, std::move(entry)).first->second;
}

std::vector<Tensor> Workspace::replay(const SectionDesc& desc, PlanEntry& entry,
                                      const std::vector<Tensor>& inputs,
                                      const SectionBody& body) {
  if (poison_enabled()) {
    entry.arena.fill(std::numeric_limits<float>::signaling_NaN());
  }
  mode_ = Mode::kReplay;
  replay_plan_ = &entry.plan;
  replay_arena_ = entry.arena;
  replay_name_ = desc.name;
  replay_cursor_ = 0;
  std::vector<Tensor> result;
  try {
    result = body(inputs, *this);
  } catch (...) {
    mode_ = Mode::kIdle;
    replay_plan_ = nullptr;
    replay_arena_ = Tensor();
    throw;
  }
  DDNN_CHECK(replay_cursor_ == entry.plan.intervals.size(),
             "memory plan divergence in section '"
                 << desc.name << "': " << replay_cursor_
                 << " acquires vs planned " << entry.plan.intervals.size());
  mode_ = Mode::kIdle;
  replay_plan_ = nullptr;
  replay_arena_ = Tensor();
  return result;
}

std::vector<Tensor> run_section(Workspace& ws, const SectionDesc& desc,
                                const std::vector<Tensor>& inputs,
                                const std::string& extra_sig,
                                const SectionBody& body) {
  DDNN_CHECK(ws.mode_ == Workspace::Mode::kIdle,
             "nested run_section in section '" << desc.name << "'");
  const std::string sig = section_sig(inputs, extra_sig);
  const std::int64_t budget = mem_budget();
  const std::int64_t n = inputs.empty() ? 0 : inputs[0].dim(0);

  // Decide the slice row count: shrink until the chunk's packed plan fits
  // the budget (planning itself runs on the host and is not budgeted).
  std::int64_t rows = n;
  if (budget > 0 && n >= 1) {
    for (const auto& t : inputs) {
      DDNN_CHECK(t.ndim() >= 1 && t.dim(0) == n,
                 "section '" << desc.name
                             << "': inputs disagree on the batch dimension, "
                                "cannot slice under --mem-budget");
    }
    const Workspace::PlanKey skey{desc.id, sig};
    const std::uint64_t epoch = mem_budget_epoch();
    const auto sit = ws.slices_.find(skey);
    if (sit != ws.slices_.end() && sit->second.epoch == epoch) {
      rows = sit->second.rows;
    } else {
      while (true) {
        const auto chunk = rows == n ? inputs : narrow_inputs(inputs, 0, rows);
        std::vector<Tensor> scratch;
        const auto& entry = ws.plan_for(desc, section_sig(chunk, extra_sig),
                                        chunk, body, &scratch);
        const std::int64_t bytes =
            entry.plan.arena_floats * static_cast<std::int64_t>(sizeof(float));
        if (bytes <= budget) break;
        DDNN_CHECK(rows > 1, "section '"
                                 << desc.name << "' needs " << bytes
                                 << " B of planned activation memory even at "
                                    "slice rows=1, over --mem-budget "
                                 << budget << " B");
        const std::int64_t next = rows * budget / bytes;
        rows = std::clamp<std::int64_t>(next, 1, rows - 1);
      }
      ws.slices_[skey] = {rows, epoch};
    }
  }

  if (rows == n) {
    // Full-batch execution against the section's own plan.
    std::vector<Tensor> outs;
    Workspace::PlanEntry& entry = ws.plan_for(desc, sig, inputs, body, &outs);
    if (outs.empty()) outs = ws.replay(desc, entry, inputs, body);
    note_plan_peak(desc.tier, entry.plan.arena_floats *
                                  static_cast<std::int64_t>(sizeof(float)));
    DDNN_CHECK(!outs.empty(), "section '" << desc.name << "' has no outputs");
    // Deep-copy out of the arena: returned tensors outlive the section.
    for (auto& o : outs) o = o.clone();
    if (poison_enabled()) {
      // Any view that escaped the section now reads signaling NaNs.
      entry.arena.fill(std::numeric_limits<float>::signaling_NaN());
    }
    return outs;
  }

  // Sliced execution: run `rows`-row chunks (each with its own plan, all
  // under the budget) and stitch full-batch outputs. Every kernel in the
  // engine is row-independent, so the stitched bits match the full pass.
  std::vector<Tensor> full;
  std::vector<std::int64_t> row_strides;
  for (std::int64_t start = 0; start < n; start += rows) {
    const std::int64_t len = std::min(rows, n - start);
    const auto chunk = narrow_inputs(inputs, start, len);
    std::vector<Tensor> outs;
    Workspace::PlanEntry& entry =
        ws.plan_for(desc, section_sig(chunk, extra_sig), chunk, body, &outs);
    if (outs.empty()) outs = ws.replay(desc, entry, chunk, body);
    note_plan_peak(desc.tier, entry.plan.arena_floats *
                                  static_cast<std::int64_t>(sizeof(float)));
    DDNN_CHECK(!outs.empty(), "section '" << desc.name << "' has no outputs");
    if (start == 0) {
      for (const auto& o : outs) {
        DDNN_CHECK(o.defined() && o.ndim() >= 1 && o.dim(0) == len,
                   "section '" << desc.name
                               << "' output is not batch-sliceable");
        std::vector<std::int64_t> dims = o.shape().dims();
        dims[0] = n;
        full.emplace_back(Shape(std::move(dims)));
        row_strides.push_back(o.numel() / len);
      }
    }
    DDNN_CHECK(outs.size() == full.size(),
               "section '" << desc.name << "' output count changed per chunk");
    for (std::size_t i = 0; i < outs.size(); ++i) {
      DDNN_CHECK(outs[i].dim(0) == len &&
                     outs[i].numel() == len * row_strides[i],
                 "section '" << desc.name << "' output shape changed per chunk");
      std::copy_n(outs[i].data(), outs[i].numel(),
                  full[i].data() + start * row_strides[i]);
    }
    if (poison_enabled()) {
      entry.arena.fill(std::numeric_limits<float>::signaling_NaN());
    }
  }
  return full;
}

std::vector<Tensor> run_section(const SectionDesc& desc,
                                const std::vector<Tensor>& inputs,
                                const std::string& extra_sig,
                                const SectionBody& body) {
  return run_section(tls_workspace(), desc, inputs, extra_sig, body);
}

std::int64_t Workspace::arena_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& [key, entry] : plans_) {
    bytes += entry.plan.arena_floats * static_cast<std::int64_t>(sizeof(float));
  }
  return bytes;
}

Workspace& tls_workspace() {
  static thread_local Workspace ws;
  return ws;
}

std::int64_t thread_arena_bytes() { return tls_workspace().arena_bytes(); }

}  // namespace ddnn::infer
