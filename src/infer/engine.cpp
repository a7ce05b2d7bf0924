#include "infer/engine.hpp"

#include <atomic>

namespace ddnn::infer {

namespace {

std::atomic<EngineKind> g_kind{EngineKind::kPlan};

}  // namespace

EngineKind engine_kind() { return g_kind.load(std::memory_order_relaxed); }

void set_engine_kind(EngineKind kind) {
  g_kind.store(kind, std::memory_order_relaxed);
}

}  // namespace ddnn::infer
