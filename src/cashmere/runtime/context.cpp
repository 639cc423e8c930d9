#include "cashmere/runtime/context.hpp"

#include <cstdint>

#include "cashmere/runtime/runtime.hpp"

namespace cashmere {

namespace {
thread_local Context* g_current_context = nullptr;
}  // namespace

Context* Context::Current() { return g_current_context; }

void Context::Bind(Context* ctx) { g_current_context = ctx; }

void Context::LockAcquire(int lock_id) {
  SetDebugState(3, static_cast<std::uint64_t>(lock_id));
  runtime_->LockAt(lock_id).Acquire(*this);
  SetDebugState(0, 0);
  runtime_->BumpProgress();
}

void Context::LockRelease(int lock_id) {
  runtime_->LockAt(lock_id).Release(*this);
  runtime_->BumpProgress();
}

void Context::Barrier(int barrier_id) {
  SetDebugState(4, static_cast<std::uint64_t>(barrier_id));
  runtime_->BarrierAt(barrier_id).Wait(*this);
  SetDebugState(0, 0);
  runtime_->BumpProgress();
}

void Context::FlagSet(int flag_id, std::uint64_t value) {
  runtime_->FlagAt(flag_id).Set(*this, value);
  runtime_->BumpProgress();
}

void Context::FlagWaitGe(int flag_id, std::uint64_t value) {
  SetDebugState(5, static_cast<std::uint64_t>(flag_id));
  runtime_->FlagAt(flag_id).WaitGe(*this, value);
  SetDebugState(0, 0);
  runtime_->BumpProgress();
}

std::uint64_t Context::FlagPeek(int flag_id) { return runtime_->FlagAt(flag_id).Peek(); }

void Context::InitDone() { runtime_->EnableFirstTouchCollective(*this); }

void Context::Poll() {
  runtime_->protocol().Poll(*this);
  runtime_->BumpProgress();
}

}  // namespace cashmere
