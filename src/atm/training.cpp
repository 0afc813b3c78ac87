#include "atm/training.hpp"

namespace atm {

void TrainingController::report_trained(double tau) {
  MutexLock lock(mutex_);
  if (phase_ != TrainingPhase::Training) return;
  if (p_history_.empty()) p_history_.push_back(p_);
  if (tau >= params_.tau_max) {
    if (p_ < 1.0) {
      p_ = p_ * 2.0 > 1.0 ? 1.0 : p_ * 2.0;
      p_history_.push_back(p_);
    }
    success_streak_ = 0;
    return;
  }
  if (++success_streak_ >= params_.l_training) {
    phase_ = TrainingPhase::Steady;
  }
}

void TrainingController::note_trained_task() {
  MutexLock lock(mutex_);
  if (phase_ != TrainingPhase::Training) return;
  ++trained_tasks_;
}

void TrainingController::blacklist_outputs(const rt::Task& task) {
  MutexLock lock(mutex_);
  for (const auto& a : task.accesses) {
    if (a.is_output()) unstable_outputs_.insert(a.ptr);
  }
}

bool TrainingController::is_blacklisted(const rt::Task& task) const {
  MutexLock lock(mutex_);
  if (unstable_outputs_.empty()) return false;
  for (const auto& a : task.accesses) {
    if (a.is_output() && unstable_outputs_.count(a.ptr) != 0) return true;
  }
  return false;
}

}  // namespace atm
