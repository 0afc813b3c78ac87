// Dynamic ATM's adaptive training phase (paper §III-D).
//
// Per task type:
//   * start at p = 2^-15;
//   * whenever an approximated task's Chebyshev error tau >= tau_max,
//     double p (15 steps to reach 100%) and blacklist the task's output
//     pointers (outputs with chaotic behaviour; Jacobi needs this);
//   * once L_training tasks in a row approximate correctly at the current
//     p, freeze p and enter the steady state.
//
// During training every task still executes, so correctness is measured
// against ground truth at zero risk; speedups only start in steady state.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "atm/config.hpp"
#include "common/mutex.hpp"
#include "runtime/task.hpp"

namespace atm {

enum class TrainingPhase : std::uint8_t { Training, Steady };

class TrainingController {
 public:
  /// Dynamic mode: train from kMinP with the type's parameters. A warm
  /// start (store snapshot load) passes the persisted p/phase and the tasks
  /// already spent training. Static/FixedP modes start in Steady at their
  /// constant p, so no training ever happens.
  explicit TrainingController(rt::AtmParams params, double initial_p = kMinP,
                              TrainingPhase initial_phase = TrainingPhase::Training,
                              std::uint64_t trained_tasks = 0)
      : params_(params),
        phase_(initial_phase),
        p_(initial_p),
        trained_tasks_(trained_tasks) {}

  [[nodiscard]] TrainingPhase phase() const {
    MutexLock lock(mutex_);
    return phase_;
  }

  /// What a ready task needs from the controller, read under one lock:
  /// is_blacklisted() is only worth asking once the blacklist is non-empty.
  struct State {
    TrainingPhase phase = TrainingPhase::Training;
    double p = kMinP;
    bool has_blacklist = false;
  };
  [[nodiscard]] State state() const {
    MutexLock lock(mutex_);
    return {phase_, p_, !unstable_outputs_.empty()};
  }

  [[nodiscard]] double current_p() const {
    MutexLock lock(mutex_);
    return p_;
  }

  [[nodiscard]] const rt::AtmParams& params() const noexcept { return params_; }

  /// Record the verification of one training-phase approximation.
  /// Failure (tau >= tau_max) doubles p (capped at 100%) and resets the
  /// success streak; L_training consecutive successes end training.
  void report_trained(double tau);

  /// Count an executed task of this type during training.
  void note_trained_task();

  /// Record the output pointers of a task that failed verification: those
  /// outputs behave chaotically and are never memoized again (§III-D).
  void blacklist_outputs(const rt::Task& task);

  /// True when any of the task's output pointers is blacklisted.
  [[nodiscard]] bool is_blacklisted(const rt::Task& task) const;

  [[nodiscard]] std::size_t blacklist_size() const {
    MutexLock lock(mutex_);
    return unstable_outputs_.size();
  }

  /// Every p value the controller has visited (first = initial).
  [[nodiscard]] std::vector<double> p_history() const {
    MutexLock lock(mutex_);
    return p_history_;
  }

  [[nodiscard]] std::uint64_t trained_tasks() const {
    MutexLock lock(mutex_);
    return trained_tasks_;
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    MutexLock lock(mutex_);
    return sizeof(*this) + unstable_outputs_.size() * (sizeof(void*) + 32) +
           p_history_.capacity() * sizeof(double);
  }

 private:
  rt::AtmParams params_;
  mutable Mutex mutex_;
  TrainingPhase phase_ ATM_GUARDED_BY(mutex_) = TrainingPhase::Training;
  double p_ ATM_GUARDED_BY(mutex_);
  std::uint32_t success_streak_ ATM_GUARDED_BY(mutex_) = 0;
  std::uint64_t trained_tasks_ ATM_GUARDED_BY(mutex_) = 0;
  std::vector<double> p_history_ ATM_GUARDED_BY(mutex_){};
  std::set<const void*> unstable_outputs_ ATM_GUARDED_BY(mutex_);
};

}  // namespace atm
