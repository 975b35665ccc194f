#pragma once

#include <functional>
#include <map>
#include <vector>

#include "charm/runtime.hpp"

namespace ehpc::apps {

/// Drives an iterative chare-array application: broadcast "start iteration",
/// wait for the array-wide reduction, repeat — polling the CCS mailbox for
/// rescale commands at every iteration boundary (the "next load-balancing
/// step" where Charm++ honours shrink/expand signals).
///
/// Jacobi2D, LeanMD, AMR and Graph all use this driver; they differ only in
/// their element logic and in the `kick` they install.
class IterationDriver {
 public:
  /// `kick(iteration)` must broadcast whatever makes every element of
  /// `array` eventually contribute exactly once.
  using Kick = std::function<void(int iteration)>;
  using Completion = std::function<void()>;

  IterationDriver(charm::Runtime& rt, charm::ArrayId array, int max_iterations,
                  Kick kick);

  /// Begin iteration 0. Installs the reduction client and restart handler.
  void start();

  /// Invoked once `max_iterations` have completed.
  void set_on_complete(Completion fn) { on_complete_ = std::move(fn); }

  /// Run the configured load balancer every `period` iterations (0 = never).
  void set_lb_period(int period) { lb_period_ = period; }

  /// Run `fn` when iteration `iteration` completes, before rescale polling.
  /// Benches use this to post CCS rescale requests at exact iterations.
  void at_iteration(int iteration, std::function<void(charm::Runtime&)> fn);

  /// Checkpoint to disk every `period` iterations (paper §3.2.2 fault
  /// tolerance; 0 = never). The driver's iteration counter rides along in
  /// the checkpoint, so a recovery resumes from the checkpointed iteration.
  void set_disk_checkpoint_period(int period);

  int iterations_done() const { return iteration_; }
  bool finished() const { return finished_; }

  /// Virtual time at which each completed iteration's reduction fired.
  const std::vector<double>& iteration_end_times() const { return end_times_; }

  /// Most recent reduction value (e.g. residual or energy).
  double last_reduction_value() const { return last_value_; }

  /// Iterations at whose boundary a rescale was executed.
  const std::vector<int>& rescale_iterations() const { return rescale_iterations_; }

 private:
  void on_reduction(double value);
  void resume_after_restart();

  charm::Runtime& rt_;
  charm::ArrayId array_;
  int max_iterations_;
  Kick kick_;
  Completion on_complete_;
  int lb_period_ = 0;
  int disk_checkpoint_period_ = 0;
  int iteration_ = 0;
  bool finished_ = false;
  double last_value_ = 0.0;
  std::vector<double> end_times_;
  std::vector<int> rescale_iterations_;
  std::map<int, std::function<void(charm::Runtime&)>> hooks_;
};

}  // namespace ehpc::apps
