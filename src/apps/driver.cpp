#include "apps/driver.hpp"

#include <utility>

#include "common/error.hpp"

namespace ehpc::apps {

IterationDriver::IterationDriver(charm::Runtime& rt, charm::ArrayId array,
                                 int max_iterations, Kick kick)
    : rt_(rt), array_(array), max_iterations_(max_iterations),
      kick_(std::move(kick)) {
  EHPC_EXPECTS(max_iterations_ > 0);
  EHPC_EXPECTS(kick_ != nullptr);
}

void IterationDriver::start() {
  rt_.set_reduction_client(
      array_, [this](double value, charm::Runtime&) { on_reduction(value); });
  rt_.set_restart_handler([this](charm::Runtime&) { resume_after_restart(); });
  // The iteration counter must survive failures: carry it in checkpoints.
  rt_.set_app_state_pup([this](charm::Pup& p) { p | iteration_; });
  kick_(0);
}

void IterationDriver::set_disk_checkpoint_period(int period) {
  EHPC_EXPECTS(period >= 0);
  disk_checkpoint_period_ = period;
}

void IterationDriver::at_iteration(int iteration,
                                   std::function<void(charm::Runtime&)> fn) {
  EHPC_EXPECTS(fn != nullptr);
  hooks_[iteration] = std::move(fn);
}

void IterationDriver::on_reduction(double value) {
  last_value_ = value;
  end_times_.push_back(rt_.now());
  ++iteration_;
  if (auto it = hooks_.find(iteration_); it != hooks_.end()) {
    auto fn = std::move(it->second);
    hooks_.erase(it);
    const int recoveries = rt_.recoveries();
    fn(rt_);
    // A failure injected by the hook rolled the app back; the recovery's
    // restart handler resumes it once the downtime has passed.
    if (rt_.recoveries() != recoveries) return;
  }
  if (iteration_ >= max_iterations_) {
    finished_ = true;
    if (on_complete_) on_complete_();
    return;
  }
  // Iteration boundary = quiescent point: honour a pending rescale command.
  // The restart handler re-kicks the current iteration after restore.
  if (rt_.poll_rescale()) {
    rescale_iterations_.push_back(iteration_);
    return;
  }
  if (disk_checkpoint_period_ > 0 && iteration_ % disk_checkpoint_period_ == 0) {
    rt_.disk_checkpoint_then([this](charm::Runtime&) { kick_(iteration_); });
    return;
  }
  if (lb_period_ > 0 && iteration_ % lb_period_ == 0) {
    rt_.load_balance_then(
        [this](charm::Runtime&) { kick_(iteration_); });
    return;
  }
  kick_(iteration_);
}

void IterationDriver::resume_after_restart() {
  if (finished_) return;
  kick_(iteration_);
}

}  // namespace ehpc::apps
