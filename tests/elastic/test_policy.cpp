#include "elastic/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ehpc::elastic {
namespace {

JobSpec spec(JobId id, int min_r, int max_r, int priority) {
  JobSpec s;
  s.id = id;
  s.name = "job-" + std::to_string(id);
  s.min_replicas = min_r;
  s.max_replicas = max_r;
  s.priority = priority;
  return s;
}

PolicyConfig elastic_cfg(double gap = 0.0) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = gap;
  return cfg;
}

// Pull the single action of a given type out of an action list.
const Action* find_action(const std::vector<Action>& actions, ActionType type) {
  for (const auto& a : actions) {
    if (a.type == type) return &a;
  }
  return nullptr;
}

TEST(PolicyEngine, EmptyClusterStartsAtMax) {
  PolicyEngine eng(64, elastic_cfg());
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kStart);
  EXPECT_EQ(actions[0].target_replicas, 32);
  EXPECT_EQ(eng.free_slots(), 32);
  EXPECT_TRUE(eng.job(0).running);
}

TEST(PolicyEngine, MoldableSizingFillsGap) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 48, 3), 0.0);  // uses 48, 16 free
  auto actions = eng.submit(spec(1, 8, 32, 3), 1.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->target_replicas, 16);  // sized to the gap, not enqueued
  EXPECT_EQ(eng.free_slots(), 0);
}

TEST(PolicyEngine, ReserveSlotsHoldsHeadroom) {
  PolicyConfig cfg = elastic_cfg();
  cfg.reserve_slots = 1;  // the paper's "freeSlots - 1"
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 64, 3), 0.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->target_replicas, 63);
}

TEST(PolicyEngine, EnqueuesWhenNothingShrinkable) {
  PolicyEngine eng(64, elastic_cfg());
  // One job at its min occupying everything: nothing can shrink.
  eng.submit(spec(0, 64, 64, 3), 0.0);
  auto actions = eng.submit(spec(1, 8, 16, 5), 1.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kEnqueue);
  EXPECT_FALSE(eng.job(1).running);
  EXPECT_EQ(eng.queued().size(), 1u);
}

TEST(PolicyEngine, ShrinksLowerPriorityToFitHigherPriority) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 1), 0.0);   // low priority, 32 replicas
  eng.submit(spec(1, 8, 32, 1), 1.0);   // low priority, 32 replicas
  EXPECT_EQ(eng.free_slots(), 0);

  auto actions = eng.submit(spec(2, 16, 32, 5), 2.0);
  const Action* shrink = find_action(actions, ActionType::kShrink);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(shrink, nullptr);
  ASSERT_NE(start, nullptr);
  // Fig. 2 protects runningJobs[0] (job 0, the earlier submission): only
  // job 1 is shrunk, down to its min, freeing 24 slots.
  EXPECT_EQ(shrink->job, 1);
  EXPECT_EQ(eng.job(1).replicas, 8);
  EXPECT_EQ(start->target_replicas, 24);
  EXPECT_TRUE(eng.job(2).running);
}

TEST(PolicyEngine, NeverShrinksHigherPriorityJobs) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 5), 0.0);
  eng.submit(spec(1, 8, 32, 5), 1.0);
  // Low-priority arrival cannot evict high-priority jobs.
  auto actions = eng.submit(spec(2, 16, 32, 1), 2.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
}

TEST(PolicyEngine, RescaleGapBlocksShrink) {
  PolicyEngine eng(64, elastic_cfg(/*gap=*/180.0));
  eng.submit(spec(0, 8, 32, 1), 0.0);
  eng.submit(spec(1, 8, 32, 1), 10.0);
  // 20s after job 1's start: the victim is within the gap.
  auto actions = eng.submit(spec(2, 16, 32, 5), 30.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);

  // Well past the gap, the shrink goes through.
  auto later = eng.submit(spec(3, 16, 32, 5), 500.0);
  EXPECT_NE(find_action(later, ActionType::kShrink), nullptr);
  EXPECT_NE(find_action(later, ActionType::kStart), nullptr);
}

TEST(PolicyEngine, NeverShrinksBelowMin) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 16, 32, 1), 0.0);  // min 16, runs at 32
  eng.submit(spec(1, 16, 32, 1), 1.0);  // min 16, runs at 32
  // Needs 48: even shrinking job 1 fully (to 16) frees only 16 -> enqueue.
  auto actions = eng.submit(spec(2, 48, 64, 5), 2.0);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
  // Needs 16: shrinking job 1 to its min exactly suffices; never below min.
  auto ok = eng.submit(spec(3, 16, 16, 5), 3.0);
  EXPECT_NE(find_action(ok, ActionType::kStart), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 16);
  EXPECT_GE(eng.job(1).replicas, eng.job(1).spec.min_replicas);
}

TEST(PolicyEngine, ShrinkFreesUpToMaxOfNewJob) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 1), 0.0);
  eng.submit(spec(1, 8, 32, 1), 1.0);
  auto actions = eng.submit(spec(2, 8, 16, 5), 2.0);
  const Action* shrink = find_action(actions, ActionType::kShrink);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(shrink, nullptr);
  ASSERT_NE(start, nullptr);
  // Victim (job 1) shrinks enough for the new job's max (16), not just its
  // min (8): 32 -> 16.
  EXPECT_EQ(start->target_replicas, 16);
  EXPECT_EQ(eng.job(1).replicas, 16);
}

TEST(PolicyEngine, TopPriorityRunningJobNeverConsidered) {
  // The pseudocode walks index > 0: the single highest-priority running job
  // is never shrunk, even when eligible by priority.
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 64, 1), 0.0);  // only running job -> index 0
  auto actions = eng.submit(spec(1, 16, 32, 5), 1.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
}

TEST(PolicyEngine, EqualPriorityVictimEligible) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 3), 0.0);
  eng.submit(spec(1, 8, 32, 3), 1.0);
  auto actions = eng.submit(spec(2, 16, 32, 3), 2.0);
  // Equal priority: Fig. 2 breaks only on strictly greater priority.
  EXPECT_NE(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_TRUE(eng.job(2).running);
}

TEST(PolicyEngine, CompleteExpandsRunningJobsElastic) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 32, 32, 5), 0.0);  // rigid-shaped: 32 used
  eng.submit(spec(1, 8, 64, 3), 1.0);   // sized to the 32-slot gap: below max
  EXPECT_EQ(eng.job(1).replicas, 32);
  auto actions = eng.complete(0, 100.0);
  const Action* expand = find_action(actions, ActionType::kExpand);
  ASSERT_NE(expand, nullptr);
  EXPECT_EQ(expand->job, 1);
  EXPECT_EQ(eng.job(1).replicas, 64);  // freed slots flow to the running job
  EXPECT_EQ(eng.free_slots() + eng.used_slots(), 64);
}

TEST(PolicyEngine, CompleteStartsQueuedJobsInPriorityOrder) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 5), 0.0);  // fills cluster, min=max
  eng.submit(spec(1, 16, 16, 2), 1.0);  // queued
  eng.submit(spec(2, 16, 16, 4), 2.0);  // queued, higher priority
  eng.submit(spec(3, 16, 16, 3), 3.0);  // queued
  auto actions = eng.complete(0, 100.0);
  // All three fit (48 <= 64); starts must come in priority order 2, 3, 1.
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  EXPECT_EQ(started, (std::vector<JobId>{2, 3, 1}));
}

TEST(PolicyEngine, CompleteMoldableDoesNotTouchRunningJobs) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kMoldable;
  cfg.rescale_gap_s = 0.0;
  PolicyEngine eng(64, cfg);
  eng.submit(spec(0, 8, 64, 3), 0.0);    // starts at 64
  eng.submit(spec(1, 8, 32, 3), 1.0);    // queued (no shrink in moldable)
  EXPECT_FALSE(eng.job(1).running);
  // Make room: complete nothing yet; shrink impossible. Add a second
  // running job by completing job 0.
  auto actions = eng.complete(0, 2.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->job, 1);
  EXPECT_EQ(find_action(actions, ActionType::kExpand), nullptr);
}

TEST(PolicyEngine, RigidMinForcesMinReplicas) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kRigidMin;
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].target_replicas, 8);
  // Completion never expands a rigid job.
  eng.submit(spec(1, 8, 32, 3), 1.0);
  auto done = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(done, ActionType::kExpand), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 8);
}

TEST(PolicyEngine, RigidMaxForcesMaxReplicas) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kRigidMax;
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  EXPECT_EQ(actions[0].target_replicas, 32);
  // A job that no longer fits waits even if min would fit.
  eng.submit(spec(1, 8, 48, 3), 1.0);
  EXPECT_FALSE(eng.job(1).running);
}

TEST(PolicyEngine, QueuedJobNotStartedBelowMin) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 48, 48, 5), 0.0);  // 48 used, 16 free
  eng.submit(spec(1, 32, 64, 1), 1.0);  // needs >= 32: queued
  EXPECT_FALSE(eng.job(1).running);
  // Completing a tiny job frees 48: now job 1 can start.
  auto actions = eng.complete(0, 100.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->job, 1);
  EXPECT_EQ(start->target_replicas, 64);
}

TEST(PolicyEngine, SubmissionTimeBreaksPriorityTies) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 3), 0.0);
  eng.submit(spec(1, 32, 32, 3), 2.0);  // queued, later
  eng.submit(spec(2, 32, 32, 3), 1.0);  // queued, earlier
  auto actions = eng.complete(0, 100.0);
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  // Earlier submission (job 2) wins the tie.
  EXPECT_EQ(started, (std::vector<JobId>{2, 1}));
}

TEST(PolicyEngine, RejectsInvalidSpecs) {
  PolicyEngine eng(64, elastic_cfg());
  EXPECT_THROW(eng.submit(spec(0, 0, 4, 1), 0.0), PreconditionError);
  EXPECT_THROW(eng.submit(spec(1, 8, 4, 1), 0.0), PreconditionError);
  EXPECT_THROW(eng.submit(spec(2, 128, 256, 1), 0.0), PreconditionError);
}

TEST(PolicyEngine, RejectsDuplicateAndUnknownIds) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 4, 8, 1), 0.0);
  EXPECT_THROW(eng.submit(spec(0, 4, 8, 1), 1.0), PreconditionError);
  EXPECT_THROW(eng.complete(99, 2.0), PreconditionError);
}

TEST(PolicyEngine, ModeNames) {
  EXPECT_EQ(to_string(PolicyMode::kElastic), "elastic");
  EXPECT_EQ(policy_mode_from_string("moldable"), PolicyMode::kMoldable);
  EXPECT_EQ(policy_mode_from_string("min"), PolicyMode::kRigidMin);
  EXPECT_THROW(policy_mode_from_string("nope"), PreconditionError);
}

// Property test: under random submit/complete sequences, slot accounting
// stays consistent and allocations stay within [min, max] and capacity.
class PolicyInvariants : public ::testing::TestWithParam<unsigned> {};

TEST_P(PolicyInvariants, SlotAccountingAlwaysConsistent) {
  Rng rng(GetParam());
  for (PolicyMode mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                          PolicyMode::kMoldable, PolicyMode::kElastic}) {
    PolicyConfig cfg;
    cfg.mode = mode;
    cfg.rescale_gap_s = rng.uniform(0.0, 200.0);
    PolicyEngine eng(64, cfg);
    std::vector<JobId> active;
    double now = 0.0;
    int next_id = 0;
    for (int step = 0; step < 200; ++step) {
      now += rng.uniform(1.0, 120.0);
      const bool do_submit = active.empty() || rng.chance(0.55);
      if (do_submit) {
        const int min_r = static_cast<int>(rng.uniform_int(1, 16));
        const int max_r =
            min_r + static_cast<int>(rng.uniform_int(0, 48 - min_r));
        eng.submit(spec(next_id, min_r, max_r, static_cast<int>(rng.uniform_int(1, 5))),
                   now);
        active.push_back(next_id++);
      } else {
        // Complete a random running job.
        std::vector<JobId> running = eng.running();
        if (running.empty()) continue;
        const JobId victim = running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(running.size()) - 1))];
        eng.complete(victim, now);
        active.erase(std::find(active.begin(), active.end(), victim));
      }
      // Invariants after every operation.
      int used = 0;
      for (JobId id : eng.all_jobs()) {
        const JobState& j = eng.job(id);
        if (j.running) {
          EXPECT_GE(j.replicas, j.spec.min_replicas);
          EXPECT_LE(j.replicas, j.spec.max_replicas);
          used += j.replicas;
        } else {
          EXPECT_EQ(j.replicas, 0);
        }
      }
      EXPECT_EQ(used, eng.used_slots());
      EXPECT_EQ(eng.used_slots() + eng.free_slots(), 64);
      EXPECT_GE(eng.free_slots(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PolicyInvariants,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ehpc::elastic
namespace ehpc::elastic {
namespace {

TEST(PolicyEngine, AbandonWithdrawsQueuedJob) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 5), 0.0);
  eng.submit(spec(1, 32, 32, 1), 1.0);  // queued behind job 0
  ASSERT_FALSE(eng.job(1).running);
  eng.abandon(1);
  EXPECT_TRUE(eng.job(1).completed);
  EXPECT_EQ(eng.job(1).replicas, 0);
  // The abandoned job never held slots, so accounting is untouched and a
  // later completion must not try to start it.
  EXPECT_EQ(eng.free_slots(), 0);
  auto actions = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(actions, ActionType::kStart), nullptr);
}

TEST(PolicyEngine, AbandonRejectsRunningOrCompletedJobs) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 8, 3), 0.0);
  EXPECT_THROW(eng.abandon(0), PreconditionError);  // running
  eng.complete(0, 10.0);
  EXPECT_THROW(eng.abandon(0), PreconditionError);  // completed
  EXPECT_THROW(eng.abandon(42), PreconditionError);  // unknown
}

TEST(PolicyEngine, ForgetDropsCompletedJobState) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 8, 3), 0.0);
  EXPECT_THROW(eng.forget(0), PreconditionError);  // still running
  eng.complete(0, 10.0);
  EXPECT_TRUE(eng.has_job(0));
  eng.forget(0);
  EXPECT_FALSE(eng.has_job(0));
  EXPECT_THROW(eng.forget(0), PreconditionError);  // already forgotten
  // The id is reusable afterwards — streaming traces recycle nothing, but
  // the engine must not treat the retired id as a duplicate.
  EXPECT_NO_THROW(eng.submit(spec(0, 8, 8, 3), 20.0));
}

TEST(PolicyEngine, EqualPriorityAndTimeTiesBreakByJobId) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 3), 0.0);
  // Identical priority AND submission time: the queue order must still be
  // deterministic — lower job id first.
  eng.submit(spec(2, 16, 16, 3), 5.0);
  eng.submit(spec(1, 16, 16, 3), 5.0);
  auto actions = eng.complete(0, 100.0);
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  EXPECT_EQ(started, (std::vector<JobId>{1, 2}));
}

// The sets inside the engine point into its job map, so a copy would alias
// the original's jobs.
static_assert(!std::is_copy_constructible_v<PolicyEngine>);
static_assert(!std::is_copy_assignable_v<PolicyEngine>);

// The sort-based engine PolicyEngine replaced: every decision re-collects
// the live jobs and sorts them. Kept here only as the differential oracle.
class ReferencePolicyEngine {
 public:
  ReferencePolicyEngine(int total_slots, PolicyConfig config)
      : free_slots_(total_slots), config_(config) {}

  int free_slots() const { return free_slots_; }

  std::vector<JobId> queued() const {
    return sorted_ids([](const JobState& st) { return !st.running && !st.completed; });
  }
  std::vector<JobId> running() const {
    return sorted_ids([](const JobState& st) { return st.running; });
  }

  std::vector<Action> submit(JobSpec spec, double now) {
    switch (config_.mode) {
      case PolicyMode::kRigidMin: spec.max_replicas = spec.min_replicas; break;
      case PolicyMode::kRigidMax: spec.min_replicas = spec.max_replicas; break;
      case PolicyMode::kMoldable:
      case PolicyMode::kElastic: break;
    }
    JobState& job = jobs_[spec.id];
    job.spec = spec;
    job.submit_time = now;
    const int replicas = std::min(free_slots_ - config_.reserve_slots, spec.max_replicas);
    if (replicas >= spec.min_replicas) {
      job.replicas = replicas;
      job.running = true;
      job.last_action_time = now;
      free_slots_ -= replicas;
      return {Action{ActionType::kStart, spec.id, replicas}};
    }
    if (config_.mode != PolicyMode::kElastic) {
      return {Action{ActionType::kEnqueue, spec.id, 0}};
    }
    return try_shrink_to_fit(job, now);
  }

  std::vector<Action> complete(JobId id, double now) {
    JobState& done = jobs_.at(id);
    free_slots_ += done.replicas;
    done.replicas = 0;
    done.running = false;
    done.completed = true;

    std::vector<JobState*> candidates;
    for (auto& [jid, st] : jobs_) {
      if (!st.completed) candidates.push_back(&st);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const JobState* a, const JobState* b) { return PriorityOrder{}(*a, *b); });
    const bool can_rescale = config_.mode == PolicyMode::kElastic;
    std::vector<Action> actions;
    int budget = free_slots_;
    for (JobState* cand : candidates) {
      if (budget <= 0) break;
      JobState& j = *cand;
      if (!rescale_allowed(j, now)) continue;
      if (j.running && !can_rescale) continue;
      if (j.replicas >= j.spec.max_replicas) continue;
      const int add = std::min(budget, j.spec.max_replicas - j.replicas);
      if (j.replicas + add < j.spec.min_replicas) continue;
      const bool was_queued = !j.running;
      j.replicas += add;
      j.running = true;
      j.last_action_time = now;
      free_slots_ -= add;
      budget -= add;
      actions.push_back(Action{was_queued ? ActionType::kStart : ActionType::kExpand,
                               j.spec.id, j.replicas});
    }
    return actions;
  }

  void abandon(JobId id) { jobs_.at(id).completed = true; }
  void forget(JobId id) { jobs_.erase(id); }

 private:
  template <typename Pred>
  std::vector<JobId> sorted_ids(Pred keep) const {
    std::vector<const JobState*> states;
    for (const auto& [id, st] : jobs_) {
      if (keep(st)) states.push_back(&st);
    }
    std::sort(states.begin(), states.end(),
              [](const JobState* a, const JobState* b) { return PriorityOrder{}(*a, *b); });
    std::vector<JobId> out;
    for (const JobState* st : states) out.push_back(st->spec.id);
    return out;
  }

  bool rescale_allowed(const JobState& j, double now) const {
    return now - j.last_action_time >= config_.rescale_gap_s;
  }

  std::vector<Action> try_shrink_to_fit(JobState& job, double now) {
    const std::vector<JobId> order = running();
    const std::size_t stop = config_.protect_top_job ? 1 : 0;
    int num_to_free = job.spec.min_replicas - free_slots_ + config_.reserve_slots;
    for (std::size_t i = order.size(); num_to_free > 0 && i-- > stop;) {
      const JobState& j = jobs_.at(order[i]);
      if (!rescale_allowed(j, now)) continue;
      if (j.spec.priority > job.spec.priority) break;
      if (j.replicas > j.spec.min_replicas) {
        const int new_replicas = std::max(j.spec.min_replicas, j.replicas - num_to_free);
        num_to_free -= j.replicas - new_replicas;
      }
    }
    if (num_to_free > 0) return {Action{ActionType::kEnqueue, job.spec.id, 0}};

    std::vector<Action> actions;
    int max_to_free = job.spec.max_replicas - free_slots_ + config_.reserve_slots;
    for (std::size_t i = order.size(); max_to_free > 0 && i-- > stop;) {
      JobState& j = jobs_.at(order[i]);
      if (!rescale_allowed(j, now)) continue;
      if (j.spec.priority > job.spec.priority) break;
      if (j.replicas > j.spec.min_replicas) {
        const int new_replicas = std::max(j.spec.min_replicas, j.replicas - max_to_free);
        const int freed = j.replicas - new_replicas;
        j.replicas = new_replicas;
        j.last_action_time = now;
        free_slots_ += freed;
        max_to_free -= freed;
        actions.push_back(Action{ActionType::kShrink, j.spec.id, new_replicas});
      }
    }
    const int replicas = std::min(free_slots_ - config_.reserve_slots, job.spec.max_replicas);
    job.replicas = replicas;
    job.running = true;
    job.last_action_time = now;
    free_slots_ -= replicas;
    actions.push_back(Action{ActionType::kStart, job.spec.id, replicas});
    return actions;
  }

  int free_slots_;
  PolicyConfig config_;
  std::map<JobId, JobState> jobs_;
};

using ActionTuple = std::tuple<ActionType, JobId, int>;

std::vector<ActionTuple> as_tuples(const std::vector<Action>& actions) {
  std::vector<ActionTuple> out;
  for (const Action& a : actions) out.emplace_back(a.type, a.job, a.target_replicas);
  return out;
}

// Differential property test: PolicyEngine keeps its live jobs in two
// ordered sets and merges their heads lazily; ReferencePolicyEngine sorts
// everything on every decision. Seeded random submit/complete/abandon/forget
// sequences must give the same actions, queue, running list and free slots
// after every event. Priorities 1-4 and zero time steps make exact ties on
// priority and submit time common, so the comparator's tie-breaks are
// exercised, not just its primary key. One case per mode; each sweeps the
// cross product of the other knobs with 8 seeds apiece (144 sequences).
// It carries the default `unit` label, so the ASan/UBSan CI lane runs it.
class PolicyDifferential : public ::testing::TestWithParam<PolicyMode> {};

TEST_P(PolicyDifferential, MatchesSortBasedReference) {
  constexpr int kSlots = 32;
  constexpr int kSeedsPerConfig = 8;
  constexpr double kSteps[] = {0.0, 0.1, 1.0, 7.3};
  unsigned seed = 0;
  for (bool protect : {true, false}) {
    for (int reserve : {0, 1, 2}) {
      for (double gap : {0.0, 3.0, 180.0}) {
        for (int rep = 0; rep < kSeedsPerConfig; ++rep) {
          PolicyConfig cfg;
          cfg.mode = GetParam();
          cfg.protect_top_job = protect;
          cfg.reserve_slots = reserve;
          cfg.rescale_gap_s = gap;
          ++seed;
          SCOPED_TRACE(testing::Message() << "protect=" << protect << " reserve=" << reserve
                                          << " gap=" << gap << " seed=" << seed);
          PolicyEngine eng(kSlots, cfg);
          ReferencePolicyEngine ref(kSlots, cfg);
          Rng rng(seed);
          double now = 0.0;
          JobId next_id = 0;
          std::vector<JobId> finished;  // completed or abandoned, not forgotten
          for (int step = 0; step < 250; ++step) {
            now += kSteps[rng.uniform_int(0, 3)];
            const double roll = rng.uniform(0.0, 1.0);
            const std::vector<JobId> running = ref.running();
            const std::vector<JobId> queued = ref.queued();
            auto pick = [&rng](const std::vector<JobId>& ids) {
              return ids[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
            };
            std::vector<Action> got;
            std::vector<Action> want;
            if (roll < 0.3 && !running.empty()) {
              const JobId id = pick(running);
              got = eng.complete(id, now);
              want = ref.complete(id, now);
              finished.push_back(id);
            } else if (roll < 0.4 && !queued.empty()) {
              const JobId id = pick(queued);
              eng.abandon(id);
              ref.abandon(id);
              finished.push_back(id);
            } else if (roll < 0.5 && !finished.empty()) {
              const JobId id = pick(finished);
              eng.forget(id);
              ref.forget(id);
              finished.erase(std::find(finished.begin(), finished.end(), id));
            } else {
              const int min_r = static_cast<int>(rng.uniform_int(1, 10));
              const int max_r = static_cast<int>(rng.uniform_int(min_r, 24));
              const int priority = static_cast<int>(rng.uniform_int(1, 4));
              const JobSpec s = spec(next_id++, min_r, max_r, priority);
              got = eng.submit(s, now);
              want = ref.submit(s, now);
            }
            ASSERT_EQ(as_tuples(got), as_tuples(want)) << "step " << step;
            ASSERT_EQ(eng.queued(), ref.queued()) << "step " << step;
            ASSERT_EQ(eng.running(), ref.running()) << "step " << step;
            ASSERT_EQ(eng.free_slots(), ref.free_slots()) << "step " << step;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PolicyDifferential,
                         ::testing::Values(PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                                           PolicyMode::kMoldable, PolicyMode::kElastic),
                         [](const ::testing::TestParamInfo<PolicyMode>& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace ehpc::elastic
