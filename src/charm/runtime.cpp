#include "charm/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/log.hpp"

namespace ehpc::charm {

namespace {
double combine(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMax: return std::max(a, b);
    case ReduceOp::kMin: return std::min(a, b);
  }
  return a;
}

double identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return 0.0;
    case ReduceOp::kMax: return -std::numeric_limits<double>::infinity();
    case ReduceOp::kMin: return std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

// Packed (src array, src elem, dst array, dst elem) key for the per-pair
// traffic map: 8 bits per array id, 24 bits per element id. A comm-tracking
// runtime refuses arrays beyond those widths instead of aliasing their keys.
constexpr ArrayId kCommArrays = 1 << 8;
constexpr int kCommElements = 1 << 24;

std::uint64_t comm_key(ArrayId src_array, ElementId src_elem, ArrayId dst_array,
                       ElementId dst_elem) {
  return (static_cast<std::uint64_t>(src_array & 0xff) << 56) |
         (static_cast<std::uint64_t>(src_elem & 0xffffff) << 32) |
         (static_cast<std::uint64_t>(dst_array & 0xff) << 24) |
         static_cast<std::uint64_t>(dst_elem & 0xffffff);
}
}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)),
      lb_(make_load_balancer(config_.load_balancer)),
      num_pes_(config_.num_pes) {
  EHPC_EXPECTS(config_.num_pes > 0);
  EHPC_EXPECTS(config_.pes_per_node > 0);
  EHPC_EXPECTS(config_.flop_rate > 0.0);
  EHPC_EXPECTS(config_.shm_bandwidth_Bps > 0.0);
  EHPC_EXPECTS(config_.network != nullptr);
  // Private clone: the model may carry per-run contention state, which must
  // not be shared between runtimes sweeping in parallel.
  net_ = config_.network->clone();
  // Comm tracking costs a map update per cross-object send; only pay for it
  // when the configured strategy can actually use the graph.
  track_comm_ = lb_->comm_aware();
  pes_.resize(static_cast<std::size_t>(num_pes_));
  rebuild_node_table();
}

void Runtime::rebuild_node_table() {
  node_of_.resize(static_cast<std::size_t>(num_pes_));
  for (int pe = 0; pe < num_pes_; ++pe) {
    node_of_[static_cast<std::size_t>(pe)] = pe / config_.pes_per_node;
  }
}

ArrayId Runtime::create_array(std::string name, int num_elements,
                              ElementFactory factory) {
  EHPC_EXPECTS(num_elements > 0);
  EHPC_EXPECTS(factory != nullptr);
  if (track_comm_ && (arrays_.size() >= static_cast<std::size_t>(kCommArrays) ||
                      num_elements > kCommElements)) {
    throw PreconditionError(
        "comm-aware load balancing tracks at most 256 arrays of at most "
        "2^24 elements each: array " + name + " has " +
        std::to_string(num_elements) + " elements and would be array " +
        std::to_string(arrays_.size()));
  }
  const ArrayId id = loc_.add_array(num_elements, num_pes_);
  ArrayState state;
  state.name = std::move(name);
  state.factory = std::move(factory);
  state.elements.reserve(static_cast<std::size_t>(num_elements));
  for (ElementId e = 0; e < num_elements; ++e)
    state.elements.push_back(state.factory(e));
  state.load_s.assign(static_cast<std::size_t>(num_elements), 0.0);
  arrays_.push_back(std::move(state));
  return id;
}

Runtime::ArrayState& Runtime::array_state(ArrayId array) {
  EHPC_EXPECTS(array >= 0 && static_cast<std::size_t>(array) < arrays_.size());
  return arrays_[static_cast<std::size_t>(array)];
}

const Runtime::ArrayState& Runtime::array_state(ArrayId array) const {
  EHPC_EXPECTS(array >= 0 && static_cast<std::size_t>(array) < arrays_.size());
  return arrays_[static_cast<std::size_t>(array)];
}

Chare& Runtime::element(ArrayId array, ElementId elem) {
  auto& state = array_state(array);
  EHPC_EXPECTS(elem >= 0 &&
               static_cast<std::size_t>(elem) < state.elements.size());
  EHPC_EXPECTS(state.elements[static_cast<std::size_t>(elem)] != nullptr);
  return *state.elements[static_cast<std::size_t>(elem)];
}

void Runtime::set_bytes_scale(ArrayId array, double scale) {
  EHPC_EXPECTS(scale > 0.0);
  array_state(array).bytes_scale = scale;
}

Runtime::EnvIndex Runtime::alloc_env(ArrayId array, ElementId elem,
                                     std::size_t bytes, Handler&& fn) {
  EnvIndex idx;
  if (!env_free_.empty()) {
    idx = env_free_.back();
    env_free_.pop_back();
  } else {
    idx = env_high_water_++;
    if ((idx >> kEnvChunkShift) == env_chunks_.size()) {
      env_chunks_.push_back(std::make_unique<Envelope[]>(kEnvChunkSize));
    }
  }
  Envelope& env = env_at(idx);
  env.array = array;
  env.elem = elem;
  env.bytes = bytes;
  env.fn = std::move(fn);
  return idx;
}

void Runtime::release_env(EnvIndex idx) {
  env_at(idx).fn = nullptr;
  env_free_.push_back(idx);
}

void Runtime::send(ArrayId array, ElementId elem, std::size_t bytes, Handler fn) {
  EHPC_EXPECTS(fn != nullptr);
  const EnvIndex idx = alloc_env(array, elem, bytes, std::move(fn));
  if (in_handler_) {
    // Measured object-communication graph for comm-aware LB: attribute the
    // bytes to the (sender object, receiver object) pair. Driver-context
    // sends have no sender object and are not placement-relevant.
    if (track_comm_ && (ctx_array_ != array || ctx_elem_ != elem)) {
      comm_bytes_[comm_key(ctx_array_, ctx_elem_, array, elem)] +=
          static_cast<double>(bytes);
    }
    // Effects of an entry method take hold at its completion time; buffer
    // until the handler's duration is known.
    ctx_sends_.push_back(idx);
  } else {
    dispatch(idx, /*from_pe=*/0, sim_.now());
  }
}

void Runtime::broadcast(ArrayId array, std::size_t bytes, const Handler& fn) {
  const int n = loc_.num_elements(array);
  for (ElementId e = 0; e < n; ++e) send(array, e, bytes, fn);
}

void Runtime::charge_flops(double flops) {
  EHPC_EXPECTS(in_handler_);
  EHPC_EXPECTS(flops >= 0.0);
  ctx_flops_ += flops;
}

void Runtime::contribute(ArrayId array, double value, ReduceOp op) {
  if (in_handler_) {
    ctx_contributes_.push_back({array, value, op});
  } else {
    flush_contribute({array, value, op}, sim_.now());
  }
}

void Runtime::set_reduction_client(ArrayId array, ReductionClient client) {
  array_state(array).client = std::move(client);
}

void Runtime::schedule_external(sim::Time at, ExternalEvent fn) {
  EHPC_EXPECTS(fn != nullptr);
  sim_.schedule_at(at, [this, fn = std::move(fn)] { fn(*this); });
}

void Runtime::set_restart_handler(RestartHandler handler) {
  restart_handler_ = std::move(handler);
}

void Runtime::dispatch(EnvIndex env_idx, PeId from_pe, sim::Time send_time) {
  const Envelope& env = env_at(env_idx);
  const PeId dst = loc_.pe_of(env.array, env.elem);
  const int src_node = node_of(from_pe);
  const int dst_node = node_of(dst);
  double depart = send_time;
  if (from_pe >= 0 && src_node != dst_node) {
    // Inter-node messages serialize through the source node's NIC.
    auto node = static_cast<std::size_t>(src_node);
    if (node_egress_busy_.size() <= node) node_egress_busy_.resize(node + 1, 0.0);
    depart = std::max(send_time, node_egress_busy_[node]);
    node_egress_busy_[node] =
        depart + config_.nic_per_msg_s +
        static_cast<double>(env.bytes) / config_.nic_bandwidth_Bps;
  }
  const double cost =
      net_->begin_transfer(env.bytes, src_node, dst_node, depart);
  // Epoch guard: a message in flight when the PE set is torn down (a
  // non-quiescent fail_and_recover) died with the sender's TCP connection;
  // drop it instead of delivering stale pre-failure state to the restored
  // element. Rescales run at quiescence, so this only fires on failures.
  sim_.schedule_at(depart + cost, [this, dst, env_idx, epoch = pe_epoch_,
                                   bytes = env.bytes, src_node, dst_node] {
    if (epoch != pe_epoch_) {
      release_env(env_idx);
      return;
    }
    net_->end_transfer(bytes, src_node, dst_node, sim_.now());
    on_arrival(dst, env_idx);
  });
}

void Runtime::on_arrival(PeId pe, EnvIndex env_idx) {
  // The destination PE may have disappeared in a shrink that raced with the
  // message; re-resolve so delivery follows the object, like Charm++'s
  // location manager forwarding.
  if (pe >= num_pes_) {
    const Envelope& env = env_at(env_idx);
    pe = loc_.pe_of(env.array, env.elem);
  }
  EHPC_ENSURES(pe >= 0 && pe < num_pes_);
  auto& state = pes_[static_cast<std::size_t>(pe)];
  state.push(env_idx);
  if (!state.busy) start_service(pe);
}

void Runtime::start_service(PeId pe) {
  auto& state = pes_[static_cast<std::size_t>(pe)];
  EHPC_ENSURES(!state.busy && !state.queue_empty());
  state.busy = true;
  const EnvIndex env_idx = state.pop();

  // Unpack the envelope and recycle it before user code runs: handlers may
  // send (growing the pool), and the freed envelope caps pool growth at the
  // in-flight high-water mark.
  Envelope& env = env_at(env_idx);
  const ArrayId array = env.array;
  const ElementId elem = env.elem;
  Handler fn = std::move(env.fn);
  release_env(env_idx);

  // Execute the entry method now (virtual service start); its effects are
  // stamped at the completion time derived from the charged flops.
  EHPC_ENSURES(!in_handler_);
  in_handler_ = true;
  ctx_pe_ = pe;
  ctx_flops_ = 0.0;
  ctx_array_ = array;
  ctx_elem_ = elem;
  ctx_sends_.clear();
  ctx_contributes_.clear();

  {
    auto& arr = array_state(array);
    EHPC_EXPECTS(elem >= 0 &&
                 static_cast<std::size_t>(elem) < arr.elements.size());
    // The Chare lives behind a unique_ptr: stable even if the handler
    // creates a new array and arrays_ reallocates (which is why arr is not
    // reused past this block).
    Chare& chare = *arr.elements[static_cast<std::size_t>(elem)];
    fn(chare, *this);
  }

  const double duration =
      config_.handler_overhead_s + ctx_flops_ / config_.flop_rate;
  const sim::Time completion = sim_.now() + duration;

  array_state(array).load_s[static_cast<std::size_t>(elem)] +=
      ctx_flops_ / config_.flop_rate;

  in_handler_ = false;
  // The buffered sends/contributes are flushed in place: dispatch and
  // flush_contribute run no user code (they only schedule), so the context
  // buffers cannot be re-entered — they are cleared at the next handler
  // start, keeping their capacity for reuse.
  for (const EnvIndex s : ctx_sends_) dispatch(s, pe, completion);
  for (const auto& c : ctx_contributes_) flush_contribute(c, completion);

  // The epoch guard retires this completion if the PE set is rebuilt first
  // (a non-quiescent fail_and_recover): the old PE died with its process.
  sim_.schedule_at(completion, [this, pe, epoch = pe_epoch_] {
    if (epoch != pe_epoch_) return;
    auto& st = pes_[static_cast<std::size_t>(pe)];
    st.busy = false;
    if (!st.queue_empty()) start_service(pe);
  });
}

double Runtime::tree_latency(int pes, sim::Time at) const {
  return net_->collective_latency(pes, at);
}

void Runtime::flush_contribute(const PendingContribute& c, sim::Time at) {
  auto& arr = array_state(c.array);
  auto& red = arr.reduction;
  if (!red.started) {
    red.started = true;
    red.op = c.op;
    red.acc = identity(c.op);
    red.contributed = 0;
    red.latest_time = at;
  }
  EHPC_EXPECTS(red.op == c.op);
  red.acc = combine(red.op, red.acc, c.value);
  red.latest_time = std::max(red.latest_time, at);
  ++red.contributed;
  const int n = loc_.num_elements(c.array);
  EHPC_ENSURES(red.contributed <= n);
  if (red.contributed == n) {
    const double result = red.acc;
    const sim::Time done =
        red.latest_time + tree_latency(num_pes_, red.latest_time);
    red = ReductionState{};  // ready for the next round
    const ArrayId array = c.array;
    // The epoch guard retires the client callback if a failure tears the
    // PE set down first: the reduction result died with the tree.
    sim_.schedule_at(done, [this, array, result, epoch = pe_epoch_] {
      if (epoch != pe_epoch_) return;
      auto& client = array_state(array).client;
      if (client) client(result, *this);
    });
  }
}

bool Runtime::poll_rescale() {
  EHPC_EXPECTS(!in_handler_);
  auto cmd = ccs_.take();
  if (!cmd) return false;
  const int target = cmd->target_pes;
  if (target == num_pes_) {
    // Nothing to do; acknowledge with a zero-cost timing record.
    if (cmd->on_complete) {
      RescaleTiming timing;
      timing.old_pes = timing.new_pes = num_pes_;
      cmd->on_complete(timing);
    }
    return false;
  }
  execute_rescale(std::move(*cmd));
  return true;
}

void Runtime::assert_quiescent() const {
  for (const auto& pe : pes_) {
    EHPC_EXPECTS(!pe.busy && pe.queue_empty());
  }
  for (const auto& arr : arrays_) {
    EHPC_EXPECTS(!arr.reduction.started);
  }
}

double Runtime::stage_load_balance(const std::vector<PeId>& available_pes,
                                   int* migrated_out) {
  // Gather objects across all arrays (array-major order; `first_index`
  // recovers an object's position from its (array, elem) coordinates when
  // decoding the comm graph below).
  std::vector<LbObject> objects;
  std::vector<double> modeled_bytes;
  std::vector<std::size_t> first_index(arrays_.size() + 1, 0);
  for (ArrayId a = 0; a < static_cast<ArrayId>(arrays_.size()); ++a) {
    auto& arr = arrays_[static_cast<std::size_t>(a)];
    first_index[static_cast<std::size_t>(a)] = objects.size();
    for (ElementId e = 0; e < static_cast<ElementId>(arr.elements.size()); ++e) {
      LbObject obj;
      obj.array = a;
      obj.elem = e;
      obj.load = arr.load_s[static_cast<std::size_t>(e)];
      obj.bytes = arr.elements[static_cast<std::size_t>(e)]->pup_size();
      obj.current_pe = loc_.pe_of(a, e);
      objects.push_back(obj);
      modeled_bytes.push_back(static_cast<double>(obj.bytes) * arr.bytes_scale);
    }
  }
  first_index[arrays_.size()] = objects.size();
  if (objects.empty()) {
    if (migrated_out) *migrated_out = 0;
    return 0.0;
  }

  // Hand the measured per-pair traffic to the strategy, priced over this
  // runtime's topology: same-PE traffic is free, cross-rack traffic pays
  // the contention model's structural penalties.
  LbCommGraph comm;
  if (track_comm_ && !comm_bytes_.empty()) {
    comm.edges.reserve(comm_bytes_.size());
    for (const auto& [key, traffic] : comm_bytes_) {
      const auto src_array = static_cast<std::size_t>((key >> 56) & 0xff);
      const auto src_elem = static_cast<std::size_t>((key >> 32) & 0xffffff);
      const auto dst_array = static_cast<std::size_t>((key >> 24) & 0xff);
      const auto dst_elem = static_cast<std::size_t>(key & 0xffffff);
      LbCommGraph::Edge edge;
      edge.a = static_cast<int>(first_index[src_array] + src_elem);
      edge.b = static_cast<int>(first_index[dst_array] + dst_elem);
      edge.bytes = traffic;
      comm.edges.push_back(edge);
    }
    // Reference-size transfer amortizes the per-message alpha: the graph
    // weights are bulk bytes, so price them at bulk per-byte cost.
    // message_time is pure, so one price per node pair serves the whole
    // step.
    constexpr std::size_t kRefBytes = 65536;
    comm.set_prices(
        available_pes, [this](PeId pe) { return node_of(pe); },
        [this](int x, int y) {
          return net_->message_time(kRefBytes, x, y) /
                 static_cast<double>(kRefBytes);
        });
  }

  LbStepStats stats;
  const LbAssignment assignment =
      run_strategy(*lb_, objects, comm, available_pes, &stats);
  lb_history_.push_back(stats);

  // Strategy + stats-gathering cost (central LB): per-object decision work
  // plus a reduction/broadcast over the current PEs.
  double stage = 2.0 * tree_latency(num_pes_, sim_.now()) +
                 static_cast<double>(objects.size()) * config_.lb_decision_per_obj_s;

  // Migration: objects move in parallel; each PE serializes its outgoing and
  // absorbs its incoming bytes over the fabric. Stage extends by the
  // worst-loaded endpoint.
  std::vector<double> pe_cost(static_cast<std::size_t>(
                                  std::max(num_pes_, available_pes.back() + 1)),
                              0.0);
  int migrated = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (assignment[i] == objects[i].current_pe) continue;
    ++migrated;
    const double cost = net_->message_time(
        static_cast<std::size_t>(modeled_bytes[i]),
        node_of(objects[i].current_pe), node_of(assignment[i]));
    pe_cost[static_cast<std::size_t>(objects[i].current_pe)] += cost;
    pe_cost[static_cast<std::size_t>(assignment[i])] += cost;
    loc_.set_pe(objects[i].array, objects[i].elem, assignment[i]);
  }
  stage += *std::max_element(pe_cost.begin(), pe_cost.end());

  // LB period ends: loads and measured traffic reset, as in Charm++
  // central strategies.
  for (auto& arr : arrays_) {
    std::fill(arr.load_s.begin(), arr.load_s.end(), 0.0);
  }
  comm_bytes_.clear();
  if (migrated_out) *migrated_out = migrated;
  return stage;
}

double Runtime::write_checkpoint(MemCheckpoint& out, double bandwidth_Bps) {
  out.clear();
  for (ArrayId a = 0; a < static_cast<ArrayId>(arrays_.size()); ++a) {
    auto& arr = arrays_[static_cast<std::size_t>(a)];
    for (ElementId e = 0; e < static_cast<ElementId>(arr.elements.size()); ++e) {
      auto& chare = arr.elements[static_cast<std::size_t>(e)];
      EHPC_ENSURES(chare != nullptr);
      ElementRecord rec;
      rec.array = a;
      rec.elem = e;
      rec.pe = loc_.pe_of(a, e);
      Pup packer = Pup::packer(rec.payload);
      chare->pup(packer);
      rec.modeled_bytes = static_cast<double>(rec.payload.size()) * arr.bytes_scale;
      out.add(std::move(rec));
    }
  }
  return checkpoint_io_s(out, bandwidth_Bps);
}

void Runtime::read_checkpoint(const MemCheckpoint& ckpt) {
  for (const auto& rec : ckpt.records()) {
    auto& arr = array_state(rec.array);
    auto elem = arr.factory(rec.elem);
    Pup unpacker = Pup::unpacker(rec.payload);
    elem->pup(unpacker);
    arr.elements[static_cast<std::size_t>(rec.elem)] = std::move(elem);
  }
}

double Runtime::checkpoint_io_s(const MemCheckpoint& ckpt,
                                double bandwidth_Bps) const {
  // Every PE moves its own elements' bytes in parallel; the stage lasts as
  // long as the slowest PE.
  std::vector<double> bytes(static_cast<std::size_t>(num_pes_), 0.0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_pes_), 0);
  for (const auto& rec : ckpt.records()) {
    const PeId pe = loc_.pe_of(rec.array, rec.elem);
    EHPC_ENSURES(pe < num_pes_);
    bytes[static_cast<std::size_t>(pe)] += rec.modeled_bytes;
    counts[static_cast<std::size_t>(pe)] += 1;
  }
  double stage = 0.0;
  for (std::size_t pe = 0; pe < bytes.size(); ++pe) {
    const double t = bytes[pe] / bandwidth_Bps +
                     static_cast<double>(counts[pe]) * config_.checkpoint_per_obj_s;
    stage = std::max(stage, t);
  }
  return stage;
}

double Runtime::restart(int new_pes) {
  // Tear down the old processes: element objects die with them (their state
  // lives in the checkpoint). Queued-but-undelivered envelopes die with
  // their PE queues and return to the pool.
  for (auto& arr : arrays_) {
    for (auto& chare : arr.elements) chare.reset();
  }
  for (auto& pe : pes_) {
    for (std::size_t i = pe.head; i < pe.queue.size(); ++i) {
      release_env(pe.queue[i]);
    }
  }
  pes_.assign(static_cast<std::size_t>(new_pes), PeState{});
  ++pe_epoch_;  // retires in-flight completion events of the old PE set
  num_pes_ = new_pes;
  rebuild_node_table();
  std::fill(node_egress_busy_.begin(), node_egress_busy_.end(), 0.0);
  // mpirun startup cost grows with the number of ranks (paper Fig. 5).
  return config_.startup_alpha_s +
         config_.startup_per_pe_s * static_cast<double>(new_pes);
}

void Runtime::execute_rescale(CcsCommand cmd) {
  assert_quiescent();
  const int old_pes = num_pes_;
  const int new_pes = cmd.target_pes;
  EHPC_EXPECTS(new_pes > 0 && new_pes != old_pes);

  RescaleTiming timing;
  timing.old_pes = old_pes;
  timing.new_pes = new_pes;
  timing.direction = new_pes < old_pes ? RescaleDirection::kShrink
                                       : RescaleDirection::kExpand;
  const bool shrink = timing.direction == RescaleDirection::kShrink;

  std::vector<PeId> target_set(static_cast<std::size_t>(new_pes));
  std::iota(target_set.begin(), target_set.end(), 0);

  // Shrink evacuates the dying PEs first, then checkpoints, restarts and
  // restores; expand restarts with more PEs first, then balances onto them.
  // The checkpoint lives in shared memory, so both of its stages move bytes
  // at shared-memory bandwidth, under the mapping of the moment.
  MemCheckpoint ckpt;
  if (shrink) {
    timing.load_balance_s = stage_load_balance(target_set, &timing.migrated_objects);
  }
  timing.checkpoint_s = write_checkpoint(ckpt, config_.shm_bandwidth_Bps);
  timing.restart_s = restart(new_pes);
  read_checkpoint(ckpt);
  timing.restore_s = checkpoint_io_s(ckpt, config_.shm_bandwidth_Bps);
  if (!shrink) {
    timing.load_balance_s = stage_load_balance(target_set, &timing.migrated_objects);
  }
  timing.checkpoint_modeled_bytes = ckpt.total_modeled_bytes();

  rescale_history_.push_back(timing);
  EHPC_INFO("charm",
            "rescale %d -> %d pes: lb=%.3fs ckpt=%.3fs restart=%.3fs restore=%.3fs",
            old_pes, new_pes, timing.load_balance_s, timing.checkpoint_s,
            timing.restart_s, timing.restore_s);

  const sim::Time resume_at = sim_.now() + timing.total();
  // Epoch guard: a failure landing inside the rescale's downtime window
  // tears the new PE set down again before this resume fires. The stale
  // resume (and its CCS ack) must retire — recovery schedules its own
  // restart, and running both would re-kick the application twice.
  sim_.schedule_at(resume_at, [this, ack = std::move(cmd.on_complete), timing,
                               epoch = pe_epoch_] {
    if (epoch != pe_epoch_) return;
    if (restart_handler_) restart_handler_(*this);
    if (ack) ack(timing);
  });
}

void Runtime::load_balance_then(ExternalEvent continuation) {
  EHPC_EXPECTS(!in_handler_);
  EHPC_EXPECTS(continuation != nullptr);
  assert_quiescent();
  std::vector<PeId> all(static_cast<std::size_t>(num_pes_));
  std::iota(all.begin(), all.end(), 0);
  int migrated = 0;
  const double cost = stage_load_balance(all, &migrated);
  // Epoch guard: a failure during the step supersedes the continuation;
  // the recovery's restart handler resumes the application instead.
  sim_.schedule_after(cost, [this, fn = std::move(continuation), epoch = pe_epoch_] {
    if (epoch != pe_epoch_) return;
    fn(*this);
  });
}

void Runtime::set_app_state_pup(std::function<void(Pup&)> fn) {
  app_state_pup_ = std::move(fn);
}

void Runtime::disk_checkpoint_then(ExternalEvent continuation) {
  EHPC_EXPECTS(!in_handler_);
  EHPC_EXPECTS(continuation != nullptr);
  assert_quiescent();
  commit_finished_disk_write();
  DiskCheckpoint& staged = disk_write_.emplace();
  const double stage =
      write_checkpoint(staged.data, config_.disk_bandwidth_Bps);
  if (app_state_pup_) {
    Pup packer = Pup::packer(staged.app_state);
    app_state_pup_(packer);
  }
  staged.pes = num_pes_;
  disk_write_done_at_ = sim_.now() + stage;
  EHPC_INFO("charm", "disk checkpoint: %.1f MB in %.3fs",
            staged.data.total_modeled_bytes() / 1.0e6, stage);
  // The write commits when it completes. Epoch guard: a failure inside the
  // write window discards the write and supersedes the continuation; the
  // recovery's restart handler resumes the application.
  sim_.schedule_after(stage, [this, fn = std::move(continuation), epoch = pe_epoch_] {
    commit_finished_disk_write();
    if (epoch != pe_epoch_) return;
    fn(*this);
  });
}

void Runtime::commit_finished_disk_write() {
  if (!disk_write_ || sim_.now() < disk_write_done_at_) return;
  disk_checkpoint_ = std::move(*disk_write_);
  disk_write_.reset();
  ++disk_checkpoints_taken_;
}

void Runtime::fail_and_recover() {
  commit_finished_disk_write();
  fail_and_recover(disk_checkpoint_.pes);
}

void Runtime::fail_and_recover(int surviving_pes) {
  recover_from_disk(surviving_pes, [](PeId pe) { return pe; });
}

void Runtime::fail_and_recover(const std::vector<PeId>& failed_pes) {
  commit_finished_disk_write();
  EHPC_EXPECTS(has_disk_checkpoint());
  EHPC_EXPECTS(!failed_pes.empty());
  std::vector<PeId> failed = failed_pes;
  std::sort(failed.begin(), failed.end());
  EHPC_EXPECTS(std::adjacent_find(failed.begin(), failed.end()) ==
               failed.end());  // each PE dies once
  EHPC_EXPECTS(failed.front() >= 0 && failed.back() < disk_checkpoint_.pes);
  const int surviving =
      disk_checkpoint_.pes - static_cast<int>(failed.size());
  EHPC_EXPECTS(surviving > 0);  // total loss is not recoverable
  // Survivors keep their relative order but are renumbered contiguously:
  // old PE p becomes p minus the failed PEs below it. Failed PEs map to the
  // out-of-range sentinel `surviving`, which the LB seam evicts.
  recover_from_disk(surviving, [failed, surviving](PeId pe) {
    const auto it = std::lower_bound(failed.begin(), failed.end(), pe);
    if (it != failed.end() && *it == pe) return surviving;
    return static_cast<PeId>(pe - (it - failed.begin()));
  });
}

void Runtime::recover_from_disk(int surviving_pes,
                                const std::function<PeId(PeId)>& remap) {
  EHPC_EXPECTS(!in_handler_);
  commit_finished_disk_write();
  EHPC_EXPECTS(has_disk_checkpoint());
  EHPC_EXPECTS(surviving_pes > 0);
  // A write still in flight dies with the node: recovery rolls back to the
  // last completed checkpoint.
  disk_write_.reset();
  ++recoveries_;
  // Volatile state dies with the node: reduction rounds, measured loads and
  // measured traffic. (A rescale keeps the loads: its expand LB reads them.)
  for (auto& arr : arrays_) {
    arr.reduction = ReductionState{};
    std::fill(arr.load_s.begin(), arr.load_s.end(), 0.0);
  }
  comm_bytes_.clear();
  restart(surviving_pes);
  read_checkpoint(disk_checkpoint_.data);

  // The checkpoint-time placement is only a *proposal*: a checkpoint-time
  // PE that no longer exists (node loss, or recovery onto fewer PEs than the
  // checkpoint was taken on) must not leak into the location manager, so
  // the placement goes through the LB seam, which evicts illegal placements
  // and keeps legal ones unless rebalancing wins.
  std::vector<LbObject> objects;
  objects.reserve(disk_checkpoint_.data.size());
  for (const auto& rec : disk_checkpoint_.data.records()) {
    LbObject obj;
    obj.array = rec.array;
    obj.elem = rec.elem;
    // No measured compute load survives the failure; the checkpoint
    // footprint is the balance proxy (restore cost ∝ bytes).
    obj.load = rec.modeled_bytes;
    obj.bytes = rec.payload.size();
    obj.current_pe = remap(rec.pe);
    objects.push_back(obj);
  }
  if (!objects.empty()) {
    std::vector<PeId> survivors(static_cast<std::size_t>(num_pes_));
    std::iota(survivors.begin(), survivors.end(), 0);
    LbStepStats stats;
    const LbAssignment assignment =
        run_strategy(*lb_, objects, survivors, &stats);
    lb_history_.push_back(stats);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      EHPC_ENSURES(assignment[i] >= 0 && assignment[i] < num_pes_);
      loc_.set_pe(objects[i].array, objects[i].elem, assignment[i]);
    }
  }
  if (app_state_pup_ && !disk_checkpoint_.app_state.empty()) {
    Pup unpacker = Pup::unpacker(disk_checkpoint_.app_state);
    app_state_pup_(unpacker);
  }

  // Each surviving PE reads its share of the checkpoint from disk under the
  // recovery placement. The startup cost is summed here term by term, in
  // the order detection + startup + read, rather than taken pre-rounded
  // from restart(): the recovery times stay bit-identical to that sum.
  const double read_stage =
      checkpoint_io_s(disk_checkpoint_.data, config_.disk_bandwidth_Bps);
  const double downtime = config_.failure_detection_s +
                          config_.startup_alpha_s +
                          config_.startup_per_pe_s * num_pes_ + read_stage;
  EHPC_WARN("charm", "node failure: recovering from disk checkpoint (%.2fs downtime)",
            downtime);
  // Epoch guard: a second failure before this restart fires supersedes it;
  // running both would re-kick the application twice.
  sim_.schedule_after(downtime, [this, epoch = pe_epoch_] {
    if (epoch != pe_epoch_) return;
    if (restart_handler_) restart_handler_(*this);
  });
}

std::vector<double> Runtime::element_loads(ArrayId array) const {
  return array_state(array).load_s;
}

std::size_t Runtime::run() { return sim_.run(); }

std::size_t Runtime::run_until(sim::Time until) { return sim_.run_until(until); }

}  // namespace ehpc::charm
