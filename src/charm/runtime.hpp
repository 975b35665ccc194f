#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "charm/ccs.hpp"
#include "charm/checkpoint.hpp"
#include "charm/load_balancer.hpp"
#include "charm/location.hpp"
#include "charm/pup.hpp"
#include "charm/rescale.hpp"
#include "charm/types.hpp"
#include "net/network_model.hpp"
#include "sim/simulation.hpp"

namespace ehpc::charm {

/// Tunables of the emulated machine and runtime system. Defaults approximate
/// the paper's testbed: c6g.4xlarge nodes (16 vCPUs) in an EKS cluster
/// placement group, OpenMPI startup costs, /dev/shm checkpoint bandwidth.
struct RuntimeConfig {
  int num_pes = 4;               ///< initial PE count (1 PE = 1 worker replica)
  int pes_per_node = 16;         ///< replicas packed per node (c6g.4xlarge: 16)
  double flop_rate = 2.0e9;      ///< sustained flops per PE (c6g Graviton2 core)
  double handler_overhead_s = 25.0e-6;  ///< per-message software cost (scheduler + TCP stack)
  /// Communication model behind the NetworkModel seam. The default is the
  /// flat pod-network alpha-beta model; swap in
  /// `net::make_network_model("fattree", oversub)` for per-link contention.
  /// The runtime clones it at construction, so one config can seed many
  /// concurrently-running runtimes.
  std::shared_ptr<const net::NetworkModel> network = net::default_network_model();
  double shm_bandwidth_Bps = 4.0e9;     ///< /dev/shm checkpoint+restore bandwidth
  double checkpoint_per_obj_s = 50.0e-6;  ///< per-object serialization overhead
  double startup_alpha_s = 0.4;  ///< restart fixed cost (mpirun launch)
  double startup_per_pe_s = 0.03;  ///< restart cost per rank (MPI_Init growth)
  double lb_decision_per_obj_s = 10.0e-6;  ///< central LB strategy cost/object
  std::string load_balancer = "greedy";  ///< "null" | "greedy" | "refine" | "commrefine"
  /// Per-node NIC egress serialization: inter-node messages leaving one node
  /// queue behind each other (TCP/ENA). This is the per-iteration floor that
  /// flattens strong scaling at high replica counts (paper Fig. 4a).
  double nic_per_msg_s = 10.0e-6;
  double nic_bandwidth_Bps = 1.25e9;
  /// Fault tolerance (paper §3.2.2): disk-checkpoint bandwidth (EBS-class,
  /// far slower than /dev/shm) and the failure-detection delay before a
  /// recovery restart begins.
  double disk_bandwidth_Bps = 0.2e9;
  double failure_detection_s = 5.0;
};

/// Reduction combiners available to `contribute`.
enum class ReduceOp { kSum, kMax, kMin };

/// The minicharm runtime: a message-driven, migratable-objects runtime
/// emulated in virtual time (BigSim style).
///
/// Application code really executes — entry methods run real C++, ghost
/// exchanges carry real data, checkpoints serialize real bytes — while
/// *performance* comes from a machine model: declared flops over a per-PE
/// flop rate, alpha-beta message costs, shared-memory checkpoint bandwidth,
/// and an MPI-like startup cost for restarts. This lets 64-PE strong-scaling
/// and shrink/expand experiments (paper §4.1–4.2) run deterministically on
/// any host.
///
/// Threading model: single-threaded; all callbacks run on the caller's
/// thread inside `run()`.
class Runtime {
 public:
  using Handler = std::function<void(Chare&, Runtime&)>;
  using ElementFactory = std::function<std::unique_ptr<Chare>(ElementId)>;
  using ReductionClient = std::function<void(double, Runtime&)>;
  using RestartHandler = std::function<void(Runtime&)>;
  using ExternalEvent = std::function<void(Runtime&)>;

  explicit Runtime(RuntimeConfig config);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- topology ----
  int num_pes() const { return num_pes_; }
  int node_of(PeId pe) const {
    // Table lookup for live PEs; the division fallback serves out-of-range
    // queries (e.g. historical PE ids after a shrink).
    if (pe < 0) return -1;
    if (static_cast<std::size_t>(pe) < node_of_.size()) {
      return node_of_[static_cast<std::size_t>(pe)];
    }
    return pe / config_.pes_per_node;
  }
  sim::Time now() const { return sim_.now(); }
  const RuntimeConfig& config() const { return config_; }

  /// This runtime's private clone of the configured network model (carries
  /// the run's contention state; tests inspect link stats through it).
  const net::NetworkModel& network_model() const { return *net_; }

  // ---- chare arrays ----

  /// Create a chare array of `num_elements`, initially mapped round-robin
  /// over the PEs. The factory constructs a fresh (un-restored) element and
  /// is reused to rebuild elements after a restart. A runtime whose load
  /// balancer is comm-aware accepts at most 256 arrays of at most 2^24
  /// elements (its traffic ledger packs both ids into one key) and throws
  /// PreconditionError beyond that.
  ArrayId create_array(std::string name, int num_elements, ElementFactory factory);

  int num_elements(ArrayId array) const { return loc_.num_elements(array); }

  /// Direct element access (driver/test use; application code should message).
  Chare& element(ArrayId array, ElementId elem);

  /// PE currently hosting an element.
  PeId pe_of(ArrayId array, ElementId elem) const { return loc_.pe_of(array, elem); }

  const std::vector<PeId>& mapping(ArrayId array) const { return loc_.mapping(array); }

  /// Scale factor applied to real pup sizes when charging checkpoint,
  /// restore and migration time. Applications running a reduced-resolution
  /// grid set this to (full bytes / real bytes) so rescaling costs reflect
  /// the full problem (see apps/ docs).
  void set_bytes_scale(ArrayId array, double scale);

  // ---- messaging ----

  /// Send a message of `bytes` to an element; `fn` runs on the destination
  /// as the entry method. Callable from inside a handler (cost charged from
  /// the executing PE at handler completion) or from driver/reduction-client
  /// context (charged from PE 0 at the current time).
  void send(ArrayId array, ElementId elem, std::size_t bytes, Handler fn);

  /// Send `fn` to every element of the array (one copy per element).
  void broadcast(ArrayId array, std::size_t bytes, const Handler& fn);

  /// Add compute work to the currently executing entry method. Only valid
  /// inside a handler. The work also counts toward the element's LB load.
  void charge_flops(double flops);

  /// Contribute to the array's current reduction round. When every element
  /// has contributed, the reduction client runs (once) with the combined
  /// value at the virtual time the slowest contribution plus a
  /// log2(P)-depth tree latency.
  void contribute(ArrayId array, double value, ReduceOp op);

  void set_reduction_client(ArrayId array, ReductionClient client);

  // ---- control ----

  /// Schedule an external control action (e.g. a CCS rescale request from
  /// the operator) at absolute virtual time `at`.
  void schedule_external(sim::Time at, ExternalEvent fn);

  /// The CCS control endpoint used by external schedulers.
  CcsServer& ccs() { return ccs_; }

  /// Invoked after every restart+restore so the application can resume from
  /// its checkpointed state (typically: re-broadcast "start iteration i").
  void set_restart_handler(RestartHandler handler);

  /// Poll the CCS mailbox; if a rescale is pending, execute it. Must be
  /// called at a quiescent point (no messages in flight), i.e. from a
  /// reduction client — the "next load-balancing step" of the paper.
  /// Returns true when a rescale was started: the caller must stop driving
  /// the application; the restart handler will resume it.
  bool poll_rescale();

  /// Explicit load balancing without a rescale ("AtSync"). Runs the
  /// configured strategy over all arrays, applies the migration, charges its
  /// virtual cost, then invokes `continuation` — unless a failure recovery
  /// intervened, in which case the restart handler resumes the app instead.
  void load_balance_then(ExternalEvent continuation);

  // ---- fault tolerance (paper §3.2.2) ----

  /// Extra application/driver state (e.g. the iteration counter) carried in
  /// every checkpoint so recovery restores it too.
  void set_app_state_pup(std::function<void(Pup&)> fn);

  /// Write a full checkpoint to (modeled) disk at a quiescent point, then
  /// run `continuation` — unless a failure recovery intervened, in which
  /// case the restart handler resumes the app instead. Unlike the in-memory
  /// rescale checkpoint, this one survives node failures. It becomes the
  /// recovery target only once the write completes: a failure strictly
  /// inside the write window rolls back to the previous checkpoint, while a
  /// failure at exactly the completion instant recovers from this one.
  void disk_checkpoint_then(ExternalEvent continuation);

  /// Simulate a node failure: all volatile state (elements, queues,
  /// in-flight messages, reduction rounds) is lost; the runtime restarts
  /// from the last completed disk checkpoint with the checkpoint-time PE
  /// count, charges detection + restart + disk-read time, restores the app
  /// state, and invokes the restart handler. Unlike rescales this does not
  /// require quiescence — events belonging to the dead configuration are
  /// retired by the PE epoch guard. Throws PreconditionError without a prior
  /// completed checkpoint. Not callable from inside an entry method (a dead
  /// node cannot run handlers); inject from a reduction client or a
  /// scheduled external event instead.
  void fail_and_recover();

  /// Node-loss variant: restart on `surviving_pes` PEs (the checkpoint-time
  /// count minus the lost node's PEs). Elements whose checkpoint-time PE no
  /// longer exists are re-placed via the configured LB strategy instead of
  /// restoring an out-of-range placement.
  void fail_and_recover(int surviving_pes);

  /// Correlated-loss variant: `failed_pes` (checkpoint-time PE numbers,
  /// unique, at least one survivor) die together; the runtime restarts on
  /// the survivors, renumbered contiguously with their relative order
  /// preserved. Elements checkpointed on a surviving PE follow it to its
  /// new number; elements on a failed PE are re-placed via the LB strategy.
  void fail_and_recover(const std::vector<PeId>& failed_pes);

  bool has_disk_checkpoint() const { return !disk_checkpoint_.data.empty(); }
  int disk_checkpoints_taken() const { return disk_checkpoints_taken_; }
  int recoveries() const { return recoveries_; }

  /// All rescale timings observed so far, in order.
  const std::vector<RescaleTiming>& rescale_history() const { return rescale_history_; }

  /// Accumulated LB load (seconds of charged compute) per element.
  std::vector<double> element_loads(ArrayId array) const;

  /// Imbalance accounting of every LB step run so far (AtSync balances and
  /// the LB stage of each rescale), in execution order.
  const std::vector<LbStepStats>& lb_history() const { return lb_history_; }

  // ---- execution ----

  /// Run until quiescence (no pending events). Returns events executed.
  std::size_t run();

  /// Run events up to virtual time `until`.
  std::size_t run_until(sim::Time until);

 private:
  /// In-flight message. Envelopes are pooled (free-list indexed by EnvIndex)
  /// so steady-state messaging recycles storage instead of allocating; the
  /// scheduled arrival event only carries the pool index.
  struct Envelope {
    ArrayId array = -1;
    ElementId elem = -1;
    std::size_t bytes = 0;
    Handler fn;
  };
  using EnvIndex = std::uint32_t;
  static constexpr std::uint32_t kEnvChunkShift = 6;  // 64 envelopes per chunk
  static constexpr std::uint32_t kEnvChunkSize = 1u << kEnvChunkShift;
  static constexpr std::uint32_t kEnvChunkMask = kEnvChunkSize - 1;
  struct PendingContribute {
    ArrayId array;
    double value;
    ReduceOp op;
  };
  struct ReductionState {
    bool started = false;
    int contributed = 0;
    double acc = 0.0;
    ReduceOp op = ReduceOp::kSum;
    double latest_time = 0.0;
  };
  struct ArrayState {
    std::string name;
    ElementFactory factory;
    std::vector<std::unique_ptr<Chare>> elements;
    std::vector<double> load_s;   // charged compute since last LB
    double bytes_scale = 1.0;
    ReductionState reduction;
    ReductionClient client;
  };
  /// Per-PE delivery queue: a FIFO ring of envelope-pool indices. Storage
  /// is reset on drain, and the consumed prefix is reclaimed even while
  /// backlogged (a PE fed as fast as it services would otherwise accrete
  /// one dead index per message for the whole run).
  struct PeState {
    std::vector<EnvIndex> queue;
    std::size_t head = 0;
    bool busy = false;

    bool queue_empty() const { return head == queue.size(); }
    void push(EnvIndex idx) { queue.push_back(idx); }
    EnvIndex pop() {
      const EnvIndex idx = queue[head++];
      if (head == queue.size()) {
        queue.clear();
        head = 0;
      } else if (head >= 64 && 2 * head >= queue.size()) {
        queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return idx;
    }
  };

  ArrayState& array_state(ArrayId array);
  const ArrayState& array_state(ArrayId array) const;

  Envelope& env_at(EnvIndex idx) {
    return env_chunks_[idx >> kEnvChunkShift][idx & kEnvChunkMask];
  }
  EnvIndex alloc_env(ArrayId array, ElementId elem, std::size_t bytes,
                     Handler&& fn);
  void release_env(EnvIndex idx);
  void rebuild_node_table();
  /// Shared recovery path of both fail_and_recover overloads: restart on
  /// `surviving_pes` PEs, proposing `remap(checkpoint_pe)` as each
  /// element's placement (out-of-range proposals are evicted by the LB).
  void recover_from_disk(int surviving_pes,
                         const std::function<PeId(PeId)>& remap);
  /// Commit the staged disk write if it has completed by now (inclusive).
  void commit_finished_disk_write();

  // Deliver an envelope to its destination PE at `arrival`.
  void dispatch(EnvIndex env, PeId from_pe, sim::Time send_time);
  void on_arrival(PeId pe, EnvIndex env);
  void start_service(PeId pe);
  void flush_contribute(const PendingContribute& c, sim::Time at);
  /// Modeled latency of a log2(pes)-depth reduction/broadcast tree observed
  /// at virtual time `at` (a contended fabric stretches it).
  double tree_latency(int pes, sim::Time at) const;

  /// LB stage of a rescale or an AtSync step; returns its virtual duration.
  double stage_load_balance(const std::vector<PeId>& available_pes,
                            int* migrated_out);

  // The one checkpoint path, shared by rescales (shared-memory bandwidth)
  // and fault tolerance (disk bandwidth).
  /// Replace `out` with every element packed at its current PE; returns the
  /// write time at `bandwidth_Bps`.
  double write_checkpoint(MemCheckpoint& out, double bandwidth_Bps);
  /// Rebuild every element of `ckpt` through its array's factory.
  void read_checkpoint(const MemCheckpoint& ckpt);
  /// Time for the slowest PE to move its elements' share of `ckpt` at
  /// `bandwidth_Bps`, under the current mapping.
  double checkpoint_io_s(const MemCheckpoint& ckpt, double bandwidth_Bps) const;
  /// Tear the processes down (elements, PE queues, node table, NIC egress)
  /// and start `new_pes` empty PEs; returns the startup cost.
  double restart(int new_pes);
  void execute_rescale(CcsCommand cmd);
  void assert_quiescent() const;

  RuntimeConfig config_;
  sim::Simulation sim_;
  LocationManager loc_;
  std::vector<double> node_egress_busy_;  // per-node NIC availability time
  CcsServer ccs_;
  std::unique_ptr<net::NetworkModel> net_;  // private clone of config_.network
  std::unique_ptr<LoadBalancer> lb_;
  // Per-object-pair traffic since the last LB step, keyed by packed
  // (src array, src elem, dst array, dst elem). Only maintained when the
  // configured strategy is comm-aware; cleared with the LB loads.
  bool track_comm_ = false;
  std::map<std::uint64_t, double> comm_bytes_;
  std::vector<ArrayState> arrays_;
  std::vector<PeState> pes_;
  int num_pes_;
  // Bumped whenever pes_ is rebuilt (rescale restart, failure recovery);
  // pending completion events from the previous PE set compare and retire.
  std::uint32_t pe_epoch_ = 0;

  // Message envelope pool (chunked arena: stable addresses, no moves on
  // growth, free-list recycling).
  std::vector<std::unique_ptr<Envelope[]>> env_chunks_;
  std::uint32_t env_high_water_ = 0;
  std::vector<EnvIndex> env_free_;
  std::vector<int> node_of_;  // node id per live PE (avoids hot-path division)

  // Execution context of the currently running entry method.
  bool in_handler_ = false;
  PeId ctx_pe_ = kExternalPe;
  double ctx_flops_ = 0.0;
  ArrayId ctx_array_ = -1;
  ElementId ctx_elem_ = -1;
  std::vector<EnvIndex> ctx_sends_;
  std::vector<PendingContribute> ctx_contributes_;

  RestartHandler restart_handler_;
  std::vector<RescaleTiming> rescale_history_;
  std::vector<LbStepStats> lb_history_;

  // Fault tolerance: the durable checkpoint and the app state stored in it.
  struct DiskCheckpoint {
    MemCheckpoint data;
    std::vector<std::byte> app_state;
    int pes = 0;  ///< PE count at checkpoint time
  };
  std::function<void(Pup&)> app_state_pup_;
  DiskCheckpoint disk_checkpoint_;  ///< last completed write
  /// The write in flight, staged until it completes at `disk_write_done_at_`.
  std::optional<DiskCheckpoint> disk_write_;
  sim::Time disk_write_done_at_ = 0.0;
  int disk_checkpoints_taken_ = 0;
  int recoveries_ = 0;
};

}  // namespace ehpc::charm
