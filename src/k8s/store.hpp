#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {

/// Kind of change delivered to watchers.
enum class WatchEvent { kAdded, kModified, kDeleted };

/// A typed, versioned object store — the API-server role of the substrate.
/// Every mutation bumps the object's resourceVersion; the scheduler, kubelets
/// and the operator's controller react to cluster changes through watchers
/// (the "watch" machinery of real Kubernetes, collapsed into an in-process
/// call graph driven by the simulation).
///
/// Two observation mechanisms with different consistency contracts:
///
/// **Views** (attach_view) are incrementally-maintained indexes. A view
/// callback runs *synchronously inside every mutation*, receiving the event
/// kind plus the before/after images of the object:
///   - `kAdded`:    before == nullptr, after == stored object
///   - `kModified`: before == pre-image,  after == post-image
///   - `kDeleted`:  before == final image, after == nullptr
/// Invariant: when any mutating call (`add`/`update`/`mutate`/`remove`)
/// returns, every attached view has already observed the change — a view's
/// derived state is never stale with respect to `get`/`list`, even while
/// watcher delivery is still queued. Views must not mutate the store
/// re-entrantly.
///
/// **Watchers** (watch) model the asynchronous watch channel. Mutations
/// queue their events; the first event of a window schedules a flush with
/// `sim.schedule_now`, so the window drains at the current virtual time,
/// after the in-flight event chain. Per-object coalescing makes a watcher's
/// reaction cost scale with *distinct changed objects* rather than raw
/// mutation count. Guarantees:
///   - Delivery is event-major: queued events are replayed in enqueue order,
///     and each event is handed to all eligible watchers in registration
///     order before the next event — the same interleaving a synchronous
///     store produces for the surviving events.
///   - Coalescing: a run of `kModified` events for one object with no
///     intervening `kAdded`/`kDeleted` of that object collapses into a
///     single event at the run's *first* queue position carrying the run's
///     *final* state. `kAdded` and `kDeleted` are never coalesced or
///     elided — an add+delete inside one window delivers both, so watchers
///     keyed on lifecycle edges (e.g. the scheduler's retry-on-delete) see
///     every edge.
///   - Snapshots: watchers receive the object state captured at coalescing
///     time, so a `kDeleted` event delivers the object's final image even
///     though it has left the store.
///   - A watcher registered mid-window sees only events enqueued after its
///     registration; a Modified run that began earlier stays folded into
///     its pre-registration queue position and is not replayed to it.
///   - Events enqueued *during* a flush (a watcher mutating the store) are
///     appended and drained by the same flush, after the already-queued
///     events; they are not coalesced into earlier positions and schedule
///     no second flush.
///
/// The store schedules flushes that capture `this`, so it is neither
/// copyable nor movable, and `sim` must outlive it.
///
/// T must expose an ObjectMeta member named `meta`.
template <typename T>
class ObjectStore {
 public:
  using Watcher = std::function<void(WatchEvent, const T&)>;
  using View = std::function<void(WatchEvent, const T* before, const T* after)>;

  explicit ObjectStore(sim::Simulation& sim) : sim_(sim) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Insert a new object; its name must be unused. Returns the stored copy.
  const T& add(T object) {
    EHPC_EXPECTS(!object.meta.name.empty());
    EHPC_EXPECTS(objects_.count(object.meta.name) == 0);
    object.meta.resource_version = ++version_counter_;
    auto [it, ok] = objects_.emplace(object.meta.name, std::move(object));
    EHPC_ENSURES(ok);
    notify_views(WatchEvent::kAdded, nullptr, &it->second);
    dispatch(WatchEvent::kAdded, it->second);
    return it->second;
  }

  /// Replace an existing object (matched by name).
  const T& update(T object) {
    auto it = objects_.find(object.meta.name);
    EHPC_EXPECTS(it != objects_.end());
    object.meta.resource_version = ++version_counter_;
    T before = std::move(it->second);
    it->second = std::move(object);
    notify_views(WatchEvent::kModified, &before, &it->second);
    dispatch(WatchEvent::kModified, it->second);
    return it->second;
  }

  /// Mutate an object in place through `fn`; bumps the version and notifies.
  template <typename Fn>
  const T& mutate(const std::string& name, Fn&& fn) {
    auto it = objects_.find(name);
    EHPC_EXPECTS(it != objects_.end());
    if (views_.empty()) {
      fn(it->second);
      it->second.meta.resource_version = ++version_counter_;
    } else {
      T before = it->second;  // pre-image for the views
      fn(it->second);
      it->second.meta.resource_version = ++version_counter_;
      notify_views(WatchEvent::kModified, &before, &it->second);
    }
    dispatch(WatchEvent::kModified, it->second);
    return it->second;
  }

  /// Delete by name. Returns false if absent.
  bool remove(const std::string& name) {
    auto it = objects_.find(name);
    if (it == objects_.end()) return false;
    T object = std::move(it->second);
    objects_.erase(it);
    notify_views(WatchEvent::kDeleted, &object, nullptr);
    dispatch(WatchEvent::kDeleted, object);
    return true;
  }

  bool contains(const std::string& name) const { return objects_.count(name) > 0; }

  const T& get(const std::string& name) const {
    auto it = objects_.find(name);
    EHPC_EXPECTS(it != objects_.end());
    return it->second;
  }

  const T* find(const std::string& name) const {
    auto it = objects_.find(name);
    return it == objects_.end() ? nullptr : &it->second;
  }

  /// All objects in name order (deterministic iteration).
  std::vector<const T*> list() const {
    std::vector<const T*> out;
    out.reserve(objects_.size());
    for (const auto& [name, obj] : objects_) out.push_back(&obj);
    return out;
  }

  std::size_t size() const { return objects_.size(); }

  /// Register a watcher; it receives the events enqueued from now on, at
  /// the next flush.
  void watch(Watcher watcher) {
    watchers_.push_back({std::move(watcher), log_.size()});
  }

  /// Attach an incrementally-maintained view; immediately and synchronously
  /// invoked on every subsequent mutation (see class comment for the
  /// before/after contract). Views are not replayed for existing objects —
  /// a view that must bootstrap walks `list()` itself before attaching.
  void attach_view(View view) { views_.push_back(std::move(view)); }

  /// Register a batch observer, called once after each flush. Use for
  /// per-window sampling (e.g. one utilization sample per flush instead of
  /// one per mutation).
  void observe_batches(std::function<void()> fn) {
    batch_observers_.push_back(std::move(fn));
  }

  /// Queued-but-undelivered events.
  std::size_t pending_events() const { return log_.size(); }

  std::uint64_t latest_version() const { return version_counter_; }

 private:
  struct WatcherEntry {
    Watcher fn;
    std::size_t registered_at;  ///< first queue index this watcher receives
  };
  struct LogEntry {
    WatchEvent event;
    T snapshot;
  };

  /// Deliver all queued events (see class comment for ordering guarantees).
  /// Scheduled by `dispatch` on the first event of a window.
  void flush() {
    flush_requested_ = false;
    flushing_ = true;
    // Index loops: watchers may register more watchers or enqueue more
    // events mid-flush; both vectors can grow (and reallocate) under us.
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const WatchEvent event = log_[i].event;
      const T snapshot = std::move(log_[i].snapshot);
      for (std::size_t w = 0; w < watchers_.size(); ++w) {
        if (i >= watchers_[w].registered_at) watchers_[w].fn(event, snapshot);
      }
    }
    log_.clear();
    coalesce_.clear();
    for (auto& w : watchers_) w.registered_at = 0;
    flushing_ = false;
    for (std::size_t i = 0; i < batch_observers_.size(); ++i) {
      batch_observers_[i]();
    }
  }

  void notify_views(WatchEvent event, const T* before, const T* after) {
    for (std::size_t i = 0; i < views_.size(); ++i) {
      views_[i](event, before, after);
    }
  }

  void dispatch(WatchEvent event, const T& object) {
    const std::string& name = object.meta.name;
    if (event == WatchEvent::kModified && !flushing_) {
      if (auto it = coalesce_.find(name); it != coalesce_.end()) {
        log_[it->second].snapshot = object;  // fold the run: final state wins
        return;
      }
      coalesce_[name] = log_.size();
    } else {
      // An Added/Deleted edge ends any coalescible Modified run for this
      // object; mid-flush events append without coalescing (earlier queue
      // positions may already be delivered).
      coalesce_.erase(name);
    }
    log_.push_back({event, object});
    if (!flush_requested_ && !flushing_) {
      flush_requested_ = true;
      sim_.schedule_now([this] { flush(); });
    }
  }

  sim::Simulation& sim_;
  std::map<std::string, T> objects_;
  std::vector<WatcherEntry> watchers_;
  std::vector<View> views_;
  std::vector<std::function<void()>> batch_observers_;
  std::vector<LogEntry> log_;
  std::map<std::string, std::size_t> coalesce_;  ///< open Modified runs
  bool flush_requested_ = false;
  bool flushing_ = false;
  std::uint64_t version_counter_ = 0;
};

}  // namespace ehpc::k8s
