#include "core/control_core.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "hash/content_id.hpp"

namespace vinelet::core {

// ---------------------------------------------------------------------------
// Workers and tasks.
// ---------------------------------------------------------------------------

void ControlCore::FreeRoom::Count(const ResourceAllocator& alloc, int sign) {
  const Resources& free = alloc.free();
  const std::uint64_t amounts[] = {free.cores, free.memory_mb, free.disk_mb,
                                   alloc.FullyIdle()};
  for (std::size_t r = 0; r < workers.size(); ++r) {
    if (sign > 0)
      ++workers[r][amounts[r]];
    else if (auto it = workers[r].find(amounts[r]); --it->second == 0)
      workers[r].erase(it);
  }
}

bool ControlCore::FreeRoom::MayFit(const Resources& request) const {
  // All() asks for no amount, only for a fully idle worker.
  const std::uint64_t asked[] = {request.cores, request.memory_mb,
                                 request.disk_mb, request.IsAll()};
  for (std::size_t r = 0; r < workers.size(); ++r)
    if (workers[r].empty() || workers[r].rbegin()->first < asked[r])
      return false;
  return true;
}

void ControlCore::AddWorker(WorkerId worker, Resources total) {
  auto [it, added] = workers_.try_emplace(worker, total);
  if (!added) return;
  ring_.Add(worker);
  room_.Count(it->second.alloc, +1);
}

ControlCore::WorkerLoss ControlCore::RemoveWorker(WorkerId worker) {
  WorkerLoss loss;
  auto it = workers_.find(worker);
  if (it == workers_.end()) return loss;
  for (const auto& [task, _] : it->second.tasks) loss.tasks.push_back(task);
  for (LibraryInstanceId id : it->second.instances) {
    auto node = instance_table_.extract(id);
    Library& library = libraries_.at(node.mapped().library);
    Account(node.mapped(), library, -1);
    library.instances.erase(id);
    loss.instances.push_back(std::move(node.mapped()));
  }
  room_.Count(it->second.alloc, -1);
  workers_.erase(it);
  ring_.Remove(worker);
  std::erase_if(reserved_, [worker](const Reservation& reservation) {
    return reservation.worker == worker;
  });
  return loss;
}

std::optional<ControlCore::Claim> ControlCore::ClaimFirstFit(
    std::uint64_t key, const Resources& request) {
  if (!room_.MayFit(request)) return std::nullopt;
  ++ring_walks_;
  const auto id = ring_.FindFrom(key, [&](WorkerId worker) {
    return workers_.at(worker).alloc.CanAllocate(request);
  });
  if (!id) return std::nullopt;
  Worker& worker = workers_.at(*id);
  room_.Count(worker.alloc, -1);
  const Resources claimed = *worker.alloc.Allocate(request);  // it fits
  room_.Count(worker.alloc, +1);
  return Claim{*id, &worker, claimed};
}

void ControlCore::Unclaim(Worker& worker, const Resources& claimed) {
  room_.Count(worker.alloc, -1);
  // Release fails only on an over-release, a bookkeeping bug that Audit()
  // reports as an allocator/claims mismatch.
  (void)worker.alloc.Release(claimed);
  room_.Count(worker.alloc, +1);
}

void ControlCore::SubmitTask(TaskId task, std::uint64_t key,
                             const Resources& request) {
  auto shape = std::find_if(
      task_shapes_.begin(), task_shapes_.end(),
      [&](const TaskShape& s) { return s.request == request; });
  if (shape == task_shapes_.end())
    shape = task_shapes_.insert(shape, TaskShape{request, {}});
  shape->queue.push_back({task, key, next_task_seq_++});
  ++queued_tasks_;
}

void ControlCore::ReleaseTask(WorkerId worker, TaskId task) {
  auto worker_it = workers_.find(worker);
  if (worker_it == workers_.end()) return;
  auto node = worker_it->second.tasks.extract(task);
  if (!node.empty()) Unclaim(worker_it->second, node.mapped());
}

// ---------------------------------------------------------------------------
// Libraries, calls and instance events.
// ---------------------------------------------------------------------------

void ControlCore::AddLibrary(const std::string& name,
                             const Resources& resources, std::uint32_t slots) {
  Library& library = libraries_[name];
  library.resources = resources;
  library.slots = slots;
  library.ring_key = hash::ContentId::OfText(name).Prefix64();
}

bool ControlCore::Submit(const std::string& library, CallId call) {
  Library& lib = libraries_.at(library);
  lib.queue.push_back(call);
  return lib.ready > 0;
}

void ControlCore::Requeue(const std::string& library, CallId call) {
  libraries_.at(library).queue.push_front(call);
}

void ControlCore::Share(const Instance& instance, Library& library,
                        int sign) {
  const auto add = [sign](auto& sum, std::size_t amount) {
    sum = sign > 0 ? sum + amount : sum - amount;
  };
  switch (instance.state) {
    case InstanceState::kStaging:
    case InstanceState::kInstalling:
      add(library.pending, 1);
      add(library.pending_slots, instance.slots);
      break;
    case InstanceState::kReady: {
      const std::uint32_t free = instance.slots - instance.slots_in_use;
      const std::pair<std::int64_t, LibraryInstanceId> load{-std::int64_t{free},
                                                             instance.id};
      add(library.ready, 1);
      add(library.free_slots, free);
      add(library.served, instance.served);
      if (sign < 0) {
        library.idle.erase(instance.id);
        library.by_load.erase(load);
      } else {
        if (instance.slots_in_use == 0) library.idle.insert(instance.id);
        library.by_load.insert(load);
      }
      break;
    }
    case InstanceState::kDraining:
      break;
  }
}

void ControlCore::Account(const Instance& instance, Library& library,
                          int sign) {
  Share(instance, library, sign);
  if (instance.state != InstanceState::kReady) return;
  if (sign > 0) {
    affinity_index_.Add(instance.library, instance.worker);
    ++warm_;
  } else {
    affinity_index_.Remove(instance.library, instance.worker);
    --warm_;
  }
}

bool ControlCore::Installing(LibraryInstanceId id) {
  auto it = instance_table_.find(id);
  if (it == instance_table_.end() ||
      it->second.state != InstanceState::kStaging)
    return false;
  it->second.state = InstanceState::kInstalling;  // same share: pending
  return true;
}

bool ControlCore::Ready(LibraryInstanceId id) {
  auto it = instance_table_.find(id);
  if (it == instance_table_.end() ||
      it->second.state != InstanceState::kInstalling)
    return false;
  Library& library = libraries_.at(it->second.library);
  Account(it->second, library, -1);
  it->second.state = InstanceState::kReady;
  Account(it->second, library, +1);
  fresh_.push_back(id);
  return true;
}

std::optional<ControlCore::Instance> ControlCore::Remove(
    LibraryInstanceId id) {
  auto node = instance_table_.extract(id);
  if (node.empty()) return std::nullopt;
  Instance& instance = node.mapped();
  Library& library = libraries_.at(instance.library);
  Account(instance, library, -1);
  library.instances.erase(id);
  auto worker_it = workers_.find(instance.worker);
  if (worker_it != workers_.end()) {
    worker_it->second.instances.erase(id);
    Unclaim(worker_it->second, instance.claimed);
    if (instance.state == InstanceState::kDraining)
      reserved_.push_back({instance.evicted_for, instance.worker});
  }
  return std::move(instance);
}

const ControlCore::Instance* ControlCore::Finish(LibraryInstanceId id,
                                                 CallId call) {
  auto it = instance_table_.find(id);
  if (it == instance_table_.end() || it->second.running.erase(call) == 0)
    return nullptr;
  Instance& instance = it->second;
  Library& library = libraries_.at(instance.library);
  Share(instance, library, -1);
  if (instance.slots_in_use > 0) --instance.slots_in_use;
  ++instance.served;
  Share(instance, library, +1);
  return &instance;
}

// ---------------------------------------------------------------------------
// Decisions.
// ---------------------------------------------------------------------------

AutoscaleSignal ControlCore::Signal(const Library& library,
                                    bool with_room) const {
  AutoscaleSignal signal;
  signal.queue_depth = library.queue.size();
  signal.ready_instances = library.ready;
  signal.pending_instances = library.pending;
  signal.free_slots = library.free_slots;
  signal.pending_slots = library.pending_slots;
  // Fig 11 share value: invocations served per warm instance.
  if (library.ready > 0)
    signal.share_value = static_cast<double>(library.served) /
                         static_cast<double>(library.ready);
  // DecideAutoscale reads room only once the backlog outruns the capacity
  // warm or on its way, so it is counted only then.
  if (with_room &&
      signal.queue_depth > signal.free_slots + signal.pending_slots &&
      room_.MayFit(library.resources)) {
    for (const auto& [_, worker] : workers_)
      if (worker.alloc.CanAllocate(library.resources))
        ++signal.workers_with_room;
  }
  return signal;
}

std::vector<ControlCore::Decision> ControlCore::Pump(const RouteHooks& hooks) {
  std::vector<Decision> out;
  if (queued_tasks_ > 0) PlaceTasks(out);
  // A newly ready instance first fills its slots from its library's queue,
  // unnarrowed: the backlog that recruited it must not wait for a busy
  // instance the narrowing hook prefers.
  for (LibraryInstanceId id : std::exchange(fresh_, {})) {
    auto it = instance_table_.find(id);
    if (it == instance_table_.end() ||
        it->second.state != InstanceState::kReady)
      continue;
    Library& library = libraries_.at(it->second.library);
    while (!library.queue.empty() &&
           it->second.slots_in_use < it->second.slots &&
           Take(it->second, library, hooks, out) > 0) {
    }
  }
  // The no-capacity memo: a request for which both a deploy and an evict
  // failed.  Within one pass room only shrinks (deploys and tasks claim;
  // removals arrive as later events), and so does the victim set, except
  // when a library's queue empties while it keeps an idle instance, which
  // clears the memo.  A later library with the same request would fail
  // both the same way, so skipping it changes no decision.
  std::optional<Resources> no_capacity;
  const auto serve = [&](const std::string& name, Library& library) {
    if (library.queue.empty()) return;
    ServeQueue(name, library, hooks, no_capacity, out);
    if (library.queue.empty() && !library.idle.empty()) no_capacity.reset();
  };
  // §3.5.2 evicts an empty library for the function that starves: the room
  // goes to that function first, ahead of spare-room expansion by whoever
  // sorts earlier.  Its own verdict decides whether it still wants the room.
  for (const Reservation& reservation : std::exchange(reserved_, {})) {
    auto it = libraries_.find(reservation.library);
    if (it != libraries_.end()) serve(it->first, it->second);
  }
  for (auto& [name, library] : libraries_) serve(name, library);
  return out;
}

void ControlCore::PlaceTasks(std::vector<Decision>& out) {
  // First-fit in FIFO order across shapes: the oldest head among the shapes
  // still in play goes next.  Within a pass room only shrinks, so a shape
  // that fits nowhere drops out, and its later tasks are not tried.
  std::vector<TaskShape*> live;
  for (TaskShape& shape : task_shapes_) live.push_back(&shape);
  while (!live.empty()) {
    const auto oldest = std::min_element(
        live.begin(), live.end(), [](const TaskShape* a, const TaskShape* b) {
          return a->queue.front().seq < b->queue.front().seq;
        });
    TaskShape& shape = **oldest;
    const TaskShape::Entry entry = shape.queue.front();
    const auto claim = ClaimFirstFit(entry.key, shape.request);
    if (claim) {
      claim->worker->tasks.emplace(entry.task, claim->claimed);
      shape.queue.pop_front();
      --queued_tasks_;
      Decision& place = out.emplace_back();
      place.kind = Decision::Kind::kTask;
      place.task = entry.task;
      place.worker = claim->id;
    }
    if (!claim || shape.queue.empty()) live.erase(oldest);
  }
  std::erase_if(task_shapes_,
                [](const TaskShape& shape) { return shape.queue.empty(); });
}

void ControlCore::ServeQueue(const std::string& name, Library& library,
                             const RouteHooks& hooks,
                             std::optional<Resources>& no_capacity,
                             std::vector<Decision>& out) {
  while (!library.queue.empty()) {
    if (DispatchOnce(library, hooks, out)) continue;
    if (no_capacity == library.resources) return;
    // No warm slot took the call: close the loop through the autoscaler.
    // A displacing deploy requires the per-instance backlog to cross the
    // steal threshold, so small backlogs drain through the affinity set.
    const AutoscaleSignal signal = Signal(library, /*with_room=*/true);
    if (DecideAutoscale(config_, signal) != AutoscaleAction::kDeploy)
      return;  // capacity is on the way
    if (signal.workers_with_room > 0 && Deploy(name, library, out)) continue;
    // No worker has room: reclaim an idle library of another function
    // (§3.5.2 empty-library eviction) and wait for the removal.
    if (!Evict(name, out) && capacity_memo_) no_capacity = library.resources;
    return;
  }
}

bool ControlCore::DispatchOnce(Library& library, const RouteHooks& hooks,
                               std::vector<Decision>& out) {
  if (library.free_slots == 0) return false;  // narrowing cannot add slots
  // Context affinity: the least-loaded ready instance, ties to the lowest
  // id — the first of `by_load`.  A narrowing hook sees them all in that
  // order; if the first it keeps is full, the call waits for it.
  LibraryInstanceId pick = library.by_load.begin()->second;
  if (hooks.narrow && library.ready > 1) {
    std::vector<LibraryInstanceId> candidates;
    for (const auto& [_, id] : library.by_load) candidates.push_back(id);
    hooks.narrow(library.queue.front(), candidates);
    if (candidates.empty()) return false;
    pick = candidates.front();
  }
  Instance& instance = instance_table_.at(pick);
  if (instance.slots_in_use == instance.slots) return false;
  return Take(instance, library, hooks, out) > 0;
}

std::size_t ControlCore::Take(Instance& instance, Library& library,
                              const RouteHooks& hooks,
                              std::vector<Decision>& out) {
  while (hooks.unrunnable && !library.queue.empty() &&
         hooks.unrunnable(library.queue.front()))
    library.queue.pop_front();
  const std::size_t take = std::min<std::size_t>(
      {library.queue.size(), instance.slots - instance.slots_in_use,
       kMaxBatch});
  if (take == 0) return 0;
  Decision decision;
  decision.instance = instance.id;
  decision.worker = instance.worker;
  Share(instance, library, -1);
  for (std::size_t i = 0; i < take; ++i) {
    decision.calls.push_back(library.queue.front());
    instance.running.insert(library.queue.front());
    library.queue.pop_front();
  }
  instance.slots_in_use += static_cast<std::uint32_t>(take);
  Share(instance, library, +1);
  out.push_back(std::move(decision));
  return take;
}

bool ControlCore::Deploy(const std::string& name, Library& library,
                         std::vector<Decision>& out) {
  const auto claim = ClaimFirstFit(library.ring_key, library.resources);
  if (!claim) return false;
  Instance instance;
  instance.id = next_instance_id_++;
  instance.library = name;
  instance.worker = claim->id;
  instance.claimed = claim->claimed;
  instance.slots = library.slots;
  Decision& deploy = out.emplace_back();
  deploy.kind = Decision::Kind::kDeploy;
  deploy.instance = instance.id;
  deploy.worker = claim->id;
  deploy.library = name;
  deploy.calls = {library.queue.front()};
  // Work stealing: recruiting a worker outside the warm affinity set while
  // the library already has warm instances elsewhere.
  deploy.steal =
      library.ready > 0 && !affinity_index_.Contains(name, claim->id);
  Account(instance, library, +1);
  library.instances.insert(instance.id);
  claim->worker->instances.insert(instance.id);
  instance_table_.emplace(instance.id, std::move(instance));
  return true;
}

bool ControlCore::Evict(const std::string& for_library,
                        std::vector<Decision>& out) {
  // Fig 11 eviction order: among idle instances of libraries with nothing
  // queued, one whose library's share value is below the floor first —
  // DecideAutoscale flags those (kEvict) — then the least served, then the
  // lowest id.  A proven library is only displaced when no poor one
  // remains, because evicting it destroys the amortization retention paid.
  Instance* victim = nullptr;
  std::tuple<bool, std::uint64_t, LibraryInstanceId> best;
  for (auto& [name, library] : libraries_) {
    if (name == for_library || library.idle.empty() || !library.queue.empty())
      continue;
    const bool preferred =
        DecideAutoscale(config_, Signal(library, /*with_room=*/false)) ==
        AutoscaleAction::kEvict;
    for (LibraryInstanceId id : library.idle) {
      Instance& instance = instance_table_.at(id);
      const auto key = std::make_tuple(!preferred, instance.served, id);
      if (victim == nullptr || key < best) {
        victim = &instance;
        best = key;
      }
    }
  }
  if (victim == nullptr) return false;
  Library& library = libraries_.at(victim->library);
  Account(*victim, library, -1);
  victim->state = InstanceState::kDraining;
  victim->evicted_for = for_library;
  Decision& evict = out.emplace_back();
  evict.kind = Decision::Kind::kEvict;
  evict.instance = victim->id;
  evict.worker = victim->worker;
  evict.library = victim->library;
  return true;
}

// ---------------------------------------------------------------------------
// Views and audit.
// ---------------------------------------------------------------------------

const ControlCore::Instance* ControlCore::FindInstance(
    LibraryInstanceId id) const {
  auto it = instance_table_.find(id);
  return it == instance_table_.end() ? nullptr : &it->second;
}

std::size_t ControlCore::PendingOn(WorkerId worker) const {
  auto it = workers_.find(worker);
  if (it == workers_.end()) return 0;
  return static_cast<std::size_t>(std::count_if(
      it->second.instances.begin(), it->second.instances.end(),
      [&](LibraryInstanceId id) {
        const InstanceState state = instance_table_.at(id).state;
        return state == InstanceState::kStaging ||
               state == InstanceState::kInstalling;
      }));
}

ControlCore::AuditReport ControlCore::Audit() const {
  AuditReport report;
  auto violate = [&](std::string what) {
    report.violations.push_back(std::move(what));
  };
  report.queued_tasks = queued_tasks_;
  if (queued_tasks_ != 0)
    violate(std::to_string(queued_tasks_) + " tasks still queued");
  for (const auto& [name, library] : libraries_) {
    report.queued_calls += library.queue.size();
    if (!library.queue.empty())
      violate("library " + name + " still has " +
              std::to_string(library.queue.size()) + " queued calls");
  }
  for (const Reservation& reservation : reserved_)
    violate("room on worker " + std::to_string(reservation.worker) +
            " still reserved for library " + reservation.library);

  // Instances may outlive the workload (retained context is the point),
  // but they must be settled: kReady, no running invocations, no claimed
  // slots.  Transitional states are reported so callers poll until the
  // removal or readiness lands.
  report.instances = instance_table_.size();
  std::map<std::string, Library> recount;
  std::map<WorkerId, Resources> claims;
  AffinityIndex expected_affinity;
  for (const auto& [id, instance] : instance_table_) {
    const std::string label =
        "instance " + instance.library + "#" + std::to_string(id);
    const std::size_t running = instance.running.size();
    report.running_invocations += running;
    if (running != 0)
      violate(label + " still has " + std::to_string(running) +
              " running invocations");
    if (instance.slots_in_use != running)
      violate(label + " slots_in_use=" +
              std::to_string(instance.slots_in_use) + " but " +
              std::to_string(running) + " running invocations");
    switch (instance.state) {
      case InstanceState::kStaging:
        violate(label + " still staging");
        break;
      case InstanceState::kInstalling:
        violate(label + " still installing");
        break;
      case InstanceState::kDraining:
        violate(label + " still draining");
        ++report.active;
        break;
      case InstanceState::kReady:
        expected_affinity.Add(instance.library, instance.worker);
        ++report.active;
        break;
    }
    auto worker_it = workers_.find(instance.worker);
    if (worker_it == workers_.end() ||
        !worker_it->second.instances.contains(id))
      violate(label + " not linked to worker " +
              std::to_string(instance.worker));
    Share(instance, recount[instance.library], +1);
    Resources& claim =
        claims.try_emplace(instance.worker, Resources{0, 0, 0}).first->second;
    claim.cores += instance.claimed.cores;
    claim.memory_mb += instance.claimed.memory_mb;
    claim.disk_mb += instance.claimed.disk_mb;
  }
  const auto sums = [](const Library& l) {
    return std::tie(l.ready, l.pending, l.free_slots, l.pending_slots,
                    l.served, l.idle, l.by_load);
  };
  for (const auto& [name, library] : libraries_)
    if (sums(library) != sums(recount[name]))
      violate("library " + name + " sums disagree with its instances");

  // Affinity sets must equal what the instance table implies: exactly one
  // entry per kReady instance, keyed by its (library, worker).  A stale
  // entry (e.g. left behind by a worker death) would route invocations at
  // vanished context; a missing one hides warm capacity.
  for (const auto& [library, workers] : affinity_index_.table()) {
    report.affinity_entries += workers.size();
    const AffinityIndex::WorkerCounts* expected =
        expected_affinity.Get(library);
    for (const auto& [worker, count] : workers) {
      std::uint32_t expected_count = 0;
      if (expected != nullptr && expected->contains(worker))
        expected_count = expected->at(worker);
      if (expected_count == 0)
        violate("stale affinity entry: " + library + " -> worker " +
                std::to_string(worker) + " (no ready instance there)");
      else if (expected_count != count)
        violate("affinity count for " + library + " on worker " +
                std::to_string(worker) + " = " + std::to_string(count) +
                " but " + std::to_string(expected_count) +
                " ready instances");
    }
  }
  for (const auto& [library, workers] : expected_affinity.table())
    for (const auto& [worker, count] : workers) {
      report.warm += count;
      if (!affinity_index_.Contains(library, worker))
        violate("missing affinity entry: " + library + " -> worker " +
                std::to_string(worker));
    }
  if (warm_ != report.warm)
    violate("warm-instance count = " + std::to_string(warm_) + " but " +
            std::to_string(report.warm) + " ready instances");

  // Per-worker accounting: the membership sets must be mirrored by the
  // instance table, the recorded claims must exactly explain the
  // allocator's non-free resources, and the summary must be their free room.
  FreeRoom room;
  for (const auto& [worker_id, worker] : workers_) {
    room.Count(worker.alloc, +1);
    const std::string label = "worker " + std::to_string(worker_id);
    for (LibraryInstanceId inst_id : worker.instances)
      if (!instance_table_.contains(inst_id))
        violate(label + " lists unknown instance " + std::to_string(inst_id));
    Resources claimed = claims.try_emplace(worker_id, Resources{0, 0, 0})
                            .first->second;
    for (const auto& [_, task] : worker.tasks) {
      claimed.cores += task.cores;
      claimed.memory_mb += task.memory_mb;
      claimed.disk_mb += task.disk_mb;
    }
    const Resources total = worker.alloc.total();
    const Resources expected_free{total.cores - claimed.cores,
                                  total.memory_mb - claimed.memory_mb,
                                  total.disk_mb - claimed.disk_mb};
    if (claimed.cores > total.cores || claimed.memory_mb > total.memory_mb ||
        claimed.disk_mb > total.disk_mb) {
      violate(label + " oversubscribed: claims " + claimed.ToString() +
              " of " + total.ToString());
    } else if (!(worker.alloc.free() == expected_free)) {
      violate(label + " allocator free=" + worker.alloc.free().ToString() +
              " but recorded claims imply " + expected_free.ToString());
    }
  }
  if (room.workers != room_.workers)
    violate("free-room summary disagrees with the workers' allocators");
  return report;
}

}  // namespace vinelet::core
