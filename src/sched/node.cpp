#include "dsrt/sched/node.hpp"

#include <stdexcept>
#include <utility>

namespace dsrt::sched {

namespace {

int class_rank(core::PriorityClass priority) {
  // Elevated (Globals First) jobs always dispatch before Normal jobs.
  return priority == core::PriorityClass::Elevated ? 0 : 1;
}

}  // namespace

Node::Node(core::NodeId id, sim::Simulator& sim, PolicyPtr policy,
           AbortPolicyPtr abort_policy, PreemptionMode preemption)
    : id_(id),
      sim_(sim),
      policy_(std::move(policy)),
      abort_policy_(std::move(abort_policy)),
      preemption_(preemption),
      busy_signal_(sim.now(), 0),
      queue_signal_(sim.now(), 0) {
  if (!policy_) throw std::invalid_argument("Node: null policy");
  if (!abort_policy_) throw std::invalid_argument("Node: null abort policy");
  policy_is_edf_ =
      dynamic_cast<const EarliestDeadlineFirst*>(policy_.get()) != nullptr;
  abort_is_none_ = dynamic_cast<const NoAbort*>(abort_policy_.get()) != nullptr;
}

void Node::set_completion_handler(CompletionHandler handler) {
  handler_ = std::move(handler);
}

void Node::dispose(const Job& job, JobOutcome outcome) {
  if (delegate_) {
    delegate_(delegate_ctx_, job, sim_.now(), outcome);
    return;
  }
  if (handler_) handler_(job, sim_.now(), outcome);
}

Node::QueueKey Node::key_for(const Job& job) {
  const double key = policy_is_edf_ ? job.deadline : policy_->key(job);
  return {{class_rank(job.priority), key}, arrival_seq_++};
}

void Node::submit(Job job) {
  ++submitted_;
  if (!up_) {
    // Fail fast: a down node takes no work. The job never touches the
    // queue or the load account, so the synchronous Failed disposal is the
    // only trace it leaves — the process manager's retry path picks it up
    // through its re-entrant disposal queue.
    ++failed_;
    job.release = sim_.now();
    dispose(job, JobOutcome::Failed);
    return;
  }
  job.release = sim_.now();
  if (job.remaining <= 0) job.remaining = job.exec;
  if (load_) load_->add_backlog(job.pex);
  QueueKey key = key_for(job);
  if (!in_service_) {
    // Submitting to an idle server is a dispatch instant, so the abort
    // policy screens here as well.
    if (!abort_is_none_ && abort_policy_->should_abort(job, sim_.now())) {
      ++aborted_;
      if (load_) load_->remove_backlog(job.pex);
      dispose(job, JobOutcome::Aborted);
      dispatch_next();  // an aborted arrival may still free a queued job
      return;
    }
    start_service(std::move(job), key);
    return;
  }
  if (preemption_ == PreemptionMode::Preemptive &&
      QueueOrder{}(key, in_service_key_)) {
    // The newcomer outranks the job in service: suspend it with its
    // remaining demand and give the server to the newcomer.
    Job suspended = std::move(*in_service_);
    in_service_.reset();
    ++service_token_;  // invalidate the scheduled completion event
    suspended.remaining -= sim_.now() - service_started_;
    if (suspended.remaining < 0) suspended.remaining = 0;
    ++preemptions_;
    enqueue(std::move(suspended), in_service_key_);
    start_service(std::move(job), key);
    return;
  }
  enqueue(std::move(job), key);
}

void Node::enqueue(Job job, QueueKey key) {
  // Sift up with a hole: parents shift down until the insertion slot is
  // found, so the new entry is materialized exactly once.
  std::size_t i = queue_.size();
  queue_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!QueueOrder{}(key, queue_[parent].key)) break;
    queue_[i] = std::move(queue_[parent]);
    i = parent;
  }
  queue_[i].key = key;
  queue_[i].job = std::move(job);
  if (queue_.size() > max_queue_) max_queue_ = queue_.size();
  queue_signal_.update(sim_.now(), static_cast<double>(queue_.size()));
  if (load_) load_->set_queue_length(queue_.size());
}

Node::ReadyEntry Node::pop_ready() {
  ReadyEntry top = std::move(queue_.front());
  ReadyEntry last = std::move(queue_.back());
  queue_.pop_back();
  const std::size_t n = queue_.size();
  if (n > 0) {
    // Sift down with a hole: pull the better child up until `last` (the
    // displaced tail entry) finds its slot.
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n &&
          QueueOrder{}(queue_[child + 1].key, queue_[child].key))
        ++child;
      if (!QueueOrder{}(queue_[child].key, last.key)) break;
      queue_[i] = std::move(queue_[child]);
      i = child;
    }
    queue_[i] = std::move(last);
  }
  return top;
}

void Node::start_service(Job job, QueueKey key) {
  in_service_ = std::move(job);
  in_service_key_ = key;
  service_started_ = sim_.now();
  busy_signal_.update(sim_.now(), 1);
  if (load_) load_->set_busy(sim_.now(), true);
  const std::uint64_t token = ++service_token_;
  sim_.in(in_service_->remaining,
          [this, token] { on_service_complete(token); });
}

void Node::on_service_complete(std::uint64_t service_token) {
  if (service_token != service_token_ || !in_service_) return;  // stale
  Job done = std::move(*in_service_);
  in_service_.reset();
  busy_signal_.update(sim_.now(), 0);
  done.remaining = 0;
  ++completed_;
  if (load_) {
    load_->remove_backlog(done.pex);
    load_->set_busy(sim_.now(), false);
  }
  dispose(done, JobOutcome::Completed);
  dispatch_next();
}

void Node::dispatch_next() {
  while (!in_service_ && !queue_.empty()) {
    ReadyEntry entry = pop_ready();
    const QueueKey key = entry.key;
    Job job = std::move(entry.job);
    queue_signal_.update(sim_.now(), static_cast<double>(queue_.size()));
    if (load_) load_->set_queue_length(queue_.size());
    if (!abort_is_none_ && abort_policy_->should_abort(job, sim_.now())) {
      ++aborted_;
      if (load_) load_->remove_backlog(job.pex);
      dispose(job, JobOutcome::Aborted);
      continue;  // keep draining until a servable job is found
    }
    start_service(std::move(job), key);
  }
  if (!in_service_) {
    busy_signal_.update(sim_.now(), 0);
    if (load_) load_->set_busy(sim_.now(), false);
  }
}

void Node::fail(sim::Time now) {
  if (!up_) return;
  up_ = false;  // set first so re-entrant submits fail fast
  if (in_service_) {
    Job victim = std::move(*in_service_);
    in_service_.reset();
    ++service_token_;  // the scheduled completion event becomes a stale no-op
    busy_signal_.update(now, 0);
    ++failed_;
    if (load_) {
      load_->remove_backlog(victim.pex);
      load_->set_busy(now, false);
    }
    dispose(victim, JobOutcome::Failed);
  }
  // Drain the ready queue in dispatch order so the disposal sequence — and
  // everything downstream of it (retry placement draws) — is deterministic.
  while (!queue_.empty()) {
    Job victim = std::move(pop_ready().job);
    ++failed_;
    if (load_) load_->remove_backlog(victim.pex);
    dispose(victim, JobOutcome::Failed);
  }
  queue_signal_.update(now, 0);
  if (load_) {
    load_->set_queue_length(0);
    load_->set_down(true);
  }
}

void Node::recover(sim::Time now) {
  if (up_) return;
  up_ = true;
  busy_signal_.update(now, 0);
  queue_signal_.update(now, 0);
  if (load_) load_->set_down(false);
}

void Node::reset_observation(sim::Time now) {
  busy_signal_.reset(now);
  busy_signal_.update(now, in_service_ ? 1 : 0);
  queue_signal_.reset(now);
  queue_signal_.update(now, static_cast<double>(queue_.size()));
}

}  // namespace dsrt::sched
