#include "sim/simulator.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dowork {

const Round& never_round() {
  // All-ones 512-bit value: larger than any reachable round (Protocol C's
  // promoted deadlines included).  Built once and returned by reference:
  // comparing against it is a null-tag check, and only callers that *store*
  // it pay for cloning the promoted representation.
  static const Round never = [] {
    BigUint all_ones;
    for (int i = 0; i < 512; ++i) all_ones += BigUint::pow2(static_cast<unsigned>(i));
    return Round(all_ones);
  }();
  return never;
}

namespace {

const Round& never() { return never_round(); }

}  // namespace

Simulator::Simulator(std::vector<std::unique_ptr<IProcess>> processes,
                     std::unique_ptr<FaultInjector> faults, Options options)
    : procs_(std::move(processes)),
      faults_(std::move(faults)),
      opt_(std::move(options)),
      net_model_(opt_.net),
      net_rng_(opt_.net.seed) {
  // The two-tier Round exists so promoted-tier entries stay this small; 3
  // per cache line instead of the 72 bytes the flat 512-bit representation
  // cost.
  static_assert(sizeof(WakeEntry) <= 24);
  const std::size_t t = procs_.size();
  state_.assign(t, ProcState::kAlive);
  alive_ = static_cast<int>(t);
  mail_bits_ = DynBitset(t);
  wake_.assign(t, Round{});
  queued_.assign(t, 0);
  head_.fill(-1);
  next_.assign(t, -1);
  prev_.assign(t, -1);
  bucket_.assign(t, kUnqueued);
  metrics_.work_by_proc.assign(t, 0);
  metrics_.messages_by_proc.assign(t, 0);
  metrics_.unit_multiplicity.assign(static_cast<std::size_t>(opt_.n_units), 0);
}

void Simulator::retire(std::size_t p, ProcState to) {
  state_[p] = to;
  --alive_;
  dequeue(p);
}

void Simulator::link(std::size_t p, std::uint8_t b) {
  const std::int32_t h = head_[b];
  next_[p] = h;
  prev_[p] = -1;
  if (h >= 0) prev_[static_cast<std::size_t>(h)] = static_cast<std::int32_t>(p);
  head_[b] = static_cast<std::int32_t>(p);
  bucket_[p] = b;
}

void Simulator::dequeue(std::size_t p) {
  const std::uint8_t b = bucket_[p];
  if (b == kUnqueued) return;
  bucket_[p] = kUnqueued;
  if (b == kPromoted) return;  // its heap entry is dead from here on
  const std::int32_t n = next_[p];
  const std::int32_t pv = prev_[p];
  if (pv >= 0)
    next_[static_cast<std::size_t>(pv)] = n;
  else
    head_[b] = n;
  if (n >= 0) prev_[static_cast<std::size_t>(n)] = pv;
}

void Simulator::reschedule(std::size_t p, const Round& now) {
  Round w = procs_[p]->next_wake(now);
  if (!(now < w)) {
    // Fast path for the overwhelmingly common answer "step me again next
    // round" (every active process): a plain list instead of the calendar.
    // An answer in the past means the same (a process may not schedule
    // itself there).  wake_[p] is left as it was: p is queued in no tier.
    dequeue(p);
    if (!queued_[p]) {
      queued_[p] = 1;
      next_step_.push_back(static_cast<int>(p));
    }
    return;
  }
  if (w.fits_u64()) {
    // w > now >= floor_.  A deadline re-armed within its bucket (a passive
    // Protocol B process re-arms on every checkpoint it receives) is just
    // the cache write.
    const std::uint8_t b = bucket_of(w.to_u64_saturating());
    if (bucket_[p] != b) {
      dequeue(p);
      link(p, b);
    }
  } else if (w == never()) {
    dequeue(p);  // purely reactive from here on: mail-only
    return;
  } else if (bucket_[p] != kPromoted || w < wake_[p]) {
    // p's live promoted entries are lower bounds on its wake, so one
    // re-armed later pushes nothing; peek_promoted re-keys it at the top.
    dequeue(p);
    promoted_.push_back(WakeEntry{w, static_cast<int>(p)});
    std::push_heap(promoted_.begin(), promoted_.end(), WakeLater{});
    bucket_[p] = kPromoted;
  }
  wake_[p] = std::move(w);
}

void Simulator::pop_due(const Round& r) {
  auto enqueue = [this](std::size_t p) {
    if (!queued_[p]) {
      queued_[p] = 1;
      step_list_.push_back(static_cast<int>(p));
    }
  };
  if (!r.fits_u64()) {
    // Past 2^64 every queued wake is promoted (each is >= r).
    while (const Round* w = peek_promoted()) {
      if (*w > r) return;
      const std::size_t p = static_cast<std::size_t>(promoted_.front().proc);
      std::pop_heap(promoted_.begin(), promoted_.end(), WakeLater{});
      promoted_.pop_back();
      bucket_[p] = kUnqueued;
      enqueue(p);
    }
    return;
  }
  const std::uint64_t now = r.to_u64_saturating();
  if (now != floor_) {
    // Rebase.  A bucket above the one r falls in keeps every member (they
    // share r's bits above their own); buckets below it hold only wakes
    // < r, which cannot exist.  So only r's bucket is redistributed, each
    // member into a strictly lower bucket relative to the new floor.
    const std::uint8_t h = bucket_of(now);
    std::int32_t q = head_[h];
    head_[h] = -1;
    floor_ = now;
    while (q >= 0) {
      const std::size_t p = static_cast<std::size_t>(q);
      q = next_[p];
      link(p, bucket_of(wake_[p].to_u64_saturating()));
    }
  }
  for (std::int32_t q = head_[0]; q >= 0; q = next_[static_cast<std::size_t>(q)]) {
    bucket_[static_cast<std::size_t>(q)] = kUnqueued;
    enqueue(static_cast<std::size_t>(q));
  }
  head_[0] = -1;
}

const Round* Simulator::peek_min_wake() {
  for (int b = 0; b < kBuckets; ++b) {
    std::int32_t q = head_[b];
    if (q < 0) continue;
    // Bucket ranges ascend, so the first non-empty bucket holds the
    // minimum; a fast-forward is rare enough to scan it.
    std::size_t best = static_cast<std::size_t>(q);
    for (q = next_[best]; q >= 0; q = next_[static_cast<std::size_t>(q)])
      if (wake_[static_cast<std::size_t>(q)] < wake_[best]) best = static_cast<std::size_t>(q);
    return &wake_[best];
  }
  return peek_promoted();
}

const Round* Simulator::peek_promoted() {
  while (!promoted_.empty()) {
    const WakeEntry& top = promoted_.front();
    const std::size_t p = static_cast<std::size_t>(top.proc);
    if (bucket_[p] == kPromoted) {
      const std::strong_ordering vs_wake = top.wake <=> wake_[p];
      if (vs_wake == 0) return &top.wake;
      if (vs_wake < 0) {
        // A lower bound below the cached wake: re-key it once, in place.
        std::pop_heap(promoted_.begin(), promoted_.end(), WakeLater{});
        promoted_.back().wake = wake_[p];
        std::push_heap(promoted_.begin(), promoted_.end(), WakeLater{});
        continue;
      }
    }
    std::pop_heap(promoted_.begin(), promoted_.end(), WakeLater{});
    promoted_.pop_back();
  }
  return nullptr;
}

void Simulator::validate_strict(int proc, const Action& a) const {
  // One op per round: a work unit or one broadcast (a common payload), with
  // poll replies exempt.
  std::size_t protocol_sends = 0;
  const Payload* payload = nullptr;
  bool mixed_payload = false;
  for (const Outgoing& o : a.sends) {
    if (o.kind == MsgKind::kPollReply) continue;
    protocol_sends += o.to.size();
    if (payload == nullptr) payload = o.payload.get();
    else if (payload != o.payload.get()) mixed_payload = true;
  }
  if (a.work && protocol_sends > 0)
    throw std::logic_error("strict mode: process " + std::to_string(proc) +
                           " performed work and sent messages in one round");
  if (mixed_payload)
    throw std::logic_error("strict mode: process " + std::to_string(proc) +
                           " emitted more than one broadcast in one round");
}

Action Simulator::eval_one(std::size_t p, const Round& r) {
  // stepped_rounds changes only on run()'s thread after step_round returns,
  // so an executor's workers read a stable value.
  RoundContext ctx{r, static_cast<int>(p), metrics_.stepped_rounds + 1};
  const bool has_mail = mail_bits_.test(p);
  InboxView inbox(arriving_, static_cast<int>(p), has_mail);
  return procs_[p]->on_round(ctx, inbox);
}

Action Simulator::eval_step(int proc) {
  // Executor entry point: everything this reads (cur_round_, the arriving
  // ledger, the process object) is a member of this Simulator, never a
  // per-round stack frame, so a worker thread that starts late -- even
  // after a watchdog abort unwound run() -- evaluates against live storage.
  return eval_one(static_cast<std::size_t>(proc), cur_round_);
}

void Simulator::commit_step(std::size_t p, const Round& r, Action a) {
  // An idle action (a passive A/B process recording a checkpoint, say) has
  // nothing to commit, and decision point 3 (fault_injector.h) returns a
  // plan only for a non-idle one: it commits as the reschedule alone.
  if (a.idle()) {
    reschedule(p, next_round_);
    return;
  }
  if (opt_.strict_one_op) validate_strict(static_cast<int>(p), a);

  SimSnapshot snap{static_cast<int>(procs_.size()), alive_, static_cast<int>(metrics_.crashes)};
  std::optional<CrashPlan> plan = faults_->inspect(static_cast<int>(p), r, a, snap);
  if (plan && snap.alive <= 1) plan.reset();  // the last survivor never crashes

  const bool work_done = a.work && (!plan || plan->work_completes);
  if (work_done) {
    ++metrics_.work_total;
    ++metrics_.work_by_proc[p];
    if (*a.work >= 1 && *a.work <= opt_.n_units) {
      std::uint32_t& mult = metrics_.unit_multiplicity[static_cast<std::size_t>(*a.work - 1)];
      // Like Round, a count that cannot be represented fails loudly.
      if (mult == std::numeric_limits<std::uint32_t>::max())
        throw std::overflow_error("unit_multiplicity: unit " + std::to_string(*a.work) +
                                  " performed more than 2^32 - 1 times");
      ++mult;
    }
    if (work_sink_) work_sink_(static_cast<int>(p), *a.work, r);
  }

  // Commit the action's sends to the round ledger: one record per send, the
  // audience truncated to the crash plan's prefix of the *flattened*
  // message sequence (sends in vector order, each audience in ascending id
  // order -- exactly what the per-pair delivery enumerated).  Sends to
  // already-retired processes still count (they were emitted); delivery
  // re-checks recipient state next round.  The payload and audience
  // references are moved, never copied: a broadcast costs one record
  // regardless of fan-out.
  const std::size_t total = a.total_recipients();
  const std::size_t deliver = plan ? std::min(plan->deliver_prefix, total) : total;
  std::size_t remaining = deliver;
  for (Outgoing& o : a.sends) {
    if (remaining == 0) break;
    const std::size_t fanout = o.to.size();
    const std::size_t cut = std::min(fanout, remaining);
    remaining -= cut;
    if (cut == 0) continue;
    if (!o.to.within(static_cast<int>(procs_.size())))
      throw std::logic_error("send to nonexistent process " + std::to_string(o.to.lowest()));
    metrics_.messages_by_kind[static_cast<std::size_t>(o.kind)] += cut;
    DeliveryRecord rec{static_cast<int>(p), o.kind, cut, std::move(o.to), std::move(o.payload), r};
    if (net_active_)
      commit_record(std::move(rec), r);
    else
      ledger_.push_back(std::move(rec));
  }
  // Totals bumped arithmetically: a t-recipient broadcast is one add.
  metrics_.messages_total += deliver;
  metrics_.messages_by_proc[p] += deliver;

  if (plan) {
    retire(p, ProcState::kCrashed);
    ++metrics_.crashes;
    metrics_.crashed_procs.push_back(static_cast<int>(p));
    // Classify the kill point (metrics.h documents the taxonomy) for the
    // census and for the executor: the socket substrate stops the worker
    // process where the adversary's plan cut the execution.
    KillPoint kp = KillPoint::kRoundBarrier;
    if (total > 0) kp = deliver < total ? KillPoint::kMidBroadcast : KillPoint::kSendCommit;
    metrics_.kills.count(kp);
    if (executor_ != nullptr) executor_->on_retire(static_cast<int>(p), ProcState::kCrashed, kp);
  } else if (a.terminate) {
    retire(p, ProcState::kTerminated);
    ++metrics_.terminated;
    if (std::optional<std::int64_t> d = procs_[p]->decision()) {
      if (metrics_.decisions.empty()) metrics_.decisions.resize(procs_.size());
      metrics_.decisions[p] = d;
    }
    if (executor_ != nullptr)
      executor_->on_retire(static_cast<int>(p), ProcState::kTerminated, KillPoint::kNone);
  } else {
    reschedule(p, next_round_);
  }
}

void Simulator::commit_record(DeliveryRecord rec, const Round& r) {
  // Decision order per network_model.h: adversary hook, partition filter,
  // loss draws, latency draw.  Emission accounting already happened in
  // commit_step -- the network eats deliveries, not the sender's bill.
  std::uint64_t extra_delay = 0;
  const std::size_t members = std::min(rec.cut, rec.to.size());
  if (wants_msg_faults_) {
    if (std::optional<MessageFault> f = faults_->on_message(rec.from, r, rec)) {
      if (f->drop) {
        metrics_.net_dropped += members;
        return;
      }
      extra_delay = f->delay;
    }
  }
  if (net_model_.has_partitions() || net_model_.has_drop()) {
    // Filter the crash-cut audience prefix down to the recipients the
    // network lets through.  Severed links are deterministic and consume no
    // randomness; each surviving link costs one loss draw, in ascending id
    // order.  Any loss turns the record's audience into one fresh bitset --
    // the single audience edit the delivery plane was built for.
    const std::uint64_t now = r.to_u64_saturating();
    DynBitset survivors(procs_.size());
    std::size_t kept = 0;
    bool lost_any = false;
    rec.to.for_each_prefix(members, [&](int id) {
      if (net_model_.has_partitions() && net_model_.severed(rec.from, id, now)) {
        ++metrics_.net_blocked;
        lost_any = true;
        return;
      }
      if (net_model_.has_drop() && net_model_.drops(net_rng_)) {
        ++metrics_.net_dropped;
        lost_any = true;
        return;
      }
      survivors.set(static_cast<std::size_t>(id));
      ++kept;
    });
    if (kept == 0) return;
    if (lost_any) {
      rec.to = RecipientSet(share_bits(std::move(survivors)));
      rec.cut = kept;
    }
  }
  if (net_model_.has_latency()) extra_delay += net_model_.delay(net_rng_);
  if (extra_delay == 0) {
    ledger_.push_back(std::move(rec));
    return;
  }
  ++metrics_.net_delayed;
  Round due = r + Round{extra_delay + 1};  // normal delivery is r + 1
  future_[std::move(due)].push_back(std::move(rec));
}

void Simulator::step_round(const Round& r) {
  const std::uint64_t workers_before = metrics_.work_total;
  // r + 1, for reschedule: one add per round, not per step, and in place --
  // a promoted round reuses next_round_'s block instead of building r + 1
  // anew.  Until it is set, next_round_ still holds the round stepped last,
  // which run() reports if an executor aborts this round.
  auto advance = [this, &r] {
    next_round_ = r;
    next_round_ += 1;
  };
  if (executor_ != nullptr) {
    // Executor path: hand the alive step subset to the executor for the
    // evaluation phase (possibly concurrent, possibly aborted by its
    // watchdog), then commit on this thread in the order it returned.
    // Nothing observable happens between an on_round return and its commit
    // in the serial path, so "evaluate all, then commit in ascending id
    // order" is byte-identical to the in-place loop below -- provided the
    // adversary cannot see an evaluated process before its commit, which is
    // why each step's announced progress is held from before evaluation.
    live_steps_.clear();
    if (held_progress_.empty()) held_progress_.assign(procs_.size(), kNotHeld);
    for (int p : step_list_) {
      const std::size_t sp = static_cast<std::size_t>(p);
      queued_[sp] = 0;
      if (state_[sp] != ProcState::kAlive) continue;
      live_steps_.push_back(p);
      held_progress_[sp] = procs_[sp]->known_done_units();
    }
    ready_.clear();
    if (!live_steps_.empty())
      executor_->run_steps(*this, r, live_steps_, ready_);  // may throw AbortRun
    advance();
    for (StepExecutor::Ready& rd : ready_) {
      held_progress_[static_cast<std::size_t>(rd.proc)] = kNotHeld;
      commit_step(static_cast<std::size_t>(rd.proc), r, std::move(rd.action));
    }
    metrics_.max_concurrent_workers =
        std::max(metrics_.max_concurrent_workers, metrics_.work_total - workers_before);
    step_list_.clear();
    return;
  }
  advance();
  for (int p : step_list_) {
    queued_[static_cast<std::size_t>(p)] = 0;
    if (state_[static_cast<std::size_t>(p)] != ProcState::kAlive) continue;
    commit_step(static_cast<std::size_t>(p), r, eval_one(static_cast<std::size_t>(p), r));
  }
  // All steps of a round are independent (sends land next round), so the
  // concurrent-worker count is simply the work performed this round.
  metrics_.max_concurrent_workers =
      std::max(metrics_.max_concurrent_workers, metrics_.work_total - workers_before);
  step_list_.clear();
}

RunMetrics Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run called twice");
  ran_ = true;

  // Crash-decision point 1: hand adaptive injectors the committed-state
  // view before anything happens (a no-op for the scripted injectors).
  faults_->attach(*this);
  // The network delivery path is opted into once per run: by a non-noop
  // network model, or by an injector that faults messages (decision point
  // 4).  Everything else runs the crash-only path untouched.
  wants_msg_faults_ = faults_->wants_message_faults();
  net_active_ = wants_msg_faults_ || !net_model_.is_noop();

  // Seed the wake cache: every process is asked once, up front, when it
  // first wants to run; from here on next_wake is re-queried only after a
  // step (the monotonicity contract in process.h makes the cache exact).
  for (std::size_t p = 0; p < procs_.size(); ++p) reschedule(p, Round{0});

  // The loop steps cur_round_ itself, starting at round 0.
  while (true) {
    // Terminate when every process has retired.  At these two exits the
    // round stepped last sits in next_round_ (the advance below swapped it
    // out), as it does when an executor aborts a round.
    if (alive_ == 0) {
      metrics_.all_retired = true;
      metrics_.last_retire_round = std::move(next_round_);
      break;
    }
    if (metrics_.stepped_rounds >= opt_.max_stepped_rounds) {
      metrics_.hit_round_cap = true;
      metrics_.last_retire_round = std::move(next_round_);
      break;
    }

    // Processes that asked to run again this round were queued by
    // reschedule's fast path last round (their queued_ flags are still set).
    step_list_.swap(next_step_);

    // Deliver messages sent last stepped round (they were addressed to the
    // round immediately after their send round; fast-forward never skips
    // past deliveries because we only jump when the ledger is empty).  The
    // ledger swap reuses both buffers' capacity round over round; the
    // records stay readable (through InboxView) for this whole round.
    arriving_.swap(ledger_);
    ledger_.clear();
    if (net_active_) {
      // Latency-held records due exactly now join the ledger's records,
      // each carrying its own sent round.  (Delivery rounds are never
      // skipped: the loop advances one round at a time and fast-forward
      // clamps its jump to the earliest due bucket.)
      for (auto it = future_.begin(); it != future_.end() && it->first == cur_round_;) {
        std::move(it->second.begin(), it->second.end(), std::back_inserter(arriving_));
        it = future_.erase(it);
      }
    }
    // The mail mask is only touched when there is mail: work-heavy rounds
    // with an empty ledger (most of Protocol A/B's rounds) skip the
    // O(t/64) clear and scan entirely.
    if (mail_dirty_) {
      mail_bits_.reset_all();
      mail_dirty_ = false;
    }
    if (!arriving_.empty()) {
      mail_dirty_ = true;
      for (const DeliveryRecord& rec : arriving_) rec.to.mark_prefix(mail_bits_, rec.cut);
      // Live recipients of mail join the step list (in ascending id order,
      // as bitset iteration yields them; dead recipients' mail is dropped
      // here, exactly as per-pair delivery dropped their envelopes).
      for (std::size_t p = mail_bits_.find_next(0); p < mail_bits_.size();
           p = mail_bits_.find_next(p + 1)) {
        if (state_[p] != ProcState::kAlive) continue;
        if (!queued_[p]) {
          queued_[p] = 1;
          step_list_.push_back(static_cast<int>(p));
        }
      }
    }

    // Processes whose wake time arrived join the recipients of mail.
    pop_due(cur_round_);
    // Steps must run in ascending id order (the round contract).  The list
    // is usually already sorted -- next_step_ fills in step order, mail in
    // ascending id order -- so check before paying for a sort.
    if (!std::is_sorted(step_list_.begin(), step_list_.end()))
      std::sort(step_list_.begin(), step_list_.end());

    // The u64 sum is folded early only if it would overflow, which takes
    // far more stepped rounds than any cap allows in practice.
    const std::uint64_t alive = static_cast<std::uint64_t>(alive_);
    if (stepped_alive_ > std::numeric_limits<std::uint64_t>::max() - alive) [[unlikely]] {
      metrics_.available_processor_steps += Round{stepped_alive_};
      stepped_alive_ = 0;
    }
    stepped_alive_ += alive;
    // Crash-decision point 2: the round is about to step (delivery is done).
    faults_->on_round_start(cur_round_);
    try {
      step_round(cur_round_);
    } catch (AbortRun& abort) {
      // Structured degradation (an executor's watchdog): record
      // the reason and return normally with partial metrics -- the verifier
      // turns it into a violation, never a hang or a crash.  Executors
      // throw before handing back any step, so the aborted round committed
      // nothing.
      metrics_.aborted = true;
      metrics_.aborted_reason = std::move(abort.reason);
      metrics_.abort_detail = std::move(abort.detail);
      metrics_.last_retire_round = std::move(next_round_);
      break;
    }
    ++metrics_.stepped_rounds;

    if (alive_ == 0) {
      metrics_.all_retired = true;
      metrics_.last_retire_round = cur_round_;
      break;
    }

    // step_round left the stepped round + 1 in next_round_: swapping it in
    // advances without an add.
    if (!ledger_.empty() || !next_step_.empty()) {
      std::swap(cur_round_, next_round_);
      continue;
    }
    // Fast-forward: jump to the earliest wake time over live processes.
    // Every live cached wake is > cur_round_ here (the due set was popped
    // above and next-round steppers were just checked), so peek_min_wake is
    // the exact minimum the old per-process scan computed.  Arithmetic runs
    // in place on cur_round_ / one gap temporary: with Protocol C's promoted
    // round numbers a by-value formulation cost three heap clones per jump.
    // With the network plane live, a latency-held record is as good as a
    // timer: the jump clamps to the earliest due bucket, and pending records
    // mean the run is not deadlocked.
    const Round* min_wake = peek_min_wake();
    if (!future_.empty()) {
      const Round& min_due = future_.begin()->first;
      if (min_wake == nullptr || min_due < *min_wake) min_wake = &min_due;
    }
    if (min_wake == nullptr) {
      metrics_.deadlocked = true;  // live processes, no mail, no timers
      metrics_.last_retire_round = cur_round_;
      break;
    }
    std::swap(cur_round_, next_round_);  // the round after the one just stepped is the floor
    if (*min_wake > cur_round_) {
      ++metrics_.fast_forward_jumps;
      // Idle processes are charged by the available-processor-steps measure
      // even across fast-forwarded stretches.  The stepped rounds' u64 sum
      // rides along, so a jump is the only promoted add.
      Round gap = *min_wake;
      gap -= cur_round_;
      gap *= static_cast<std::uint64_t>(alive_);
      gap += Round{stepped_alive_};
      stepped_alive_ = 0;
      metrics_.available_processor_steps += gap;
      cur_round_ = *min_wake;
    }
  }
  metrics_.available_processor_steps += Round{stepped_alive_};
  return metrics_;
}

RunMetrics run_simulation(std::vector<std::unique_ptr<IProcess>> processes,
                          std::unique_ptr<FaultInjector> faults, Simulator::Options options,
                          Simulator::WorkSink sink) {
  Simulator sim(std::move(processes), std::move(faults), options);
  if (sink) sim.set_work_sink(std::move(sink));
  return sim.run();
}

}  // namespace dowork
