//! The parallel hub: a reactor executor that serves many logical shards
//! on a pool of worker threads, with a non-blocking publish path.
//!
//! [`Hub`](crate::session::Hub) fans every published object out to every
//! registered query *in the caller's thread*: one slow subscription
//! stalls the whole ingestion path, and throughput is capped at a single
//! core. [`AsyncHub`] is the parallel counterpart, in the executor shape
//! the web-scale continuous top-k literature assumes — many logical
//! partitions multiplexed onto a small worker pool with batched wakeups.
//! `AsyncHub::new(n, n)` gives every shard its own worker;
//! `AsyncHub::new(many, few)` serves thousands of partitions without a
//! thread each:
//!
//! * registered queries are **partitioned across logical shards** by a
//!   hash of their [`QueryId`]. Every shard is a `Slot`: a bounded command
//!   queue plus the same `Registry` the sequential
//!   [`Hub`](crate::session::Hub) runs, applied through one interpreter
//!   (`apply_command`) — which is what keeps results **byte-identical**
//!   to the sequential hub by construction rather than by luck. A shard
//!   is only ever touched by one worker at a time, so sessions need no
//!   locking;
//! * the worker pool multiplexes the slots: each wakeup a worker claims
//!   one ready shard and applies up to [`COMMANDS_PER_WAKEUP`] queued
//!   commands before re-entering the reactor, amortizing the queue
//!   crossing. A slide close inside a shared group is still **one** queue
//!   event fanned out to every member via the digest `Arc` refcount
//!   bumps, with the members' `QueryUpdate`s delivered in the same
//!   wakeup's batch;
//! * [`publish`](AsyncHub::publish) is a single-lock broadcast: one mutex
//!   crossing enqueues an `Arc` of the batch on every non-empty shard —
//!   or **parks** the publisher until the slowest queue has room
//!   (backpressure on the ingestion path instead of unbounded input
//!   buffering). The non-blocking variants
//!   [`poll_ready`](AsyncHub::poll_ready) and
//!   [`try_publish`](AsyncHub::try_publish) let a caller that refuses to
//!   park test for room instead, and
//!   [`publisher_parks`](AsyncHub::publisher_parks) counts the parks so a
//!   deployment can see whether its queues are deep enough. Completed
//!   results, by contrast, are *retained* shard-side until collected —
//!   drain at your publish cadence to bound them;
//! * [`drain`](AsyncHub::drain) is a **barrier**: it waits until every
//!   shard has processed everything published so far and returns the
//!   accumulated [`QueryUpdate`]s sorted by `(QueryId, slide)` — a
//!   deterministic order, independent of shard count, worker count, and
//!   scheduling, that matches the sequential hub's registration-order
//!   delivery (ids are handed out in registration order, and each
//!   query's slides are naturally ascending).
//!
//! All window models are served side by side: count-based, isolated
//! time-based, and the shared digest and count planes, fed together by
//! [`publish_timed`](AsyncHub::publish_timed). Slide closure driven by
//! timestamps depends only on the published sequence, never on thread
//! timing, so the drain order contract is unchanged. Shared queries add
//! one placement rule: a group's digest producer is **shard-local**
//! state, so every member of a group lives on the shard where the group
//! was founded — a query joining an existing group is routed there even
//! when the hash of its id points elsewhere.
//!
//! The quiet publish path performs **zero heap allocations** at steady
//! state: queues never grow past their bound, publish targets live in a
//! reused scratch vector, and batches come from a small `Arc` pool that
//! recycles a buffer as soon as every shard has dropped its reference
//! (`tests/alloc_regression.rs` pins this under a counting allocator).
//!
//! # Deterministic scheduling, for tests
//!
//! Which ready shard a worker serves next is delegated to a pluggable
//! [`Scheduler`]. Production uses [`FifoScheduler`] (lowest index
//! first); the schedule-fuzzing harness uses [`SeededScheduler`], which
//! drives the pick order from a seeded xorshift so an adversarial
//! interleaving can be *replayed from one `u64`*. Results never depend
//! on the schedule — that is exactly the property
//! `tests/async_equivalence.rs` attacks with hundreds of seeds.
//!
//! ```
//! use sap_stream::{AsyncHub, Object, Subscription};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl sap_stream::checkpoint::CheckpointState for Toy {}
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! // 8 logical shards served by 2 workers — shards are not capped at
//! // the core count
//! let mut hub = AsyncHub::new(8, 2);
//! let engine: Box<dyn SlidingTopK + Send> = Box::new(Toy(WindowSpec::new(2, 1, 2).unwrap(), Vec::new()));
//! let q = hub.register_engine(Subscription::count(engine)).unwrap();
//! assert!(hub.poll_ready().unwrap(), "queues are empty: room for a batch");
//! hub.publish(&[Object::new(0, 1.0), Object::new(1, 5.0)]).unwrap();
//! let updates = hub.drain().unwrap(); // join-all barrier
//! assert_eq!(updates.len(), 1);
//! assert_eq!(updates[0].query, q);
//! ```
//!
//! Replaying a schedule: two hubs driven by *different* seeds still
//! drain identically — determinism is a property of the hub, and the
//! seed only steers which worker touches which shard when.
//!
//! ```
//! use sap_stream::{AsyncHub, Object, SeededScheduler, Subscription};
//! # use sap_stream::{OpStats, SlidingTopK, WindowSpec};
//! # struct Toy(WindowSpec, Vec<Object>);
//! # impl sap_stream::checkpoint::CheckpointState for Toy {}
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.0 }
//! #     fn slide(&mut self, b: &[Object]) -> &[Object] { self.1 = b.to_vec(); &self.1 }
//! #     fn candidate_count(&self) -> usize { 0 }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! let data: Vec<Object> = (0..64).map(|i| Object::new(i, (i * 37 % 101) as f64)).collect();
//! let mut drains = Vec::new();
//! for seed in [1u64, 0xDEAD_BEEF] {
//!     let mut hub = AsyncHub::with_scheduler(4, 2, Box::new(SeededScheduler::new(seed)));
//!     for _ in 0..3 {
//!         let engine: Box<dyn SlidingTopK + Send> = Box::new(Toy(WindowSpec::new(4, 2, 4).unwrap(), Vec::new()));
//!         hub.register_engine(Subscription::count(engine)).unwrap();
//!     }
//!     for chunk in data.chunks(8) {
//!         hub.publish(chunk).unwrap();
//!     }
//!     drains.push(hub.drain().unwrap());
//! }
//! assert_eq!(drains[0], drains[1], "the schedule is invisible in the output");
//! ```
//!
//! # When a worker panics
//!
//! An engine panic is caught at the wakeup boundary: the shard is marked
//! dead, its registry (and the queries on it) is dropped, and any queued
//! or future command against it reports the typed
//! [`SapError::ShardDown`] carrying the shard index — never a hub-side
//! panic. The *worker thread survives* and keeps serving the other
//! shards, so one poisoned engine costs one shard, not one
//! `1/workers`-th of the hub. Parked publishers are woken to observe the
//! death instead of hanging. The hub never revives a dead shard silently
//! — losing standing queries' state is not something to paper over. The
//! recovery story: rescue what you need from healthy shards via
//! [`unregister`](AsyncHub::unregister), or
//! [`checkpoint`](AsyncHub::checkpoint) periodically and
//! [`restore`](AsyncHub::restore) the last checkpoint into a fresh hub
//! (`examples/checkpoint.rs` walks the whole drill). Checkpoints are
//! fully interchangeable between [`Hub`](crate::session::Hub) and
//! `AsyncHub`, at any shard count.
//!
//! # Elastic operation
//!
//! The durability plane doubles as live migration:
//! [`move_query`](AsyncHub::move_query) transfers one query's session (a
//! shared or grouped query: its whole group) to a chosen shard between
//! two publishes, and [`resize`](AsyncHub::resize) re-partitions every
//! session across a new shard count. Neither perturbs results: slides
//! completed on the old and new shard meet in the next
//! [`drain`](AsyncHub::drain), whose global `(QueryId, slide)` sort is
//! placement-blind.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::checkpoint::{Checkpoint, Encoder, EngineFactory};
use crate::control::{
    apply_command, decode_hub_checkpoint, Command, GroupKey, Placement, ShardParts, ShardRegistry,
};
use crate::events::Snapshot;
use crate::object::{Object, TimedObject};
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::registry::{GroupKeys, HubStats, Registry, RegistryParts};
use crate::session::{AnySession, QueryId, QueryUpdate};
use crate::subscription::{ServingConfig, ShardSubscription};
use crate::window::{SlidingTopK, TimedTopK};

/// How many queued commands one worker wakeup applies to its claimed
/// shard before re-entering the reactor. Batching amortizes the lock
/// crossing and the scheduler pick over the fan-out work; small enough
/// that a backlogged shard still shares its workers fairly.
pub const COMMANDS_PER_WAKEUP: usize = 32;

/// Default bound on each shard's queue, in commands. Deep enough to keep
/// workers busy across bursty publishes, shallow enough that a stalled
/// shard pushes back on the publisher instead of buffering the stream.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// How many singly-published objects [`AsyncHub::publish_one`]
/// coalesces into one pending batch before forcing a flush. Small enough
/// that a trickle publisher's objects reach the shards promptly relative
/// to any barrier, large enough that a tight `publish_one` loop costs one
/// `Arc` batch per `PUBLISH_ONE_COALESCE` objects instead of one per
/// object.
pub const PUBLISH_ONE_COALESCE: usize = 128;

/// A query session (of either window model) whose engine can cross
/// threads — what an [`AsyncHub`] hands back on
/// [`unregister`](AsyncHub::unregister).
pub type ShardSession = AnySession<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// A point-in-time view of one query, fetched across the shard boundary
/// by [`AsyncHub::inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryState {
    /// Number of slides the query has completed.
    pub slides: u64,
    /// The query's most recent top-k emission (descending), empty before
    /// the first completed slide. Refcounted: crossing the shard boundary
    /// shares the session's retained `Arc` instead of copying the top-k.
    pub last_snapshot: Snapshot,
}

/// How many recycled batch buffers the publish path keeps. A buffer is
/// reusable once every shard has consumed it, so the pool only needs to
/// cover batches concurrently in flight behind the queues.
const BATCH_POOL_SLOTS: usize = 8;

/// Picks which ready shard a worker serves next.
///
/// Called under the reactor lock with the worker's index and the ready
/// list (ascending shard indices, never empty); the returned value is
/// reduced modulo `ready.len()` by the executor, so any strategy — even
/// a raw random stream — is safe. Picks are totally ordered by the lock,
/// which is what makes a seeded schedule reproducible.
///
/// The hub's output never depends on the pick order (that is the
/// determinism contract `tests/async_equivalence.rs` fuzzes); a
/// `Scheduler` only steers *which worker does what when* — fairness,
/// cache locality, or, for [`SeededScheduler`], adversarial testing.
pub trait Scheduler: Send {
    /// Returns an index into `ready` (reduced mod `ready.len()`).
    fn pick(&mut self, worker: usize, ready: &[usize]) -> usize;
}

/// The production scheduler: always the lowest ready shard index.
/// Combined with ascending scans this drains shards round-robin-ish and
/// keeps the pick O(1).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _worker: usize, _ready: &[usize]) -> usize {
        0
    }
}

/// A deterministic adversarial scheduler: picks are driven by a seeded
/// xorshift64* stream mixed with the worker index, so a failing
/// interleaving replays from a single `u64`. Two runs with the same
/// seed, worker count, and command sequence make the same picks in the
/// same total order (the reactor lock serializes them).
#[derive(Debug, Clone)]
pub struct SeededScheduler {
    state: u64,
}

impl SeededScheduler {
    /// A scheduler replaying the pick stream named by `seed` (any value;
    /// zero is mapped to a nonzero internal state).
    pub fn new(seed: u64) -> SeededScheduler {
        SeededScheduler {
            state: seed | 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Scheduler for SeededScheduler {
    fn pick(&mut self, worker: usize, ready: &[usize]) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let mixed = self
            .state
            .wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (mixed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % ready.len()
    }
}

/// One logical shard's seat in the reactor: its bounded command queue
/// and — when no worker currently holds it — its serving core.
struct Slot {
    /// Bounded by the reactor's `capacity`: the publisher parks instead
    /// of pushing past it, so this deque never reallocates after
    /// construction (the zero-allocation publish invariant).
    queue: VecDeque<Command>,
    /// `None` while a worker has the core checked out. Claiming the core
    /// is what serializes a shard: its registry is only ever touched by
    /// one worker at a time, commands strictly in queue order.
    core: Option<Box<ShardCore>>,
    /// Set when an engine panic killed this shard. Its queue is cleared
    /// (dropping queued reply senders, so waiting hub calls observe
    /// `ShardDown`) and every later send is refused.
    dead: bool,
    /// Times a blocking publish parked with **this** shard's queue as the
    /// full one — per-shard backpressure attribution, so a balancer can
    /// tell *which* shard is slow ([`AsyncHub::shard_loads`], summed into
    /// [`HubStats::publisher_parks`] by [`AsyncHub::stats`]).
    parks: u64,
    /// High-water mark of this shard's queue depth, in commands —
    /// maxed into [`HubStats::queue_depth_hwm`]. All mutations happen
    /// under the reactor lock, so plain fields suffice.
    depth_hwm: u64,
}

/// What a worker checks out: the shard's registry plus its undrained
/// updates.
struct ShardCore {
    registry: ShardRegistry,
    updates: Vec<QueryUpdate>,
}

impl Slot {
    fn new(shard: usize, capacity: usize, config: ServingConfig) -> Slot {
        Slot {
            queue: VecDeque::with_capacity(capacity),
            core: Some(Box::new(ShardCore {
                registry: Registry::new(config, Some(shard)),
                updates: Vec::new(),
            })),
            dead: false,
            parks: 0,
            depth_hwm: 0,
        }
    }

    /// Ready = a worker could make progress on it right now.
    fn ready(&self) -> bool {
        !self.dead && self.core.is_some() && !self.queue.is_empty()
    }

    /// Idle = fully quiesced (used by the resize slot swap).
    fn idle(&self) -> bool {
        self.dead || (self.core.is_some() && self.queue.is_empty())
    }
}

struct ExecState {
    slots: Vec<Slot>,
    scheduler: Box<dyn Scheduler>,
    shutdown: bool,
    /// Parks accumulated by slots retired through
    /// [`AsyncHub::resize`] — keeps the hub-lifetime
    /// [`AsyncHub::publisher_parks`] total monotone across placements.
    retired_parks: u64,
}

/// The single reactor every worker and the hub thread rendezvous on: one
/// mutex over all slots, one condvar each way (`work_cv` wakes workers,
/// `room_cv` wakes parked publishers and quiesce waiters).
struct Reactor {
    state: Mutex<ExecState>,
    work_cv: Condvar,
    room_cv: Condvar,
    /// Queue bound per shard, in commands.
    capacity: usize,
    /// What every shard's registry serves under, resized ones included.
    config: ServingConfig,
}

impl Reactor {
    fn new(
        num_shards: usize,
        capacity: usize,
        scheduler: Box<dyn Scheduler>,
        config: ServingConfig,
    ) -> Reactor {
        Reactor {
            state: Mutex::new(ExecState {
                slots: (0..num_shards)
                    .map(|i| Slot::new(i, capacity, config))
                    .collect(),
                scheduler,
                shutdown: false,
                retired_parks: 0,
            }),
            work_cv: Condvar::new(),
            room_cv: Condvar::new(),
            capacity,
            config,
        }
    }

    /// Locks the state. Engine panics are caught *outside* this lock, so
    /// poisoning is unreachable in practice; recovering the guard anyway
    /// keeps `Drop` and error paths panic-free.
    fn state(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_room<'a>(&self, guard: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
        self.room_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether every target queue has room for `need` more commands.
    /// A dead target is the typed [`SapError::ShardDown`].
    fn ready_for(&self, targets: &[usize], need: usize) -> Result<bool, SapError> {
        let state = self.state();
        for &shard in targets {
            let slot = &state.slots[shard];
            if slot.dead {
                return Err(SapError::ShardDown { shard });
            }
            if slot.queue.len() + need > self.capacity {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The publish path: atomically enqueues one command on *every*
    /// target, or parks until that is possible (all-or-nothing, so a
    /// partially published batch can never exist), in one lock crossing.
    fn broadcast(
        &self,
        targets: &[usize],
        mut make: impl FnMut() -> Command,
    ) -> Result<(), SapError> {
        if targets.is_empty() {
            return Ok(());
        }
        let mut state = self.state();
        loop {
            let mut full = None;
            for &shard in targets {
                let slot = &state.slots[shard];
                if slot.dead {
                    return Err(SapError::ShardDown { shard });
                }
                if slot.queue.len() >= self.capacity {
                    full = Some(shard);
                    break;
                }
            }
            let Some(culprit) = full else {
                for &shard in targets {
                    let slot = &mut state.slots[shard];
                    slot.queue.push_back(make());
                    slot.depth_hwm = slot.depth_hwm.max(slot.queue.len() as u64);
                }
                drop(state);
                self.work_cv.notify_all();
                return Ok(());
            };
            // the park is charged to the shard whose queue blocked it —
            // that attribution is what lets a balancer see *which* shard
            // is slow rather than just that something parked
            state.slots[culprit].parks += 1;
            state = self.wait_room(state);
        }
    }

    /// Control-command transport: enqueue on one shard, waiting (without
    /// counting as a publisher park) if its queue is full. A send only
    /// fails when the shard can no longer process commands — an engine
    /// panic killed it — reported as the typed [`SapError::ShardDown`].
    fn send(&self, shard: usize, cmd: Command) -> Result<(), SapError> {
        let mut state = self.state();
        loop {
            let slot = &state.slots[shard];
            if slot.dead {
                return Err(SapError::ShardDown { shard });
            }
            if slot.queue.len() < self.capacity {
                break;
            }
            state = self.wait_room(state);
        }
        let slot = &mut state.slots[shard];
        slot.queue.push_back(cmd);
        slot.depth_hwm = slot.depth_hwm.max(slot.queue.len() as u64);
        drop(state);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Sends one request to `shard` and waits for its reply. The reply
    /// always travels an `mpsc` channel; a dropped reply sender — the
    /// shard died before answering — is [`SapError::ShardDown`].
    fn ask<T>(
        &self,
        shard: usize,
        request: impl FnOnce(mpsc::Sender<T>) -> Command,
    ) -> Result<T, SapError> {
        let (reply, rx) = mpsc::channel();
        self.send(shard, request(reply))?;
        rx.recv().map_err(|_| SapError::ShardDown { shard })
    }

    /// Sends one request to each of the first `shards` shards, *then*
    /// collects the replies in shard order — the shards retire their
    /// backlogs in parallel.
    fn ask_all<T>(
        &self,
        shards: usize,
        request: impl Fn(mpsc::Sender<T>) -> Command,
    ) -> Result<Vec<T>, SapError> {
        let pending = (0..shards)
            .map(|shard| {
                let (reply, rx) = mpsc::channel();
                self.send(shard, request(reply)).map(|()| rx)
            })
            .collect::<Result<Vec<_>, _>>()?;
        pending
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| rx.recv().map_err(|_| SapError::ShardDown { shard }))
            .collect()
    }
}

/// The worker loop: claim a ready shard (scheduler's choice), check out
/// its core, apply one batch of commands outside the lock, put the core
/// back. Engine panics are absorbed here — the shard dies, the worker
/// survives.
fn worker_loop(reactor: Arc<Reactor>, worker: usize) {
    // per-worker scratch, reused across wakeups (no steady-state allocs).
    // `batch` is a deque so the application loop below can pop from the
    // front in O(1) while leaving unapplied commands alive across a
    // panic's unwind. It holds at most one queue's worth of commands
    // (the group-aware burst below can run past COMMANDS_PER_WAKEUP up
    // to the queue bound), and `ready` at most one entry per slot — both
    // are sized for that up front, and `ready` again whenever a resize
    // grows the slot vector, so no wakeup ever grows them.
    let mut ready: Vec<usize> = Vec::new();
    let mut batch: VecDeque<Command> = VecDeque::with_capacity(reactor.capacity);
    loop {
        let (shard, mut core) = {
            let mut state = reactor.state();
            loop {
                ready.clear();
                ready.reserve(state.slots.len());
                ready.extend(
                    state
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, slot)| slot.ready())
                        .map(|(i, _)| i),
                );
                if !ready.is_empty() {
                    let choice = state.scheduler.pick(worker, &ready) % ready.len();
                    let shard = ready[choice];
                    let core = state.slots[shard].core.take().expect("ready ⇒ resident");
                    let take = state.slots[shard].queue.len().min(COMMANDS_PER_WAKEUP);
                    batch.extend(state.slots[shard].queue.drain(..take));
                    // group-aware burst: never cut a run of ingestion
                    // commands at the batch bound — a slide close whose
                    // class fan-out would straddle it drains inside this
                    // single wakeup's catch_unwind lease instead of
                    // interleaving member emissions across two lock
                    // crossings. Bounded by the queue capacity, so a
                    // backlogged shard still cannot monopolize a worker
                    // past one queue's worth of commands.
                    while batch.back().is_some_and(Command::is_ingest)
                        && state.slots[shard]
                            .queue
                            .front()
                            .is_some_and(Command::is_ingest)
                    {
                        let cmd = state.slots[shard]
                            .queue
                            .pop_front()
                            .expect("front observed above");
                        batch.push_back(cmd);
                    }
                    break (shard, core);
                }
                if state.shutdown {
                    // outstanding commands are finished before exit: we
                    // only get here once nothing is (or can become) ready
                    return;
                }
                state = reactor
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // queue space was freed: wake parked publishers before the
        // (potentially long) batch application
        reactor.room_cv.notify_all();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // pop one command at a time: a panic's unwind must NOT drop
            // the unapplied tail, whose reply senders have to stay alive
            // until the slot is marked dead below — otherwise a hub
            // thread woken by a dropped sender could observe the death
            // (ShardDown) and issue a publish that still sees
            // `dead == false`, silently feeding a dying shard
            while let Some(cmd) = batch.pop_front() {
                apply_command(&mut core.registry, &mut core.updates, cmd);
            }
        }));
        let mut state = reactor.state();
        match outcome {
            Ok(()) => {
                let more = !state.slots[shard].queue.is_empty();
                state.slots[shard].core = Some(core);
                drop(state);
                if more {
                    reactor.work_cv.notify_all();
                }
                // the put-back may complete a quiesce (resize) or give a
                // readiness probe its answer
                reactor.room_cv.notify_all();
            }
            Err(_) => {
                // Mark the shard dead FIRST, then drop the unapplied
                // commands and the queue — all under one lock section,
                // so their reply senders (whose drop is what hub calls
                // waiting on this shard observe as ShardDown instead of
                // hanging) cannot be seen before the death is. The one
                // unavoidable mid-unwind drop is the panicking command's
                // own state — harmless, because the commands that run
                // engine code (Publish/PublishTimed/AdvanceTime) carry
                // no reply sender. The core is dropped too: its engines
                // died mid-slide and must not serve again.
                let slot = &mut state.slots[shard];
                slot.dead = true;
                slot.queue.clear();
                batch.clear();
                drop(core);
                drop(state);
                // parked publishers must wake to observe the death
                reactor.room_cv.notify_all();
                reactor.work_cv.notify_all();
            }
        }
    }
}

/// A bounded pool of batch buffers for the zero-allocation publish path:
/// a buffer whose `Arc` refcount has returned to one (every shard
/// consumed it) and whose length matches is recycled via
/// `copy_from_slice`; otherwise a fresh buffer replaces the oldest pool
/// entry round-robin.
struct ArcPool<T> {
    slots: Vec<Arc<[T]>>,
    next: usize,
}

impl<T: Copy> ArcPool<T> {
    fn new() -> ArcPool<T> {
        ArcPool {
            slots: Vec::with_capacity(BATCH_POOL_SLOTS),
            next: 0,
        }
    }

    fn batch(&mut self, data: &[T]) -> Arc<[T]> {
        for slot in &mut self.slots {
            if slot.len() == data.len() {
                if let Some(buf) = Arc::get_mut(slot) {
                    buf.copy_from_slice(data);
                    return Arc::clone(slot);
                }
            }
        }
        let fresh: Arc<[T]> = Arc::from(data);
        if self.slots.len() < BATCH_POOL_SLOTS {
            self.slots.push(Arc::clone(&fresh));
        } else {
            self.slots[self.next] = Arc::clone(&fresh);
            self.next = (self.next + 1) % BATCH_POOL_SLOTS;
        }
        fresh
    }
}

/// A [`Hub`](crate::session::Hub)-equivalent set of standing queries
/// partitioned across logical shards served by a pool of worker threads.
///
/// See the [module docs](self) for the architecture. Differences from the
/// sequential hub's API surface:
///
/// * [`publish`](AsyncHub::publish) returns nothing — results accumulate
///   shard-side and are collected by [`drain`](AsyncHub::drain), which
///   doubles as the determinism barrier;
/// * registered engines must be [`Send`] (a shard's core moves between
///   worker threads); every algorithm in this workspace is;
/// * `publish` may **park** (backpressure) while any recipient queue is
///   full — [`poll_ready`](AsyncHub::poll_ready)/
///   [`try_publish`](AsyncHub::try_publish) refuse instead, and
///   [`publisher_parks`](AsyncHub::publisher_parks) counts the parks.
pub struct AsyncHub {
    reactor: Arc<Reactor>,
    workers: Vec<JoinHandle<()>>,
    /// The routing/bookkeeping state — see [`Placement`].
    placement: Placement,
    /// Objects accepted by [`publish_one`](AsyncHub::publish_one) and not
    /// yet shipped: they coalesce into one `Arc` batch per
    /// [`PUBLISH_ONE_COALESCE`] objects (or per intervening operation)
    /// instead of one per object. Flushed — preserving publish order —
    /// before any other command is enqueued, so ordering guarantees are
    /// unchanged.
    pending_one: Vec<Object>,
    /// Updates rescued from a [`resize`](AsyncHub::resize), merged into
    /// the next [`drain`](AsyncHub::drain) — the global
    /// `(QueryId, slide)` sort puts them exactly where an uninterrupted
    /// run would have.
    parked_updates: Vec<QueryUpdate>,
    /// Reused publish-target scratch (the non-empty shards).
    targets: Vec<usize>,
    pool: ArcPool<Object>,
    timed_pool: ArcPool<TimedObject>,
}

impl std::fmt::Debug for AsyncHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncHub")
            .field("shards", &self.placement.num_shards())
            .field("workers", &self.workers.len())
            .field("queries", &self.placement.registered.len())
            .field("next_id", &self.placement.next_id)
            .finish()
    }
}

impl AsyncHub {
    /// A hub with `num_shards` logical shards served by `num_workers`
    /// threads (both clamped to ≥ 1), the [`DEFAULT_QUEUE_CAPACITY`], and
    /// the [`FifoScheduler`], and the default [`ServingConfig`].
    /// `AsyncHub::new(n, n)` gives every shard a worker of its own; shards
    /// beyond the worker count cost no thread.
    pub fn new(num_shards: usize, num_workers: usize) -> AsyncHub {
        AsyncHub::with_scheduler(num_shards, num_workers, Box::new(FifoScheduler))
    }

    /// [`new`](AsyncHub::new) with an explicit [`Scheduler`] — the
    /// schedule-fuzzing entry point.
    pub fn with_scheduler(
        num_shards: usize,
        num_workers: usize,
        scheduler: Box<dyn Scheduler>,
    ) -> AsyncHub {
        AsyncHub::with_config(
            num_shards,
            num_workers,
            DEFAULT_QUEUE_CAPACITY,
            scheduler,
            ServingConfig::default(),
        )
    }

    /// Fully explicit construction: shard count, worker count, per-shard
    /// queue bound (all clamped to ≥ 1), scheduler, and the
    /// [`ServingConfig`] every shard serves under — including shards a
    /// later [`resize`](AsyncHub::resize) creates. A capacity of 1 makes
    /// every publish rendezvous with the slowest shard (maximum
    /// backpressure, minimum buffering).
    pub fn with_config(
        num_shards: usize,
        num_workers: usize,
        queue_capacity: usize,
        scheduler: Box<dyn Scheduler>,
        config: ServingConfig,
    ) -> AsyncHub {
        let num_shards = num_shards.max(1);
        let num_workers = num_workers.max(1);
        let queue_capacity = queue_capacity.max(1);
        let reactor = Arc::new(Reactor::new(num_shards, queue_capacity, scheduler, config));
        let workers = (0..num_workers)
            .map(|i| {
                let reactor = Arc::clone(&reactor);
                std::thread::Builder::new()
                    .name(format!("sap-async-{i}"))
                    .spawn(move || worker_loop(reactor, i))
                    .expect("spawn async hub worker")
            })
            .collect();
        AsyncHub {
            reactor,
            workers,
            placement: Placement::new(num_shards),
            pending_one: Vec::new(),
            parked_updates: Vec::new(),
            targets: Vec::new(),
            pool: ArcPool::new(),
            timed_pool: ArcPool::new(),
        }
    }

    // ---- registration ----------------------------------------------------

    /// Registers a validated [`Subscription`](crate::Subscription) as a
    /// new standing query and returns its handle. The query only ever
    /// sees objects published after this call.
    ///
    /// Placement: an isolated query, or a member founding a new group,
    /// lands on the shard its id hashes to; a member joining a live slide
    /// group or count group lands on that group's shard — overriding the
    /// hash, because a group's producer is shard-local state.
    ///
    /// A dead target shard is [`SapError::ShardDown`]. The failed
    /// registration burns its id, so a retry derives a fresh id that may
    /// hash onto a healthy shard, and it leaves group membership
    /// bookkeeping untouched, so the hub never counts a member that no
    /// shard owns.
    pub fn register_engine(&mut self, sub: ShardSubscription) -> Result<QueryId, SapError> {
        // settles `published`, so a count-group key is phase-exact
        self.flush_pending_one()?;
        let p = &mut self.placement;
        let id = p.fresh_id();
        let key = p.group_key(&sub);
        let shard = p.registration_shard(id, key);
        self.reactor
            .send(shard, Command::Register(id, sub, shard))?;
        p.admit(id, shard, key);
        Ok(id)
    }

    /// Removes a query and returns its session (with the engine's full
    /// state) once its shard has processed everything published before
    /// this call. Unknown or already-removed handles are a typed
    /// [`SapError::UnknownQuery`]; a dead shard is
    /// [`SapError::ShardDown`] (the query's state died with it) and
    /// leaves the hub's bookkeeping untouched, so retrying keeps
    /// reporting the dead shard — the query was lost, not unregistered.
    pub fn unregister(&mut self, id: QueryId) -> Result<ShardSession, SapError> {
        // the departing session must process coalesced publishes first
        self.flush_pending_one()?;
        let p = &mut self.placement;
        if !p.registered.contains(&id) {
            return Err(SapError::UnknownQuery { query: id });
        }
        let shard = p.home_shard(id);
        let session = self
            .reactor
            .ask(shard, |reply| Command::Unregister(id, reply))?;
        p.release(id, shard);
        Ok(session)
    }

    // ---- ingestion --------------------------------------------------------

    /// The non-empty shards every publish must reach.
    fn collect_targets(&mut self) {
        self.targets.clear();
        self.targets.extend(
            self.placement
                .shard_len
                .iter()
                .enumerate()
                .filter(|(_, len)| **len > 0)
                .map(|(i, _)| i),
        );
    }

    /// Ships the coalesced `publish_one` buffer as one batch, preserving
    /// publish order. Called before any other command is enqueued (and on
    /// drop), so a singly-published object is always ordered exactly
    /// where its `publish_one` call was.
    fn flush_pending_one(&mut self) -> Result<(), SapError> {
        if self.pending_one.is_empty() {
            return Ok(());
        }
        // swap the buffer out so the borrow checker lets publish_batch
        // borrow &mut self; its capacity is preserved and restored below
        let pending = std::mem::take(&mut self.pending_one);
        let result = self.publish_batch(&pending);
        self.pending_one = pending;
        self.pending_one.clear();
        result
    }

    fn publish_batch(&mut self, objects: &[Object]) -> Result<(), SapError> {
        let batch = self.pool.batch(objects);
        self.placement.published += objects.len() as u64;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::Publish(Arc::clone(&batch)))
    }

    /// Publishes a batch of objects to every registered query: one lock
    /// crossing enqueues a shared `Arc` of the batch on every non-empty
    /// shard, and the workers apply it concurrently. **Parks** (blocks on
    /// the reactor, counted by [`publisher_parks`](AsyncHub::publisher_parks))
    /// while any recipient queue is full — that backpressure is the
    /// flow-control contract: a publisher can never run unboundedly ahead
    /// of the slowest shard. Use [`poll_ready`](AsyncHub::poll_ready)/
    /// [`try_publish`](AsyncHub::try_publish) to refuse parking instead.
    /// With zero registered queries (or an empty batch) this is an
    /// explicit no-op.
    ///
    /// Results are *not* returned here — they accumulate shard-side and
    /// are collected, in deterministic order, by
    /// [`drain`](AsyncHub::drain).
    ///
    /// **Drain regularly.** Backpressure bounds the *input* queues, but
    /// completed [`QueryUpdate`]s are retained (never dropped — they are
    /// the queries' answers) until the next drain, so accumulation grows
    /// with the volume published since the last drain — across every
    /// registered query. Draining once per publish chunk (as the benches
    /// do) keeps the retained set proportional to one chunk.
    pub fn publish(&mut self, objects: &[Object]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        self.publish_batch(objects)
    }

    /// Publishes a batch of **timestamped** objects (non-decreasing
    /// timestamps) to every registered query — the shared ingestion path
    /// for heterogeneous count- and time-based subscriptions, with the
    /// same semantics as the sequential
    /// [`Hub::publish_timed`](crate::session::Hub::publish_timed) and
    /// [`publish`](AsyncHub::publish)'s parking/drain contract.
    pub fn publish_timed(&mut self, objects: &[TimedObject]) -> Result<(), SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        let batch = self.timed_pool.batch(objects);
        // the untimed view feeds count groups too, so timed batches
        // advance the offset counter exactly like plain ones
        self.placement.published += objects.len() as u64;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::PublishTimed(Arc::clone(&batch)))
    }

    /// Raises the event-time watermark on every time-based query (see
    /// [`Hub::advance_time`](crate::session::Hub::advance_time)). The
    /// closed slides accumulate shard-side like any other update and come
    /// back through [`drain`](AsyncHub::drain).
    pub fn advance_time(&mut self, watermark: u64) -> Result<(), SapError> {
        if self.placement.registered.is_empty() {
            return Ok(());
        }
        self.flush_pending_one()?;
        self.collect_targets();
        self.reactor
            .broadcast(&self.targets, || Command::AdvanceTime(watermark))
    }

    /// Publishes one object, **coalescing** it into a pending batch
    /// instead of wrapping every object in its own `Arc`: the buffer is
    /// shipped as one batch after [`PUBLISH_ONE_COALESCE`] objects, or
    /// earlier when any other operation (a batch publish, a registration,
    /// [`flush`](AsyncHub::flush), [`drain`](AsyncHub::drain),
    /// [`inspect`](AsyncHub::inspect), …) needs the queues — so every
    /// observable ordering guarantee is exactly
    /// [`publish`](AsyncHub::publish)'s. With zero registered queries the
    /// object is dropped, same as an empty-hub `publish`. A dead shard may
    /// therefore be reported by the operation that triggers the flush
    /// rather than the `publish_one` call that buffered the object.
    pub fn publish_one(&mut self, object: Object) -> Result<(), SapError> {
        if self.placement.registered.is_empty() {
            return Ok(());
        }
        self.pending_one.push(object);
        if self.pending_one.len() >= PUBLISH_ONE_COALESCE {
            self.flush_pending_one()
        } else {
            Ok(())
        }
    }

    /// Whether a [`publish`](AsyncHub::publish) right now would proceed
    /// without parking: every non-empty shard's queue has room for this
    /// publish (including shipping any coalesced `publish_one` tail
    /// first). A dead shard is the typed [`SapError::ShardDown`].
    ///
    /// The answer can only move toward *more* room until the hub thread
    /// publishes or enqueues again (workers only ever free queue space),
    /// so `poll_ready() == true` followed immediately by `publish` is
    /// guaranteed not to park — that is exactly
    /// [`try_publish`](AsyncHub::try_publish).
    pub fn poll_ready(&mut self) -> Result<bool, SapError> {
        if self.placement.registered.is_empty() {
            return Ok(true);
        }
        let need = 1 + usize::from(!self.pending_one.is_empty());
        self.collect_targets();
        self.reactor.ready_for(&self.targets, need)
    }

    /// Non-parking publish: ships the batch if every recipient queue has
    /// room (returning `Ok(true)`), otherwise leaves the stream
    /// untouched and returns `Ok(false)` — the caller keeps the batch
    /// and retries after draining or doing other work.
    pub fn try_publish(&mut self, objects: &[Object]) -> Result<bool, SapError> {
        if objects.is_empty() || self.placement.registered.is_empty() {
            return Ok(true);
        }
        // with a capacity-1 queue there is never room for tail + batch
        // in one window; ship the tail (blocking, ordered) first
        if !self.pending_one.is_empty() && self.reactor.capacity < 2 {
            self.flush_pending_one()?;
        }
        if !self.poll_ready()? {
            return Ok(false);
        }
        self.publish(objects).map(|()| true)
    }

    /// How many times a blocking publish parked on a full queue so far,
    /// over the hub's whole lifetime — the backpressure visibility
    /// metric (`BENCH_async.json` reports it; a serving deployment wants
    /// it near zero). Derived from the per-shard counters (plus parks
    /// retired by [`resize`](AsyncHub::resize)); use
    /// [`shard_loads`](AsyncHub::shard_loads) for the attribution.
    pub fn publisher_parks(&self) -> u64 {
        let state = self.reactor.state();
        state.retired_parks + state.slots.iter().map(|s| s.parks).sum::<u64>()
    }

    /// Per-shard backpressure counters for the **current placement**:
    /// `(parks, queue_depth_hwm)` for each logical shard, indexed by
    /// shard. Parks are charged to the shard whose full queue blocked
    /// the publisher; the high-water mark is the deepest its queue has
    /// been, in commands — together they tell a balancer *which* shard
    /// is slow ([`HubStats`] carries the hub-wide sum/max of the same
    /// counters). Reset by [`resize`](AsyncHub::resize), which replaces
    /// the slots.
    pub fn shard_loads(&self) -> Vec<(u64, u64)> {
        let state = self.reactor.state();
        state
            .slots
            .iter()
            .map(|slot| (slot.parks, slot.depth_hwm))
            .collect()
    }

    // ---- collection -------------------------------------------------------

    /// Barrier without collection: returns once every shard has processed
    /// everything published so far. Accumulated updates stay shard-side
    /// for a later [`drain`](AsyncHub::drain).
    pub fn flush(&mut self) -> Result<(), SapError> {
        self.flush_pending_one()?;
        self.reactor
            .ask_all(self.placement.num_shards(), Command::Flush)?;
        Ok(())
    }

    /// The barrier that makes the parallel hub observably equivalent to
    /// the sequential one: waits until every shard has processed
    /// everything published so far, then returns all slides completed
    /// since the last drain, sorted by `(QueryId, slide)` — an order
    /// independent of shard count, worker count, and scheduler.
    /// Time-based queries keep that contract: their slide indices are
    /// assigned by event-time closure order, a pure function of the
    /// published sequence.
    pub fn drain(&mut self) -> Result<Vec<QueryUpdate>, SapError> {
        self.flush_pending_one()?;
        let drained = self
            .reactor
            .ask_all(self.placement.num_shards(), Command::Drain)?;
        let mut updates = std::mem::take(&mut self.parked_updates);
        updates.extend(drained.into_iter().flatten());
        updates.sort_unstable_by_key(|u| (u.query, u.result.slide));
        Ok(updates)
    }

    /// A point-in-time view of one query (slide count + last snapshot),
    /// reflecting everything published before this call. Unknown handles
    /// are a typed [`SapError::UnknownQuery`].
    pub fn inspect(&mut self, id: QueryId) -> Result<QueryState, SapError> {
        // "reflects everything published before this call" includes the
        // coalesced publish_one buffer
        self.flush_pending_one()?;
        if !self.placement.registered.contains(&id) {
            return Err(SapError::UnknownQuery { query: id });
        }
        self.reactor.ask(self.placement.home_shard(id), |reply| {
            Command::Inspect(id, reply)
        })
    }

    /// Hub-wide query counts and sharing metrics, summed across the
    /// shards' partials (group state is shard-local, so the sums are
    /// exact; debug builds audit that invariant and panic on a group
    /// split across shards instead of silently double-counting
    /// `digest_groups`/`count_groups`). The backpressure pair —
    /// `publisher_parks` (hub-lifetime sum) and `queue_depth_hwm` (max
    /// over the current placement) — lives reactor-side, so it is
    /// overlaid here rather than reported by the shard registries. A dead
    /// shard is [`SapError::ShardDown`].
    pub fn stats(&mut self) -> Result<HubStats, SapError> {
        self.flush_pending_one()?;
        let partials = self
            .reactor
            .ask_all(self.placement.num_shards(), Command::Stats)?;
        let mut stats = HubStats::default();
        let mut seen = GroupKeys::default();
        for (shard, (partial, keys)) in partials.iter().enumerate() {
            seen.absorb_disjoint(keys, shard);
            stats.merge(partial);
        }
        let state = self.reactor.state();
        stats.publisher_parks =
            state.retired_parks + state.slots.iter().map(|s| s.parks).sum::<u64>();
        stats.queue_depth_hwm = state.slots.iter().map(|s| s.depth_hwm).max().unwrap_or(0);
        Ok(stats)
    }

    /// Iterates the registered query handles in ascending (=
    /// registration) order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.placement.registered.iter().copied()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.placement.registered.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.placement.registered.is_empty()
    }

    /// Number of logical shards (≠ threads: see
    /// [`num_workers`](AsyncHub::num_workers)).
    pub fn num_shards(&self) -> usize {
        self.placement.num_shards()
    }

    /// Number of worker threads serving the shards.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    // ---- durability plane -------------------------------------------------

    /// Captures the hub's full serving state as a framed, versioned,
    /// checksummed [`Checkpoint`] — the parallel counterpart of
    /// [`Hub::checkpoint`](crate::session::Hub::checkpoint), and
    /// interchangeable with it: either hub can restore the other's
    /// checkpoints, at any shard count.
    ///
    /// Checkpointing is a **drain-style barrier**: every shard first
    /// retires its backlog, so the captured state sits on each query's
    /// current slide boundary. The updates that barrier collected are
    /// returned alongside the checkpoint — they are slides the captured
    /// state has already emitted (a restored hub will *not* re-emit
    /// them), so hand them to whatever consumed your drains.
    pub fn checkpoint(&mut self) -> Result<(Checkpoint, Vec<QueryUpdate>), SapError> {
        let updates = self.drain()?;
        let sections = self
            .reactor
            .ask_all(self.placement.num_shards(), Command::CheckpointShard)?;
        // id counter + section count, then the shard sections verbatim
        let payload_len = 16 + sections.iter().map(Vec::len).sum::<usize>();
        let mut enc = Encoder::framed(payload_len);
        enc.put_u64(self.placement.next_id);
        enc.put_usize(sections.len());
        for section in &sections {
            enc.put_encoded(section);
        }
        Ok((Checkpoint::seal(enc), updates))
    }

    /// Rebuilds a hub (`num_shards` logical shards, `num_workers`
    /// threads, [`FifoScheduler`]) from a [`Checkpoint`] taken by either
    /// hub at any shard count, constructing each session's engine through
    /// `factory` and replaying the retained state into it. Sessions are
    /// re-scattered by the id hash under the new shard count; each group
    /// lands wholesale on one shard (its lowest-id member's), honoring
    /// group affinity.
    ///
    /// Malformed input is a typed [`SapError::Checkpoint`]; an engine
    /// name the factory cannot build surfaces as
    /// [`CheckpointError::UnknownEngine`](crate::checkpoint::CheckpointError::UnknownEngine).
    /// Never panics on foreign bytes.
    pub fn restore(
        checkpoint: &Checkpoint,
        factory: &dyn EngineFactory,
        num_shards: usize,
        num_workers: usize,
    ) -> Result<AsyncHub, SapError> {
        let (next_id, merged) = decode_hub_checkpoint(checkpoint, factory)?;
        let mut hub = AsyncHub::new(num_shards, num_workers);
        hub.placement.next_id = next_id;
        hub.place_parts(merged)?;
        Ok(hub)
    }

    /// Scatters merged serving state across fresh (or freshly emptied)
    /// shards: groups first — each on the shard its lowest-id member
    /// hashes to, so every member can follow it — then sessions in
    /// ascending-id order, then the sharing counters onto shard 0 (they
    /// are hub-wide sums; where they live only affects which shard
    /// reports them into the stats total).
    fn place_parts(&mut self, parts: ShardParts) -> Result<(), SapError> {
        let p = &mut self.placement;
        let RegistryParts {
            sessions,
            groups,
            count_groups,
            tally,
        } = parts;
        let (count_members, loose) = split_count_members(sessions, count_groups.len());
        let mut group_home: HashMap<(u64, Predicate), usize> = HashMap::new();
        for (key, _) in &groups {
            let lowest = loose
                .iter()
                .find_map(|(id, s)| match s {
                    AnySession::Shared(m)
                        if m.slide_duration() == key.0 && m.predicate() == key.1 =>
                    {
                        Some(*id)
                    }
                    _ => None,
                })
                .expect("merge validated every group has members");
            group_home.insert(*key, p.shard_of(lowest));
        }
        for (key, producer) in groups {
            self.reactor
                .send(group_home[&key], Command::InstallGroup(key, producer))?;
        }
        for (state, members) in count_groups.into_iter().zip(count_members) {
            let lowest = members
                .first()
                .expect("merge validated every count group has members")
                .0;
            let shard = p.shard_of(lowest);
            let sd = state.producer.slide_duration();
            // re-derive the founding offset class against the current
            // counter: the installed group's open slide has observed `fill`
            // arrivals (by ordinal — admission pruning withholds objects
            // from `pending` but never from the ordinal clock), so it last
            // sat empty `fill` objects ago — class `(published − fill) mod
            // s`. Merge rejected same-(s, fill, predicate) collisions, so
            // keys are unique.
            let key = GroupKey::Count((
                sd,
                (p.published % sd + sd - state.fill() % sd) % sd,
                state.predicate,
            ));
            for (id, _) in &members {
                p.admit(*id, shard, Some(key));
            }
            self.reactor
                .send(shard, Command::InstallCountGroup(state, members))?;
        }
        for (id, session) in loose {
            let (shard, key) = match &session {
                AnySession::Shared(s) => {
                    let key = (s.slide_duration(), s.predicate());
                    (group_home[&key], Some(GroupKey::Slide(key)))
                }
                _ => (p.shard_of(id), None),
            };
            self.reactor.send(shard, Command::Install(id, session))?;
            p.admit(id, shard, key);
        }
        self.reactor.send(0, Command::InstallCounters(tally))
    }

    // ---- elastic operation ------------------------------------------------

    /// Moves one query's live session to `shard`, between two publishes —
    /// i.e. on a slide boundary of the command stream: the session leaves
    /// its old shard only after every previously published batch is
    /// applied there, and lands on the new shard before any later batch,
    /// so it observes the exact same object sequence as an unmoved query.
    /// Results are unaffected: slides completed on either side meet in
    /// the next [`drain`](AsyncHub::drain), whose global
    /// `(QueryId, slide)` sort is placement-blind.
    ///
    /// A shared or grouped query moves with its **entire group** — the
    /// group's producer is shard-local state shared with its co-members,
    /// so the group travels as one unit and the shard-locality invariant
    /// holds by construction.
    ///
    /// Moving a query to the shard it already lives on is a no-op. A
    /// shard dying mid-move surfaces as [`SapError::ShardDown`]; the
    /// sessions in flight are lost with it (exactly as if their new home
    /// had died a moment later).
    ///
    /// # Panics
    ///
    /// If `shard >= self.num_shards()` — a placement that cannot exist,
    /// i.e. a caller bug, not a data-dependent condition.
    pub fn move_query(&mut self, id: QueryId, shard: usize) -> Result<(), SapError> {
        self.flush_pending_one()?;
        let p = &mut self.placement;
        let reactor = &self.reactor;
        assert!(
            shard < p.num_shards(),
            "move_query target {shard} out of range ({} shards)",
            p.num_shards()
        );
        if !p.registered.contains(&id) {
            return Err(SapError::UnknownQuery { query: id });
        }
        let source = p.home_shard(id);
        if source == shard {
            return Ok(());
        }
        let moved = match p.member_of.get(&id).copied() {
            Some(key @ GroupKey::Slide(sd)) => {
                let (producer, members) =
                    reactor.ask(source, |reply| Command::EjectGroup(sd, reply))?;
                reactor.send(shard, Command::InstallGroup(sd, producer))?;
                let moved = members.len();
                for (member, session) in members {
                    reactor.send(shard, Command::Install(member, session))?;
                }
                p.groups.insert(key, (shard, moved));
                moved
            }
            Some(key @ GroupKey::Count(_)) => {
                // a grouped count query moves with its entire count group —
                // same shard-local-state rationale as a slide group
                let (state, members) =
                    reactor.ask(source, |reply| Command::EjectCountGroup(id, reply))?;
                let moved = members.len();
                reactor.send(shard, Command::InstallCountGroup(state, members))?;
                p.groups.insert(key, (shard, moved));
                moved
            }
            None => {
                let session = reactor.ask(source, |reply| Command::Unregister(id, reply))?;
                reactor.send(shard, Command::Install(id, session))?;
                if p.shard_of(id) == shard {
                    p.placed.remove(&id);
                } else {
                    p.placed.insert(id, shard);
                }
                1
            }
        };
        p.shard_len[source] -= moved;
        p.shard_len[shard] += moved;
        Ok(())
    }

    /// Re-partitions every live session across `num_shards` fresh
    /// logical shards (clamped to ≥ 1) — the worker threads are reused,
    /// only the slots are replaced. Every shard hands back its entire
    /// serving state, which is re-scattered by the id hash under the new
    /// count — groups wholesale, honoring shard affinity. Built on the
    /// same eject/install plane as [`move_query`](AsyncHub::move_query),
    /// and results are unaffected for the same reason: sessions observe
    /// the same object sequence, and updates completed before the resize
    /// (parked here, returned by the next [`drain`](AsyncHub::drain))
    /// sort into the same global order.
    ///
    /// The eject is **transactional**: every shard's state is staged
    /// before anything commits. If a shard turns out dead mid-stage, the
    /// staged parts are reinstalled on the shards they came from and the
    /// typed [`SapError::ShardDown`] is returned with the old placement
    /// intact. Placement overrides from earlier `move_query` calls are
    /// cleared — the new partitioning is pure hash-and-affinity.
    pub fn resize(&mut self, num_shards: usize) -> Result<(), SapError> {
        let num_shards = num_shards.max(1);
        self.flush_pending_one()?;
        let merged = self.eject_all()?;
        // quiesce: eject replies guarantee empty queues, but a worker
        // may still hold a core between unlock and put-back — wait until
        // every live slot is whole before swapping the slot vector
        {
            let mut state = self.reactor.state();
            while !state.slots.iter().all(Slot::idle) {
                state = self.reactor.wait_room(state);
            }
            // retire the old slots' park counts so publisher_parks()
            // stays monotone across placements (depth HWMs are
            // per-placement by design and start fresh)
            state.retired_parks += state.slots.iter().map(|s| s.parks).sum::<u64>();
            state.slots = (0..num_shards)
                .map(|i| Slot::new(i, self.reactor.capacity, self.reactor.config))
                .collect();
        }
        self.placement.reset(num_shards);
        self.place_parts(merged)
    }

    /// Empties every shard for a repartition, transactionally (see
    /// [`resize`](AsyncHub::resize)). Rescued undrained updates go into
    /// `parked_updates` on both paths — they are completed slides either
    /// way, and the next drain's global sort places them correctly.
    fn eject_all(&mut self) -> Result<ShardParts, SapError> {
        // stage phase: enqueue every eject (skipping shards that refuse the
        // send — they are already dead), then collect what actually arrives
        let mut down: Option<SapError> = None;
        let mut replies = Vec::with_capacity(self.placement.num_shards());
        for shard in 0..self.placement.num_shards() {
            let (reply, rx) = mpsc::channel();
            match self.reactor.send(shard, Command::EjectAll(reply)) {
                Ok(()) => replies.push((shard, rx)),
                Err(err) => down = down.or(Some(err)),
            }
        }
        let mut staged: Vec<(usize, ShardParts)> = Vec::with_capacity(replies.len());
        for (shard, rx) in replies {
            match rx.recv() {
                Ok((part, updates)) => {
                    self.parked_updates.extend(updates);
                    staged.push((shard, part));
                }
                Err(_) => down = down.or(Some(SapError::ShardDown { shard })),
            }
        }
        if let Some(err) = down {
            // abort: put every staged part back where it was. A shard dying
            // *during* the abort loses its own sessions (exactly as if it
            // had died a moment later), never another shard's.
            for (shard, part) in staged {
                self.reinstall_parts(shard, part)?;
            }
            return Err(err);
        }
        // commit phase: the old shards are empty, merge for the re-scatter
        RegistryParts::merge(staged.into_iter().map(|(_, part)| part).collect())
            .map_err(SapError::from)
    }

    /// Reinstalls one shard's ejected parts back onto the shard they came
    /// from — the abort path of [`eject_all`](AsyncHub::eject_all). The
    /// part is un-merged, so its grouped sessions reference its own
    /// `count_groups` list by canonical index; placement was never
    /// touched, so no bookkeeping changes here.
    fn reinstall_parts(&self, shard: usize, parts: ShardParts) -> Result<(), SapError> {
        let RegistryParts {
            sessions,
            groups,
            count_groups,
            tally,
        } = parts;
        for (key, producer) in groups {
            self.reactor
                .send(shard, Command::InstallGroup(key, producer))?;
        }
        let (count_members, loose) = split_count_members(sessions, count_groups.len());
        for (id, session) in loose {
            self.reactor.send(shard, Command::Install(id, session))?;
        }
        for (state, members) in count_groups.into_iter().zip(count_members) {
            self.reactor
                .send(shard, Command::InstallCountGroup(state, members))?;
        }
        self.reactor.send(shard, Command::InstallCounters(tally))
    }
}

/// Sessions with their ids, ascending.
type Sessions = Vec<(QueryId, ShardSession)>;

/// The member lists of `groups` count groups, by canonical group index
/// (ascending id within each, as `sessions` is ascending), and the other
/// sessions — grouped sessions travel with their count group, not alone.
fn split_count_members(sessions: Sessions, groups: usize) -> (Vec<Sessions>, Sessions) {
    let mut members: Vec<Sessions> = (0..groups).map(|_| Vec::new()).collect();
    let mut loose = Vec::with_capacity(sessions.len());
    for (id, session) in sessions {
        match &session {
            AnySession::Grouped(g) => members[g.group() as usize].push((id, session)),
            _ => loose.push((id, session)),
        }
    }
    (members, loose)
}

impl Drop for AsyncHub {
    /// Ships any coalesced `publish_one` tail (best effort: a dead shard
    /// cannot take it anyway), then wakes and joins the workers.
    /// Outstanding commands are processed before a worker exits;
    /// accumulated updates that were never drained are discarded.
    fn drop(&mut self) {
        let _ = self.flush_pending_one();
        self.reactor.state().shutdown = true;
        self.reactor.work_cv.notify_all();
        self.reactor.room_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::object::top_k_of;
    use crate::predicate::Predicate;
    use crate::session::Hub;
    use crate::subscription::Subscription;
    use crate::test_support::{count, grouped, shared, timed, Toy, ToyTimed};
    use crate::window::WindowSpec;

    fn stream(len: usize) -> Vec<Object> {
        (0..len)
            .map(|i| Object::new(i as u64, ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn matches_sequential_hub_update_for_update() {
        for (shards, workers) in [(1, 1), (3, 2), (16, 4)] {
            let mut seq = Hub::new();
            let mut hub = AsyncHub::new(shards, workers);
            for i in 0..13usize {
                let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                seq.register_engine(count(Toy::new(n, k, s)).into());
                hub.register_engine(count(Toy::new(n, k, s))).unwrap();
            }
            let data = stream(97);
            let mut expected = Vec::new();
            for chunk in data.chunks(17) {
                expected.extend(seq.publish(chunk));
                hub.publish(chunk).unwrap();
            }
            expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
            let got = hub.drain().unwrap();
            assert_eq!(got, expected, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn more_shards_than_workers_with_capacity_one_still_drains() {
        // capacity 1 forces the publisher through the park/wake path
        let mut hub =
            AsyncHub::with_config(8, 2, 1, Box::new(FifoScheduler), ServingConfig::default());
        for _ in 0..8 {
            hub.register_engine(count(Toy::new(4, 2, 2))).unwrap();
        }
        for chunk in stream(64).chunks(2) {
            hub.publish(chunk).unwrap();
        }
        let updates = hub.drain().unwrap();
        assert_eq!(updates.len(), 8 * 32);
        assert!(hub.drain().unwrap().is_empty(), "drain clears");
    }

    #[test]
    fn poll_ready_and_try_publish_refuse_instead_of_parking() {
        let mut hub =
            AsyncHub::with_config(1, 1, 2, Box::new(FifoScheduler), ServingConfig::default());
        // a slow engine wedges the single shard so its queue fills
        hub.register_engine(count(Toy::new(4, 1, 2))).unwrap();
        hub.flush().unwrap();
        // stuff the queue to the brim without a worker keeping up:
        // flush() above parked the worker on an empty queue; now race two
        // batches in — at least the second may find the queue full. Retry
        // until we observe a refusal OR everything was absorbed (the
        // worker can be fast); either way nothing may park forever.
        let mut refused = false;
        for chunk in stream(40).chunks(2) {
            if !hub.try_publish(chunk).unwrap() {
                refused = true;
                // poll_ready eventually reopens once the worker drains
                while !hub.poll_ready().unwrap() {
                    std::thread::yield_now();
                }
                assert!(hub.try_publish(chunk).unwrap(), "room was verified");
            }
        }
        let _ = refused; // timing-dependent; the invariant is no deadlock
        assert_eq!(hub.drain().unwrap().len(), 20);
    }

    #[test]
    fn seeded_schedules_are_invisible_in_output() {
        let mut reference = None;
        for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut hub = AsyncHub::with_scheduler(8, 3, Box::new(SeededScheduler::new(seed)));
            for i in 0..10usize {
                let (n, k, s) = (4 * (1 + i % 3), 1 + i % 4, 2 * (1 + i % 3));
                hub.register_engine(count(Toy::new(n, k, s))).unwrap();
            }
            for chunk in stream(60).chunks(7) {
                hub.publish(chunk).unwrap();
            }
            let got = hub.drain().unwrap();
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(&got, expected, "seed={seed}"),
            }
        }
    }

    #[test]
    fn shared_and_grouped_planes_work_and_stats_sum_exactly() {
        let mut hub = AsyncHub::new(8, 2);
        for _ in 0..5 {
            hub.register_engine(grouped(Toy::new(2, 1, 1), 4, 2))
                .unwrap();
        }
        for _ in 0..4 {
            hub.register_engine(shared(Toy::new(4, 2, 2), 20, 10))
                .unwrap();
        }
        hub.publish(&stream(8)).unwrap();
        hub.flush().unwrap();
        let stats = hub.stats().unwrap();
        assert_eq!(stats.queries, 9);
        assert_eq!(stats.grouped_queries, 5);
        assert_eq!(stats.shared_queries, 4);
        assert_eq!(stats.count_groups, 1, "one geometry class, one shard");
        assert_eq!(stats.digest_groups, 1, "one slide group, one shard");
        assert!(stats.count_group_hits > 0);
    }

    #[test]
    fn timed_queries_and_watermarks_match_sequential() {
        let mut seq = Hub::new();
        let mut hub = AsyncHub::new(4, 2);
        for k in 1..=3 {
            seq.register_engine(timed(ToyTimed::new(20, 10, k)).into());
            hub.register_engine(timed(ToyTimed::new(20, 10, k)))
                .unwrap();
        }
        let data: Vec<TimedObject> = (0..50)
            .map(|i| TimedObject::new(i, i * 3, ((i * 37) % 101) as f64))
            .collect();
        let mut expected = Vec::new();
        for chunk in data.chunks(9) {
            expected.extend(seq.publish_timed(chunk));
            hub.publish_timed(chunk).unwrap();
        }
        expected.extend(seq.advance_time(1_000));
        hub.advance_time(1_000).unwrap();
        expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
        assert_eq!(hub.drain().unwrap(), expected);
    }

    #[test]
    fn unregister_inspect_move_and_resize_round_trip() {
        let mut hub = AsyncHub::new(6, 2);
        let a = hub.register_engine(count(Toy::new(4, 1, 2))).unwrap();
        let b = hub.register_engine(count(Toy::new(4, 1, 2))).unwrap();
        hub.publish(&stream(8)).unwrap();
        assert_eq!(hub.inspect(a).unwrap().slides, 4);
        hub.move_query(a, 5).unwrap();
        hub.publish(&stream(4)).unwrap();
        hub.resize(3).unwrap();
        hub.publish(&stream(2)).unwrap();
        // 8+4+2 objects, slide 2 ⇒ 7 slides each, placement-blind
        let updates = hub.drain().unwrap();
        assert_eq!(updates.iter().filter(|u| u.query == a).count(), 7);
        assert_eq!(updates.iter().filter(|u| u.query == b).count(), 7);
        let session = hub.unregister(a).unwrap();
        assert_eq!(session.slides(), 7);
        assert_eq!(
            hub.unregister(a).unwrap_err(),
            SapError::UnknownQuery { query: a }
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.query_ids().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn class_hits_survive_resize() {
        let mut hub = AsyncHub::new(4, 2);
        for _ in 0..3 {
            hub.register_engine(grouped(Toy::new(2, 1, 1), 4, 2))
                .unwrap();
        }
        hub.publish(&stream(16)).unwrap();
        let mut before = hub.stats().unwrap().class_hits;
        assert!(before > 0, "three same-view members share one class");
        for shards in [1, 3, 8] {
            hub.resize(shards).unwrap();
            let after = hub.stats().unwrap().class_hits;
            assert!(after >= before, "resize to {shards}: {after} < {before}");
            hub.publish(&stream(8)).unwrap();
            before = hub.stats().unwrap().class_hits;
            assert!(before > after, "the re-scattered class keeps serving");
        }
    }

    #[test]
    fn resized_shards_inherit_the_serving_config() {
        let config = ServingConfig {
            result_class_sharing: false,
            admission_pruning: false,
        };
        let mut hub = AsyncHub::with_config(2, 2, 4, Box::new(FifoScheduler), config);
        // descending scores: with pruning on, every arrival after an open
        // slide's first would be dominated by k_max = 1 admitted object
        let falling: Vec<Object> = (0..16).map(|i| Object::new(i, -(i as f64))).collect();
        hub.register_engine(grouped(Toy::new(2, 1, 1), 4, 2))
            .unwrap();
        hub.resize(3).unwrap();
        // registered on the resized shards: still a solo class
        hub.register_engine(grouped(Toy::new(2, 1, 1), 4, 2))
            .unwrap();
        hub.publish(&falling).unwrap();
        let stats = hub.stats().unwrap();
        assert_eq!(stats.result_classes, 2, "no pooling after resize");
        assert_eq!(stats.class_hits, 0);
        assert_eq!(stats.pruned, 0, "no pruning after resize");
        assert_eq!(stats.admitted, 16);
    }

    #[test]
    fn empty_hub_and_empty_batch_are_noops() {
        let mut hub = AsyncHub::new(0, 0); // clamps to 1/1
        assert_eq!(hub.num_shards(), 1);
        assert_eq!(hub.num_workers(), 1);
        hub.publish(&stream(10)).unwrap();
        let q = hub.register_engine(count(Toy::new(2, 1, 2))).unwrap();
        hub.publish(&[]).unwrap();
        assert!(hub.drain().unwrap().is_empty());
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
        assert_eq!(hub.publisher_parks(), 0);
    }

    #[test]
    fn zero_shards_workers_and_capacity_clamp_to_one() {
        let mut hub =
            AsyncHub::with_config(0, 0, 0, Box::new(FifoScheduler), ServingConfig::default());
        assert_eq!(hub.num_shards(), 1);
        assert_eq!(hub.num_workers(), 1);
        assert!(hub.is_empty());
        hub.register_engine(count(Toy::new(2, 1, 1))).unwrap();
        // capacity 1: every publish rendezvous with the shard
        hub.publish(&stream(3)).unwrap();
        hub.flush().unwrap();
        assert_eq!(
            hub.drain().unwrap().len(),
            3,
            "flush must not consume updates"
        );
    }

    #[test]
    fn inspect_reflects_all_prior_publishes() {
        let mut hub = AsyncHub::new(3, 2);
        let q = hub.register_engine(count(Toy::new(4, 2, 2))).unwrap();
        let data = stream(12);
        hub.publish(&data).unwrap();
        let state = hub.inspect(q).unwrap();
        assert_eq!(state.slides, 6);
        assert_eq!(state.last_snapshot, top_k_of(&data[8..], 2));
        let ghost = QueryId::from_raw(999);
        assert_eq!(
            hub.inspect(ghost),
            Err(SapError::UnknownQuery { query: ghost })
        );
    }

    /// Irregular-rate timed stream: timestamp gaps cycle through 0..7
    /// time units, so slides hold wildly varying object counts (empty
    /// slides included once gaps exceed a slide duration).
    fn timed_stream(len: usize) -> Vec<TimedObject> {
        let mut ts = 0u64;
        (0..len)
            .map(|i| {
                ts += (i as u64 * 5 + 3) % 8;
                TimedObject::new(i as u64, ts, ((i * 37) % 101) as f64)
            })
            .collect()
    }

    #[test]
    fn timed_inspect_and_unregister_cross_the_shard_boundary() {
        let mut hub = AsyncHub::new(3, 2);
        let q = hub
            .register_engine(timed(ToyTimed::new(20, 10, 2)))
            .unwrap();
        hub.publish_timed(&timed_stream(40)).unwrap();
        hub.flush().unwrap();
        let state = hub.inspect(q).unwrap();
        assert!(state.slides > 0);
        let session = hub.unregister(q).unwrap();
        assert_eq!(session.slides(), state.slides);
        assert!(session.into_timed().is_some());
    }

    #[test]
    fn shared_queries_follow_their_group_even_when_the_hash_disagrees() {
        let mut hub = AsyncHub::new(8, 2);
        let pass = Predicate::default();
        let founder = hub
            .register_engine(shared(Toy::new(4, 2, 2), 20, 10))
            .unwrap();
        let home = hub.placement.groups[&GroupKey::Slide((10, pass))].0;
        assert_eq!(
            home,
            hub.placement.shard_of(founder),
            "the founder places the group"
        );
        let mut members = vec![founder];
        let mut disagreements = 0usize;
        for _ in 0..12 {
            let q = hub
                .register_engine(shared(Toy::new(4, 2, 2), 20, 10))
                .unwrap();
            if hub.placement.shard_of(q) != home {
                disagreements += 1;
            }
            assert_eq!(
                hub.placement.home_shard(q),
                home,
                "group-aware placement must override the hash"
            );
            members.push(q);
        }
        assert!(disagreements > 0, "the hash must disagree for this to bite");
        assert_eq!(hub.placement.groups[&GroupKey::Slide((10, pass))].1, 13);
        // placement is invisible in the output: byte-identical to the
        // sequential hub's registration-order delivery
        let mut seq = Hub::new();
        for _ in 0..13 {
            seq.register_engine(shared(Toy::new(4, 2, 2), 20, 10).into());
        }
        let data = timed_stream(60);
        let mut expected = Vec::new();
        for chunk in data.chunks(9) {
            expected.extend(seq.publish_timed(chunk));
            hub.publish_timed(chunk).unwrap();
        }
        expected.sort_unstable_by_key(|u| (u.query, u.result.slide));
        assert_eq!(hub.drain().unwrap(), expected);
        // stats aggregate the per-shard registries
        let stats = hub.stats().unwrap();
        assert_eq!(stats.queries, 13);
        assert_eq!(stats.shared_queries, 13);
        assert_eq!(stats.digest_groups, 1, "one group, wholly on one shard");
        assert!(stats.digest_hits > 0);
        // inspect and unregister route through the group's shard too
        let probe = *members.last().unwrap();
        assert!(hub.inspect(probe).unwrap().slides > 0);
        for q in members {
            assert!(hub.unregister(q).unwrap().into_shared().is_some());
        }
        assert!(
            hub.placement.groups.is_empty(),
            "the last member out retires the group's placement"
        );
    }

    /// An engine that kills its shard on the first slide.
    struct Bomb(WindowSpec);
    impl crate::checkpoint::CheckpointState for Bomb {}
    impl SlidingTopK for Bomb {
        fn spec(&self) -> WindowSpec {
            self.0
        }
        fn slide(&mut self, _: &[Object]) -> &[Object] {
            panic!("engine bug");
        }
        fn candidate_count(&self) -> usize {
            0
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> OpStats {
            OpStats::default()
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }

    #[test]
    fn dead_shard_does_not_strand_shared_group_bookkeeping() {
        let mut hub = AsyncHub::new(1, 1);
        // a Bomb on the shared plane: ⟨1, 1, 1⟩ is the reduction of
        // W⟨10, 10⟩ with k = 1, and the first closed slide kills shard 0
        let pass = Predicate::default();
        let bomb: Box<dyn SlidingTopK + Send> = Box::new(Bomb(WindowSpec::new(1, 1, 1).unwrap()));
        let bomb = Subscription::shared(bomb, 10, 10, pass).unwrap();
        let bomb = hub.register_engine(bomb).unwrap();
        assert_eq!(hub.placement.groups[&GroupKey::Slide((10, pass))], (0, 1));
        let _ = hub.publish_timed(&[TimedObject::new(0, 5, 1.0), TimedObject::new(1, 15, 2.0)]);
        let _ = hub.flush();
        // a registration into the group now targets the dead shard: a
        // typed error that must NOT join the membership bookkeeping
        assert_eq!(
            hub.register_engine(shared(Toy::new(1, 1, 1), 10, 10))
                .unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(
            hub.placement.groups[&GroupKey::Slide((10, pass))],
            (0, 1),
            "a failed registration never counts as a member"
        );
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.stats().unwrap_err(), SapError::ShardDown { shard: 0 });
        // unregistering the lost query keeps reporting the dead shard and
        // leaves membership intact (the query was lost, not removed)
        assert_eq!(
            hub.unregister(bomb).unwrap_err(),
            SapError::ShardDown { shard: 0 }
        );
        assert_eq!(hub.placement.groups[&GroupKey::Slide((10, pass))], (0, 1));
    }

    #[test]
    fn registration_survives_a_dead_shard() {
        let mut hub = AsyncHub::new(2, 2);
        let bomb: Box<dyn SlidingTopK + Send> = Box::new(Bomb(WindowSpec::new(1, 1, 1).unwrap()));
        hub.register_engine(Subscription::count(bomb)).unwrap();
        let _ = hub.publish(&stream(1)); // kills the Bomb's shard
        let _ = hub.flush(); // make sure the shard is dead
                             // failed registrations burn their id, so retries derive fresh ids
                             // and eventually hash onto the healthy shard
        let q = (0..8)
            .find_map(|_| hub.register_engine(count(Toy::new(2, 1, 1))).ok())
            .expect("a healthy shard accepted a registration");
        assert_eq!(hub.inspect(q).unwrap().slides, 0);
    }

    /// `HubStats.digest_groups`/`count_groups` summing is exact *only
    /// because* groups are shard-local. If a routing regression ever
    /// founded the same group on two shards, the stats merge must catch
    /// it instead of silently double-counting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slide group split across workers")]
    fn stats_merge_catches_a_slide_group_split_across_workers() {
        // simulate the regression at the registry level: two shards
        // each founded a slide group with the same slide_duration
        // (routing gone hash-only instead of group-affine)
        let config = ServingConfig::default();
        let mut a: ShardRegistry = Registry::new(config, Some(0));
        let mut b: ShardRegistry = Registry::new(config, Some(1));
        a.register(
            QueryId::from_raw(0),
            shared(Toy::new(1, 1, 1), 10, 10),
            Some(0),
        );
        b.register(
            QueryId::from_raw(1),
            shared(Toy::new(1, 1, 1), 10, 10),
            Some(1),
        );
        let mut seen = GroupKeys::default();
        seen.absorb_disjoint(&a.group_keys(), 0);
        seen.absorb_disjoint(&b.group_keys(), 1); // must panic here
    }

    /// Same detector, count plane: two shards holding the same
    /// `(s, fill)` geometry class is a split count group.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count group split across workers")]
    fn stats_merge_catches_a_count_group_split_across_workers() {
        let mut seen = GroupKeys::default();
        let shard_keys = GroupKeys {
            digest: Vec::new(),
            count: vec![(4, 2, Predicate::default())],
        };
        seen.absorb_disjoint(&shard_keys, 0);
        seen.absorb_disjoint(&shard_keys, 1); // must panic here
    }
}
