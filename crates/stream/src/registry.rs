//! The session registry: one copy of the fan-out, digest-group, and
//! statistics bookkeeping shared by the sequential [`Hub`] and every
//! [`AsyncHub`] shard.
//!
//! Before the shared digest plane, the hub and the shard workers each
//! carried their own `Vec<(QueryId, AnySession)>` dispatch loop; adding
//! slide groups to both would have meant two copies of the trickiest
//! bookkeeping in the crate (group membership, warm-up promotion, digest
//! fan-out). [`Registry`] is that logic extracted once: the sequential
//! hub *is* a registry driven from the caller's thread, and each shard
//! worker *is* a registry driven from its queue — which is also what
//! keeps the two byte-identical by construction.
//!
//! ## Slide groups
//!
//! Shared time-based sessions are grouped by `slide_duration`: every
//! member of a group closes slides at identical watermarks, so the group
//! owns one [`DigestProducer`] (at `k_max` = the largest member `k`,
//! grown on registration) and each published object is ingested **once
//! per group whose predicate accepts it** instead of once per query.
//! Closed digests fan out to the members, each slicing its own `k`
//! prefix.
//!
//! A member registering mid-stream must only observe objects published
//! after its registration (exactly like an isolated session). Until the
//! group slide it joined during has closed, the member therefore runs on
//! a private warm-up producer fed the raw stream; once that slide closes,
//! the private and shared views provably coincide (every later slide
//! started after the registration) and the member is promoted to shared
//! consumption. Warm-up slides are counted as
//! [`digest_rebuilds`](HubStats::digest_rebuilds), shared consumptions as
//! [`digest_hits`](HubStats::digest_hits).
//!
//! ## Count groups
//!
//! The count-based side has the same sharing opportunity one key over:
//! every count-based query with slide length `s` registered at the same
//! stream offset (mod `s`) fills and closes slides on **identical
//! arrival boundaries**, whatever its `n` and `k`. Such queries form a
//! *count group* — geometry key `(s, registration offset mod s)` — that
//! owns one [`DigestProducer`] driven by the group's arrival ordinals
//! (each ordinal doubling as the synthetic timestamp, so slides close
//! exactly every `s` arrivals) plus one ring of the last `n_max + s`
//! external ids. Each published object is ingested **once per group**
//! (ring) and reaches the producer only in groups whose predicate
//! accepts it; when a slide fills, the group truncates it once at
//! `k_max` and every member slices its `(n, k)` view through its
//! private [`SharedTimed`] reduction — byte-identical to an isolated
//! session, with no per-query work per object.
//!
//! Registration phase is the known blocker for grouping count queries
//! (equal-`s` sessions generally differ by offset), and the join rule
//! dissolves it: a new member joins an existing group with its `s` only
//! when that group's open slide is **empty** — then the member starts on
//! a fresh slide boundary, has missed nothing, and needs no warm-up
//! machinery at all. At most one group per `s` can have an empty open
//! slide at any instant (two same-`s` groups always sit at different
//! offsets mod `s`), so the rule is deterministic; a registration that
//! finds no empty-slide group founds a new geometry class at the current
//! offset. Group slides served to members are counted as
//! [`count_group_hits`](HubStats::count_group_hits); slides computed by
//! isolated count sessions ([`Subscription::count`]) as
//! [`count_group_rebuilds`](HubStats::count_group_rebuilds), so the
//! sharing ratio is observable.
//!
//! ## Result classes
//!
//! Grouping makes *ingest* per group, not per query, but every slide
//! close still walked every member, re-running an identical reduction
//! and diff for members with the same view. The second tier collapses
//! that per-member floor: within each count group, members are
//! partitioned into **result classes** keyed by `(n, k, join_slide)` —
//! a member's emissions are a pure function of the group's stream and
//! that key, so one class computes byte-identical snapshots for all its
//! members. The class owns the one [`SharedTimed`] consumer the members
//! share; a slide close runs the reduction, the ordinal → external-id
//! translation, and the delta diff **once per class**, and each member
//! emission is two refcount bumps plus an inline event copy (zero heap
//! allocations on a quiet slide). The shared timed plane classes the same way by `(wd, k)` for
//! members that joined a pristine group; mid-stream joiners warm up solo
//! and stay solo after promotion (their class membership is not provable
//! until their partial join slide has left the window). Emissions served
//! from a class beyond the one computing member are counted as
//! [`class_hits`](HubStats::class_hits); classes are derivable from
//! member state, so checkpoints carry no class section and restore
//! rebuilds them — with every byte of the checkpoint identical to the
//! pre-class encoding.
//!
//! ## Publish cost
//!
//! `publish`, `publish_timed` and `advance_time` cost O(individually
//! served sessions + predicate-matching groups + emitted updates), not
//! O(sessions + groups × objects):
//!
//! * **The walk serves only what it must.** A derived, ascending list of
//!   store positions names the sessions served one by one — isolated
//!   count and timed sessions and unclassed shared members (warming up,
//!   or promoted solo). Classed and grouped members are reached through
//!   their class, never walked. Warm-up promotion happens in that walk,
//!   right after the member is served: every group's producer has
//!   absorbed the whole call by then.
//! * **Groups are reached through a predicate index.** Each batch is
//!   routed once through a [`PredicateIndex`] per plane — pass-all
//!   groups take every object, score-only groups are scanned, `key`
//!   groups are found by key and `tag` groups by `(modulus, residue)` —
//!   so an object costs nothing at a group whose key or tag rejects it.
//!   A slide group advances its clock only before an accepted object, to
//!   the batch's prefix-maximum timestamp, and once more at the batch
//!   end; count groups extend their ring by one id slice per segment
//!   between slide closes. Both close exactly the slides, in the same
//!   order, that object-at-a-time ingest closes — batch size is
//!   invisible in the output.
//! * **Members are reached directly.** A class keeps each member's
//!   cached position in the session store, checked on use and re-found
//!   by binary search only after the store shifted.
//!
//! All of this state is derived — rebuilt on membership changes, never
//! checkpointed.
//!
//! [`Hub`]: crate::session::Hub
//! [`AsyncHub`]: crate::exec::AsyncHub

use std::collections::{HashMap, VecDeque};

use crate::checkpoint::{tags, CheckpointError, Decoder, Encoder};
use crate::digest::{DigestProducer, DigestRef, DigestView, SharedTimed};
use crate::events::{EventList, SlideResult, Snapshot};
use crate::object::{Object, TimedObject};
use crate::predicate::{Predicate, PredicateIndex, PruneGate};
use crate::query::{SapError, TimedSpec};
use crate::session::{
    close_staged, AnySession, GroupedSession, QueryId, QueryUpdate, Session, SharedSession,
    SlideScratch, TimedSession,
};
use crate::subscription::{Plane, ServingConfig, Subscription};
use crate::window::{Ingest, SlidingTopK, TimedIngest, TimedTopK, WindowSpec};

/// A point-in-time summary of a hub's registered queries and how much
/// per-slide work the shared digest plane is saving — what
/// `Hub::stats()`/`AsyncHub::stats()` report, so benches and examples
/// can measure sharing instead of guessing at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HubStats {
    /// Total registered queries.
    pub queries: usize,
    /// Count-based queries (window on arrival counts).
    pub count_queries: usize,
    /// Time-based queries running isolated (private Appendix-A adapter).
    pub timed_queries: usize,
    /// Time-based queries served by the shared digest plane.
    pub shared_queries: usize,
    /// Live slide groups (distinct `slide_duration`s with ≥ 1 shared
    /// member).
    ///
    /// **Invariant**: a slide group never spans shards — every member of
    /// a group lives on one shard, enforced by `AsyncHub`'s group-
    /// affine routing (`home_shard`) and debug-asserted at registration
    /// inside `Registry`. Summing this field across shards (see
    /// [`merge`](HubStats::merge)) is exact *only* because of that
    /// invariant: shard-local group counts partition the hub-wide set of
    /// groups, so no group is double-counted.
    pub digest_groups: u64,
    /// Slides served to a shared member from its group's digest — work
    /// the member did **not** redo.
    pub digest_hits: u64,
    /// Slides a shared member computed from its private warm-up producer
    /// (mid-stream joins catching up to their group).
    pub digest_rebuilds: u64,
    /// Count-based queries served by the shared count plane
    /// ([`Subscription::grouped`]).
    pub grouped_queries: usize,
    /// Live count groups (distinct `(slide length, registration offset)`
    /// geometry classes with ≥ 1 grouped member). Shard-local for the
    /// same reason [`digest_groups`](HubStats::digest_groups) is, so
    /// per-shard sums are exact.
    pub count_groups: u64,
    /// Slides served to a grouped count member from its group's shared
    /// truncation — per-slide work the member did **not** redo.
    pub count_group_hits: u64,
    /// Slides computed by **isolated** count sessions outside the shared
    /// count plane — the per-query work grouping would have pooled.
    pub count_group_rebuilds: u64,
    /// Objects admitted into a sharing-plane producer's open slide —
    /// slide groups and count groups alike. Ticks whether or not
    /// dominance pruning is enabled, so
    /// [`prune_rate`](HubStats::prune_rate) compares the same population
    /// on both arms. Objects a group's subscription predicate rejects
    /// count toward **neither** `admitted` nor `pruned` — they never
    /// reach the dominance gate.
    pub admitted: u64,
    /// Objects the k-skyband dominance gate skipped: at ingest time, at
    /// least `k_max` already-admitted objects of the same open slide
    /// strictly dominated them, so they provably cannot appear in the
    /// slide's top-`k_max` digest and no member can ever observe them.
    /// Always 0 while admission pruning is disabled
    /// ([`ServingConfig::admission_pruning`] off — the reference arm).
    pub pruned: u64,
    /// Live result classes across both sharing planes (see the module
    /// docs on result classes): distinct `(n, k, join_slide)` cohorts inside
    /// count groups plus `(wd, k)` cohorts inside slide groups. Equals
    /// the number of reductions actually run per slide close; the gap to
    /// `grouped_queries + shared_queries` is the work the second tier
    /// collapses.
    pub result_classes: u64,
    /// Member emissions served from a class-level computation **beyond**
    /// the one that ran it — per-slide-close work the class memoized
    /// away. Zero while every class is solo (sharing disabled, or no two
    /// members share a view). Survives `AsyncHub::resize` like every
    /// other counter, but resets on checkpoint restore: the checkpoint
    /// format predates it and carries no slot.
    pub class_hits: u64,
    /// Times a publisher parked (blocked on a full shard queue) —
    /// [`AsyncHub`](crate::exec::AsyncHub) backpressure. Summed across
    /// shards by [`merge`](HubStats::merge); the per-shard split lives in
    /// `AsyncHub::shard_loads`, so a balancer can tell *which* shard is
    /// slow. Always 0 on the sequential hub.
    pub publisher_parks: u64,
    /// High-water mark of any one shard's command-queue depth —
    /// **max**-merged, not summed, so the hub-wide value is the worst
    /// shard's. Always 0 outside `AsyncHub`.
    pub queue_depth_hwm: u64,
}

impl HubStats {
    /// Fraction of shared-member slides served from a group digest:
    /// `hits / (hits + rebuilds)`, or 0 before any shared slide closed.
    pub fn digest_hit_rate(&self) -> f64 {
        let total = self.digest_hits + self.digest_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.digest_hits as f64 / total as f64
        }
    }

    /// Fraction of count-based slides served from a shared count group:
    /// `count_group_hits / (count_group_hits + count_group_rebuilds)`,
    /// or 0 before any count slide completed.
    pub fn count_group_hit_rate(&self) -> f64 {
        let total = self.count_group_hits + self.count_group_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.count_group_hits as f64 / total as f64
        }
    }

    /// Fraction of gate-eligible objects the dominance gate pruned:
    /// `pruned / (admitted + pruned)`, or 0 before any object reached a
    /// sharing-plane producer. Exactly 0 while admission pruning is
    /// disabled, because [`pruned`](HubStats::pruned) never ticks there.
    pub fn prune_rate(&self) -> f64 {
        let total = self.admitted + self.pruned;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }

    /// Fraction of sharing-plane member slides served from a result-class
    /// memo beyond the computing member: `class_hits / (digest_hits +
    /// count_group_hits)`, or 0 before any shared slide closed.
    ///
    /// **Dashboards should alarm on this rate falling, not on
    /// [`result_classes`](HubStats::result_classes) rising**: the class
    /// *count* grows with a healthy, diverse query population (every new
    /// `(n, k, join_slide)` cohort adds one), while a falling hit *rate*
    /// means slide closes are doing per-member work the memo used to
    /// absorb — the actual regression signal. Note the denominator counts
    /// member-slides served by the sharing planes, so the rate is
    /// comparable across hubs of different shard counts after
    /// [`merge`](HubStats::merge).
    pub fn class_hit_rate(&self) -> f64 {
        let total = self.digest_hits + self.count_group_hits;
        if total == 0 {
            0.0
        } else {
            self.class_hits as f64 / total as f64
        }
    }

    /// Field-wise accumulation — how `AsyncHub::stats()` folds its
    /// per-shard partials into one hub-wide view. Straight sums are
    /// exact for every field because each query (and — by the
    /// shard-locality invariant documented on
    /// [`digest_groups`](HubStats::digest_groups) — each slide group)
    /// is owned by exactly one shard.
    pub fn merge(&mut self, other: &HubStats) {
        self.queries += other.queries;
        self.count_queries += other.count_queries;
        self.timed_queries += other.timed_queries;
        self.shared_queries += other.shared_queries;
        self.digest_groups += other.digest_groups;
        self.digest_hits += other.digest_hits;
        self.digest_rebuilds += other.digest_rebuilds;
        self.grouped_queries += other.grouped_queries;
        self.count_groups += other.count_groups;
        self.count_group_hits += other.count_group_hits;
        self.count_group_rebuilds += other.count_group_rebuilds;
        self.admitted += other.admitted;
        self.pruned += other.pruned;
        self.result_classes += other.result_classes;
        self.class_hits += other.class_hits;
        self.publisher_parks += other.publisher_parks;
        // a high-water mark is a per-shard extremum, not a partition of a
        // hub-wide quantity — the merged value is the worst shard's
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
    }
}

/// The group identities one registry owns, reported alongside its
/// [`HubStats`] partial so the hub can audit the **shard-locality
/// invariant** that makes [`HubStats::merge`]'s straight sums exact:
/// `digest_groups`/`count_groups` totals are only correct because no
/// group ever spans two workers. Slide groups are identified by their
/// `(slide_duration, predicate)`; count groups by `(slide length, slide
/// fill, predicate)` — at a quiesced instant every shard has consumed
/// the same published prefix, so two count groups with equal `s` and
/// equal predicate sit at the same fill only if they are the same
/// offset class (the same uniqueness argument the checkpoint encoding
/// and `RegistryParts::merge` already rely on). Fill counts **observed
/// stream positions**, not buffered objects, so the identity is stable
/// under dominance pruning and predicate rejection.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct GroupKeys {
    pub(crate) digest: Vec<(u64, Predicate)>,
    pub(crate) count: Vec<(u64, u64, Predicate)>,
}

impl GroupKeys {
    /// Debug-asserts that `other` (reported by `shard`) shares no group
    /// identity with the shards already absorbed, then absorbs it. The
    /// release build just accumulates; the debug build turns a group
    /// split across workers — a routing regression that would silently
    /// double-count groups in [`HubStats`] — into a panic at the merge
    /// site.
    pub(crate) fn absorb_disjoint(&mut self, other: &GroupKeys, shard: usize) {
        debug_assert!(
            !other.digest.iter().any(|sd| self.digest.contains(sd)),
            "slide group split across workers: slide_duration {:?} \
             reported by shard {shard} and an earlier shard",
            other.digest.iter().find(|sd| self.digest.contains(sd)),
        );
        debug_assert!(
            !other.count.iter().any(|key| self.count.contains(key)),
            "count group split across workers: geometry class {:?} \
             reported by shard {shard} and an earlier shard",
            other.count.iter().find(|key| self.count.contains(key)),
        );
        self.digest.extend_from_slice(&other.digest);
        self.count.extend_from_slice(&other.count);
    }
}

/// One slide group: the shared producer, its member count (sessions in
/// [`Registry::sessions`] with this `slide_duration`), and the result
/// classes collapsing same-`(wd, k)` members into one evaluation.
struct DigestGroup<C: SlidingTopK> {
    producer: DigestProducer,
    members: usize,
    /// The group's subscription predicate (also its key's second half):
    /// objects it rejects advance the group's event time but are never
    /// buffered, so every member sees the filtered ranking.
    predicate: Predicate,
    /// The k-skyband dominance gate over the open slide's admitted
    /// objects — rebuilt whenever `k_max` changes or the open slide's
    /// contents are restored, reset at every slide close. Consulted only
    /// while admission pruning is enabled.
    gate: PruneGate,
    /// Result classes of the members that are provably view-equivalent
    /// (joined the group pristine, or byte-matched at installation).
    /// Warming-up and promoted-solo members are served individually and
    /// appear in no class.
    classes: Vec<SharedClass<C>>,
    /// The group's slot in the registry's digest [`PredicateIndex`].
    slot: usize,
}

/// One **result class** of a slide group: every member with this
/// `(window_duration, k)` that joined the pristine group computes
/// byte-identical slides, so the class owns their one consumer and runs
/// each digest's reduction + diff once, and members stamp the shared
/// snapshot (see [`SharedSession::emit_class`]).
struct SharedClass<C: SlidingTopK> {
    wd: u64,
    k: usize,
    /// The one consumer serving every member (members' own `consumer`
    /// fields are `None` while classed).
    consumer: SharedTimed<C>,
    members: Members,
    /// The class's previous emission — byte-equal to every member's by
    /// construction, so the class-level diff is valid for all of them.
    prev: Snapshot,
    scratch: SlideScratch,
    /// The last closed slide's delta, staged once per class and cloned
    /// (inline, allocation-free when unchanged) per member.
    events: EventList,
}

impl<C: SlidingTopK> SharedClass<C> {
    fn new(consumer: SharedTimed<C>, members: Members, prev: Snapshot) -> Self {
        SharedClass {
            wd: consumer.window_duration(),
            k: consumer.k(),
            consumer,
            members,
            prev,
            scratch: SlideScratch::new(),
            events: EventList::new(),
        }
    }

    /// The class-level half of a slide close: one reduction, one diff.
    fn close(&mut self, digest: &DigestRef) -> Snapshot {
        let top = self.consumer.apply_digest(digest);
        self.scratch.stage_timed(top);
        close_staged(&mut self.prev, &mut self.scratch, &mut self.events)
    }
}

/// One count group — a `(slide length, registration offset mod s)`
/// geometry class of count-based queries (see the [module docs](self)).
/// The producer runs on the group's **arrival ordinals** (used as both
/// id and synthetic timestamp), so the module's one slide-truncation
/// rule — equal scores break toward the higher id — lands on arrival
/// recency, exactly matching an isolated [`Session`]'s tie-break.
struct CountGroup<C: SlidingTopK> {
    /// Arrival-count slide length (`s`) shared by every member.
    slide_len: usize,
    /// The shared per-slide truncation at `k_max` over group ordinals.
    producer: DigestProducer,
    /// External id of group ordinal `r` at `ring[r - ring_base]` — the
    /// group-wide translation ring every member's emission reads.
    ring: VecDeque<u64>,
    ring_base: u64,
    /// Retention target: `n_max + s` covers every ordinal any member can
    /// reference at a slide close, because members are served *inside*
    /// the close (before later arrivals can evict entries). Trimming is
    /// lazy, so a shrink (deepest member leaving) drains over time.
    ring_cap: usize,
    /// Member query ids, ascending — the serving fan-out list, so a
    /// group's slide close touches only its members, never the full
    /// session store.
    member_ids: Vec<QueryId>,
    /// Objects this group has observed = the next group ordinal. Under
    /// admission control this keeps counting **every** published object
    /// — predicate-rejected and dominance-pruned ones included — so
    /// slide boundaries, the translation ring, and drain order are
    /// byte-identical to the unfiltered plane.
    next_ordinal: u64,
    /// The group's subscription predicate (part of its geometry-class
    /// identity): rejected objects advance ordinals but never reach the
    /// producer, so members rank only the matching substream.
    predicate: Predicate,
    /// The k-skyband dominance gate over the open slide's admitted
    /// objects — see [`DigestGroup::gate`].
    gate: PruneGate,
    /// The members partitioned into result classes by `(n, k,
    /// join_slide)` — every member appears in exactly one class, and a
    /// slide close runs one reduction + diff per class, not per member.
    classes: Vec<CountClass<C>>,
    /// The group's slot in the registry's count [`PredicateIndex`].
    slot: usize,
}

impl<C: SlidingTopK> CountGroup<C> {
    /// Observed stream positions inside the open slide — the close
    /// trigger and geometry identity. Derived from the ordinal, **not**
    /// `pending_len()`: admission control admits fewer objects than it
    /// observes, but the slide fills on observation.
    fn fill(&self) -> u64 {
        self.next_ordinal - self.producer.next_slide() * self.slide_len as u64
    }
}

/// One **result class** of a count group: its members share `(n, k,
/// join_slide)`, so their emissions are the same pure function of the
/// group's stream — the class owns their one [`SharedTimed`] consumer
/// and computes each slide close once (see the [module docs](self)).
struct CountClass<C: SlidingTopK> {
    n: usize,
    k: usize,
    /// The group slide the class's members joined at — their private
    /// slide 0.
    join_slide: u64,
    /// The one consumer serving every member.
    consumer: SharedTimed<C>,
    members: Members,
    /// The class's previous emission (byte-equal to every member's).
    prev: Snapshot,
    scratch: SlideScratch,
    /// The last closed slide's delta, computed once and cloned per
    /// member (inline — allocation-free when it fits 8 events).
    events: EventList,
}

impl<C: SlidingTopK> CountClass<C> {
    fn new(
        spec: WindowSpec,
        join_slide: u64,
        consumer: SharedTimed<C>,
        members: Members,
        prev: Snapshot,
    ) -> Self {
        CountClass {
            n: spec.n,
            k: spec.k,
            join_slide,
            consumer,
            members,
            prev,
            scratch: SlideScratch::new(),
            events: EventList::new(),
        }
    }

    /// The class-level half of a group slide close: one reduction, one
    /// ordinal → external-id translation, one diff — whatever the class's
    /// member count.
    fn close(&mut self, view: DigestView<'_>, ring: &VecDeque<u64>, ring_base: u64) -> Snapshot {
        let top = self
            .consumer
            .apply_slide_top(view.slide - self.join_slide, view.top);
        self.scratch.snapshot.clear();
        self.scratch.snapshot.extend(
            top.iter()
                .map(|o| Object::new(ring[(o.id - ring_base) as usize], o.score)),
        );
        close_staged(&mut self.prev, &mut self.scratch, &mut self.events)
    }
}

/// A result class's members: query ids, ascending, each paired with the
/// position in [`Registry::sessions`] it was last found at. Serving
/// checks the id stored at the cached position and re-finds the
/// position by binary search only on a miss (a registration or removal
/// below it shifted the store), so a class close reaches each member
/// directly instead of searching the whole store per emission.
#[derive(Debug)]
struct Members(Vec<(QueryId, usize)>);

impl Members {
    fn one(id: QueryId, pos: usize) -> Self {
        Members(vec![(id, pos)])
    }

    /// Appends a member above every current id (ids are handed out
    /// monotonically) at its known store position.
    fn push(&mut self, id: QueryId, pos: usize) {
        debug_assert!(self.0.last().is_none_or(|(m, _)| *m < id));
        self.0.push((id, pos));
    }

    /// Inserts a member at its ascending place; its store position is
    /// found on first use.
    fn insert(&mut self, id: QueryId) {
        let at = self.0.partition_point(|(m, _)| *m < id);
        self.0.insert(at, (id, usize::MAX));
    }

    fn remove(&mut self, id: QueryId) {
        if let Ok(at) = self.0.binary_search_by_key(&id, |(m, _)| *m) {
            self.0.remove(at);
        }
    }

    fn contains(&self, id: QueryId) -> bool {
        self.0.binary_search_by_key(&id, |(m, _)| *m).is_ok()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The lowest member id — the class's representative.
    fn first(&self) -> QueryId {
        self.0[0].0
    }

    fn ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.0.iter().map(|(id, _)| *id)
    }

    /// The store position of the `i`-th member, refreshing the cached
    /// position on a miss.
    fn locate<S>(&mut self, i: usize, sessions: &[(QueryId, S)]) -> usize {
        let (id, pos) = &mut self.0[i];
        if sessions.get(*pos).is_none_or(|(have, _)| have != id) {
            *pos = sessions
                .binary_search_by_key(id, |(have, _)| *have)
                .expect("class member ids name registered sessions");
        }
        *pos
    }
}

/// The registry's running counters — the sharing and admission counts
/// `stats()` reports (see the same-named [`HubStats`] fields) — kept
/// together so the serving paths take them as one argument, and so they
/// travel between registries (restore, resize) as one value.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    digest_hits: u64,
    digest_rebuilds: u64,
    count_group_hits: u64,
    count_group_rebuilds: u64,
    /// Persisted since checkpoint v3.
    admitted: u64,
    pruned: u64,
    /// Not persisted (the checkpoint counter section predates it), so it
    /// resets on restore; a resize carries it like the others.
    class_hits: u64,
    /// Sessions the publish paths served one by one.
    #[cfg(test)]
    sessions_visited: u64,
    /// `(object, group)` pairs group ingest processed past the
    /// predicate dispatch.
    #[cfg(test)]
    group_objects: u64,
}

impl Tally {
    /// Adds `other`'s counters (saturating: decoded counters are
    /// foreign input). The test-only visit probes stay local.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        self.digest_hits = self.digest_hits.saturating_add(other.digest_hits);
        self.digest_rebuilds = self.digest_rebuilds.saturating_add(other.digest_rebuilds);
        self.count_group_hits = self.count_group_hits.saturating_add(other.count_group_hits);
        self.count_group_rebuilds = self
            .count_group_rebuilds
            .saturating_add(other.count_group_rebuilds);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.class_hits = self.class_hits.saturating_add(other.class_hits);
    }

    #[inline]
    fn visit_session(&mut self) {
        #[cfg(test)]
        {
            self.sessions_visited += 1;
        }
    }

    #[inline]
    fn visit_group_object(&mut self) {
        #[cfg(test)]
        {
            self.group_objects += 1;
        }
    }
}

/// A count group's portable state — what travels through checkpoints and
/// whole-group shard migrations. Membership and `ring_cap` are
/// recomputed at installation from the member sessions.
pub(crate) struct CountGroupState {
    pub(crate) producer: DigestProducer,
    pub(crate) ring: VecDeque<u64>,
    pub(crate) ring_base: u64,
    /// The group's subscription predicate (pass-all for v2 images).
    pub(crate) predicate: Predicate,
    /// Observed stream positions — carried explicitly since v3: under
    /// admission control the producer's `pending_len` undercounts the
    /// open slide's fill, so the ordinal is no longer derivable from the
    /// producer alone. v2 images derive it as `next_slide · s +
    /// pending_len` (exact there — nothing was ever skipped).
    pub(crate) next_ordinal: u64,
}

impl CountGroupState {
    /// Observed stream positions inside the open slide — see
    /// [`CountGroup::fill`].
    pub(crate) fn fill(&self) -> u64 {
        self.next_ordinal - self.producer.next_slide() * self.producer.slide_duration()
    }
}

/// The session store and dispatch logic shared by the sequential hub and
/// the shard workers. Sessions are kept in registration order (which is
/// ascending `QueryId` order), so emitted updates are naturally ordered
/// per publish call.
pub(crate) struct Registry<C: SlidingTopK, T: TimedTopK> {
    sessions: Vec<(QueryId, AnySession<C, T>)>,
    /// `(slide_duration, predicate)` → the group serving every shared
    /// session with that geometry **and** that subscription predicate.
    /// Predicate-disjoint members of one slide duration split into
    /// distinct groups, because they rank different substreams.
    groups: HashMap<(u64, Predicate), DigestGroup<C>>,
    /// Live group id → the count group serving its grouped members. Keys
    /// are opaque registry-local handles (geometry is *derivable* — a
    /// group's offset class is `next_ordinal mod s` relative to this
    /// registry's stream — but never used as an identity, because it
    /// shifts across checkpoint/restore/resize epochs).
    count_groups: HashMap<u64, CountGroup<C>>,
    /// Next live count-group id. Monotonic per registry lifetime; never
    /// reused, so a stale handle can't alias a newer group.
    next_count_gid: u64,
    /// Positions in `sessions` of the sessions the publish paths serve
    /// one by one — isolated count, isolated timed, and unclassed shared
    /// (warming-up or promoted-solo) sessions — ascending, so the walk
    /// emits in registration order. Classed and grouped members are
    /// served per class and never walked. Derived; kept in step with
    /// every insertion into and removal from `sessions`.
    served: Vec<usize>,
    /// Dispatch index over the slide groups' predicates (slot =
    /// `DigestGroup::slot`); marked stale whenever `groups` changes.
    digest_index: PredicateIndex,
    /// Dispatch index over the count groups' predicates (slot =
    /// `CountGroup::slot`); marked stale whenever `count_groups` changes.
    count_index: PredicateIndex,
    tally: Tally,
    /// The hub's serving knobs, fixed for the registry's lifetime.
    /// `admission_pruning` gates ingest through the k-skyband dominance
    /// check; `result_class_sharing` lets registration pool
    /// view-equivalent members into shared result classes (re-classing
    /// of *traveling* members — restore, migration — ignores it where a
    /// member cannot serve without its class).
    config: ServingConfig,
    /// Pooled untimed view of a timed batch (for count-based sessions).
    plain_buf: Vec<Object>,
    /// Pooled running maximum of a timed batch's timestamps — the event
    /// time a slide group has reached at each batch position.
    prefix_max: Vec<u64>,
    /// Recent high-water mark of updates per publish call — the capacity
    /// the next returned `Vec<QueryUpdate>` is pre-sized to once its
    /// first result arrives, so steady-state publishes reallocate the
    /// output at most once instead of log₂(len) times. A publish that
    /// completes no slides never allocates the output at all, and the
    /// hint **decays** (halving per update-emitting call while above the
    /// observed size — see `note_update_hint`), so one catch-up burst —
    /// a watermark jump closing thousands of slides — cannot inflate
    /// every later publish's reservation for the hub's lifetime.
    update_hint: usize,
    /// Which `AsyncHub` shard owns this registry (`None` for the
    /// sequential hub) — consulted only by the debug assertion in
    /// [`register_shared`](Registry::register_shared) that a slide
    /// group's members all land on the group's home shard.
    shard: Option<usize>,
}

impl<C: SlidingTopK, T: TimedTopK> Default for Registry<C, T> {
    fn default() -> Self {
        Registry::new(ServingConfig::default(), None)
    }
}

/// A slide group ejected for migration: the shared producer plus its
/// member sessions in ascending-id order (see
/// [`Registry::eject_group`]).
pub(crate) type EjectedGroup<C, T> = (DigestProducer, Vec<(QueryId, AnySession<C, T>)>);

/// A count group ejected for whole-group migration: the group's shared
/// state plus its member sessions in ascending-id order (see
/// [`Registry::eject_count_group_of`]).
pub(crate) type EjectedCountGroup<C, T> = (CountGroupState, Vec<(QueryId, AnySession<C, T>)>);

/// A decoded `tags::REGISTRY` section, still loose: sessions with their
/// replayed engines, slide-group producers, and the sharing counters —
/// everything needed to rebuild a [`Registry`] (or to scatter across
/// `AsyncHub` shards) once [`merge`](RegistryParts::merge) has
/// validated the cross-section invariants.
pub(crate) struct RegistryParts<C: SlidingTopK, T: TimedTopK> {
    pub(crate) sessions: Vec<(QueryId, AnySession<C, T>)>,
    pub(crate) groups: Vec<((u64, Predicate), DigestProducer)>,
    /// Count groups in canonical section order; a grouped session's
    /// `group` field indexes this list (rebased during merge).
    pub(crate) count_groups: Vec<CountGroupState>,
    pub(crate) tally: Tally,
}

impl<C: SlidingTopK, T: TimedTopK> RegistryParts<C, T> {
    /// Folds per-shard registry sections back into one coherent whole:
    /// sessions concatenated and re-sorted into ascending-id order
    /// (identical to hub registration order, so a restored hub drains in
    /// the same global order as the original), groups unioned, counters
    /// summed. Cross-section structure is validated here — a slide group
    /// appearing in two sections would mean a group spanned shards, which
    /// the hub never produces, so it is corruption rather than a merge.
    pub(crate) fn merge(parts: Vec<Self>) -> Result<Self, CheckpointError> {
        let mut sessions = Vec::new();
        let mut groups: Vec<((u64, Predicate), DigestProducer)> = Vec::new();
        let mut count_groups: Vec<CountGroupState> = Vec::new();
        let mut tally = Tally::default();
        for mut part in parts {
            // rebase this section's group indices onto the concatenated
            // list BEFORE its sessions dissolve into the shared pool
            let base = count_groups.len() as u64;
            for (_, session) in &mut part.sessions {
                if let AnySession::Grouped(g) = session {
                    let rebased = g
                        .group()
                        .checked_add(base)
                        .ok_or(CheckpointError::Corrupt("count-group reference overflows"))?;
                    g.set_group(rebased);
                }
            }
            count_groups.extend(part.count_groups);
            sessions.extend(part.sessions);
            for (key, producer) in part.groups {
                if groups.iter().any(|(have, _)| *have == key) {
                    return Err(CheckpointError::Corrupt(
                        "a slide group spans registry sections",
                    ));
                }
                groups.push((key, producer));
            }
            tally.absorb(&part.tally);
        }
        sessions.sort_by_key(|(id, _)| *id);
        if sessions.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CheckpointError::Corrupt(
                "duplicate query id across registry sections",
            ));
        }
        groups.sort_unstable_by_key(|(key, _)| *key);
        let mut member_counts = vec![0usize; groups.len()];
        // per count group: member count and deepest member window
        let mut count_members = vec![(0usize, 0usize); count_groups.len()];
        // per count-group result class `(group, n, k, join_slide)`:
        // whether any member carries the class's consumer — installation
        // has nothing to serve the class from otherwise
        let mut class_consumers: HashMap<(u64, usize, usize, u64), bool> = HashMap::new();
        for (_, session) in &sessions {
            match session {
                AnySession::Shared(s) => {
                    let key = (s.slide_duration(), s.predicate());
                    let Some(pos) = groups.iter().position(|(have, _)| *have == key) else {
                        return Err(CheckpointError::Corrupt(
                            "shared session without its slide group",
                        ));
                    };
                    if groups[pos].1.k_max() < s.timed_spec().k {
                        return Err(CheckpointError::Corrupt(
                            "slide group shallower than a member's k",
                        ));
                    }
                    if s.is_warming_up() && s.consumer().is_none() {
                        return Err(CheckpointError::Corrupt(
                            "warming shared member without its consumer",
                        ));
                    }
                    member_counts[pos] += 1;
                }
                AnySession::Grouped(g) => {
                    let Some(state) = count_groups.get(g.group() as usize) else {
                        return Err(CheckpointError::Corrupt(
                            "grouped session without its count group",
                        ));
                    };
                    let spec = g.spec();
                    if state.producer.slide_duration() != spec.s as u64 {
                        return Err(CheckpointError::Corrupt(
                            "count group disagrees with a member's slide length",
                        ));
                    }
                    if state.producer.k_max() < spec.k {
                        return Err(CheckpointError::Corrupt(
                            "count group shallower than a member's k",
                        ));
                    }
                    let next = state.producer.next_slide();
                    if g.join_slide() > next {
                        return Err(CheckpointError::Corrupt(
                            "count-group member joined past its group",
                        ));
                    }
                    // count slides never straddle a checkpoint boundary,
                    // so every member is exactly caught up to its group —
                    // validated on whichever member carries the class's
                    // consumer (a decoded session always does; ejected
                    // class followers travel without one)
                    if let Some(consumer) = g.consumer() {
                        if consumer.slides_applied() != next - g.join_slide() {
                            return Err(CheckpointError::Corrupt(
                                "count-group member out of step with its group",
                            ));
                        }
                    }
                    let has = class_consumers
                        .entry((g.group(), spec.n, spec.k, g.join_slide()))
                        .or_insert(false);
                    *has |= g.consumer().is_some();
                    let entry = &mut count_members[g.group() as usize];
                    entry.0 += 1;
                    entry.1 = entry.1.max(spec.n);
                }
                _ => {}
            }
        }
        if class_consumers.values().any(|has| !*has) {
            return Err(CheckpointError::Corrupt(
                "count-group result class without a consumer",
            ));
        }
        // an ejected class follower travels behind its representative,
        // which must be present (same slide group) and carry a consumer
        for (_, session) in &sessions {
            let AnySession::Shared(s) = session else {
                continue;
            };
            if s.consumer().is_some() {
                continue;
            }
            let Some(rep) = s.class_rep() else {
                return Err(CheckpointError::Corrupt(
                    "classed shared member without a class representative",
                ));
            };
            let sd = s.slide_duration();
            let ok = sessions.iter().any(|(id, other)| {
                *id == rep
                    && matches!(other, AnySession::Shared(r)
                        if r.consumer().is_some() && r.slide_duration() == sd)
            });
            if !ok {
                return Err(CheckpointError::Corrupt(
                    "shared result class without its representative",
                ));
            }
        }
        if member_counts.contains(&0) {
            return Err(CheckpointError::Corrupt("slide group with no members"));
        }
        for (i, state) in count_groups.iter().enumerate() {
            let (members, n_max) = count_members[i];
            if members == 0 {
                return Err(CheckpointError::Corrupt("count group with no members"));
            }
            let sd = state.producer.slide_duration();
            let pending = state.producer.pending_len() as u64;
            let Some(slide_start) = state.producer.next_slide().checked_mul(sd) else {
                return Err(CheckpointError::Corrupt("count-group ordinal overflows"));
            };
            let Some(fill) = state.next_ordinal.checked_sub(slide_start) else {
                return Err(CheckpointError::Corrupt(
                    "count-group ordinal behind its producer",
                ));
            };
            if fill >= sd {
                return Err(CheckpointError::Corrupt(
                    "count group fill spans a full slide",
                ));
            }
            // admission control can only *withhold* objects from the
            // producer, never invent them
            if pending > fill {
                return Err(CheckpointError::Corrupt(
                    "count group buffers more than it observed",
                ));
            }
            let next_ordinal = state.next_ordinal;
            if state.ring_base + state.ring.len() as u64 != next_ordinal {
                return Err(CheckpointError::Corrupt(
                    "count-group ring disagrees with its producer",
                ));
            }
            // the ring must reach back far enough to translate every
            // ordinal the deepest member's next emission can reference
            let next_close_end = (state.producer.next_slide() + 1).saturating_mul(sd);
            if state.ring_base > next_close_end.saturating_sub(n_max as u64) {
                return Err(CheckpointError::Corrupt(
                    "count-group ring does not cover its members' windows",
                ));
            }
            // distinct same-`(s, predicate)` groups always sit at
            // distinct offsets (mod s), i.e. distinct fills — a
            // collision means one geometry class was split, which the
            // hub never produces
            if count_groups[..i].iter().any(|other| {
                other.producer.slide_duration() == sd
                    && other.predicate == state.predicate
                    && other.fill() == fill
            }) {
                return Err(CheckpointError::Corrupt(
                    "count groups share a geometry class",
                ));
            }
        }
        Ok(RegistryParts {
            sessions,
            groups,
            count_groups,
            tally,
        })
    }
}

/// The tagged-update sink every publish path hands its sessions: pushes
/// each emitted [`SlideResult`] straight into the output as a
/// `QueryUpdate`, pre-sizing the output from the retained hint on the
/// first (and typically only) allocation. One definition, so the three
/// publish paths can never diverge on the reservation policy.
fn tagged_sink<'a>(
    out: &'a mut Vec<QueryUpdate>,
    hint: usize,
    query: QueryId,
) -> impl FnMut(SlideResult) + 'a {
    move |result| {
        if out.capacity() == 0 {
            out.reserve(hint.max(1));
        }
        out.push(QueryUpdate { query, result });
    }
}

/// Folds one publish call's update count into the retained hint: track
/// the recent high-water mark, halving while above it so a catch-up
/// burst decays instead of inflating every later reservation. A call
/// that emitted nothing (a buffering-only chunk, or a path with no
/// eligible sessions) is not an observation and leaves the hint alone.
fn note_update_hint(hint: &mut usize, emitted: usize) {
    if emitted > 0 {
        *hint = emitted.max(*hint / 2);
    }
}

/// Canonical byte signature of a consumer's replayable state — the same
/// bytes `encode_checkpoint` would write for it. Two consumers with
/// equal spec, slide progress, and signature provably compute identical
/// futures, which is what lets installation pool restored or migrated
/// members back into result classes (and drop the duplicate consumer
/// losslessly) without the checkpoint carrying any class structure.
fn consumer_sig<C: SlidingTopK>(consumer: &SharedTimed<C>) -> Vec<u8> {
    let mut enc = Encoder::new();
    consumer.encode_state(&mut enc);
    enc.into_payload()
}

impl<C: SlidingTopK, T: TimedTopK> Registry<C, T> {
    /// An empty registry serving under `config`. `shard` is the owning
    /// `AsyncHub` shard index (`None` for the sequential hub), so
    /// group-affinity routing bugs trip the debug assertion in
    /// [`register`](Registry::register) instead of silently splitting a
    /// group across workers.
    pub(crate) fn new(config: ServingConfig, shard: Option<usize>) -> Self {
        Registry {
            sessions: Vec::new(),
            groups: HashMap::new(),
            count_groups: HashMap::new(),
            next_count_gid: 0,
            served: Vec::new(),
            digest_index: PredicateIndex::default(),
            count_index: PredicateIndex::default(),
            tally: Tally::default(),
            config,
            plain_buf: Vec::new(),
            prefix_max: Vec::new(),
            update_hint: 0,
            shard,
        }
    }

    /// Whether the publish paths serve `session` one by one (see
    /// `Registry::served`).
    fn walked(session: &AnySession<C, T>) -> bool {
        match session {
            AnySession::Count(_) | AnySession::Timed(_) => true,
            AnySession::Shared(s) => !s.is_classed(),
            AnySession::Grouped(_) => false,
        }
    }

    /// Appends a newly registered session — ids are handed out
    /// monotonically, so the store stays ascending.
    fn push_session(&mut self, id: QueryId, session: AnySession<C, T>) {
        debug_assert!(self.sessions.last().is_none_or(|(have, _)| *have < id));
        if Self::walked(&session) {
            self.served.push(self.sessions.len());
        }
        self.sessions.push((id, session));
    }

    /// Inserts a session that already carries live state at its
    /// ascending-id position, shifting the served positions behind it.
    fn insert_session(&mut self, id: QueryId, session: AnySession<C, T>) {
        let pos = self.sessions.partition_point(|(have, _)| *have < id);
        let at = self.served.partition_point(|&p| p < pos);
        for p in &mut self.served[at..] {
            *p += 1;
        }
        if Self::walked(&session) {
            self.served.insert(at, pos);
        }
        self.sessions.insert(pos, (id, session));
    }

    /// Removes the session at store position `pos`, shifting the served
    /// positions behind it.
    fn remove_session(&mut self, pos: usize) -> (QueryId, AnySession<C, T>) {
        let at = self.served.partition_point(|&p| p < pos);
        if self.served.get(at) == Some(&pos) {
            self.served.remove(at);
        }
        for p in &mut self.served[at..] {
            *p -= 1;
        }
        self.sessions.remove(pos)
    }

    /// Registers a new standing query on the plane its subscription
    /// names. `home` is the shard the hub routed this registration to
    /// (`None` from the sequential hub); it must be the shard that owns
    /// this registry — a group's members all live on the group's home
    /// shard, the invariant that makes per-shard group counts sum
    /// exactly in [`HubStats::merge`] and lets a group share one producer
    /// without cross-thread coordination.
    pub(crate) fn register(&mut self, id: QueryId, sub: Subscription<C, T>, home: Option<usize>) {
        debug_assert_eq!(
            home, self.shard,
            "routing bug: a registration must land on the shard the hub placed it on"
        );
        match sub.plane {
            Plane::Count(engine) => self.push_session(id, AnySession::Count(Session::new(engine))),
            Plane::Timed(engine) => {
                self.push_session(id, AnySession::Timed(TimedSession::new(engine)))
            }
            Plane::Shared {
                consumer,
                predicate,
            } => self.register_shared(id, consumer, predicate),
            Plane::Grouped {
                consumer,
                spec,
                predicate,
            } => self.register_grouped(id, consumer, spec, predicate),
        }
    }

    /// Registers a count-group member, joining (or founding) the count
    /// group for its geometry class. The join rule (see the
    /// [module docs](self)): join the group with this slide length whose
    /// open slide is **empty** — the member then starts exactly on a
    /// slide boundary, in step with the group, no warm-up needed — and
    /// found a fresh group at the current stream offset otherwise. At
    /// most one group per `s` can have an empty open slide, so the scan
    /// is deterministic.
    fn register_grouped(
        &mut self,
        id: QueryId,
        consumer: SharedTimed<C>,
        spec: WindowSpec,
        predicate: Predicate,
    ) {
        // the join rule tests the *observed* fill, not `pending_len` —
        // under admission control a group at a slide boundary may still
        // buffer nothing mid-slide, and joining such a group would skew
        // the member's window. Predicate-disjoint members of one
        // geometry class split into sub-groups: they rank different
        // substreams, so they can never share a digest.
        let joinable = self
            .count_groups
            .iter_mut()
            .find(|(_, g)| g.slide_len == spec.s && g.fill() == 0 && g.predicate == predicate);
        let (gid, join_slide) = match joinable {
            Some((gid, group)) => {
                group.producer.grow_k_max(spec.k);
                // deepening mid-stream is exact (the open slide is held
                // untruncated), but the gate's cap just grew: rebuild it
                // from the admitted buffer so it never over-prunes
                group
                    .gate
                    .rebuild(group.producer.k_max(), group.producer.pending());
                group.ring_cap = group.ring_cap.max(spec.n + spec.s);
                // ids are handed out monotonically, so pushing keeps the
                // member list ascending
                group.member_ids.push(id);
                (*gid, group.producer.next_slide())
            }
            None => {
                let gid = self.next_count_gid;
                self.next_count_gid += 1;
                self.count_groups.insert(
                    gid,
                    CountGroup {
                        slide_len: spec.s,
                        producer: DigestProducer::new(spec.s as u64, spec.k),
                        ring: VecDeque::new(),
                        ring_base: 0,
                        ring_cap: spec.n + spec.s,
                        member_ids: vec![id],
                        next_ordinal: 0,
                        predicate,
                        gate: PruneGate::new(spec.k),
                        classes: Vec::new(),
                        slot: 0,
                    },
                );
                self.count_index.mark_stale();
                (gid, 0)
            }
        };
        // the member's store position once pushed below
        let pos = self.sessions.len();
        // the member's result class: with pooling on, join the group's
        // class with the exact `(n, k, join_slide)` key — matching keys
        // mean the class is still at its (open) join slide, so the
        // incoming fresh consumer is a byte-for-byte duplicate of the
        // class's and dropping it is lossless. Otherwise found a new
        // class around the consumer (pooling off founds only — uniform
        // solo classes are the pre-memoization serving shape).
        let engine_name: Box<str> = consumer.name().into();
        let group = self
            .count_groups
            .get_mut(&gid)
            .expect("the member's group was just joined or founded");
        let joined = self.config.result_class_sharing
            && match group
                .classes
                .iter_mut()
                .find(|c| c.n == spec.n && c.k == spec.k && c.join_slide == join_slide)
            {
                Some(class) => {
                    debug_assert_eq!(
                        class.consumer.slides_applied(),
                        0,
                        "a joinable class is at its still-open join slide"
                    );
                    class.members.push(id, pos);
                    true
                }
                None => false,
            };
        if !joined {
            group.classes.push(CountClass::new(
                spec,
                join_slide,
                consumer,
                Members::one(id, pos),
                Snapshot::empty(),
            ));
        }
        self.push_session(
            id,
            AnySession::Grouped(GroupedSession::new(engine_name, spec, join_slide, gid)),
        );
    }

    /// Registers a digest consumer, joining (or founding) the slide group
    /// for its `slide_duration`. The group's digest depth grows to cover
    /// the new member's `k`; a member joining a group that has already
    /// ingested stream starts in warm-up (see the [module docs](self)).
    fn register_shared(&mut self, id: QueryId, consumer: SharedTimed<C>, predicate: Predicate) {
        let sd = consumer.slide_duration();
        let k = consumer.k();
        let pos = self.sessions.len();
        let group = self.groups.entry((sd, predicate)).or_insert_with(|| {
            self.digest_index.mark_stale();
            DigestGroup {
                producer: DigestProducer::new(sd, k),
                members: 0,
                predicate,
                gate: PruneGate::new(k),
                classes: Vec::new(),
                slot: 0,
            }
        });
        group.producer.grow_k_max(k);
        // a deeper member may have just widened the gate's cap — rebuild
        // from the admitted open-slide buffer so pruning stays safe
        group
            .gate
            .rebuild(group.producer.k_max(), group.producer.pending());
        group.members += 1;
        let join_slide = if group.producer.is_pristine() {
            None
        } else {
            Some(group.producer.next_slide())
        };
        // pristine joiners with one `(wd, k)` provably compute
        // byte-identical slides — everything they will ever see starts
        // now — so pooling collapses them into one result class (whose
        // consumer, in a pristine group, has seen nothing either, making
        // the duplicate consumer droppable). Mid-stream joiners warm up
        // solo and stay solo after promotion: their class membership is
        // not provable while their partial join slide is in the window.
        let session = if join_slide.is_none() && self.config.result_class_sharing {
            let spec = TimedSpec {
                window_duration: consumer.window_duration(),
                slide_duration: sd,
                k,
            };
            let engine_name: Box<str> = consumer.name().into();
            match group
                .classes
                .iter_mut()
                .find(|c| c.wd == spec.window_duration && c.k == k)
            {
                Some(class) => {
                    debug_assert_eq!(
                        class.consumer.slides_applied(),
                        0,
                        "a pristine group's classes have seen nothing"
                    );
                    class.members.push(id, pos);
                }
                None => group.classes.push(SharedClass::new(
                    consumer,
                    Members::one(id, pos),
                    Snapshot::empty(),
                )),
            }
            SharedSession::new_classed(spec, engine_name, predicate)
        } else {
            SharedSession::new(consumer, join_slide, predicate)
        };
        self.push_session(id, AnySession::Shared(session));
    }

    /// Removes a query, handing its session back; `None` for unknown ids.
    /// A shared session leaves its group; the last member out drops the
    /// group entirely (so a later registrant founds a fresh, pristine
    /// one), and a departing deepest member shrinks the group's digest
    /// depth back to the remaining members' maximum `k` — exact even
    /// mid-slide, for the same reason `k_max` growth is.
    ///
    /// A **classed** member also leaves its result class: the last one
    /// out takes the class's consumer with it (so the returned session
    /// carries its full engine state, like before result classes), while
    /// an earlier leaver hands its share back and is returned without a
    /// consumer — engines are not `Clone`, and the state keeps serving
    /// the members staying behind.
    pub(crate) fn unregister(&mut self, id: QueryId) -> Option<AnySession<C, T>> {
        let pos = self.sessions.binary_search_by_key(&id, |(q, _)| *q).ok()?;
        let (_, mut session) = self.remove_session(pos);
        match &mut session {
            AnySession::Count(_) | AnySession::Timed(_) => {}
            AnySession::Shared(s) => {
                let key = (s.slide_duration(), s.predicate());
                if let Some(group) = self.groups.get_mut(&key) {
                    if s.is_classed() {
                        let ci = group
                            .classes
                            .iter()
                            .position(|c| c.members.contains(id))
                            .expect("a classed member's group holds its class");
                        let class = &mut group.classes[ci];
                        class.members.remove(id);
                        if class.members.is_empty() {
                            let class = group.classes.remove(ci);
                            s.adopt_consumer(class.consumer);
                        }
                    }
                    group.members -= 1;
                    if group.members == 0 {
                        self.groups.remove(&key);
                        self.digest_index.mark_stale();
                    } else if s.timed_spec().k >= group.producer.k_max() {
                        let k_max = self
                            .sessions
                            .iter()
                            .filter_map(|(_, sess)| match sess {
                                AnySession::Shared(m)
                                    if m.slide_duration() == key.0 && m.predicate() == key.1 =>
                                {
                                    Some(m.timed_spec().k)
                                }
                                _ => None,
                            })
                            .max()
                            .expect("a surviving group has members");
                        group.producer.set_k_max(k_max);
                        // a narrower cap prunes *more*: rebuild so the
                        // gate reflects exactly the new depth
                        group.gate.rebuild(k_max, group.producer.pending());
                    }
                }
            }
            AnySession::Grouped(g) => {
                let gid = g.group();
                if let Some(group) = self.count_groups.get_mut(&gid) {
                    if let Some(p) = group.member_ids.iter().position(|m| *m == id) {
                        group.member_ids.remove(p);
                    }
                    // same class-leave rule as the shared plane
                    if let Some(ci) = group.classes.iter().position(|c| c.members.contains(id)) {
                        let class = &mut group.classes[ci];
                        class.members.remove(id);
                        if class.members.is_empty() {
                            let class = group.classes.remove(ci);
                            g.adopt_consumer(class.consumer);
                        }
                    }
                    if group.member_ids.is_empty() {
                        self.count_groups.remove(&gid);
                        self.count_index.mark_stale();
                    } else {
                        // recompute the survivors' depth and retention —
                        // exact even mid-slide, the open slide is held
                        // untruncated and the ring trims lazily
                        let (mut k_max, mut n_max) = (0usize, 0usize);
                        for (_, sess) in &self.sessions {
                            if let AnySession::Grouped(m) = sess {
                                if m.group() == gid {
                                    k_max = k_max.max(m.spec().k);
                                    n_max = n_max.max(m.spec().n);
                                }
                            }
                        }
                        group.producer.set_k_max(k_max);
                        group.gate.rebuild(k_max, group.producer.pending());
                        group.ring_cap = n_max + group.slide_len;
                    }
                }
            }
        }
        Some(session)
    }

    /// Fans an untimed batch out to every count-based session. Time-based
    /// sessions (isolated and shared) carry no event time here and do not
    /// advance.
    ///
    /// The empty fast path (no sessions, or an empty batch) returns
    /// without touching the heap, and sessions emit their completed
    /// slides straight into tagged updates through the sink closure —
    /// each result moves once, and the returned `Vec` is the only
    /// per-call allocation, pre-sized from the retained hint and skipped
    /// entirely when no slide completed.
    pub(crate) fn publish(&mut self, objects: &[Object]) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            served,
            count_groups,
            count_index,
            tally,
            config,
            update_hint,
            ..
        } = self;
        let mut out = Vec::new();
        let hint = *update_hint;
        // only the individually served sessions are walked; grouped
        // members are served per class, below
        for &pos in served.iter() {
            tally.visit_session();
            let (id, session) = &mut sessions[pos];
            if let AnySession::Count(session) = session {
                session.push_each(objects, &mut tagged_sink(&mut out, hint, *id));
            }
        }
        tally.count_group_rebuilds += out.len() as u64;
        let walked = out.len();
        Self::serve_count_groups(
            sessions,
            count_groups,
            count_index,
            tally,
            config.admission_pruning,
            objects,
            &mut out,
            hint,
        );
        if out.len() > walked {
            // group serving appends per group, not per registered query;
            // (QueryId, slide) keys are unique and each session's slides
            // ascend, so this sort IS registration-order delivery
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        out
    }

    /// Fans an untimed batch out to every count group. The batch is
    /// routed through the groups' [`PredicateIndex`] once, then each
    /// group ingests it **segment by segment** between slide closes: the
    /// segment's ids extend the translation ring as one slice (every
    /// observed object gets an ordinal, admitted or not), only the
    /// objects the group's predicate accepts reach its dominance gate
    /// and producer, and a filling slide is truncated once at `k_max`
    /// and served to the members — immediately, inside the close, so the
    /// ring still covers everything the emission references even when
    /// one batch spans many slides.
    ///
    /// Per batch this costs O(count groups) for the segment walk plus
    /// O(1) per accepted `(object, group)` pair; an object a group's key
    /// or tag rejects costs that group nothing. The member fan-out is
    /// per *slide*, and within it the reduction + ordinal translation +
    /// diff run once per **result class** ([`CountClass::close`]) — each
    /// member emission is a stamp of the class's shared snapshot
    /// ([`GroupedSession::emit_class`]) on a session reached through its
    /// cached store position.
    #[allow(clippy::too_many_arguments)]
    fn serve_count_groups(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        count_groups: &mut HashMap<u64, CountGroup<C>>,
        index: &mut PredicateIndex,
        tally: &mut Tally,
        pruning: bool,
        objects: &[Object],
        out: &mut Vec<QueryUpdate>,
        hint: usize,
    ) {
        if count_groups.is_empty() {
            return;
        }
        if index.is_stale() {
            // the group set changed since the last publish: re-index,
            // handing each group its slot
            index.rebuild(count_groups.values_mut().enumerate().map(|(slot, g)| {
                g.slot = slot;
                g.predicate
            }));
        }
        index.route(objects.iter().map(|o| (o.id, o.score)));
        for group in count_groups.values_mut() {
            let CountGroup {
                slide_len,
                producer,
                ring,
                ring_base,
                ring_cap,
                member_ids,
                next_ordinal,
                gate,
                classes,
                slot,
                ..
            } = group;
            let accepted = index.accepted(*slot);
            let mut next_accepted = 0;
            // the ordinal of `objects[0]`: ordinals stay dense — every
            // observed object gets one, admitted or not — so slide
            // boundaries, checkpoints, and drain order are byte-identical
            // whatever the admission plane skips
            let base = *next_ordinal;
            let mut start = 0;
            while start < objects.len() {
                let fill = *next_ordinal - producer.next_slide() * *slide_len as u64;
                let room = *slide_len - fill as usize;
                let end = objects.len().min(start + room);
                // one slice per segment, trimmed exactly where the
                // per-object rule (push one, drop the oldest past the
                // cap) leaves the ring — a ring above its cap (the
                // deepest member left) keeps its length
                let keep = ring.len().max(*ring_cap);
                debug_assert!(end - start <= keep, "a segment never outgrows the ring");
                let excess = (ring.len() + end - start).saturating_sub(keep);
                ring.drain(..excess);
                *ring_base += excess as u64;
                ring.extend(objects[start..end].iter().map(|o| o.id));
                *next_ordinal = base + end as u64;
                while let Some(&pos) = accepted.get(next_accepted) {
                    let pos = pos as usize;
                    if pos >= end {
                        break;
                    }
                    next_accepted += 1;
                    tally.visit_group_object();
                    let score = objects[pos].score;
                    if pruning && !gate.admits(score) {
                        // ≥ k_max admitted objects of this open slide
                        // strictly dominate it — it cannot survive the
                        // close's top-`k_max` truncation, so no member
                        // can ever observe it
                        tally.pruned += 1;
                        continue;
                    }
                    // the ordinal doubles as the synthetic timestamp; it
                    // never reaches the open slide's end (r < (j+1)·s
                    // for an object of slide j), so closure is always
                    // explicit below
                    let r = base + pos as u64;
                    producer.ingest_with(TimedObject::new(r, r, score), &mut |_| {
                        debug_assert!(
                            false,
                            "count slides close on arrival counts, never on ordinal timestamps"
                        );
                    });
                    tally.admitted += 1;
                    if pruning {
                        gate.offer(score);
                    }
                }
                if end - start == room {
                    producer.close_slide_with(|view| {
                        for class in classes.iter_mut() {
                            let snapshot = class.close(view, ring, *ring_base);
                            for i in 0..class.members.len() {
                                let pos = class.members.locate(i, sessions);
                                let (id, session) = &mut sessions[pos];
                                let AnySession::Grouped(session) = session else {
                                    unreachable!("count-group member ids name grouped sessions")
                                };
                                let mut sink = tagged_sink(out, hint, *id);
                                session.emit_class(&snapshot, &class.events, &mut sink);
                            }
                        }
                    });
                    // the gate's dominance counter is per open slide;
                    // the close opened a fresh one
                    gate.reset();
                    tally.count_group_hits += member_ids.len() as u64;
                    // classes partition the members, so the members past
                    // one-per-class were served without a reduction
                    tally.class_hits += (member_ids.len() - classes.len()) as u64;
                }
                start = end;
            }
        }
    }

    /// Fans a timed batch out: each slide group ingests the batch
    /// **once** (through the predicate dispatch, see
    /// [`ingest_groups`](Registry::ingest_groups)), the individually
    /// served sessions are walked in registration order — isolated count
    /// sessions see the untimed view, isolated timed sessions consume
    /// the raw batch, unclassed shared sessions apply their group's
    /// closed digests (or, during warm-up, their private view) — and
    /// result classes and count groups serve their members directly.
    pub(crate) fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() || objects.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            served,
            groups,
            count_groups,
            digest_index,
            count_index,
            tally,
            config,
            plain_buf,
            prefix_max,
            update_hint,
            ..
        } = self;
        // the untimed view is stripped once, on first need, into the
        // pooled buffer — steady-state publishes reuse its capacity
        // instead of allocating a fresh Vec per call
        plain_buf.clear();
        let closed = Self::ingest_groups(
            groups,
            digest_index,
            prefix_max,
            objects,
            config.admission_pruning,
            tally,
        );
        let mut out = Vec::new();
        let hint = *update_hint;
        for &pos in served.iter() {
            tally.visit_session();
            let (id, session) = &mut sessions[pos];
            match session {
                AnySession::Count(session) => {
                    if plain_buf.is_empty() {
                        plain_buf.extend(objects.iter().map(TimedObject::untimed));
                    }
                    let before = out.len();
                    session.push_each(plain_buf, &mut tagged_sink(&mut out, hint, *id));
                    tally.count_group_rebuilds += (out.len() - before) as u64;
                }
                AnySession::Timed(session) => {
                    session.push_timed_each(objects, &mut tagged_sink(&mut out, hint, *id))
                }
                AnySession::Shared(session) => {
                    Self::serve_shared(
                        tally,
                        session,
                        &closed,
                        &mut tagged_sink(&mut out, hint, *id),
                        |s, f| s.push_warmup(objects, f),
                    );
                    Self::promote(groups, session);
                }
                AnySession::Grouped(_) => unreachable!("grouped members are served per group"),
            }
        }
        let walked = out.len();
        Self::serve_shared_classes(sessions, groups, &closed, tally, &mut out, hint);
        if !count_groups.is_empty() && plain_buf.is_empty() {
            plain_buf.extend(objects.iter().map(TimedObject::untimed));
        }
        Self::serve_count_groups(
            sessions,
            count_groups,
            count_index,
            tally,
            config.admission_pruning,
            plain_buf,
            &mut out,
            hint,
        );
        if out.len() > walked {
            // same argument as `publish`: (QueryId, slide) keys are
            // unique and ascend per session, so sorting the appended
            // class and group output back in IS registration-order
            // delivery
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        out
    }

    /// Raises the event-time watermark on every time-based session —
    /// groups advance once, members consume the closed digests, isolated
    /// sessions advance privately. Count-based sessions are untouched.
    pub(crate) fn advance_time(&mut self, watermark: u64) -> Vec<QueryUpdate> {
        if self.sessions.is_empty() {
            return Vec::new();
        }
        let Registry {
            sessions,
            served,
            groups,
            tally,
            update_hint,
            ..
        } = self;
        let closed = Self::close_groups(groups, watermark);
        let mut out = Vec::new();
        let hint = *update_hint;
        for &pos in served.iter() {
            tally.visit_session();
            let (id, session) = &mut sessions[pos];
            let mut sink = tagged_sink(&mut out, hint, *id);
            match session {
                AnySession::Count(_) | AnySession::Grouped(_) => continue,
                AnySession::Timed(session) => session.advance_watermark_each(watermark, &mut sink),
                AnySession::Shared(session) => {
                    Self::serve_shared(tally, session, &closed, &mut sink, |s, f| {
                        s.advance_warmup(watermark, f)
                    });
                    Self::promote(groups, session);
                }
            }
        }
        let walked = out.len();
        Self::serve_shared_classes(sessions, groups, &closed, tally, &mut out, hint);
        if out.len() > walked {
            // class serving appends per class, not per registered query;
            // sorting restores registration-order delivery (same
            // uniqueness argument as `publish`)
            out.sort_unstable_by_key(|u| (u.query, u.result.slide));
        }
        note_update_hint(update_hint, out.len());
        out
    }

    /// Advances every group's producer to `watermark` and collects the
    /// slides each group closed, keyed by `(slide duration, predicate)`.
    /// Any close opens a fresh slide, so the group's dominance gate
    /// resets.
    fn close_groups(
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        watermark: u64,
    ) -> HashMap<(u64, Predicate), Vec<DigestRef>> {
        let mut closed = HashMap::new();
        for (key, group) in groups {
            let digests = group.producer.advance_to(watermark);
            if !digests.is_empty() {
                group.gate.reset();
                closed.insert(*key, digests);
            }
        }
        closed
    }

    /// The admission plane's ingest: routes a timed batch through the
    /// slide groups' [`PredicateIndex`] once, so each group handles only
    /// the objects its predicate accepts — in batch order, each judged
    /// by the dominance gate, which prunes objects that provably cannot
    /// survive the open slide's top-`k_max` truncation.
    ///
    /// Event time advances **before** each accepted object, to the
    /// largest timestamp the batch has reached up to it (the prefix
    /// maximum), and once more to the batch maximum at the end: rejected
    /// and pruned objects still close slides, so boundaries never depend
    /// on admission, and because [`DigestProducer::advance_to`] ignores a
    /// lower watermark, this closes exactly the slides — in the same
    /// order, with the gate judging each object against the slide it
    /// lands in — that advancing the group at every object would,
    /// out-of-order input included. Returns the closed digests, like
    /// [`close_groups`](Registry::close_groups).
    fn ingest_groups(
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        index: &mut PredicateIndex,
        prefix_max: &mut Vec<u64>,
        objects: &[TimedObject],
        pruning: bool,
        tally: &mut Tally,
    ) -> HashMap<(u64, Predicate), Vec<DigestRef>> {
        let mut closed = HashMap::new();
        if groups.is_empty() {
            return closed;
        }
        if index.is_stale() {
            index.rebuild(groups.values_mut().enumerate().map(|(slot, g)| {
                g.slot = slot;
                g.predicate
            }));
        }
        index.route(objects.iter().map(|o| (o.id, o.score)));
        prefix_max.clear();
        let mut reached = 0;
        prefix_max.extend(objects.iter().map(|o| {
            reached = reached.max(o.timestamp);
            reached
        }));
        let advance = |group: &mut DigestGroup<C>, watermark: u64, digests: &mut Vec<DigestRef>| {
            let before = digests.len();
            digests.extend(group.producer.advance_to(watermark));
            if digests.len() > before {
                group.gate.reset();
            }
        };
        for (key, group) in groups.iter_mut() {
            let mut digests: Vec<DigestRef> = Vec::new();
            for &pos in index.accepted(group.slot) {
                tally.visit_group_object();
                let o = objects[pos as usize];
                advance(group, prefix_max[pos as usize], &mut digests);
                if pruning && !group.gate.admits(o.score) {
                    tally.pruned += 1;
                    continue;
                }
                // the producer is already at or past `o.timestamp`, so
                // this ingest can close nothing — it only buffers
                group.producer.ingest_with(o, &mut |_| {
                    debug_assert!(false, "ingest after advance_to cannot close a slide")
                });
                tally.admitted += 1;
                if pruning {
                    group.gate.offer(o.score);
                }
            }
            advance(group, reached, &mut digests);
            if !digests.is_empty() {
                closed.insert(*key, digests);
            }
        }
        closed
    }

    /// Serves one unclassed shared session its slides for this call,
    /// emitting them through the caller's sink: the private warm-up view
    /// (counted as rebuilds) while it is catching up, its group's closed
    /// digests (counted as hits) once promoted. One copy of the
    /// hit/rebuild accounting for both the publish and the watermark
    /// path, so `HubStats` can never drift between them.
    fn serve_shared(
        tally: &mut Tally,
        session: &mut SharedSession<C>,
        closed: &HashMap<(u64, Predicate), Vec<DigestRef>>,
        sink: &mut dyn FnMut(SlideResult),
        warmup: impl FnOnce(&mut SharedSession<C>, &mut dyn FnMut(SlideResult)),
    ) {
        debug_assert!(
            !session.is_classed(),
            "classed members are served per class"
        );
        if session.is_warming_up() {
            let mut served = 0u64;
            warmup(session, &mut |result| {
                served += 1;
                sink(result);
            });
            tally.digest_rebuilds += served;
        } else if let Some(digests) = closed.get(&(session.slide_duration(), session.predicate())) {
            tally.digest_hits += digests.len() as u64;
            session.apply_digests(digests, sink);
        }
    }

    /// Promotes a just-served warm-up member whose group has closed the
    /// slide it joined during: both producers processed the same
    /// timestamps, so from the next slide on the private and shared
    /// views are identical. The group's producer has absorbed the whole
    /// call before the session walk, so checking right after serving the
    /// member sees the same cursor a separate pass afterwards would.
    fn promote(groups: &HashMap<(u64, Predicate), DigestGroup<C>>, s: &mut SharedSession<C>) {
        if s.is_warming_up() {
            if let Some(group) = groups.get(&(s.slide_duration(), s.predicate())) {
                s.maybe_promote(group.producer.next_slide());
            }
        }
    }

    /// Serves the result classes of every slide group that closed
    /// slides this call: one reduction + one diff per class per digest
    /// ([`SharedClass::close`]), then each member — reached through its
    /// cached store position — stamps the class's shared snapshot
    /// ([`SharedSession::emit_class`]). Output is appended per class,
    /// after the session walk — callers re-sort by `(query, slide)` when
    /// anything landed here.
    fn serve_shared_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        groups: &mut HashMap<(u64, Predicate), DigestGroup<C>>,
        closed: &HashMap<(u64, Predicate), Vec<DigestRef>>,
        tally: &mut Tally,
        out: &mut Vec<QueryUpdate>,
        hint: usize,
    ) {
        for (key, digests) in closed {
            let group = groups
                .get_mut(key)
                .expect("closed digests come from live groups");
            for class in group.classes.iter_mut() {
                for digest in digests {
                    let snapshot = class.close(digest);
                    for i in 0..class.members.len() {
                        let pos = class.members.locate(i, sessions);
                        let (id, session) = &mut sessions[pos];
                        let AnySession::Shared(session) = session else {
                            unreachable!("slide-group class members are shared sessions")
                        };
                        let mut sink = tagged_sink(out, hint, *id);
                        session.emit_class(&snapshot, &class.events, &mut sink);
                    }
                }
                // every member-slide here came from the shared digest
                // plane (hits), and all but one-per-class also skipped
                // the reduction (class_hits)
                tally.digest_hits += (digests.len() * class.members.len()) as u64;
                tally.class_hits += (digests.len() * (class.members.len() - 1)) as u64;
            }
        }
    }

    pub(crate) fn session(&self, id: QueryId) -> Option<&AnySession<C, T>> {
        let pos = self.sessions.binary_search_by_key(&id, |(q, _)| *q).ok()?;
        Some(&self.sessions[pos].1)
    }

    pub(crate) fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.sessions.iter().map(|(id, _)| *id)
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The identities of every group this registry owns, for the
    /// hub-side shard-locality audit (see [`GroupKeys::absorb_disjoint`]).
    pub(crate) fn group_keys(&self) -> GroupKeys {
        GroupKeys {
            digest: self.groups.keys().copied().collect(),
            count: self
                .count_groups
                .values()
                .map(|g| (g.slide_len as u64, g.fill(), g.predicate))
                .collect(),
        }
    }

    pub(crate) fn stats(&self) -> HubStats {
        let result_classes = self
            .groups
            .values()
            .map(|g| g.classes.len() as u64)
            .chain(self.count_groups.values().map(|g| g.classes.len() as u64))
            .sum();
        let mut stats = HubStats {
            queries: self.sessions.len(),
            digest_groups: self.groups.len() as u64,
            digest_hits: self.tally.digest_hits,
            digest_rebuilds: self.tally.digest_rebuilds,
            count_groups: self.count_groups.len() as u64,
            count_group_hits: self.tally.count_group_hits,
            count_group_rebuilds: self.tally.count_group_rebuilds,
            admitted: self.tally.admitted,
            pruned: self.tally.pruned,
            result_classes,
            class_hits: self.tally.class_hits,
            ..HubStats::default()
        };
        for (_, session) in &self.sessions {
            match session {
                AnySession::Count(_) => stats.count_queries += 1,
                AnySession::Timed(_) => stats.timed_queries += 1,
                AnySession::Shared(_) => stats.shared_queries += 1,
                AnySession::Grouped(_) => stats.grouped_queries += 1,
            }
        }
        stats
    }

    // ---- durability plane -------------------------------------------------

    /// The canonical count-group order — live gids, and each gid's
    /// position. Live gids are registry-local and shift across epochs, so
    /// grouped sessions leave a registry (checkpoint, ejection)
    /// referencing their group by position in this order instead.
    /// `(slide length, slide fill, predicate)` is a unique key — distinct
    /// same-`(s, predicate)` groups always sit at distinct offsets mod
    /// `s` — and is derived purely from state the section carries, so
    /// encode and decode agree by construction.
    fn canonical_count_order(&self) -> (Vec<u64>, HashMap<u64, u64>) {
        let mut order: Vec<u64> = self.count_groups.keys().copied().collect();
        order.sort_unstable_by_key(|gid| {
            let g = &self.count_groups[gid];
            (g.slide_len, g.fill(), g.predicate)
        });
        let index_of = order
            .iter()
            .enumerate()
            .map(|(i, gid)| (*gid, i as u64))
            .collect();
        (order, index_of)
    }

    /// Serializes this registry's full serving state as one
    /// `tags::REGISTRY` section body: sessions in registration order
    /// (each with an engine-name + spec header and a replayable body),
    /// slide-group producers sorted by slide duration (so the encoding is
    /// deterministic regardless of `HashMap` iteration order), and the
    /// sharing counters.
    pub(crate) fn encode_checkpoint(&self, enc: &mut Encoder) {
        let (order, index_of) = self.canonical_count_order();
        enc.section(tags::SESSIONS, |e| {
            e.put_u64(self.sessions.len() as u64);
            for (id, session) in &self.sessions {
                e.put_u64(id.raw());
                match session {
                    AnySession::Count(s) => {
                        e.put_u8(0);
                        e.put_str(s.algorithm().name());
                        let spec = s.spec();
                        e.put_usize(spec.n);
                        e.put_usize(spec.k);
                        e.put_usize(spec.s);
                        s.encode_checkpoint_body(e);
                    }
                    AnySession::Timed(s) => {
                        e.put_u8(1);
                        e.put_str(s.engine().name());
                        let spec = s.timed_spec();
                        e.put_u64(spec.window_duration);
                        e.put_u64(spec.slide_duration);
                        e.put_usize(spec.k);
                        s.encode_checkpoint_body(e);
                    }
                    AnySession::Shared(s) => {
                        e.put_u8(2);
                        e.put_str(s.engine_name());
                        let spec = s.timed_spec();
                        e.put_u64(spec.window_duration);
                        e.put_u64(spec.slide_duration);
                        e.put_usize(spec.k);
                        // the subscription predicate rides at the
                        // registry entry level (since v3), keeping the
                        // session body bytes themselves unchanged
                        s.predicate().encode(e);
                        // a classed member encodes its class's consumer —
                        // byte-identical to a private one (see
                        // `SharedSession::encode_checkpoint_body`)
                        let class_consumer = self
                            .groups
                            .get(&(spec.slide_duration, s.predicate()))
                            .and_then(|g| g.classes.iter().find(|c| c.members.contains(*id)))
                            .map(|c| &c.consumer);
                        s.encode_checkpoint_body(e, class_consumer);
                    }
                    AnySession::Grouped(s) => {
                        e.put_u8(3);
                        e.put_str(s.engine_name());
                        let spec = s.spec();
                        e.put_usize(spec.n);
                        e.put_usize(spec.k);
                        e.put_usize(spec.s);
                        let class_consumer = self
                            .count_groups
                            .get(&s.group())
                            .and_then(|g| g.classes.iter().find(|c| c.members.contains(*id)))
                            .map(|c| &c.consumer);
                        s.encode_checkpoint_body(e, class_consumer, index_of[&s.group()]);
                    }
                }
            }
        });
        enc.section(tags::GROUPS, |e| {
            let mut keys: Vec<(u64, Predicate)> = self.groups.keys().copied().collect();
            keys.sort_unstable();
            e.put_u64(keys.len() as u64);
            for key in keys {
                e.put_u64(key.0);
                key.1.encode(e);
                self.groups[&key].producer.encode_state(e);
            }
        });
        enc.section(tags::COUNT_GROUPS, |e| {
            e.put_u64(order.len() as u64);
            for gid in &order {
                let g = &self.count_groups[gid];
                g.predicate.encode(e);
                g.producer.encode_state(e);
                // explicit since v3: under admission control the fill is
                // not derivable from the producer's buffer
                e.put_u64(g.next_ordinal);
                e.put_u64(g.ring_base);
                e.put_u64(g.ring.len() as u64);
                for &ext in &g.ring {
                    e.put_u64(ext);
                }
            }
        });
        enc.section(tags::COUNTERS, |e| {
            e.put_u64(self.tally.digest_hits);
            e.put_u64(self.tally.digest_rebuilds);
            e.put_u64(self.tally.count_group_hits);
            e.put_u64(self.tally.count_group_rebuilds);
        });
        enc.section(tags::ADMISSION, |e| {
            e.put_u64(self.tally.admitted);
            e.put_u64(self.tally.pruned);
        });
    }

    /// Decodes one `tags::REGISTRY` section body into loose
    /// [`RegistryParts`], building each session's engine through the
    /// caller's closures (the count closure also serves shared sessions,
    /// whose inner engine runs on the Appendix-A reduced spec). Every
    /// structural violation is a typed error — never a panic.
    ///
    /// `version` is the image's format version (the caller reads it from
    /// the frame): v2 images predate the admission plane, so their
    /// groups decode with pass-all predicates, derived ordinals, and
    /// zeroed admission counters.
    pub(crate) fn decode_checkpoint(
        dec: &mut Decoder<'_>,
        version: u32,
        count: &mut dyn FnMut(&str, WindowSpec) -> Result<C, SapError>,
        timed: &mut dyn FnMut(&str, TimedSpec) -> Result<T, SapError>,
    ) -> Result<RegistryParts<C, T>, SapError> {
        let mut sessions = Vec::new();
        {
            let mut sec = dec.section(tags::SESSIONS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let id = QueryId::from_raw(sec.take_u64()?);
                let session = match sec.take_u8()? {
                    0 => {
                        let name = sec.take_str()?;
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        if spec.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, spec)?;
                        if engine.spec() != spec {
                            return Err(
                                CheckpointError::Corrupt("factory engine spec mismatch").into()
                            );
                        }
                        AnySession::Count(Session::decode_checkpoint_body(engine, &mut sec)?)
                    }
                    1 => {
                        let name = sec.take_str()?;
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let spec = TimedSpec::new(wd, sd, k)
                            .map_err(|_| CheckpointError::Corrupt("invalid timed window spec"))?;
                        let reduced = spec
                            .reduced()
                            .map_err(|_| CheckpointError::Corrupt("timed spec does not reduce"))?;
                        if reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = timed(name, spec)?;
                        if engine.window_duration() != wd
                            || engine.slide_duration() != sd
                            || engine.k() != k
                        {
                            return Err(
                                CheckpointError::Corrupt("factory engine spec mismatch").into()
                            );
                        }
                        AnySession::Timed(TimedSession::decode_checkpoint_body(engine, &mut sec)?)
                    }
                    2 => {
                        let name = sec.take_str()?;
                        let (wd, sd, k) = (sec.take_u64()?, sec.take_u64()?, sec.take_usize()?);
                        let predicate = if version >= 3 {
                            Predicate::decode(&mut sec)?
                        } else {
                            Predicate::default()
                        };
                        let reduced = TimedSpec::new(wd, sd, k)
                            .and_then(|spec| spec.reduced())
                            .map_err(|_| CheckpointError::Corrupt("invalid shared window spec"))?;
                        if reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, reduced)?;
                        let consumer = SharedTimed::from_engine(engine, wd, sd).map_err(|_| {
                            CheckpointError::Corrupt("factory engine is not a fresh reduction")
                        })?;
                        let mut session =
                            SharedSession::decode_checkpoint_body(consumer, &mut sec)?;
                        session.set_predicate(predicate);
                        AnySession::Shared(session)
                    }
                    3 => {
                        let name = sec.take_str()?;
                        let (wn, wk, ws) =
                            (sec.take_usize()?, sec.take_usize()?, sec.take_usize()?);
                        let spec = WindowSpec::new(wn, wk, ws)
                            .map_err(|_| CheckpointError::Corrupt("invalid count window spec"))?;
                        let reduced = TimedSpec::new(spec.n as u64, spec.s as u64, spec.k)
                            .and_then(|t| t.reduced())
                            .map_err(|_| CheckpointError::Corrupt("count spec does not reduce"))?;
                        // bound both: the reduced window exceeds the plain
                        // one whenever k > s
                        if spec.n > crate::checkpoint::MAX_RESTORED_WINDOW
                            || reduced.n > crate::checkpoint::MAX_RESTORED_WINDOW
                        {
                            return Err(CheckpointError::Corrupt(
                                "restored window implausibly large",
                            )
                            .into());
                        }
                        let engine = count(name, reduced)?;
                        let consumer =
                            SharedTimed::from_engine(engine, spec.n as u64, spec.s as u64)
                                .map_err(|_| {
                                    CheckpointError::Corrupt(
                                        "factory engine is not a fresh reduction",
                                    )
                                })?;
                        AnySession::Grouped(GroupedSession::decode_checkpoint_body(
                            consumer, spec, &mut sec,
                        )?)
                    }
                    _ => return Err(CheckpointError::Corrupt("unknown session kind").into()),
                };
                sessions.push((id, session));
            }
            sec.finish()?;
        }
        let mut groups = Vec::new();
        {
            let mut sec = dec.section(tags::GROUPS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let sd = sec.take_u64()?;
                let predicate = if version >= 3 {
                    Predicate::decode(&mut sec)?
                } else {
                    Predicate::default()
                };
                let producer = DigestProducer::decode_state(&mut sec)?;
                if producer.slide_duration() != sd {
                    return Err(
                        CheckpointError::Corrupt("group key disagrees with its producer").into(),
                    );
                }
                groups.push(((sd, predicate), producer));
            }
            sec.finish()?;
        }
        let mut count_groups = Vec::new();
        {
            let mut sec = dec.section(tags::COUNT_GROUPS)?;
            let n = sec.take_seq_len()?;
            for _ in 0..n {
                let predicate = if version >= 3 {
                    Predicate::decode(&mut sec)?
                } else {
                    Predicate::default()
                };
                let producer = DigestProducer::decode_state(&mut sec)?;
                let next_ordinal = if version >= 3 {
                    sec.take_u64()?
                } else {
                    // pre-admission images never skipped an object, so
                    // the ordinal is exactly the producer's position
                    producer
                        .next_slide()
                        .checked_mul(producer.slide_duration())
                        .and_then(|o| o.checked_add(producer.pending_len() as u64))
                        .ok_or(CheckpointError::Corrupt("count-group ordinal overflows"))?
                };
                let ring_base = sec.take_u64()?;
                let len = sec.take_seq_len()?;
                let mut ring = VecDeque::with_capacity(len);
                for _ in 0..len {
                    ring.push_back(sec.take_u64()?);
                }
                count_groups.push(CountGroupState {
                    producer,
                    ring,
                    ring_base,
                    predicate,
                    next_ordinal,
                });
            }
            sec.finish()?;
        }
        // `class_hits` has no slot in the format, so it restores as 0
        let mut tally = Tally::default();
        {
            let mut sec = dec.section(tags::COUNTERS)?;
            tally.digest_hits = sec.take_u64()?;
            tally.digest_rebuilds = sec.take_u64()?;
            tally.count_group_hits = sec.take_u64()?;
            tally.count_group_rebuilds = sec.take_u64()?;
            sec.finish()?;
        }
        // v2 images predate the admission plane: restore with the
        // counters reset rather than guessing
        if version >= 3 {
            let mut sec = dec.section(tags::ADMISSION)?;
            tally.admitted = sec.take_u64()?;
            tally.pruned = sec.take_u64()?;
            sec.finish()?;
        }
        Ok(RegistryParts {
            sessions,
            groups,
            count_groups,
            tally,
        })
    }

    /// Reassembles one registry from decoded parts — possibly several,
    /// when a parallel hub's checkpoint is restored into a sequential hub.
    /// Validation happens in [`RegistryParts::merge`]; group member
    /// counts are recomputed from the shared sessions themselves.
    pub(crate) fn from_parts(parts: Vec<RegistryParts<C, T>>) -> Result<Self, SapError> {
        Ok(Self::from_merged(RegistryParts::merge(parts)?))
    }

    /// Builds a registry from already-merged, already-validated parts.
    ///
    /// Result classes are **rebuilt** here rather than carried: grouped
    /// members re-class by their exact `(n, k, join_slide)` key, shared
    /// members by byte signature (equal spec, progress, previous
    /// emission, and encoded consumer state imply identical futures) —
    /// so a restored registry serves exactly like the one that wrote the
    /// checkpoint, without the checkpoint carrying any class structure.
    /// The image carries no serving knobs, so the registry gets the
    /// default [`ServingConfig`].
    fn from_merged(parts: RegistryParts<C, T>) -> Self {
        let RegistryParts {
            mut sessions,
            groups: group_list,
            count_groups: count_group_list,
            tally,
        } = parts;
        let mut groups: HashMap<(u64, Predicate), DigestGroup<C>> = group_list
            .into_iter()
            .map(|(key, producer)| {
                // the gate is derived state: rebuild it from the open
                // slide's admitted buffer so pruning resumes exactly
                let mut gate = PruneGate::new(producer.k_max());
                gate.rebuild(producer.k_max(), producer.pending());
                (
                    key,
                    DigestGroup {
                        producer,
                        members: 0,
                        predicate: key.1,
                        gate,
                        classes: Vec::new(),
                        slot: 0,
                    },
                )
            })
            .collect();
        // canonical index = live gid: merge rebased every grouped
        // session's reference onto the concatenated list, so adopting
        // positions as ids keeps the references valid verbatim
        let mut count_groups: HashMap<u64, CountGroup<C>> = count_group_list
            .into_iter()
            .enumerate()
            .map(|(gid, state)| {
                let mut gate = PruneGate::new(state.producer.k_max());
                gate.rebuild(state.producer.k_max(), state.producer.pending());
                (
                    gid as u64,
                    CountGroup {
                        slide_len: state.producer.slide_duration() as usize,
                        producer: state.producer,
                        ring: state.ring,
                        ring_base: state.ring_base,
                        ring_cap: 0,
                        member_ids: Vec::new(),
                        next_ordinal: state.next_ordinal,
                        predicate: state.predicate,
                        gate,
                        classes: Vec::new(),
                        slot: 0,
                    },
                )
            })
            .collect();
        let next_count_gid = count_groups.len() as u64;
        // the consumer-less travelers (ejected class followers), noted
        // *before* pass 1 — classing strips donors of their consumers,
        // leaving them indistinguishable from followers afterwards
        let followers: Vec<QueryId> = sessions
            .iter()
            .filter(|(_, session)| match session {
                AnySession::Shared(s) => s.is_classed(),
                AnySession::Grouped(g) => g.consumer().is_none(),
                _ => false,
            })
            .map(|(id, _)| *id)
            .collect();
        // pass 1 — membership, and classes founded (or joined) by the
        // members that carry a consumer, so the consumer-less followers
        // of pass 2 always find their class already standing
        for (id, session) in &mut sessions {
            match session {
                AnySession::Count(_) | AnySession::Timed(_) => {}
                AnySession::Shared(s) => {
                    let group = groups
                        .get_mut(&(s.slide_duration(), s.predicate()))
                        .expect("merge validated every shared session has its group");
                    group.members += 1;
                    if s.consumer().is_some() && !s.is_warming_up() {
                        Self::class_shared_member(group, *id, s);
                    }
                }
                AnySession::Grouped(g) => {
                    let group = count_groups
                        .get_mut(&g.group())
                        .expect("merge validated every grouped session has its count group");
                    // sessions are in ascending-id order, so member lists
                    // come out ascending too
                    group.member_ids.push(*id);
                    group.ring_cap = group.ring_cap.max(g.spec().n + group.slide_len);
                    if g.consumer().is_some() {
                        Self::class_grouped_member(group, *id, g);
                    }
                }
            }
        }
        // pass 2 — consumer-less travelers (ejected class followers)
        // rejoin the class their cohort re-founded in pass 1
        for (id, session) in &mut sessions {
            if followers.binary_search(id).is_err() {
                continue;
            }
            match session {
                AnySession::Shared(s) => {
                    let group = groups
                        .get_mut(&(s.slide_duration(), s.predicate()))
                        .expect("validated in pass 1");
                    Self::join_shared_follower(group, *id, s);
                }
                AnySession::Grouped(g) => {
                    let group = count_groups
                        .get_mut(&g.group())
                        .expect("validated in pass 1");
                    Self::join_grouped_follower(group, *id, g);
                }
                _ => unreachable!("only shared and grouped members travel consumer-less"),
            }
        }
        let served = (0..sessions.len())
            .filter(|&pos| Self::walked(&sessions[pos].1))
            .collect();
        let mut digest_index = PredicateIndex::default();
        digest_index.mark_stale();
        let mut count_index = PredicateIndex::default();
        count_index.mark_stale();
        Registry {
            sessions,
            groups,
            count_groups,
            next_count_gid,
            served,
            digest_index,
            count_index,
            tally,
            ..Registry::default()
        }
    }

    /// Pools a consumer-carrying, non-warming shared member into its
    /// group's result classes: joins the class with an identical byte
    /// signature — equal `(wd, k)`, slide progress, previous emission,
    /// and encoded consumer state make its future emissions provably
    /// identical, so the member's duplicate consumer is dropped — and
    /// founds a new class around the consumer otherwise. Traveling-path
    /// only (restore, installation); live registration classes pristine
    /// joiners, which need no signature.
    fn class_shared_member(group: &mut DigestGroup<C>, id: QueryId, s: &mut SharedSession<C>) {
        debug_assert!(!s.is_warming_up(), "warming members serve solo");
        let spec = s.timed_spec();
        let consumer = s.take_consumer().expect("caller checked the consumer");
        let sig = consumer_sig(&consumer);
        let candidate = group.classes.iter_mut().find(|c| {
            c.wd == spec.window_duration
                && c.k == spec.k
                && c.consumer.slides_applied() == consumer.slides_applied()
                && c.prev.as_slice() == s.last_snapshot()
                && consumer_sig(&c.consumer) == sig
        });
        match candidate {
            Some(class) => class.members.insert(id),
            None => {
                let prev = s.last_snapshot_shared();
                let members = Members::one(id, usize::MAX);
                group
                    .classes
                    .push(SharedClass::new(consumer, members, prev));
            }
        }
    }

    /// Pools a consumer-carrying grouped member into its count group's
    /// result classes by exact key — same-`(n, k, join_slide)` members
    /// are interchangeable (their state is a pure function of the
    /// group's stream and the key), so a join drops the duplicate
    /// consumer and a miss founds the class around it.
    fn class_grouped_member(group: &mut CountGroup<C>, id: QueryId, g: &mut GroupedSession<C>) {
        let spec = g.spec();
        let join_slide = g.join_slide();
        let consumer = g.take_consumer().expect("caller checked the consumer");
        let candidate = group
            .classes
            .iter_mut()
            .find(|c| c.n == spec.n && c.k == spec.k && c.join_slide == join_slide);
        match candidate {
            Some(class) => class.members.insert(id),
            None => {
                let prev = g.last_snapshot_shared();
                let members = Members::one(id, usize::MAX);
                group
                    .classes
                    .push(CountClass::new(spec, join_slide, consumer, members, prev));
            }
        }
    }

    /// Rejoins an ejected shared follower (traveling without a consumer)
    /// to the class its representative carried. The representative — a
    /// class's lowest member id — always lands first, because sessions
    /// install in ascending-id order.
    fn join_shared_follower(group: &mut DigestGroup<C>, id: QueryId, s: &mut SharedSession<C>) {
        let rep = s
            .class_rep()
            .expect("a consumer-less shared traveler names its class representative");
        let class = group
            .classes
            .iter_mut()
            .find(|c| c.members.contains(rep))
            .expect("a class representative installs before its followers");
        class.members.insert(id);
        s.set_class_rep(None);
    }

    /// Rejoins an ejected grouped follower to a class with its exact
    /// key — same-key classes are interchangeable, so any match serves
    /// it byte-identically (which is why count followers, unlike shared
    /// ones, travel untagged).
    fn join_grouped_follower(group: &mut CountGroup<C>, id: QueryId, g: &GroupedSession<C>) {
        let key = (g.spec().n, g.spec().k, g.join_slide());
        let class = group
            .classes
            .iter_mut()
            .find(|c| (c.n, c.k, c.join_slide) == key)
            .expect("a traveling count group carries a consumer per class key");
        class.members.insert(id);
    }

    // ---- live migration ---------------------------------------------------

    /// Installs a session that already carries live state (a checkpoint
    /// restore or a live migration), keeping the store in ascending-id
    /// order — so drain order is indistinguishable from a hub where the
    /// query had been registered here originally. A shared session's
    /// slide group must have been installed first.
    pub(crate) fn install(&mut self, id: QueryId, mut session: AnySession<C, T>) {
        debug_assert!(
            !matches!(session, AnySession::Grouped(_)),
            "grouped sessions travel with their count group (install_count_group)"
        );
        if let AnySession::Shared(s) = &mut session {
            let group = self
                .groups
                .get_mut(&(s.slide_duration(), s.predicate()))
                .expect("install a shared session only after its group");
            group.members += 1;
            // re-class the traveler (see `from_merged`): consumer-less
            // followers rejoin their representative's class, consumer
            // carriers pool by byte signature. The sharing flag is not
            // consulted — a follower cannot serve without a class.
            if s.is_classed() {
                Self::join_shared_follower(group, id, s);
            } else if !s.is_warming_up() {
                Self::class_shared_member(group, id, s);
            }
        }
        self.insert_session(id, session);
    }

    /// Installs a slide-group producer ahead of its member sessions.
    pub(crate) fn install_group(&mut self, key: (u64, Predicate), producer: DigestProducer) {
        debug_assert_eq!(producer.slide_duration(), key.0);
        let mut gate = PruneGate::new(producer.k_max());
        gate.rebuild(producer.k_max(), producer.pending());
        let prev = self.groups.insert(
            key,
            DigestGroup {
                producer,
                members: 0,
                predicate: key.1,
                gate,
                classes: Vec::new(),
                slot: 0,
            },
        );
        self.digest_index.mark_stale();
        debug_assert!(prev.is_none(), "installing over a live slide group");
    }

    /// Adds restored or re-scattered counters (a restore or resize
    /// assigns the summed counters wholesale to one shard; a migration
    /// moves none).
    pub(crate) fn install_counters(&mut self, tally: &Tally) {
        self.tally.absorb(tally);
    }

    /// Installs a count group and its member sessions as one unit (the
    /// shard restore/resize path — a count group never travels without
    /// its members). The group gets a fresh local gid; members'
    /// references are rebound here, so whatever epoch they came from is
    /// irrelevant.
    pub(crate) fn install_count_group(
        &mut self,
        state: CountGroupState,
        mut members: Vec<(QueryId, AnySession<C, T>)>,
    ) {
        debug_assert!(!members.is_empty(), "a count group never travels empty");
        let gid = self.next_count_gid;
        self.next_count_gid += 1;
        let next_ordinal = state.next_ordinal;
        let slide_len = state.producer.slide_duration() as usize;
        let mut member_ids: Vec<QueryId> = members.iter().map(|(id, _)| *id).collect();
        member_ids.sort_unstable();
        let mut ring_cap = 0;
        for (_, session) in &members {
            if let AnySession::Grouped(g) = session {
                ring_cap = ring_cap.max(g.spec().n + slide_len);
            } else {
                debug_assert!(false, "count-group members are grouped sessions");
            }
        }
        let mut gate = PruneGate::new(state.producer.k_max());
        gate.rebuild(state.producer.k_max(), state.producer.pending());
        let mut group = CountGroup {
            slide_len,
            producer: state.producer,
            ring: state.ring,
            ring_base: state.ring_base,
            ring_cap,
            member_ids,
            next_ordinal,
            predicate: state.predicate,
            gate,
            classes: Vec::new(),
            slot: 0,
        };
        // rebuild the result classes (see `from_merged`): consumer
        // carriers found or join by exact key first, then consumer-less
        // followers rejoin any class with their key. The follower set is
        // noted *before* the classing pass — it strips donors of their
        // consumers, leaving them indistinguishable from followers
        let followers: Vec<QueryId> = members
            .iter()
            .filter(|(_, s)| matches!(s, AnySession::Grouped(g) if g.consumer().is_none()))
            .map(|(id, _)| *id)
            .collect();
        for (id, session) in &mut members {
            if let AnySession::Grouped(g) = session {
                if g.consumer().is_some() {
                    Self::class_grouped_member(&mut group, *id, g);
                }
            }
        }
        for (id, session) in &mut members {
            if let AnySession::Grouped(g) = session {
                if followers.contains(id) {
                    Self::join_grouped_follower(&mut group, *id, g);
                }
            }
        }
        self.count_groups.insert(gid, group);
        self.count_index.mark_stale();
        for (id, mut session) in members {
            if let AnySession::Grouped(g) = &mut session {
                g.set_group(gid);
            }
            self.insert_session(id, session);
        }
    }

    /// Dissolves a count group's result classes into its member sessions
    /// ahead of an ejection: each class's representative — its lowest
    /// member id — adopts the class consumer and carries it through the
    /// migration; followers travel consumer-less and rejoin by exact key
    /// at installation.
    fn dissolve_count_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        group: &mut CountGroup<C>,
    ) {
        for class in group.classes.drain(..) {
            let rep = class.members.first();
            let idx = sessions
                .binary_search_by_key(&rep, |(id, _)| *id)
                .expect("class member ids name registered sessions");
            let AnySession::Grouped(g) = &mut sessions[idx].1 else {
                unreachable!("count-group class members are grouped sessions")
            };
            g.adopt_consumer(class.consumer);
        }
    }

    /// Dissolves a slide group's result classes ahead of an ejection:
    /// the representative adopts the class consumer, and every follower
    /// is tagged with the representative's id so installation rejoins it
    /// to exactly its old class (shared classes have no exact key — two
    /// distinct classes can share `(wd, k)` — so the tag disambiguates).
    fn dissolve_shared_classes(
        sessions: &mut [(QueryId, AnySession<C, T>)],
        group: &mut DigestGroup<C>,
    ) {
        for class in group.classes.drain(..) {
            let SharedClass {
                consumer, members, ..
            } = class;
            let rep = members.first();
            for member in members.ids().skip(1) {
                let idx = sessions
                    .binary_search_by_key(&member, |(id, _)| *id)
                    .expect("class member ids name registered sessions");
                let AnySession::Shared(s) = &mut sessions[idx].1 else {
                    unreachable!("slide-group class members are shared sessions")
                };
                s.set_class_rep(Some(rep));
            }
            let idx = sessions
                .binary_search_by_key(&rep, |(id, _)| *id)
                .expect("class member ids name registered sessions");
            let AnySession::Shared(s) = &mut sessions[idx].1 else {
                unreachable!("slide-group class members are shared sessions")
            };
            s.adopt_consumer(consumer);
        }
    }

    /// Ejects the count group containing `member` and every member
    /// session, for whole-group migration to another shard (a count
    /// group's members are inseparable — moving one moves all). `None`
    /// if `member` is not a grouped session here.
    pub(crate) fn eject_count_group_of(
        &mut self,
        member: QueryId,
    ) -> Option<EjectedCountGroup<C, T>> {
        let pos = self
            .sessions
            .binary_search_by_key(&member, |(id, _)| *id)
            .ok()?;
        let AnySession::Grouped(g) = &self.sessions[pos].1 else {
            return None;
        };
        let gid = g.group();
        let mut group = self
            .count_groups
            .remove(&gid)
            .expect("a grouped session's gid names a live count group");
        self.count_index.mark_stale();
        Self::dissolve_count_classes(&mut self.sessions, &mut group);
        let mut members = Vec::with_capacity(group.member_ids.len());
        let mut i = 0;
        while i < self.sessions.len() {
            let is_member =
                matches!(&self.sessions[i].1, AnySession::Grouped(g) if g.group() == gid);
            if is_member {
                members.push(self.remove_session(i));
            } else {
                i += 1;
            }
        }
        debug_assert_eq!(members.len(), group.member_ids.len());
        Some((
            CountGroupState {
                producer: group.producer,
                ring: group.ring,
                ring_base: group.ring_base,
                predicate: group.predicate,
                next_ordinal: group.next_ordinal,
            },
            members,
        ))
    }

    /// Ejects a slide group and every member session for migration to
    /// another shard: the shared producer plus the members in
    /// ascending-id order. `None` if no such group lives here.
    pub(crate) fn eject_group(&mut self, key: (u64, Predicate)) -> Option<EjectedGroup<C, T>> {
        let mut group = self.groups.remove(&key)?;
        self.digest_index.mark_stale();
        Self::dissolve_shared_classes(&mut self.sessions, &mut group);
        let mut members = Vec::with_capacity(group.members);
        let mut i = 0;
        while i < self.sessions.len() {
            let is_member = matches!(&self.sessions[i].1, AnySession::Shared(s)
                if s.slide_duration() == key.0 && s.predicate() == key.1);
            if is_member {
                members.push(self.remove_session(i));
            } else {
                i += 1;
            }
        }
        debug_assert_eq!(members.len(), group.members);
        Some((group.producer, members))
    }

    /// Ejects everything — sessions, groups, counters — leaving the
    /// registry empty. The `AsyncHub::resize` path drains each shard
    /// through this before re-scattering onto the new shard set.
    pub(crate) fn eject_all(&mut self) -> RegistryParts<C, T> {
        // dissolve every result class back into the session store first
        // (same protocol as the single-group ejects)
        for group in self.groups.values_mut() {
            Self::dissolve_shared_classes(&mut self.sessions, group);
        }
        for group in self.count_groups.values_mut() {
            Self::dissolve_count_classes(&mut self.sessions, group);
        }
        let mut groups: Vec<((u64, Predicate), DigestProducer)> = self
            .groups
            .drain()
            .map(|(key, group)| (key, group.producer))
            .collect();
        groups.sort_unstable_by_key(|(key, _)| *key);
        // rewrite grouped references from live gids to canonical
        // positions, since parts carry count groups as an index-addressed
        // list
        let (order, index_of) = self.canonical_count_order();
        let mut sessions = std::mem::take(&mut self.sessions);
        self.served.clear();
        self.digest_index.mark_stale();
        self.count_index.mark_stale();
        for (_, session) in &mut sessions {
            if let AnySession::Grouped(g) = session {
                g.set_group(index_of[&g.group()]);
            }
        }
        let count_groups = order
            .into_iter()
            .map(|gid| {
                let g = self
                    .count_groups
                    .remove(&gid)
                    .expect("order holds live gids");
                CountGroupState {
                    producer: g.producer,
                    ring: g.ring,
                    ring_base: g.ring_base,
                    predicate: g.predicate,
                    next_ordinal: g.next_ordinal,
                }
            })
            .collect();
        self.next_count_gid = 0;
        let tally = std::mem::take(&mut self.tally);
        RegistryParts {
            sessions,
            groups,
            count_groups,
            tally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TimedSpec;
    use crate::test_support::{Toy, ToyTimed};

    fn consumer(wd: u64, sd: u64, k: usize) -> SharedTimed<Toy> {
        let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
        SharedTimed::from_engine(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd).unwrap()
    }

    #[test]
    fn digest_depth_follows_the_deepest_member() {
        let pass = Predicate::default();
        let key = (10u64, pass);
        let mut reg: Registry<Toy, ToyTimed> = Registry::default();
        reg.register_shared(QueryId::from_raw(0), consumer(20, 10, 1), pass);
        assert_eq!(reg.groups[&key].producer.k_max(), 1);
        reg.register_shared(QueryId::from_raw(1), consumer(40, 10, 5), pass);
        assert_eq!(reg.groups[&key].producer.k_max(), 5, "grows on join");
        // the deepest member leaving shrinks the depth back
        reg.unregister(QueryId::from_raw(1)).unwrap();
        assert_eq!(reg.groups[&key].producer.k_max(), 1, "shrinks on leave");
        // a non-deepest member leaving does not
        reg.register_shared(QueryId::from_raw(2), consumer(40, 10, 3), pass);
        reg.register_shared(QueryId::from_raw(3), consumer(20, 10, 2), pass);
        reg.unregister(QueryId::from_raw(3)).unwrap();
        assert_eq!(reg.groups[&key].producer.k_max(), 3);
        // the last member out retires the group
        reg.unregister(QueryId::from_raw(0)).unwrap();
        reg.unregister(QueryId::from_raw(2)).unwrap();
        assert!(reg.groups.is_empty());
    }

    #[test]
    fn predicate_disjoint_members_split_into_sub_groups() {
        let mut reg: Registry<Toy, ToyTimed> = Registry::default();
        let hot = Predicate::default().score_at_least(100.0);
        reg.register_shared(
            QueryId::from_raw(0),
            consumer(20, 10, 1),
            Predicate::default(),
        );
        reg.register_shared(QueryId::from_raw(1), consumer(20, 10, 4), hot);
        assert_eq!(
            reg.groups.len(),
            2,
            "same slide duration, disjoint predicates"
        );
        assert_eq!(reg.groups[&(10, Predicate::default())].producer.k_max(), 1);
        assert_eq!(reg.groups[&(10, hot)].producer.k_max(), 4);
        // a same-predicate joiner lands in the existing sub-group
        reg.register_shared(QueryId::from_raw(2), consumer(40, 10, 2), hot);
        assert_eq!(reg.groups.len(), 2);
        assert_eq!(reg.groups[&(10, hot)].members, 2);
    }

    /// A count-group member's consumer over the `⟨n, k, s⟩` reduction.
    fn count_consumer(n: usize, k: usize, s: usize) -> (SharedTimed<Toy>, WindowSpec) {
        let reduced = TimedSpec::new(n as u64, s as u64, k)
            .unwrap()
            .reduced()
            .unwrap();
        let engine = Toy::new(reduced.n, reduced.k, reduced.s);
        (
            SharedTimed::from_engine(engine, n as u64, s as u64).unwrap(),
            WindowSpec::new(n, k, s).unwrap(),
        )
    }

    fn timed_batch(ids: std::ops::Range<u64>) -> Vec<TimedObject> {
        ids.map(|i| TimedObject::new(i, i, ((i * 37) % 101) as f64))
            .collect()
    }

    /// The scale gate of the publish path, counted rather than timed: a
    /// quiet `publish_timed` to ≥ 10³ classed members split over ≥ 100
    /// tag predicates serves no session one by one, and each object
    /// reaches only the groups whose predicate accepts it — not every
    /// group, and not every session.
    #[test]
    fn quiet_publish_visits_no_session_and_only_accepting_groups() {
        const TAGS: u64 = 120;
        let mut reg: Registry<Toy, ToyTimed> = Registry::default();
        for i in 0..1_200u64 {
            let predicate = Predicate::any().tag(TAGS, (i / 2) % TAGS);
            let k = 1 + (i as usize / 2) % 3;
            if i % 2 == 0 {
                reg.register_shared(QueryId::from_raw(i), consumer(200, 100, k), predicate);
            } else {
                let (consumer, spec) = count_consumer(100, k, 50);
                reg.register_grouped(QueryId::from_raw(i), consumer, spec, predicate);
            }
        }
        // warm-up: ten digest slides (the last one closing at t = 1000)
        // and twenty count slides; the count groups end one object into
        // their open slide
        let warm = reg.publish_timed(&timed_batch(0..1_001));
        assert!(!warm.is_empty(), "warm-up closes slides");
        let stats = reg.stats();
        assert_eq!(stats.shared_queries + stats.grouped_queries, 1_200);
        assert_eq!(stats.digest_groups, TAGS);
        assert_eq!(stats.count_groups, TAGS);
        assert!(stats.result_classes < 1_200, "members are classed");

        let quiet = timed_batch(1_001..1_021);
        let accepting: u64 = quiet
            .iter()
            .map(|o| {
                let digest = reg.groups.values().filter(|g| g.predicate.accepts_timed(o));
                let count = reg
                    .count_groups
                    .values()
                    .filter(|g| g.predicate.accepts_timed(o));
                (digest.count() + count.count()) as u64
            })
            .sum();
        assert_eq!(accepting, 2 * quiet.len() as u64, "one tag group per plane");
        let (sessions, group_objects) = (reg.tally.sessions_visited, reg.tally.group_objects);
        assert!(reg.publish_timed(&quiet).is_empty(), "no slide closes");
        assert_eq!(
            reg.tally.sessions_visited - sessions,
            0,
            "a quiet publish to classed members visits no session"
        );
        assert_eq!(
            reg.tally.group_objects - group_objects,
            accepting,
            "each object reaches only the groups whose predicate accepts it"
        );
    }

    #[test]
    fn stats_merge_sums_admission_counters_and_rates_follow() {
        let mut a = HubStats {
            admitted: 60,
            pruned: 40,
            digest_hits: 10,
            count_group_hits: 10,
            class_hits: 5,
            ..HubStats::default()
        };
        let b = HubStats {
            admitted: 40,
            pruned: 60,
            digest_hits: 0,
            count_group_hits: 30,
            class_hits: 15,
            ..HubStats::default()
        };
        assert!((a.prune_rate() - 0.4).abs() < 1e-12);
        assert!((a.class_hit_rate() - 0.25).abs() < 1e-12);
        a.merge(&b);
        assert_eq!(a.admitted, 100);
        assert_eq!(a.pruned, 100);
        assert!(
            (a.prune_rate() - 0.5).abs() < 1e-12,
            "merged rate is hub-wide"
        );
        // 20 class hits over 50 sharing-plane member slides
        assert!((a.class_hit_rate() - 0.4).abs() < 1e-12);
        // empty stats report 0, not NaN
        assert_eq!(HubStats::default().prune_rate(), 0.0);
        assert_eq!(HubStats::default().class_hit_rate(), 0.0);
    }
}
