//! The shard-side command interpreter and the hub-side placement
//! bookkeeping [`AsyncHub`](crate::exec::AsyncHub) drives.
//!
//! A logical shard is a [`Registry`] — the same session store and
//! fan-out/digest-group logic the sequential [`Hub`](crate::session::Hub)
//! runs — fed [`Command`]s strictly in queue order by
//! [`apply_command`]. That single interpreter is what keeps the parallel
//! hub byte-identical to the sequential one by construction. The hub side
//! keeps a [`Placement`]: which shard owns each query, the group-affinity
//! maps, the id allocator, and the published-offset counter.

use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc;
use std::sync::Arc;

use crate::checkpoint::{tags, Checkpoint, CheckpointError, Decoder, Encoder, EngineFactory};
use crate::digest::DigestProducer;
use crate::exec::{QueryState, ShardSession};
use crate::object::{Object, TimedObject};
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::registry::{CountGroupState, GroupKeys, HubStats, Registry, RegistryParts, Tally};
use crate::session::{QueryId, QueryUpdate};
use crate::subscription::{Plane, ShardSubscription, Subscription};
use crate::window::{SlidingTopK, TimedTopK};

/// One shard's ejected serving state — what travels back on
/// [`AsyncHub::resize`](crate::exec::AsyncHub::resize)'s rescatter path.
pub(crate) type ShardParts = RegistryParts<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// The registry flavor every shard drives: engines boxed and [`Send`],
/// because a shard's core travels between worker threads.
pub(crate) type ShardRegistry = Registry<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// What the hub enqueues on a shard's queue. Control commands travel the
/// same queue as data, so registration and unregistration are totally
/// ordered with respect to the publishes around them — a query
/// registered after `publish(a)` and before `publish(b)` sees exactly the
/// objects of `b` onward, same as with the sequential hub.
pub(crate) enum Command {
    Publish(Arc<[Object]>),
    PublishTimed(Arc<[TimedObject]>),
    AdvanceTime(u64),
    /// The trailing `usize` is the hub-computed home shard — for a group
    /// member, its group's shard. The receiving registry debug-asserts it
    /// owns it, so a group can never silently span shards.
    Register(QueryId, ShardSubscription, usize),
    Unregister(QueryId, mpsc::Sender<ShardSession>),
    Inspect(QueryId, mpsc::Sender<QueryState>),
    /// Stats partial plus the group identities backing it, so the hub
    /// can debug-assert the shard-locality invariant the summed
    /// `digest_groups`/`count_groups` totals depend on.
    Stats(mpsc::Sender<(HubStats, GroupKeys)>),
    Flush(mpsc::Sender<()>),
    Drain(mpsc::Sender<Vec<QueryUpdate>>),
    /// Serialize this shard's registry as one framed `tags::REGISTRY`
    /// section (the hub splices the per-shard sections into one
    /// [`Checkpoint`]). Sent right after a drain barrier, so the state
    /// sits on a per-query slide boundary.
    CheckpointShard(mpsc::Sender<Vec<u8>>),
    /// Adopt a session that already carries live state (a restore or a
    /// live migration). A shared session's group must be installed first.
    Install(QueryId, ShardSession),
    InstallGroup((u64, Predicate), DigestProducer),
    /// Adopt a count group and its member sessions as one unit — a count
    /// group never travels without its members.
    InstallCountGroup(CountGroupState, Vec<(QueryId, ShardSession)>),
    /// Counters carried over from a restore or a resize.
    InstallCounters(Tally),
    /// Hand a slide group — producer plus every member session — to the
    /// hub for migration to another shard.
    EjectGroup(
        (u64, Predicate),
        mpsc::Sender<(DigestProducer, Vec<(QueryId, ShardSession)>)>,
    ),
    /// Hand over the count group containing this member, with every
    /// member session, for whole-group migration.
    EjectCountGroup(
        QueryId,
        mpsc::Sender<(CountGroupState, Vec<(QueryId, ShardSession)>)>,
    ),
    /// Hand *everything* back — sessions, groups, counters, and the
    /// undrained updates — emptying the shard (the resize path).
    EjectAll(mpsc::Sender<(ShardParts, Vec<QueryUpdate>)>),
}

impl Command {
    /// Whether this command feeds the data plane (publish/watermark) —
    /// the commands whose application can close slides and fan a result
    /// class out. The executor keeps runs of these in one wakeup lease
    /// (see `exec::worker_loop`'s group-aware burst).
    pub(crate) fn is_ingest(&self) -> bool {
        matches!(
            self,
            Command::Publish(_) | Command::PublishTimed(_) | Command::AdvanceTime(_)
        )
    }
}

/// Applies one command to one shard's registry, appending any completed
/// slides to `updates`.
pub(crate) fn apply_command(
    registry: &mut ShardRegistry,
    updates: &mut Vec<QueryUpdate>,
    cmd: Command,
) {
    match cmd {
        Command::Publish(batch) => updates.extend(registry.publish(&batch)),
        Command::PublishTimed(batch) => updates.extend(registry.publish_timed(&batch)),
        Command::AdvanceTime(watermark) => updates.extend(registry.advance_time(watermark)),
        Command::Register(id, sub, home) => registry.register(id, sub, Some(home)),
        Command::Unregister(id, reply) => {
            // membership is checked hub-side; a miss here would be a
            // routing bug, surfaced as a RecvError on the hub's reply
            if let Some(session) = registry.unregister(id) {
                let _ = reply.send(session);
            }
        }
        Command::Inspect(id, reply) => {
            if let Some(session) = registry.session(id) {
                let _ = reply.send(QueryState {
                    slides: session.slides(),
                    last_snapshot: session.last_snapshot_shared(),
                });
            }
        }
        Command::Stats(reply) => {
            let _ = reply.send((registry.stats(), registry.group_keys()));
        }
        Command::Flush(reply) => {
            let _ = reply.send(());
        }
        Command::Drain(reply) => {
            let _ = reply.send(std::mem::take(updates));
        }
        Command::CheckpointShard(reply) => {
            let mut enc = Encoder::new();
            enc.section(tags::REGISTRY, |e| registry.encode_checkpoint(e));
            let _ = reply.send(enc.into_payload());
        }
        Command::Install(id, session) => registry.install(id, session),
        Command::InstallGroup(key, producer) => registry.install_group(key, producer),
        Command::InstallCountGroup(state, members) => registry.install_count_group(state, members),
        Command::InstallCounters(tally) => registry.install_counters(&tally),
        Command::EjectGroup(key, reply) => {
            // group residence is tracked hub-side; a miss here is a
            // routing bug, surfaced as a RecvError on the hub's reply
            if let Some(ejected) = registry.eject_group(key) {
                let _ = reply.send(ejected);
            }
        }
        Command::EjectCountGroup(id, reply) => {
            // same hub-side residence contract as EjectGroup
            if let Some(ejected) = registry.eject_count_group_of(id) {
                let _ = reply.send(ejected);
            }
        }
        Command::EjectAll(reply) => {
            let _ = reply.send((registry.eject_all(), std::mem::take(updates)));
        }
    }
}

/// The group a registration joins or founds — the key its placement
/// follows, because groups are shard-local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey {
    /// `(slide_duration, predicate)` on the shared digest plane
    /// (predicate-disjoint members of one slide duration are separate
    /// sub-groups, mirroring the registries' keying).
    Slide((u64, Predicate)),
    /// `(slide length, founding offset mod s, predicate)` on the shared
    /// count plane. The hub mirrors the registries' join rule
    /// arithmetically: a group founded when the hub had published `o`
    /// objects has an empty open slide exactly when
    /// `published ≡ o (mod s)` — so routing a registration to the group
    /// keyed `(s, published mod s, predicate)` lands it precisely where
    /// the registry's own join scan will accept it. (The registry tracks
    /// its open-slide fill by *arrival ordinal*, which every published
    /// object advances whether or not the predicate admits it, so this
    /// arithmetic is predicate-blind.)
    Count((u64, u64, Predicate)),
}

/// Hub-side placement bookkeeping: which shard owns each query, the
/// group-affinity maps, the id allocator, and the published-offset
/// counter the count plane's `(s, offset mod s)` dispatch keys are
/// phased against. This map *is* the dispatch table: every control
/// command is routed by [`home_shard`](Placement::home_shard), and the
/// publish paths skip shards whose `shard_len` is zero.
pub(crate) struct Placement {
    /// Number of live queries on each shard, maintained hub-side so
    /// empty shards can be skipped on publish.
    pub(crate) shard_len: Vec<usize>,
    pub(crate) registered: BTreeSet<QueryId>,
    /// Group → (owning shard, member count), for both sharing planes.
    /// Groups are **shard-local** (a digest producer lives where its
    /// members live), so every member of a group must land on one shard:
    /// the first member places the group by hash of its id, later members
    /// follow the group even when their own hash disagrees, and a group
    /// migrates whole. Which shard a query runs on never affects results
    /// — a drain sorts globally by `(QueryId, slide)` — so group-aware
    /// placement preserves the deterministic drain contract by
    /// construction.
    pub(crate) groups: HashMap<GroupKey, (usize, usize)>,
    /// The group of each registered shared or grouped query, for routing
    /// and unregister bookkeeping.
    pub(crate) member_of: HashMap<QueryId, GroupKey>,
    /// Objects accepted hub-wide (all publish paths) — the registration
    /// offset counter the count-group keys are phased against. Never
    /// reset: keys only ever use it mod `s`, and a restore re-derives
    /// each group's founding class from its producer's pending fill, so
    /// the counter's absolute value is irrelevant across epochs.
    pub(crate) published: u64,
    /// Placement overrides from `move_query`: queries living somewhere
    /// other than their id hash. Consulted by
    /// [`home_shard`](Placement::home_shard) after the group map (a
    /// group member always follows its group), cleared by `resize`
    /// (which re-scatters by hash under the new shard count).
    pub(crate) placed: HashMap<QueryId, usize>,
    pub(crate) next_id: u64,
}

impl Placement {
    pub(crate) fn new(num_shards: usize) -> Placement {
        Placement {
            shard_len: vec![0; num_shards],
            registered: BTreeSet::new(),
            groups: HashMap::new(),
            member_of: HashMap::new(),
            published: 0,
            placed: HashMap::new(),
            next_id: 0,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shard_len.len()
    }

    /// The default placement: a Fibonacci hash of the id. Deterministic
    /// across runs, so a given registration order always produces the
    /// same partitioning.
    pub(crate) fn shard_of(&self, id: QueryId) -> usize {
        let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.num_shards()
    }

    /// Which shard actually owns a registered query: its group's shard
    /// for a group member (group-aware placement may override the hash),
    /// a `move_query` placement if one is in effect, the Fibonacci hash
    /// otherwise.
    pub(crate) fn home_shard(&self, id: QueryId) -> usize {
        let group = self.member_of.get(&id).and_then(|key| self.groups.get(key));
        match (group, self.placed.get(&id)) {
            (Some(&(shard, _)), _) | (None, Some(&shard)) => shard,
            (None, None) => self.shard_of(id),
        }
    }

    /// Allocates the next [`QueryId`]. Callers burn the id even when the
    /// subsequent send fails: a dead shard must not wedge the id
    /// sequence, or every retry would re-derive the same id, hash to the
    /// same dead shard, and fail forever — the next attempt gets a fresh
    /// id that may route to a healthy shard.
    pub(crate) fn fresh_id(&mut self) -> QueryId {
        let id = QueryId::from_raw(self.next_id);
        self.next_id += 1;
        id
    }

    /// The group `sub` joins or founds, `None` for an isolated query. A
    /// count-group key is phased against `published`, so callers settle
    /// coalesced publishes first.
    pub(crate) fn group_key<C: SlidingTopK, T: TimedTopK>(
        &self,
        sub: &Subscription<C, T>,
    ) -> Option<GroupKey> {
        match &sub.plane {
            Plane::Count(_) | Plane::Timed(_) => None,
            Plane::Shared {
                consumer,
                predicate,
            } => Some(GroupKey::Slide((consumer.slide_duration(), *predicate))),
            Plane::Grouped {
                spec, predicate, ..
            } => {
                let s = spec.s as u64;
                Some(GroupKey::Count((s, self.published % s, *predicate)))
            }
        }
    }

    /// Where a registration lands: on its group's shard when it joins a
    /// live group — overriding the id hash, because the group's producer
    /// lives there — and by the id hash otherwise (an isolated query, or
    /// a member founding a new group).
    pub(crate) fn registration_shard(&self, id: QueryId, key: Option<GroupKey>) -> usize {
        key.and_then(|key| self.groups.get(&key))
            .map_or_else(|| self.shard_of(id), |&(shard, _)| shard)
    }

    /// Records a query the target shard accepted, with its group
    /// membership (founding the group's placement on `shard` if it is
    /// new). Never called for a failed send, so the hub never counts a
    /// member that no shard owns.
    pub(crate) fn admit(&mut self, id: QueryId, shard: usize, key: Option<GroupKey>) {
        if let Some(key) = key {
            self.groups.entry(key).or_insert((shard, 0)).1 += 1;
            self.member_of.insert(id, key);
        }
        self.shard_len[shard] += 1;
        self.registered.insert(id);
    }

    /// Undoes [`admit`](Placement::admit) once the shard handed the
    /// session back. The last member out retires its group's placement —
    /// mirroring the registry, which just retired the group — so a later
    /// registrant founds a fresh one, placed anew.
    pub(crate) fn release(&mut self, id: QueryId, shard: usize) {
        self.registered.remove(&id);
        self.shard_len[shard] -= 1;
        let Some(key) = self.member_of.remove(&id) else {
            return;
        };
        if let Some(members) = self.groups.get_mut(&key) {
            members.1 -= 1;
            if members.1 == 0 {
                self.groups.remove(&key);
            }
        }
    }

    /// Empties every per-query map for a repartition under `num_shards`.
    /// `published` and `next_id` survive: the offset counter's absolute
    /// value is placement-independent, and ids must never be reused.
    pub(crate) fn reset(&mut self, num_shards: usize) {
        self.shard_len = vec![0; num_shards];
        self.registered.clear();
        self.groups.clear();
        self.member_of.clear();
        self.placed.clear();
    }
}

/// Decodes a hub checkpoint (taken by any hub at any shard count) into
/// the id-allocator watermark and the merged serving state, validating
/// as it goes. Malformed input is a typed [`SapError::Checkpoint`];
/// never panics on foreign bytes.
pub(crate) fn decode_hub_checkpoint(
    checkpoint: &Checkpoint,
    factory: &dyn EngineFactory,
) -> Result<(u64, ShardParts), SapError> {
    let mut dec = Decoder::new(checkpoint.payload());
    let next_id = dec.take_u64()?;
    let sections = dec.take_usize()?;
    let mut parts = Vec::new();
    for _ in 0..sections {
        let mut registry = dec.section(tags::REGISTRY)?;
        parts.push(Registry::decode_checkpoint(
            &mut registry,
            checkpoint.version(),
            &mut |name, spec| factory.count(name, spec),
            &mut |name, spec| factory.timed(name, spec),
        )?);
        registry.finish().map_err(SapError::from)?;
    }
    dec.finish().map_err(SapError::from)?;
    let merged = RegistryParts::merge(parts).map_err(SapError::from)?;
    if merged.sessions.iter().any(|(id, _)| id.raw() >= next_id) {
        return Err(CheckpointError::Corrupt("session id at or past the id counter").into());
    }
    Ok((next_id, merged))
}
