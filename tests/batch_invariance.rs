//! Batch-size invariance: publishing one timed stream one object per
//! call and in batches of `N` must deliver the **same per-query update
//! sequences**, through both hubs. The registry's publish paths route
//! each batch once through the groups' predicate index, advance slide
//! groups only before accepted objects (to the batch's prefix-maximum
//! timestamp) and at the batch end, ingest count groups segment by
//! segment between slide closes, and walk only the individually served
//! sessions — every one of those is a batching decision this suite pins
//! against the one-object-per-call reference.
//!
//! Each seeded mix covers filtered and unfiltered grouped count queries,
//! filtered and unfiltered shared timed queries, and isolated count and
//! timed queries; registers queries mid-stream (shared members warm up
//! and promote, count members join or found groups); unregisters a
//! shared member while it is still warming up; and cuts a checkpoint of
//! an `AsyncHub` run that is restored at another shard count. The
//! stream carries a predicate-rejected object with the batch's maximum
//! timestamp followed by accepted late objects, which pins the
//! prefix-maximum rule.

use std::collections::BTreeMap;

use sap::prelude::*;

/// Deterministic generator for the mixes and streams.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a query is registered.
#[derive(Clone, Copy, Debug)]
enum Plane {
    Isolated,
    Grouped,
    Shared,
}

/// Slide duration of the shared queries the warming member joins.
const WARM_SD: u64 = 1_000;
/// Batch size of the batched arms.
const N: usize = 16;
/// The filter that rejects odd ids — the late-object pattern's filter.
fn even() -> Predicate {
    Predicate::any().tag(2, 0)
}

fn filter(rng: &mut Lcg) -> Predicate {
    match rng.below(5) {
        0 | 1 => Predicate::any(),
        2 => even(),
        3 => Predicate::any().tag(4, rng.below(4)),
        _ => Predicate::any().score_at_least(20.0),
    }
}

fn query(plane: Plane, rng: &mut Lcg) -> (Plane, Query) {
    let k = 1 + rng.below(4) as usize;
    let slides = 2 + rng.below(3);
    let q = match plane {
        Plane::Shared => {
            let sd = [100, 250, WARM_SD][rng.below(3) as usize];
            Query::window_duration(sd * slides)
                .top(k)
                .slide_duration(sd)
                .filter(filter(rng))
        }
        Plane::Grouped => {
            let s = [8, 20, 50][rng.below(3) as usize];
            Query::window(s * slides as usize)
                .top(k)
                .slide(s)
                .filter(filter(rng))
        }
        Plane::Isolated if rng.below(2) == 0 => {
            let sd = [100, 250][rng.below(2) as usize];
            Query::window_duration(sd * slides)
                .top(k)
                .slide_duration(sd)
        }
        Plane::Isolated => {
            let s = [8, 20][rng.below(2) as usize];
            Query::window(s * slides as usize).top(k).slide(s)
        }
    };
    (plane, q)
}

/// What happens at a stream position (a multiple of [`N`], so every arm
/// reaches it at a batch boundary).
enum Event {
    Register(Plane, Query),
    /// Register a shared member into the non-pristine warm-up group and
    /// unregister it one batch later, still warming up.
    WarmingLeaver,
    /// Checkpoint, and restore at another shard count (`AsyncHub` arms;
    /// a no-op on the sequential hub).
    Cut,
}

struct Mix {
    initial: Vec<(Plane, Query)>,
    events: Vec<(usize, Event)>,
    stream: Vec<TimedObject>,
}

fn mix(seed: u64, len: usize) -> Mix {
    let mut rng = Lcg(seed);
    let planes = [Plane::Grouped, Plane::Shared, Plane::Isolated];
    let mut initial: Vec<(Plane, Query)> = (0..24)
        .map(|i| query(planes[i % planes.len()], &mut rng))
        .collect();
    // the group the warming leaver joins exists from the start
    initial.push((
        Plane::Shared,
        Query::window_duration(2 * WARM_SD)
            .top(2)
            .slide_duration(WARM_SD)
            .filter(even()),
    ));
    let at = |frac: usize| (len * frac / 12) / N * N;
    let mut events = vec![
        (
            at(2),
            Event::Register(Plane::Shared, query(Plane::Shared, &mut rng).1),
        ),
        (
            at(3),
            Event::Register(Plane::Grouped, query(Plane::Grouped, &mut rng).1),
        ),
        (
            at(3),
            Event::Register(Plane::Isolated, query(Plane::Isolated, &mut rng).1),
        ),
        (at(4), Event::WarmingLeaver),
        (
            at(5),
            Event::Register(Plane::Shared, query(Plane::Shared, &mut rng).1),
        ),
        (at(6), Event::Cut),
        (
            at(7),
            Event::Register(Plane::Grouped, query(Plane::Grouped, &mut rng).1),
        ),
        (
            at(8),
            Event::Register(Plane::Shared, query(Plane::Shared, &mut rng).1),
        ),
        (at(9), Event::Cut),
    ];
    events.sort_by_key(|(pos, _)| *pos);
    // timestamps with gaps of 0..=3 (ties included), scores from a small
    // alphabet (score ties included)
    let mut ts = 0u64;
    let mut stream: Vec<TimedObject> = (0..len as u64)
        .map(|id| {
            ts += rng.below(4);
            TimedObject::new(id, ts, rng.below(40) as f64)
        })
        .collect();
    // the late-object pattern, inside one batch: an odd id — rejected by
    // `even()` — jumps two warm-up slides ahead, so it carries the
    // batch's maximum timestamp, and every object after it in the batch
    // (the even ones accepted) arrives late
    for batch_start in [at(1), at(5) + 2 * N, at(10)] {
        let odd = batch_start + 3;
        stream[odd].timestamp += 2 * WARM_SD;
    }
    Mix {
        initial,
        events,
        stream,
    }
}

/// Per registration index, the updates delivered for that query.
type Delivered = Vec<Vec<SlideResult>>;

/// The hub surface the arms drive.
trait Arm {
    fn register(&mut self, plane: Plane, q: &Query) -> QueryId;
    fn unregister(&mut self, id: QueryId);
    fn publish(&mut self, batch: &[TimedObject]) -> Vec<QueryUpdate>;
    fn cut(&mut self) -> Vec<QueryUpdate>;
    fn finish(&mut self) -> Vec<QueryUpdate>;
    fn is_warming_up(&self, _id: QueryId) -> Option<bool> {
        None
    }
}

fn register_on<H: HubExt>(hub: &mut H, plane: Plane, q: &Query) -> QueryId {
    match plane {
        Plane::Isolated => hub.register(q),
        Plane::Grouped => hub.register_grouped(q),
        Plane::Shared => hub.register_shared(q),
    }
    .expect("valid query")
}

impl Arm for Hub {
    fn register(&mut self, plane: Plane, q: &Query) -> QueryId {
        register_on(self, plane, q)
    }

    fn unregister(&mut self, id: QueryId) {
        Hub::unregister(self, id).expect("registered");
    }

    fn publish(&mut self, batch: &[TimedObject]) -> Vec<QueryUpdate> {
        self.publish_timed(batch)
    }

    fn cut(&mut self) -> Vec<QueryUpdate> {
        Vec::new()
    }

    fn finish(&mut self) -> Vec<QueryUpdate> {
        Vec::new()
    }

    fn is_warming_up(&self, id: QueryId) -> Option<bool> {
        self.shared_session(id).map(|s| s.is_warming_up())
    }
}

/// An `AsyncHub` that restores every cut at the next shard count of its
/// ladder.
struct Parallel {
    hub: AsyncHub,
    ladder: Vec<usize>,
}

impl Arm for Parallel {
    fn register(&mut self, plane: Plane, q: &Query) -> QueryId {
        register_on(&mut self.hub, plane, q)
    }

    fn unregister(&mut self, id: QueryId) {
        self.hub.unregister(id).expect("registered");
    }

    fn publish(&mut self, batch: &[TimedObject]) -> Vec<QueryUpdate> {
        self.hub.publish_timed(batch).expect("live shards");
        Vec::new()
    }

    fn cut(&mut self) -> Vec<QueryUpdate> {
        let (checkpoint, undrained) = self.hub.checkpoint().expect("live shards");
        let shards = self.ladder.remove(0);
        self.hub = AsyncHub::restore(&checkpoint, &DefaultEngineFactory, shards, 2)
            .expect("own checkpoint restores");
        undrained
    }

    fn finish(&mut self) -> Vec<QueryUpdate> {
        self.hub.drain().expect("live shards")
    }
}

/// Plays `mix` through `arm` in batches of `batch` and returns each
/// query's delivered updates, in registration order.
fn play(mix: &Mix, arm: &mut dyn Arm, batch: usize) -> Delivered {
    let mut ids: Vec<QueryId> = Vec::new();
    let mut updates: Vec<QueryUpdate> = Vec::new();
    for (plane, q) in &mix.initial {
        ids.push(arm.register(*plane, q));
    }
    let mut published = 0;
    let mut events = mix.events.iter().peekable();
    let mut warming: Option<QueryId> = None;
    while published < mix.stream.len() {
        while let Some((_, event)) = events.next_if(|(pos, _)| *pos == published) {
            match event {
                Event::Register(plane, q) => ids.push(arm.register(*plane, q)),
                Event::WarmingLeaver => {
                    let (plane, q) = &mix.initial[mix.initial.len() - 1];
                    let id = arm.register(*plane, q);
                    ids.push(id);
                    warming = Some(id);
                }
                Event::Cut => updates.extend(arm.cut()),
            }
        }
        let stop = events
            .peek()
            .map_or(mix.stream.len(), |(pos, _)| *pos)
            .min(mix.stream.len());
        // the leaver goes one batch of N after it joined
        let stop = match warming {
            Some(_) => stop.min(published + N),
            None => stop,
        };
        while published < stop {
            let end = (published + batch).min(stop);
            updates.extend(arm.publish(&mix.stream[published..end]));
            published = end;
        }
        if let Some(id) = warming.take() {
            if let Some(warm) = arm.is_warming_up(id) {
                assert!(warm, "the leaver must still be warming up");
            }
            arm.unregister(id);
        }
    }
    updates.extend(arm.finish());
    let index: BTreeMap<QueryId, usize> = ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut delivered: Delivered = vec![Vec::new(); ids.len()];
    for u in updates {
        delivered[index[&u.query]].push(u.result);
    }
    delivered
}

fn assert_same(reference: &Delivered, other: &Delivered, arm: &str, seed: u64) {
    assert_eq!(reference.len(), other.len());
    for (i, (want, got)) in reference.iter().zip(other).enumerate() {
        assert!(
            want == got,
            "seed {seed}, arm {arm}: query #{i} delivered {} updates, reference {}; \
             first difference at update {:?}",
            got.len(),
            want.len(),
            want.iter().zip(got).position(|(a, b)| a != b),
        );
    }
}

#[test]
fn batched_publishes_deliver_what_single_object_publishes_deliver() {
    for seed in [1u64, 2, 3] {
        let mix = mix(seed, 3_000);
        let reference = play(&mix, &mut Hub::new(), 1);
        assert!(
            reference.iter().filter(|u| !u.is_empty()).count() > reference.len() / 2,
            "seed {seed}: most queries emit"
        );
        assert_same(&reference, &play(&mix, &mut Hub::new(), N), "hub/N", seed);
        assert_same(&reference, &play(&mix, &mut Hub::new(), 5), "hub/5", seed);
        let mut parallel = Parallel {
            hub: AsyncHub::new(2, 2),
            ladder: vec![3, 1],
        };
        assert_same(&reference, &play(&mix, &mut parallel, N), "async/N", seed);
        let mut parallel = Parallel {
            hub: AsyncHub::new(3, 2),
            ladder: vec![1, 4],
        };
        assert_same(&reference, &play(&mix, &mut parallel, 1), "async/1", seed);
    }
}
