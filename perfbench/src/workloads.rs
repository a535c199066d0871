//! The three workloads: seeded inputs (stream + standing queries), the
//! hub each one drives, and the one registration adapter.

use std::ops::Range;

use sap::prelude::*;
use sap::stream::checksum_fold;
use sap::stream::Workload as _;

/// splitmix64: a small seeded generator for the query mixes and samples,
/// so a workload is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Which registration plane serves a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Plane {
    /// `register`: a private session per query.
    Isolated,
    /// `register_grouped`: the shared count plane.
    Grouped,
    /// `register_shared`: the shared digest plane (time-based).
    Shared,
}

/// One standing query of a workload.
#[derive(Debug, Clone)]
pub struct QueryDef {
    pub plane: Plane,
    pub query: Query,
}

impl QueryDef {
    /// The validated geometry (every generated query is valid).
    pub fn spec(&self) -> QuerySpec {
        self.query
            .validate_any()
            .expect("generated queries are valid")
    }
}

/// The one registration adapter: every query the benchmark registers, on
/// either hub, goes through here.
pub fn register<H: HubExt>(hub: &mut H, q: &QueryDef) -> Result<QueryId, SapError> {
    match q.plane {
        Plane::Isolated => hub.register(&q.query),
        Plane::Grouped => hub.register_grouped(&q.query),
        Plane::Shared => hub.register_shared(&q.query),
    }
}

/// The published stream: plain objects for count-only workloads,
/// timestamped objects otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Stream {
    Count(Vec<Object>),
    Timed(Vec<TimedObject>),
}

impl Stream {
    pub fn len(&self) -> usize {
        match self {
            Stream::Count(v) => v.len(),
            Stream::Timed(v) => v.len(),
        }
    }

    /// The untimed view of a prefix (what count-based queries see).
    pub fn untimed(&self, len: usize) -> Vec<Object> {
        match self {
            Stream::Count(v) => v[..len].to_vec(),
            Stream::Timed(v) => v[..len].iter().map(TimedObject::untimed).collect(),
        }
    }
}

/// Which hub a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubKind {
    /// The sequential `Hub`: every publish returns its updates.
    Sequential,
    /// `AsyncHub`: each batch is a publish followed by a drain.
    Async { shards: usize, workers: usize },
}

/// Control-plane writes interleaved with the stream (`async-churn`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Replace `replace` queries every `every` batches.
    pub every: u64,
    pub replace: usize,
    /// Take a checkpoint after every `checkpoint_every`-th batch.
    pub checkpoint_every: u64,
}

/// A workload: its hub, standing queries, stream and schedule.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub hub: HubKind,
    pub queries: Vec<QueryDef>,
    pub stream: Stream,
    /// Objects per publish call.
    pub batch: usize,
    /// Fixed open-loop rate, objects/s.
    pub rate: f64,
    /// Objects published by set-up: enough to fill the widest window.
    pub warmup: usize,
    pub churn: Option<Churn>,
    pub seed: u64,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["engine-paper", "fanout-shared", "async-churn"];

/// Mean inter-arrival gap of the timed streams (Poisson, time units).
const MEAN_GAP: f64 = 25.0;

/// Builds a workload's inputs from its seed. `stream_objects` is the
/// number of objects the run may publish after set-up.
pub fn build(name: &str, seed: u64, stream_objects: usize) -> Option<Workload> {
    let w = match name {
        "engine-paper" => engine_paper(seed, stream_objects),
        "fanout-shared" => fanout_shared(seed, stream_objects),
        "async-churn" => async_churn(seed, stream_objects),
        _ => return None,
    };
    Some(w)
}

/// The closed-loop throughput this benchmark measured for a workload when
/// it was defined, objects/s, on a 2-CPU x86-64 KVM guest. It sizes the
/// closed loop's fixed work.
pub fn throughput(name: &str) -> f64 {
    match name {
        "engine-paper" => 120_000.0,
        "fanout-shared" => 10_000.0,
        _ => 16_000.0,
    }
}

/// The open-loop rate of a workload, objects/s: 12–31% of its
/// `throughput`. Every workload serves its slide closes in bursts (every
/// s = 1000 query of `engine-paper` closes on the same batch), and at
/// half load batches queued behind them; the latency percentiles then
/// measured a queue that a slightly slower host let grow, not the
/// serving path.
pub fn rate(name: &str) -> f64 {
    match name {
        "engine-paper" => 15_000.0,
        "fanout-shared" => 3_000.0,
        _ => 5_000.0,
    }
}

/// STOCK as a chain of short independent episodes: `len` objects made of
/// `episode`-object STOCK streams (each from its own seed drawn from
/// `seed`), each followed by the same objects in reverse order; ids are
/// renumbered in stream order. One long STOCK stream trends for ~20k
/// objects at a time, and SAP's cost differs widely between rising,
/// falling and flat prices, so the cost of a run would hinge on the few
/// trends its seed drew. Every episode rises and then mirrors into a
/// fall, so a run averages over hundreds of alike episodes instead.
fn stock_episodes(len: usize, episode: usize, seed: u64) -> Vec<Object> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len + 2 * episode);
    while out.len() < len {
        let path = Dataset::Stock.generate(episode, rng.next_u64());
        out.extend(path.iter().chain(path.iter().rev()).copied());
    }
    out.truncate(len);
    out.iter_mut()
        .enumerate()
        .for_each(|(i, o)| *o = Object::new(i as u64, o.score));
    out
}

/// The corners of the paper's Figure 9 k- and s-sweeps on STOCK:
/// n = 10⁴, k ∈ {10, 100, 500} × s ∈ {10, 100, 1000}, all SAP, isolated.
fn engine_paper(seed: u64, stream_objects: usize) -> Workload {
    let n = 10_000;
    let queries = [10, 100, 500]
        .into_iter()
        .flat_map(|k| [10, 100, 1000].map(|s| (k, s)))
        .map(|(k, s)| QueryDef {
            plane: Plane::Isolated,
            query: Query::window(n).top(k).slide(s),
        })
        .collect();
    let warmup = n;
    Workload {
        name: "engine-paper",
        dataset: Dataset::Stock,
        hub: HubKind::Sequential,
        queries,
        stream: Stream::Count(stock_episodes(warmup + stream_objects, 5_000, seed)),
        batch: 100,
        rate: rate("engine-paper"),
        warmup,
        churn: None,
        seed,
    }
}

const KS: [usize; 4] = [1, 5, 10, 20];
const SLIDES: [usize; 3] = [250, 500, 1_000];
const SLIDE_DURATIONS: [u64; 3] = [5_000, 10_000, 20_000];

/// A query of the fan-out geometry: `k`, a window of 2–8 slides, and a
/// slide of `SLIDES[size]` arrivals (count planes) or
/// `SLIDE_DURATIONS[size]` time units (the shared digest plane).
fn mixed_query(
    plane: Plane,
    k: usize,
    slides: usize,
    size: usize,
    predicate: Predicate,
) -> QueryDef {
    let query = match plane {
        Plane::Shared => {
            let sd = SLIDE_DURATIONS[size];
            Query::window_duration(sd * slides as u64)
                .top(k)
                .slide_duration(sd)
        }
        Plane::Isolated | Plane::Grouped => {
            let s = SLIDES[size];
            Query::window(s * slides).top(k).slide(s)
        }
    };
    QueryDef {
        plane,
        query: query.filter(predicate),
    }
}

/// `count` queries cycling through `planes`, each plane covering every
/// `(k, slides, size)` combination equally often — and, with
/// `filter_one_in = Some(f)`, every combination filtered by a tag in one
/// block of `f` — in a seeded order. The cost of serving the mix does
/// not depend on the seed; only registration order and tag residues do.
fn balanced_mix(
    count: usize,
    planes: &[Plane],
    filter_one_in: Option<usize>,
    rng: &mut Rng,
) -> Vec<QueryDef> {
    let combos = KS.len() * 7 * SLIDES.len();
    let offset = rng.below(128);
    let mut defs: Vec<QueryDef> = (0..count)
        .map(|i| {
            let plane = planes[i % planes.len()];
            let j = i / planes.len();
            let k = KS[j % KS.len()];
            let slides = 2 + (j / KS.len()) % 7;
            let size = (j / (KS.len() * 7)) % SLIDES.len();
            let predicate = match filter_one_in {
                Some(f) if (j / combos).is_multiple_of(f) => {
                    Predicate::any().tag(128, ((j + offset) % 128) as u64)
                }
                _ => Predicate::any(),
            };
            mixed_query(plane, k, slides, size, predicate)
        })
        .collect();
    for i in (1..defs.len()).rev() {
        defs.swap(i, rng.below(i + 1));
    }
    defs
}

/// Objects needed to fill the widest window of `queries` on `stream`.
fn widest_window(queries: &[QueryDef], stream: &[TimedObject]) -> usize {
    let mut objects = 0;
    let mut duration = 0;
    for q in queries {
        match q.spec() {
            QuerySpec::Count(spec) => objects = objects.max(spec.n),
            QuerySpec::Timed(spec) => duration = duration.max(spec.window_duration),
        }
    }
    objects.max(stream.partition_point(|o| o.timestamp < duration))
}

/// 10⁴ standing queries on a STOCK stream with Poisson arrivals: half on
/// the shared count plane, half on the shared digest plane, one in four
/// filtered by a residue-class tag.
fn fanout_shared(seed: u64, stream_objects: usize) -> Workload {
    let queries = balanced_mix(
        10_000,
        &[Plane::Grouped, Plane::Shared],
        Some(4),
        &mut Rng::new(seed),
    );
    timed_workload(
        "fanout-shared",
        Dataset::Stock,
        HubKind::Sequential,
        queries,
        20,
        None,
        seed,
        stream_objects,
    )
}

/// `AsyncHub` (16 logical shards, 2 workers) serving 2000 queries over
/// TRIP — a third each isolated count, grouped count and shared timed —
/// with 1% of them replaced every 10 batches and a checkpoint every 100.
fn async_churn(seed: u64, stream_objects: usize) -> Workload {
    let queries = balanced_mix(
        2_000,
        &[Plane::Isolated, Plane::Grouped, Plane::Shared],
        None,
        &mut Rng::new(seed),
    );
    timed_workload(
        "async-churn",
        Dataset::Trip,
        HubKind::Async {
            shards: 16,
            workers: 2,
        },
        queries,
        200,
        Some(Churn {
            every: 10,
            replace: 20,
            checkpoint_every: 100,
        }),
        seed,
        stream_objects,
    )
}

#[allow(clippy::too_many_arguments)]
fn timed_workload(
    name: &'static str,
    dataset: Dataset,
    hub: HubKind,
    queries: Vec<QueryDef>,
    batch: usize,
    churn: Option<Churn>,
    seed: u64,
    stream_objects: usize,
) -> Workload {
    // the widest timed window spans 8 slides of 20k time units, ~6400
    // objects at the mean gap: size the warm-up on a generous prefix
    let probe = dataset.generate_timed(20_000, seed, ArrivalProcess::poisson(MEAN_GAP));
    let warmup = widest_window(&queries, &probe);
    let stream = dataset.generate_timed(
        warmup + stream_objects,
        seed,
        ArrivalProcess::poisson(MEAN_GAP),
    );
    Workload {
        name,
        dataset,
        hub,
        queries,
        stream: Stream::Timed(stream),
        batch,
        rate: rate(name),
        warmup,
        churn,
        seed,
    }
}

/// Folds one emitted slide into a per-query checksum: the slide index and
/// the snapshot's `(id, score)` bytes, order sensitive. Hub updates and
/// every reference path fold through this one function.
pub fn fold_slide(acc: u64, slide: u64, snapshot: &[Object]) -> u64 {
    checksum_fold(acc ^ slide.wrapping_mul(0x9E37_79B9_7F4A_7C15), snapshot)
}

/// Objects between two slides whose snapshot a watched query's tally
/// folds in full. Folding every snapshot cost the closed loop up to a
/// fifth of its time (a k = 500 snapshot on every slide of an s = 10
/// query), so throughput hinged on which queries the seed happened to
/// watch.
const FOLD_EVERY_OBJECTS: u64 = 1_000;

impl QueryDef {
    /// Slides between two snapshots the correctness check folds in full:
    /// about one per `FOLD_EVERY_OBJECTS` published objects.
    pub fn fold_stride(&self) -> u64 {
        let objects_per_slide = match self.spec() {
            QuerySpec::Count(spec) => spec.s as u64,
            QuerySpec::Timed(spec) => (spec.slide_duration as f64 / MEAN_GAP) as u64,
        };
        (FOLD_EVERY_OBJECTS / objects_per_slide.max(1)).max(1)
    }
}

/// A query's output as the correctness check compares it: the slide
/// count, and a checksum of every slide's index, size and top object,
/// and of the whole snapshot of every `stride`-th slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub slides: u64,
    pub checksum: u64,
    stride: u64,
}

impl Default for Tally {
    /// Folds every snapshot in full.
    fn default() -> Self {
        Tally::new(1)
    }
}

impl Tally {
    pub fn new(stride: u64) -> Tally {
        Tally {
            slides: 0,
            checksum: sap::stream::CHECKSUM_SEED,
            stride: stride.max(1),
        }
    }

    pub fn add(&mut self, slide: u64, snapshot: &[Object]) {
        self.slides += 1;
        let folded = if slide.is_multiple_of(self.stride) {
            snapshot
        } else {
            &snapshot[..snapshot.len().min(1)]
        };
        self.checksum = fold_slide(self.checksum ^ snapshot.len() as u64, slide, folded);
    }
}

/// A fixed-key hash of a query id, the same in every process, so that
/// two hubs (traced and untraced, or restored and original) that deliver
/// the same updates fold the same stream hash.
fn id_hash(id: QueryId) -> u64 {
    use std::hash::BuildHasher;
    std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
        .hash_one(id)
}

/// The consumer every delivered update passes through: counts updates,
/// folds a cheap whole-stream hash (traced and untraced passes must
/// agree on it), and keeps full per-query tallies for the watched
/// sample the correctness check replays.
#[derive(Debug, Default)]
pub struct Sink {
    pub updates: u64,
    pub stream_hash: u64,
    /// The watched queries (a handful) and their tallies.
    pub tallies: Vec<(QueryId, Tally)>,
}

impl Sink {
    /// Keeps a tally of `id`'s updates, folding every `stride`-th
    /// snapshot in full.
    pub fn watch(&mut self, id: QueryId, stride: u64) {
        self.tallies.push((id, Tally::new(stride)));
    }

    pub fn take(&mut self, u: &QueryUpdate) {
        let top = u.result.snapshot.first().map_or(0, |o| o.id);
        self.updates += 1;
        self.stream_hash = (self.stream_hash.rotate_left(7)
            ^ id_hash(u.query)
            ^ u.result.slide.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ top.wrapping_add(u.result.snapshot.len() as u64))
        .wrapping_mul(0x1000_0000_01B3);
        if let Some((_, tally)) = self.tallies.iter_mut().find(|(id, _)| *id == u.query) {
            tally.add(u.result.slide, &u.result.snapshot);
        }
    }
}

/// The hub a workload drives, behind one calling convention. A run holds
/// one at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Served {
    Seq(Hub),
    Async(AsyncHub),
}

impl Served {
    pub fn new(kind: HubKind) -> Served {
        match kind {
            HubKind::Sequential => Served::Seq(Hub::new()),
            HubKind::Async { shards, workers } => Served::Async(AsyncHub::new(shards, workers)),
        }
    }

    pub fn register(&mut self, q: &QueryDef) -> Result<QueryId, SapError> {
        match self {
            Served::Seq(hub) => register(hub, q),
            Served::Async(hub) => register(hub, q),
        }
    }

    pub fn unregister(&mut self, id: QueryId) -> Result<(), SapError> {
        match self {
            Served::Seq(hub) => hub.unregister(id).map(drop),
            Served::Async(hub) => hub.unregister(id).map(drop),
        }
    }

    /// Publishes `stream[range]` and hands every update it delivers to
    /// `sink`: one `publish*` call on `Hub`; `publish_timed` then `drain`
    /// on `AsyncHub`. With `spans`, the duration of each call is recorded.
    pub fn deliver(
        &mut self,
        stream: &Stream,
        range: Range<usize>,
        sink: &mut Sink,
        spans: Option<&mut Spans>,
    ) -> Result<(), SapError> {
        let objects = range.len() as u64;
        match self {
            Served::Seq(hub) => {
                let started = spans.is_some().then(std::time::Instant::now);
                let updates = match stream {
                    Stream::Count(v) => hub.publish(&v[range]),
                    Stream::Timed(v) => hub.publish_timed(&v[range]),
                };
                if let (Some(spans), Some(started)) = (spans, started) {
                    spans.publish(started.elapsed(), objects, &updates);
                }
                updates.iter().for_each(|u| sink.take(u));
            }
            Served::Async(hub) => {
                let started = spans.is_some().then(std::time::Instant::now);
                match stream {
                    Stream::Count(v) => hub.publish(&v[range])?,
                    Stream::Timed(v) => hub.publish_timed(&v[range])?,
                }
                let published = spans.is_some().then(std::time::Instant::now);
                let updates = hub.drain()?;
                if let (Some(spans), Some(started), Some(published)) = (spans, started, published) {
                    spans
                        .async_publish_us
                        .push(crate::measure::us(published - started));
                    spans.drain_us.push(crate::measure::us(published.elapsed()));
                    spans.count_updates(&updates);
                }
                updates.iter().for_each(|u| sink.take(u));
            }
        }
        Ok(())
    }

    /// Checkpoints the hub (on `AsyncHub` a drain barrier whose updates
    /// go to `sink`).
    pub fn checkpoint(&mut self, sink: &mut Sink) -> Result<Checkpoint, SapError> {
        match self {
            Served::Seq(hub) => Ok(hub.checkpoint()),
            Served::Async(hub) => {
                let (image, updates) = hub.checkpoint()?;
                updates.iter().for_each(|u| sink.take(u));
                Ok(image)
            }
        }
    }

    /// Restores a hub of the same flavor from `image`.
    pub fn restore(kind: HubKind, image: &Checkpoint) -> Result<Served, SapError> {
        match kind {
            HubKind::Sequential => Hub::restore(image, &DefaultEngineFactory).map(Served::Seq),
            HubKind::Async { shards, workers } => {
                AsyncHub::restore(image, &DefaultEngineFactory, shards, workers).map(Served::Async)
            }
        }
    }

    pub fn stats(&mut self) -> Result<HubStats, SapError> {
        match self {
            Served::Seq(hub) => Ok(hub.stats()),
            Served::Async(hub) => hub.stats(),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Served::Seq(hub) => hub.len(),
            Served::Async(hub) => hub.len(),
        }
    }
}

/// Spans the traced run records around calls into the hubs (kept in
/// memory, reduced when the run ends).
#[derive(Debug, Default)]
pub struct Spans {
    /// `Hub` publishes that delivered no update.
    pub quiet_ns: f64,
    pub quiet_objects: u64,
    /// `Hub` publishes that delivered updates: duration (µs) and count.
    pub close_us: Vec<f64>,
    pub close_updates: u64,
    /// `AsyncHub` publish and drain calls (µs).
    pub async_publish_us: Vec<f64>,
    pub drain_us: Vec<f64>,
    pub register_us: Vec<f64>,
    pub unregister_us: Vec<f64>,
    pub updates: u64,
    pub changed: u64,
}

impl Spans {
    fn publish(&mut self, took: std::time::Duration, objects: u64, updates: &[QueryUpdate]) {
        if updates.is_empty() {
            self.quiet_ns += took.as_secs_f64() * 1e9;
            self.quiet_objects += objects;
        } else {
            self.close_us.push(crate::measure::us(took));
            self.close_updates += updates.len() as u64;
        }
        self.count_updates(updates);
    }

    fn count_updates(&mut self, updates: &[QueryUpdate]) {
        self.updates += updates.len() as u64;
        self.changed += updates.iter().filter(|u| u.result.changed()).count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for name in NAMES {
            let a = build(name, 7, 2_000).unwrap();
            let b = build(name, 7, 2_000).unwrap();
            let c = build(name, 8, 2_000).unwrap();
            assert_eq!(a.stream, b.stream, "{name}");
            assert_eq!(a.warmup, b.warmup, "{name}");
            let queries = |w: &Workload| -> Vec<(Plane, Query)> {
                w.queries
                    .iter()
                    .map(|q| (q.plane, q.query.clone()))
                    .collect()
            };
            assert_eq!(queries(&a), queries(&b), "{name}");
            assert_ne!(a.stream, c.stream, "{name} ignored its seed");
        }
        assert!(build("nope", 1, 10).is_none());
    }

    #[test]
    fn tallies_fold_a_stride_of_snapshots_in_full() {
        let a = [Object::new(1, 3.0), Object::new(2, 2.0)];
        let b = [Object::new(1, 3.0), Object::new(9, 2.0)];
        let one = |stride, slide, snapshot: &[Object]| {
            let mut t = Tally::new(stride);
            t.add(slide, snapshot);
            t
        };
        // a folded slide covers the whole snapshot
        assert_ne!(one(4, 8, &a), one(4, 8, &b));
        // any other slide covers its size and top object
        assert_eq!(one(4, 9, &a), one(4, 9, &b));
        assert_ne!(one(4, 9, &a), one(4, 9, &b[..1]));
        assert_ne!(one(4, 9, &a), one(4, 9, &a[1..]));
        // about one full snapshot per 1000 objects
        let def = |plane, query| QueryDef { plane, query };
        let count = |s| Query::window(10_000).top(5).slide(s);
        assert_eq!(def(Plane::Isolated, count(10)).fold_stride(), 100);
        assert_eq!(def(Plane::Grouped, count(1_000)).fold_stride(), 1);
        let timed = Query::window_duration(40_000).top(5).slide_duration(5_000);
        assert_eq!(def(Plane::Shared, timed).fold_stride(), 5);
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        let e = build("engine-paper", 1, 1_000).unwrap();
        assert_eq!(e.queries.len(), 9);
        assert_eq!(e.warmup, 10_000);
        assert!(e.queries.iter().all(|q| q.plane == Plane::Isolated));

        let f = build("fanout-shared", 1, 1_000).unwrap();
        assert_eq!(f.queries.len(), 10_000);
        let grouped = f
            .queries
            .iter()
            .filter(|q| q.plane == Plane::Grouped)
            .count();
        assert_eq!(grouped, 5_000);
        let filtered = f
            .queries
            .iter()
            .filter(|q| !q.query.predicate().is_pass_all())
            .count();
        assert!((2_000..3_000).contains(&filtered), "{filtered} filtered");
        assert!(f.warmup >= 8_000, "fills the widest count window");
        assert_eq!(f.stream.len(), f.warmup + 1_000);

        let a = build("async-churn", 1, 1_000).unwrap();
        assert_eq!(a.queries.len(), 2_000);
        for plane in [Plane::Isolated, Plane::Grouped, Plane::Shared] {
            let n = a.queries.iter().filter(|q| q.plane == plane).count();
            assert!((666..=667).contains(&n), "{plane:?}: {n}");
        }
    }
}
