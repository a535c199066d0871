//! The repository benchmark: drives `Hub` and `AsyncHub` through their
//! public API on three seeded workloads and prints end-to-end metrics
//! (`--trace 0`) or per-layer metrics (`--trace 1`). See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-paper --seed 1 --seconds 25 --trace 0
//! ```

mod check;
mod layers;
mod measure;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sap::prelude::*;
use sap::stream::Workload as _;

use measure::{median, ms, HostSpeed};
use workloads::{HubKind, Rng, Served, Sink, Spans, Workload};

/// Repetitions behind the `setup_s`, `checkpoint_ms` and `restore_ms`
/// medians: at least `MIN_REPS`, and more — up to `MAX_REPS` — while
/// they add up to less than `REPS_SECONDS`, so that cheap operations are
/// timed often enough to repeat.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 25;
const REPS_SECONDS: f64 = 1.5;

/// Whether another repetition is due after `done` of them took `spent`
/// seconds.
fn more_reps(done: usize, spent: f64) -> bool {
    done < MIN_REPS || (done < MAX_REPS && spent < REPS_SECONDS)
}
/// Watched queries per (plane, filtered) class.
const SAMPLE_PER_CLASS: usize = 4;
/// Rounds of an end-to-end run (closed loop, open loop, durability) on a
/// workload without a checkpoint schedule. Each metric is a median over
/// measurements spread across the whole run, so a few seconds in which
/// the host stalls move one round, not the result.
const ROUNDS: usize = 9;
/// Fewest rounds of a workload with a checkpoint schedule, whose rounds
/// are one checkpoint period of each loop.
const MIN_ROUNDS: usize = 5;
/// Objects published, after the rounds, into both the run's hub and its
/// last restored copy, which must deliver the same updates.
const VERIFY_OBJECTS: usize = 4_000;
/// Stream prefix the single-layer replays run over.
const REPLAY_OBJECTS: usize = 60_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required: one of {}",
        workloads::NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Calls made into the hubs and how many returned `Err`.
#[derive(Debug, Default, Clone, Copy)]
struct Calls {
    attempted: u64,
    failed: u64,
}

/// One hub serving one workload's stream, plus the benchmark's view of
/// it: the stream position, the churn schedule, the watched sample.
struct Run<'w> {
    w: &'w Workload,
    hub: Served,
    /// Next stream index to publish.
    pos: usize,
    /// Batches published since set-up (drives the churn schedule).
    batches: u64,
    /// Registered, unwatched queries and their index into `w.queries`:
    /// the churn victims.
    live: Vec<(QueryId, usize)>,
    /// Watched queries: index into `w.queries` and handle.
    watched: Vec<(usize, QueryId)>,
    rng: Rng,
    sink: Sink,
    calls: Calls,
    /// The latest checkpoint image and the stream position it was taken
    /// at (the only image kept, so retained images do not dominate peak
    /// RSS).
    image: Option<(Checkpoint, usize)>,
    checkpoint_ms: Vec<f64>,
    spans: Option<Spans>,
}

impl<'w> Run<'w> {
    /// Builds the hub, registers every standing query and publishes the
    /// warm-up prefix; returns the run and its set-up time.
    fn setup(
        w: &'w Workload,
        kind: HubKind,
        sample: &[usize],
        traced: bool,
    ) -> Result<(Run<'w>, f64), String> {
        let started = Instant::now();
        let mut run = Run {
            w,
            hub: Served::new(kind),
            pos: 0,
            batches: 0,
            live: Vec::with_capacity(w.queries.len()),
            watched: Vec::new(),
            rng: Rng::new(w.seed ^ 0xC4u64),
            sink: Sink::default(),
            calls: Calls::default(),
            image: None,
            checkpoint_ms: Vec::new(),
            spans: traced.then(Spans::default),
        };
        for (i, q) in w.queries.iter().enumerate() {
            let id = run.register(q)?;
            if sample.binary_search(&i).is_ok() {
                run.sink.watch(id, q.fold_stride());
                run.watched.push((i, id));
            } else {
                run.live.push((id, i));
            }
        }
        while run.pos + w.batch <= w.warmup {
            run.deliver()?;
        }
        Ok((run, started.elapsed().as_secs_f64()))
    }

    fn count<T>(&mut self, result: Result<T, SapError>) -> Result<T, String> {
        self.calls.attempted += 1;
        result.map_err(|e| {
            self.calls.failed += 1;
            format!("{}: hub call failed: {e}", self.w.name)
        })
    }

    fn register(&mut self, q: &workloads::QueryDef) -> Result<QueryId, String> {
        let started = Instant::now();
        let id = self.hub.register(q);
        if let Some(spans) = &mut self.spans {
            spans.register_us.push(measure::us(started.elapsed()));
        }
        self.count(id)
    }

    fn deliver(&mut self) -> Result<(), String> {
        let range = self.pos..self.pos + self.w.batch;
        let result = self
            .hub
            .deliver(&self.w.stream, range, &mut self.sink, self.spans.as_mut());
        self.count(result)?;
        self.pos += self.w.batch;
        Ok(())
    }

    /// Publishes the next batch, preceded by any churn and followed by
    /// any checkpoint the schedule puts beside it. `false` once the
    /// stream is used up.
    fn step(&mut self) -> Result<bool, String> {
        if self.pos + self.w.batch > self.w.stream.len() {
            return Ok(false);
        }
        let churn = self.w.churn;
        if let Some(churn) = churn {
            if self.batches > 0 && self.batches.is_multiple_of(churn.every) {
                self.churn(churn.replace)?;
            }
        }
        self.deliver()?;
        self.batches += 1;
        if let Some(churn) = churn {
            if self.batches.is_multiple_of(churn.checkpoint_every) {
                self.checkpoint()?;
            }
        }
        Ok(true)
    }

    /// Replaces `n` random unwatched queries: each is unregistered and a
    /// new subscription of the same shape registered, so the mix the hub
    /// serves stays the workload's.
    fn churn(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n.min(self.live.len()) {
            let (victim, def) = self.live.swap_remove(self.rng.below(self.live.len()));
            let started = Instant::now();
            let result = self.hub.unregister(victim);
            if let Some(spans) = &mut self.spans {
                spans.unregister_us.push(measure::us(started.elapsed()));
            }
            self.count(result)?;
            let id = self.register(&self.w.queries[def])?;
            self.live.push((id, def));
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let image = self.hub.checkpoint(&mut self.sink);
        let took = ms(started.elapsed());
        let image = self.count(image)?;
        self.checkpoint_ms.push(took);
        self.image = Some((image, self.pos));
        Ok(())
    }

    /// Closed loop, one publisher: publishes back to back until the
    /// stream reaches `until` (or `limit` has passed). Returns the
    /// objects published and the seconds it took.
    fn closed_loop(&mut self, until: usize, limit: Duration) -> Result<(usize, f64), String> {
        let first = self.pos;
        let started = Instant::now();
        while self.pos + self.w.batch <= until && started.elapsed() < limit {
            if !self.step()? {
                break;
            }
        }
        Ok((self.pos - first, started.elapsed().as_secs_f64()))
    }

    /// Open loop at the workload's fixed rate: `batches` batches (fewer
    /// if the stream runs out), their latency samples kept in `segments`
    /// segments.
    fn open_loop(
        &mut self,
        batches: usize,
        segments: usize,
    ) -> Result<measure::OpenLoopReport, String> {
        let batch = self.w.batch;
        let interval = Duration::from_secs_f64(batch as f64 / self.w.rate);
        let batches = batches.min((self.w.stream.len() - self.pos) / batch);
        let deadline = interval.mul_f64(3.0 * batches as f64) + Duration::from_secs(5);
        measure::run_open_loop(interval, batches, segments, deadline, |_| {
            let before = self.sink.updates;
            self.step()?;
            Ok((batch as u64, self.sink.updates - before))
        })
    }

    /// Replays every watched query independently and compares.
    fn check(&self) -> Result<(), String> {
        let mut rng = Rng::new(self.w.seed ^ 0xC0DE);
        for (slot, &(i, id)) in self.watched.iter().enumerate() {
            let q = &self.w.queries[i];
            let expect = check::reference(q, &self.w.stream, self.pos, &mut rng)
                .map_err(|e| format!("reference for {id} failed: {e}"))?;
            let (tallied, got) = self.sink.tallies[slot];
            debug_assert_eq!(tallied, id);
            if got != expect {
                return Err(format!(
                    "{}: query {id} ({:?} {:?}) emitted {got:?}, the reference {expect:?}",
                    self.w.name,
                    q.plane,
                    q.spec()
                ));
            }
        }
        Ok(())
    }

    /// Publishes the next `VERIFY_OBJECTS` objects into this run's hub and
    /// into `restored`, a hub restored from an image of it taken at the
    /// current position, and requires both to deliver the same updates.
    /// The stream position and the run's sink are left as they were.
    fn verify_restore(&mut self, mut restored: Served) -> Result<(), String> {
        let mut sinks = [Sink::default(), Sink::default()];
        for sink in &mut sinks {
            for &(i, id) in &self.watched {
                sink.watch(id, self.w.queries[i].fold_stride());
            }
        }
        let end = (self.pos + VERIFY_OBJECTS).min(self.w.stream.len());
        for start in (self.pos..end).step_by(self.w.batch) {
            let range = start..(start + self.w.batch).min(end);
            let [original, copy] = &mut sinks;
            let result = self
                .hub
                .deliver(&self.w.stream, range.clone(), original, None);
            self.count(result)?;
            let result = restored.deliver(&self.w.stream, range, copy, None);
            self.count(result)?;
        }
        let [original, copy] = &sinks;
        if original.updates == 0 {
            return Err(format!(
                "{}: no update to compare the restored hub on",
                self.w.name
            ));
        }
        if (original.updates, original.stream_hash, &original.tallies)
            != (copy.updates, copy.stream_hash, &copy.tallies)
        {
            return Err(format!(
                "{}: the restored hub delivered {} updates (hash {:#x}), the original {} (hash {:#x})",
                self.w.name, copy.updates, copy.stream_hash, original.updates, original.stream_hash
            ));
        }
        Ok(())
    }
}

/// One round's share of the durability measurements, taken while the
/// hub is idle. A `Hub` workload checkpoints here; a workload with a
/// checkpoint schedule has just taken its image, since its rounds end on
/// a checkpoint. Then that image, taken at the current position, is
/// restored. Both repeat (at least once) while the round's share of the
/// repetition budget lasts. Returns the last restored hub.
fn durability(
    run: &mut Run<'_>,
    restore_ms: &mut Vec<f64>,
    rounds: usize,
) -> Result<Served, String> {
    let budget = REPS_SECONDS / rounds as f64;
    let max = MAX_REPS.div_ceil(rounds);
    let current = matches!(run.image, Some((_, at)) if at == run.pos);
    if run.w.churn.is_none() || !current {
        let started = Instant::now();
        for _ in 0..max {
            run.checkpoint()?;
            if run.w.churn.is_some() || started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    let (image, at) = run.image.take().expect("an image of the current position");
    let started = Instant::now();
    let mut restored = None;
    for _ in 0..max {
        drop(restored.take());
        let restoring = Instant::now();
        let hub = Served::restore(run.w.hub, &image);
        restore_ms.push(ms(restoring.elapsed()));
        restored = Some(run.count(hub)?);
        if started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    run.image = Some((image, at));
    Ok(restored.expect("at least one restore"))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The closed loop publishes a fixed amount of work: what the workload's
/// reference throughput publishes in `seconds`. Every run then measures
/// the same stretch of the stream, however fast the build is.
fn closed_objects(name: &str, seconds: f64) -> usize {
    (workloads::throughput(name) * seconds) as usize
}

/// Batches the open loop sends at the workload's rate in `seconds`.
fn open_batches(w: &Workload, seconds: f64) -> usize {
    (w.rate * seconds / w.batch as f64) as usize
}

/// A closed loop stops early after this long (a drastically slower
/// build still finishes in time, over fewer objects).
fn closed_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64(4.0 * seconds + 10.0)
}

/// How an end-to-end run spends its `--seconds`: 45% closed loop and
/// 45% open loop, in rounds.
#[derive(Debug, Clone, Copy)]
struct Plan {
    rounds: usize,
    /// Objects each round's closed loop publishes.
    closed_objects: usize,
    /// Batches each round's open loop sends.
    open_batches: usize,
}

impl Plan {
    fn new(w: &Workload, seconds: f64) -> Plan {
        let share = 0.45 * seconds;
        match w.churn {
            // one checkpoint period of each loop per round, so that every
            // round holds the same control-plane work
            Some(churn) => {
                let period = churn.checkpoint_every as usize;
                let objects = period * w.batch;
                let round_s = objects as f64 * (1.0 / workloads::throughput(w.name) + 1.0 / w.rate);
                Plan {
                    rounds: ((2.0 * share / round_s) as usize).max(MIN_ROUNDS),
                    closed_objects: objects,
                    open_batches: period,
                }
            }
            None => Plan {
                rounds: ROUNDS,
                closed_objects: closed_objects(w.name, share) / ROUNDS,
                open_batches: open_batches(w, share) / ROUNDS,
            },
        }
    }

    /// Objects after set-up the run may publish.
    fn stream_objects(&self, batch: usize) -> usize {
        self.rounds * (self.closed_objects + self.open_batches * batch) + VERIFY_OBJECTS + 1_000
    }

    /// Expected seconds of one round's closed loop.
    fn closed_seconds(&self, name: &str) -> f64 {
        self.closed_objects as f64 / workloads::throughput(name)
    }
}

fn build_workload(args: &Args, objects: impl Fn(&Workload) -> usize) -> Result<Workload, String> {
    let unknown = || format!("unknown workload {}", args.workload);
    let shape = workloads::build(&args.workload, args.seed, 0).ok_or_else(unknown)?;
    let objects = objects(&shape);
    drop(shape);
    workloads::build(&args.workload, args.seed, objects).ok_or_else(unknown)
}

/// Multiplies every value in `values` by `speed`.
fn scale(values: &mut [f64], speed: f64) {
    values.iter_mut().for_each(|v| *v *= speed);
}

/// `--trace 0`: every end-to-end metric, from untraced runs. Times are
/// read at the reference host's speed: each phase's wall time is
/// multiplied by the host speed measured around it (see `HostSpeed`).
fn end_to_end(args: &Args) -> Result<(Vec<Metric>, Calls, Vec<String>), String> {
    let w = build_workload(args, |w| Plan::new(w, args.seconds).stream_objects(w.batch))?;
    let plan = Plan::new(&w, args.seconds);
    let sample = check::sample(&w.queries, SAMPLE_PER_CLASS, &mut Rng::new(args.seed));
    let rss_before = measure::status_mb("VmRSS")?;
    let mut speed = HostSpeed::new();
    let mut calls = Calls::default();
    let (mut setups, mut setup_spent) = (Vec::new(), 0.0);
    let mut kept: Option<Run<'_>> = None;
    while more_reps(setups.len(), setup_spent) {
        // one hub at a time, so peak RSS is one hub's
        if let Some(old) = kept.take() {
            calls.attempted += old.calls.attempted;
        }
        let (run, secs) = Run::setup(&w, w.hub, &sample, false)?;
        setups.push(secs * speed.after_phase());
        setup_spent += secs;
        kept = Some(run);
    }
    let mut run = kept.expect("at least one set-up");
    let limit = closed_limit(plan.closed_seconds(w.name));
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    // closed-loop objects, and seconds at the reference host's speed
    let (mut closed, mut closed_s) = (0, 0.0);
    let mut open = measure::OpenLoopReport::default();
    let mut restore_ms = Vec::new();
    let mut restored = None;
    for round in 1..=plan.rounds {
        let taken = run.checkpoint_ms.len();
        let (objects, secs) = run.closed_loop(run.pos + plan.closed_objects, limit)?;
        let s = speed.after_phase();
        scale(&mut run.checkpoint_ms[taken..], s);
        raw_rates.push(objects as f64 / secs);
        rates.push(objects as f64 / secs / s);
        closed += objects;
        closed_s += secs * s;

        let taken = run.checkpoint_ms.len();
        let report = run.open_loop(plan.open_batches, 1)?;
        let s = speed.after_phase();
        scale(&mut run.checkpoint_ms[taken..], s);
        open.absorb(report, s);

        let (taken, restores) = (run.checkpoint_ms.len(), restore_ms.len());
        let hub = durability(&mut run, &mut restore_ms, plan.rounds)?;
        if round == plan.rounds {
            restored = Some(hub);
        }
        let s = speed.after_phase();
        scale(&mut run.checkpoint_ms[taken..], s);
        scale(&mut restore_ms[restores..], s);
    }
    let peak_rss_mb = measure::status_mb("VmHWM")? - rss_before;
    if open.truncated {
        eprintln!("warning: the open loop fell behind its schedule and was cut short");
    }
    let p50 = open.latency_percentile(50.0)?;
    let p95 = open.latency_percentile(95.0)?;
    run.check()?;
    run.verify_restore(restored.expect("the last round restores"))?;
    let notes = vec![
        format!(
            "{} rounds; open loop: {} batches, {} latency samples in {} segments",
            plan.rounds,
            open.batches,
            open.samples(),
            open.latency_ms.len()
        ),
        format!("published objects: {}", run.pos),
        format!(
            "host speed {:.3} (median of {} calibration samples; 1.0 = the reference host); \
             objects_per_s as measured {:.0}",
            speed.median(),
            speed.samples(),
            median(&raw_rates)
        ),
    ];
    calls.attempted += run.calls.attempted;
    calls.failed += run.calls.failed;
    let checkpoint_ms = median(&run.checkpoint_ms);
    drop(run);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("objects_per_s", closed as f64 / closed_s, "obj/s"),
        metric("emit_p50_ms", p50, "ms"),
        metric("emit_p95_ms", p95, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("checkpoint_ms", checkpoint_ms, "ms"),
        metric("restore_ms", median(&restore_ms), "ms"),
    ];
    Ok((metrics, calls, notes))
}

/// `--trace 1`: the per-layer metrics, from a traced run plus standalone
/// replays of single layers. Layers a workload does not drive read 0.
fn per_layer(args: &Args) -> Result<(Vec<Metric>, Calls, Vec<String>), String> {
    let closed_s = 0.25 * args.seconds;
    let open_s = 0.15 * args.seconds;
    let w = build_workload(args, |w| {
        closed_objects(w.name, closed_s) + open_batches(w, open_s) * w.batch + 1_000
    })?;
    let sample = check::sample(&w.queries, SAMPLE_PER_CLASS, &mut Rng::new(args.seed));
    let mut calls = Calls::default();
    let mut m = Vec::new();
    // closed-loop rates are compared at the reference host's speed
    let mut speed = HostSpeed::new();

    // untraced pass: the reference rate and update hash
    let (mut plain, _) = Run::setup(&w, w.hub, &sample, false)?;
    let until = plain.pos + closed_objects(w.name, closed_s);
    speed.before_phase();
    let (objects, secs) = plain.closed_loop(until, closed_limit(closed_s))?;
    let untraced_rate = objects as f64 / secs / speed.after_phase();
    let until = plain.pos; // where a cut-short pass stopped
    let plain_sink = (plain.sink.updates, plain.sink.stream_hash);
    calls.attempted += plain.calls.attempted;
    drop(plain);

    // traced pass over exactly the same objects
    let (mut run, _) = Run::setup(&w, w.hub, &sample, true)?;
    speed.before_phase();
    let (traced_objects, secs) = run.closed_loop(until, Duration::MAX)?;
    let traced_rate = traced_objects as f64 / secs / speed.after_phase();
    if traced_objects != objects || (run.sink.updates, run.sink.stream_hash) != plain_sink {
        return Err(format!(
            "{}: traced and untraced passes delivered different updates",
            w.name
        ));
    }
    let spans = run.spans.take().expect("traced run");
    let stats = run.hub.stats();
    let stats = run.count(stats)?;
    let published = run.pos as f64;

    // core: counters of the hub's own engines
    let mut core = [0.0; 7];
    if let Served::Seq(hub) = &run.hub {
        let (mut slides, mut sums) = (0u64, [0u64; 5]);
        let (mut candidates, mut memory, mut engines) = (0usize, 0usize, 0usize);
        for id in hub.query_ids() {
            if let Some(session) = hub.session(id) {
                let alg = session.algorithm();
                let s = alg.stats();
                slides += session.slides();
                for (sum, v) in sums.iter_mut().zip([
                    s.objects_scanned,
                    s.mutations(),
                    s.partitions_sealed,
                    s.meaningful_sets_formed,
                    s.meaningful_sets_skipped,
                ]) {
                    *sum += v;
                }
                candidates += alg.candidate_count();
                memory += alg.memory_bytes();
                engines += 1;
            }
        }
        if engines > 0 {
            for (c, sum) in core.iter_mut().zip(sums) {
                *c = sum as f64 / slides.max(1) as f64;
            }
            core[5] = candidates as f64 / engines as f64;
            core[6] = memory as f64 / 1024.0;
        }
    }

    // exec: reactor backpressure
    let queue_depth_hwm = match &run.hub {
        Served::Async(hub) => hub.shard_loads().iter().map(|l| l.1).max().unwrap_or(0),
        Served::Seq(_) => 0,
    };

    // checkpoint: image size and parse/verify time
    run.checkpoint()?;
    let (image, _) = run.image.take().expect("just taken");
    let bytes_per_query = image.len() as f64 / run.hub.len().max(1) as f64;
    let mut from_bytes = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let parsed = Checkpoint::from_bytes(image.as_bytes());
        from_bytes.push(ms(started.elapsed()));
        parsed.map_err(|e| format!("checkpoint does not parse back: {e}"))?;
    }
    drop(image);

    // harness: the open-loop generator
    let mut open = run.open_loop(open_batches(&w, open_s), measure::SEGMENTS)?;
    let gen_late_p99 = open.late_ms.percentile(99.0)?;
    run.check()?;
    calls.attempted += run.calls.attempted;
    calls.failed += run.calls.failed;
    let is_async = matches!(run.hub, Served::Async(_));
    drop(run);

    // single-layer replays over the workload's own stream
    let replay_len = REPLAY_OBJECTS.min(w.stream.len());
    let untimed = w.stream.untimed(replay_len);
    let mut engines = [layers::EngineReplay::default(); 4];
    if w.queries
        .iter()
        .all(|q| q.plane == workloads::Plane::Isolated)
    {
        for (slot, (_, kind)) in engines.iter_mut().zip(layers::ENGINES) {
            *slot = layers::replay_engine(&w.queries, &untimed, kind())
                .map_err(|e| format!("engine replay: {e}"))?;
        }
    }
    let (digest, predicates) = match &w.stream {
        workloads::Stream::Timed(objects) => {
            let prefix = &objects[..replay_len];
            let digest = layers::replay_digest(&w.queries, prefix, 8, &mut Rng::new(args.seed))
                .map_err(|e| format!("digest replay: {e}"))?;
            (digest, layers::replay_predicates(&w.queries, prefix))
        }
        workloads::Stream::Count(_) => (None, (0.0, 0)),
    };

    // exec: the same job on the sequential hub, the single-thread baseline
    let parallel_gain = if is_async {
        let (mut seq, _) = Run::setup(&w, HubKind::Sequential, &sample, false)?;
        speed.before_phase();
        let (seq_objects, seq_secs) = seq.closed_loop(until, Duration::MAX)?;
        calls.attempted += seq.calls.attempted;
        untraced_rate / (seq_objects as f64 / seq_secs / speed.after_phase())
    } else {
        0.0
    };

    m.push(metric("core.slide_us", engines[0].slide_us, "us"));
    m.push(metric("core.ns_per_object", engines[0].ns_per_object, "ns"));
    for (name, v) in [
        "core.objects_scanned_per_slide",
        "core.mutations_per_slide",
        "core.partitions_sealed_per_slide",
        "core.meaningful_formed_per_slide",
        "core.meaningful_skipped_per_slide",
        "core.candidates_avg",
    ]
    .into_iter()
    .zip(core)
    {
        m.push(metric(name, v, "count"));
    }
    m.push(metric("core.memory_kb", core[6], "KiB"));
    for (i, label) in ["mintopk", "sma", "kskyband"].into_iter().enumerate() {
        m.push(metric(
            format!("baselines.{label}.ns_per_object"),
            engines[i + 1].ns_per_object,
            "ns",
        ));
    }
    let digest = digest.unwrap_or_default();
    m.push(metric(
        "digest.ingest_ns_per_object",
        digest.ingest_ns_per_object,
        "ns",
    ));
    m.push(metric("digest.close_us", digest.close_us, "us"));
    for (label, _) in layers::ENGINES {
        let v = digest.apply_us.get(label).copied().unwrap_or(0.0);
        m.push(metric(format!("digest.apply_us.{label}"), v, "us"));
    }
    m.push(metric(
        "predicate.accepts_ns_per_object",
        predicates.0,
        "ns",
    ));
    m.push(metric("predicate.distinct", predicates.1 as f64, "count"));
    m.push(metric(
        "registry.admitted_per_object",
        stats.admitted as f64 / published,
        "ratio",
    ));
    m.push(metric("registry.prune_rate", stats.prune_rate(), "ratio"));
    m.push(metric(
        "registry.count_groups",
        stats.count_groups as f64,
        "count",
    ));
    m.push(metric(
        "registry.digest_groups",
        stats.digest_groups as f64,
        "count",
    ));
    m.push(metric(
        "registry.result_classes",
        stats.result_classes as f64,
        "count",
    ));
    m.push(metric(
        "registry.class_hit_rate",
        stats.class_hit_rate(),
        "ratio",
    ));
    m.push(metric(
        "registry.digest_hit_rate",
        stats.digest_hit_rate(),
        "ratio",
    ));
    m.push(metric(
        "registry.count_group_hit_rate",
        stats.count_group_hit_rate(),
        "ratio",
    ));
    let (session_register, exec_register) = if is_async {
        (0.0, median(&spans.register_us))
    } else {
        (median(&spans.register_us), 0.0)
    };
    m.push(metric(
        "session.quiet_ns_per_object",
        spans.quiet_ns / spans.quiet_objects.max(1) as f64,
        "ns",
    ));
    m.push(metric("session.close_us", median(&spans.close_us), "us"));
    m.push(metric(
        "session.updates_per_close",
        spans.close_updates as f64 / spans.close_us.len().max(1) as f64,
        "count",
    ));
    m.push(metric("session.register_us", session_register, "us"));
    m.push(metric("events.updates", spans.updates as f64, "count"));
    m.push(metric(
        "events.changed_frac",
        spans.changed as f64 / spans.updates.max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "exec.publish_us",
        median(&spans.async_publish_us),
        "us",
    ));
    m.push(metric("exec.drain_us", median(&spans.drain_us), "us"));
    m.push(metric(
        "exec.publisher_parks",
        stats.publisher_parks as f64,
        "count",
    ));
    m.push(metric(
        "exec.queue_depth_hwm",
        queue_depth_hwm as f64,
        "count",
    ));
    m.push(metric("exec.register_us", exec_register, "us"));
    m.push(metric(
        "exec.unregister_us",
        median(&spans.unregister_us),
        "us",
    ));
    m.push(metric("exec.parallel_gain", parallel_gain, "x"));
    m.push(metric("checkpoint.bytes_per_query", bytes_per_query, "B"));
    m.push(metric(
        "checkpoint.from_bytes_ms",
        median(&from_bytes),
        "ms",
    ));
    m.push(metric("harness.gen_late_p99_ms", gen_late_p99, "ms"));
    m.push(metric(
        "harness.trace_overhead_pct",
        (untraced_rate - traced_rate) / untraced_rate * 100.0,
        "%",
    ));
    m.push(metric(
        "harness.latency_samples",
        open.samples() as f64,
        "count",
    ));
    m.push(metric("harness.host_speed", speed.median(), "x"));
    let notes = vec![
        format!("traced pass: {objects} objects; untraced {untraced_rate:.0} obj/s, traced {traced_rate:.0} obj/s (at the reference host's speed)"),
        format!("open loop: {} batches", open.batches),
    ];
    Ok((m, calls, notes))
}

fn json_result(correct: bool, calls: Calls, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        calls.attempted.max(1),
        calls.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed, 0) else {
        eprintln!(
            "perfbench: unknown workload {}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::host_cpus(),
        measure::commit()
    );
    println!(
        "  hub={:?} dataset={} queries={} batch={} open_loop_rate={} obj/s warmup={} objects",
        w.hub,
        w.dataset.name(),
        w.queries.len(),
        w.batch,
        w.rate,
        w.warmup
    );
    drop(w);
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok((metrics, calls, notes)) => {
            for note in notes {
                println!("  {note}");
            }
            for m in &metrics {
                println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
            match json_result(calls.failed == 0, calls, &metrics) {
                Ok(line) => {
                    println!("{line}");
                    if calls.failed == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
