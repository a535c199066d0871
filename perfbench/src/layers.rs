//! Standalone replays of single layers over a workload's own stream and
//! queries, for the per-layer metrics of a traced run. Each replay calls
//! the layer's public functions directly and times them from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sap::prelude::*;

use crate::measure::{median, us};
use crate::workloads::{Plane, QueryDef, Rng};

type EngineKind = fn() -> AlgorithmKind;

/// The engines the `core` and `baselines` replays run, with metric
/// labels.
pub const ENGINES: [(&str, EngineKind); 4] = [
    ("sap", AlgorithmKind::sap),
    ("mintopk", || AlgorithmKind::MinTopK),
    ("sma", AlgorithmKind::sma),
    ("kskyband", || AlgorithmKind::KSkyband),
];

/// One engine driven standalone over the count queries of a workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineReplay {
    /// Engine time per published object, summed over the queries.
    pub ns_per_object: f64,
    /// Median wall time of one `slide` call.
    pub slide_us: f64,
}

/// Drives `kind` (built with `sap::build`) over `objects` for every
/// count-based query spec in `queries`, slide by slide.
pub fn replay_engine(
    queries: &[QueryDef],
    objects: &[Object],
    kind: AlgorithmKind,
) -> Result<EngineReplay, SapError> {
    let mut total = 0.0;
    let mut slides = Vec::new();
    for q in queries {
        let QuerySpec::Count(spec) = q.spec() else {
            continue;
        };
        let mut engine = sap::build(&q.query.clone().algorithm(kind))?;
        for batch in objects.chunks_exact(spec.s) {
            let started = Instant::now();
            black_box(engine.slide(batch));
            let took = started.elapsed();
            total += took.as_secs_f64();
            slides.push(us(took));
        }
    }
    Ok(EngineReplay {
        ns_per_object: total * 1e9 / objects.len().max(1) as f64,
        slide_us: median(&slides),
    })
}

/// The digest plane replayed group by group.
#[derive(Debug, Default, Clone)]
pub struct DigestReplay {
    /// Objects ingested that closed no slide: ns each.
    pub ingest_ns_per_object: f64,
    /// Median wall time of a slide close (truncation to `k_max`).
    pub close_us: f64,
    /// Median `SharedTimed::apply_slide_top` per engine label.
    pub apply_us: BTreeMap<&'static str, f64>,
}

/// A slide group key: plane, slide length (time units or arrivals) and
/// predicate — the registry's grouping, minus registration offsets (all
/// replayed queries join before the first object).
type GroupKey = (Plane, u64, Predicate);

fn group_key(q: &QueryDef) -> Option<(GroupKey, u64, usize)> {
    let predicate = q.query.predicate();
    match (q.plane, q.spec()) {
        (Plane::Grouped, QuerySpec::Count(s)) => {
            Some(((Plane::Grouped, s.s as u64, predicate), s.n as u64, s.k))
        }
        (Plane::Shared, QuerySpec::Timed(t)) => Some((
            (Plane::Shared, t.slide_duration, predicate),
            t.window_duration,
            t.k,
        )),
        _ => None,
    }
}

/// Replays `objects` through one `DigestProducer` per distinct slide
/// group of the sharing-plane queries (count groups on arrival
/// ordinals, slide groups on timestamps), then applies the closed digests
/// to the reduced engines of up to `apply_sample` seeded member queries
/// under each engine kind. `None` when the workload has no sharing-plane
/// query.
pub fn replay_digest(
    queries: &[QueryDef],
    objects: &[TimedObject],
    apply_sample: usize,
    rng: &mut Rng,
) -> Result<Option<DigestReplay>, SapError> {
    let mut groups: BTreeMap<GroupKey, usize> = BTreeMap::new();
    let mut members = Vec::new();
    for q in queries {
        if let Some((key, window, k)) = group_key(q) {
            let k_max = groups.entry(key).or_insert(0);
            *k_max = (*k_max).max(k);
            members.push((key, window, k));
        }
    }
    if groups.is_empty() {
        return Ok(None);
    }
    let mut sampled = Vec::new();
    for _ in 0..apply_sample.min(members.len()) {
        sampled.push(members.swap_remove(rng.below(members.len())));
    }
    let mut ingest_ns = 0.0;
    let mut ingested = 0u64;
    let mut closes = Vec::new();
    let mut tops: BTreeMap<GroupKey, Vec<(u64, Vec<TimedObject>)>> = BTreeMap::new();
    for (&key, &k_max) in &groups {
        let (plane, slide, predicate) = key;
        let keep = sampled.iter().any(|(g, _, _)| *g == key);
        let mut kept = Vec::new();
        let mut producer = DigestProducer::new(slide, k_max);
        let mut on_close = |v: DigestView<'_>| {
            if keep {
                kept.push((v.slide, v.top.to_vec()));
            }
        };
        let mut close_ns = 0.0;
        let started = Instant::now();
        for (ordinal, o) in objects.iter().enumerate() {
            if !predicate.accepts_timed(o) {
                continue;
            }
            let ts = match plane {
                Plane::Grouped => ordinal as u64,
                _ => o.timestamp,
            };
            if ts >= (producer.next_slide() + 1) * slide {
                let closing = Instant::now();
                producer.advance_to_with(ts, &mut on_close);
                let took = closing.elapsed();
                close_ns += took.as_secs_f64() * 1e9;
                closes.push(us(took));
            }
            producer.ingest_with(TimedObject::new(o.id, ts, o.score), &mut on_close);
            ingested += 1;
        }
        ingest_ns += started.elapsed().as_secs_f64() * 1e9 - close_ns;
        if keep {
            tops.insert(key, kept);
        }
    }
    let mut apply_us = BTreeMap::new();
    for (label, kind) in ENGINES {
        let mut applies = Vec::new();
        for (key, window, k) in &sampled {
            let slide = key.1;
            let reduced = TimedSpec::new(*window, slide, *k)
                .and_then(|t| t.reduced())
                .map_err(SapError::Spec)?;
            let engine = sap::build_send(
                &Query::window(reduced.n)
                    .top(reduced.k)
                    .slide(reduced.s)
                    .algorithm(kind()),
            )?;
            let mut consumer =
                SharedTimed::from_engine(engine, *window, slide).map_err(SapError::Spec)?;
            for (slide_index, top) in &tops[key] {
                let started = Instant::now();
                black_box(consumer.apply_slide_top(*slide_index, top));
                applies.push(us(started.elapsed()));
            }
        }
        apply_us.insert(label, median(&applies));
    }
    Ok(Some(DigestReplay {
        ingest_ns_per_object: ingest_ns / ingested.max(1) as f64,
        close_us: median(&closes),
        apply_us,
    }))
}

/// Cost of evaluating every distinct registered predicate against each
/// object (the O(predicates) admission walk), in ns per object, and the
/// number of distinct predicates.
pub fn replay_predicates(queries: &[QueryDef], objects: &[TimedObject]) -> (f64, usize) {
    let mut distinct: Vec<Predicate> = queries.iter().map(|q| q.query.predicate()).collect();
    distinct.sort();
    distinct.dedup();
    let started = Instant::now();
    let mut accepted = 0u64;
    for o in objects {
        for p in &distinct {
            accepted += u64::from(p.accepts_timed(black_box(o)));
        }
    }
    black_box(accepted);
    let ns = started.elapsed().as_secs_f64() * 1e9 / objects.len().max(1) as f64;
    (ns, distinct.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_replay_covers_both_planes() {
        let w = crate::workloads::build("async-churn", 2, 20_000).unwrap();
        let crate::workloads::Stream::Timed(objects) = &w.stream else {
            panic!("async-churn is timed")
        };
        let r = replay_digest(&w.queries, &objects[..20_000], 4, &mut Rng::new(1))
            .unwrap()
            .unwrap();
        assert!(r.ingest_ns_per_object > 0.0);
        assert!(r.close_us > 0.0);
        assert_eq!(r.apply_us.len(), 4);
        let only_isolated: Vec<QueryDef> = w
            .queries
            .iter()
            .filter(|q| q.plane == Plane::Isolated)
            .cloned()
            .collect();
        assert!(replay_digest(&only_isolated, objects, 4, &mut Rng::new(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn predicates_are_deduplicated() {
        let w = crate::workloads::build("fanout-shared", 2, 100).unwrap();
        let (ns, distinct) = replay_predicates(&w.queries, &[TimedObject::new(0, 0, 1.0)]);
        assert!(ns > 0.0);
        // pass-all plus at most 128 tag residues
        assert!((2..=129).contains(&distinct), "{distinct}");
    }
}
