//! The output check: a seeded sample of queries, replayed outside the
//! timed region through a path independent of the one the hub served.
//!
//! * an isolated query: the same spec on a **different engine**, as a
//!   standalone `Session`;
//! * a pass-all query on a sharing plane: an isolated `Session` or
//!   `TimedSession`;
//! * a filtered query: a brute-force top-k over the predicate-accepted
//!   objects of each window.

use sap::prelude::*;
use sap::stream::object::top_k_of;

use crate::workloads::{Plane, QueryDef, Rng, Stream, Tally};

/// Picks the watched sample: up to `per_class` queries of each
/// (plane, filtered) class, seeded.
pub fn sample(queries: &[QueryDef], per_class: usize, rng: &mut Rng) -> Vec<usize> {
    let mut classes: Vec<((Plane, bool), Vec<usize>)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let class = (q.plane, q.query.predicate().is_pass_all());
        match classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, members)) => members.push(i),
            None => classes.push((class, vec![i])),
        }
    }
    let mut picked = Vec::new();
    for (_, mut members) in classes {
        for _ in 0..per_class.min(members.len()) {
            let j = rng.below(members.len());
            picked.push(members.swap_remove(j));
        }
    }
    picked.sort_unstable();
    picked
}

/// The engine an isolated query's reference runs on: never the one the
/// hub ran (SAP), chosen by the seed.
fn other_engine(rng: &mut Rng) -> AlgorithmKind {
    rng.pick(&[AlgorithmKind::MinTopK, AlgorithmKind::sma()])
}

/// Replays one query over the first `published` objects of `stream`
/// (the query was registered before the first publish) and returns its
/// expected output.
pub fn reference(
    q: &QueryDef,
    stream: &Stream,
    published: usize,
    rng: &mut Rng,
) -> Result<Tally, SapError> {
    let mut tally = Tally::new(q.fold_stride());
    let mut fold = |r: SlideResult| tally.add(r.slide, &r.snapshot);
    let predicate = q.query.predicate();
    match (q.spec(), predicate.is_pass_all()) {
        (QuerySpec::Count(spec), true) => {
            let query = match q.plane {
                Plane::Isolated => q.query.clone().algorithm(other_engine(rng)),
                _ => q.query.clone(),
            };
            query
                .session()?
                .push_each(&stream.untimed(published), &mut fold);
            debug_assert_eq!(spec.n % spec.s, 0);
        }
        (QuerySpec::Timed(_), true) => {
            let Stream::Timed(objects) = stream else {
                unreachable!("timed queries run on timed streams")
            };
            q.query
                .timed_session()?
                .push_timed_each(&objects[..published], &mut fold);
        }
        (QuerySpec::Count(spec), false) => {
            let objects = stream.untimed(published);
            brute_force_count(&objects, spec, predicate, &mut fold);
        }
        (QuerySpec::Timed(spec), false) => {
            let Stream::Timed(objects) = stream else {
                unreachable!("timed queries run on timed streams")
            };
            brute_force_timed(&objects[..published], spec, predicate, &mut fold);
        }
    }
    Ok(tally)
}

/// Count-based brute force: slide `j` closes at arrival `(j+1)·s`, and
/// its result is the top-k of the accepted objects among the last `n`
/// arrivals. Rejected objects still count as arrivals.
pub fn brute_force_count(
    objects: &[Object],
    spec: WindowSpec,
    predicate: Predicate,
    f: &mut dyn FnMut(SlideResult),
) {
    let accepted: Vec<(usize, Object)> = objects
        .iter()
        .enumerate()
        .filter(|(_, o)| predicate.accepts(o))
        .map(|(i, o)| (i, *o))
        .collect();
    for j in 0..objects.len() / spec.s {
        let end = (j + 1) * spec.s;
        let start = end.saturating_sub(spec.n);
        let lo = accepted.partition_point(|(i, _)| *i < start);
        let hi = accepted.partition_point(|(i, _)| *i < end);
        let window: Vec<Object> = accepted[lo..hi].iter().map(|(_, o)| *o).collect();
        f(slide_result(j as u64, top_k_of(&window, spec.k)));
    }
}

/// Time-based brute force: slide `j` covers `[j·sd, (j+1)·sd)` and closes
/// once an object at or past its end is published; its result is the
/// top-k of the accepted objects of the last `window_duration`.
pub fn brute_force_timed(
    objects: &[TimedObject],
    spec: TimedSpec,
    predicate: Predicate,
    f: &mut dyn FnMut(SlideResult),
) {
    let Some(last) = objects.last() else {
        return;
    };
    let accepted: Vec<TimedObject> = objects
        .iter()
        .filter(|o| predicate.accepts_timed(o))
        .copied()
        .collect();
    let sd = spec.slide_duration;
    for j in 0..last.timestamp / sd {
        let end = (j + 1) * sd;
        let start = end.saturating_sub(spec.window_duration);
        let lo = accepted.partition_point(|o| o.timestamp < start);
        let hi = accepted.partition_point(|o| o.timestamp < end);
        let window: Vec<Object> = accepted[lo..hi].iter().map(TimedObject::untimed).collect();
        f(slide_result(j, top_k_of(&window, spec.k)));
    }
}

/// Only the slide index and snapshot are compared; events are not.
fn slide_result(slide: u64, top: Vec<Object>) -> SlideResult {
    SlideResult {
        slide,
        snapshot: Snapshot::from(top),
        events: EventList::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally_of(run: impl FnOnce(&mut dyn FnMut(SlideResult))) -> Tally {
        let mut t = Tally::default();
        run(&mut |r: SlideResult| t.add(r.slide, &r.snapshot));
        t
    }

    #[test]
    fn count_brute_force_matches_an_isolated_session() {
        let objects = Dataset::Stock.generate(5_000, 3);
        for (n, k, s) in [(500, 5, 250), (1_000, 20, 250), (400, 1, 100)] {
            let spec = WindowSpec::new(n, k, s).unwrap();
            let expect = tally_of(|f| {
                Query::window(n)
                    .top(k)
                    .slide(s)
                    .session()
                    .unwrap()
                    .push_each(&objects, f)
            });
            let got = tally_of(|f| brute_force_count(&objects, spec, Predicate::any(), f));
            assert_eq!(got, expect, "n={n} k={k} s={s}");
            assert_eq!(got.slides, (5_000 / s) as u64);
        }
    }

    #[test]
    fn timed_brute_force_matches_an_isolated_session() {
        let objects = Dataset::Stock.generate_timed(5_000, 4, ArrivalProcess::poisson(25.0));
        for (wd, sd, k) in [(10_000, 5_000, 5), (20_000, 5_000, 1), (40_000, 10_000, 20)] {
            let spec = TimedSpec::new(wd, sd, k).unwrap();
            let expect = tally_of(|f| {
                Query::window_duration(wd)
                    .top(k)
                    .slide_duration(sd)
                    .timed_session()
                    .unwrap()
                    .push_timed_each(&objects, f)
            });
            let got = tally_of(|f| brute_force_timed(&objects, spec, Predicate::any(), f));
            assert_eq!(got, expect, "wd={wd} sd={sd} k={k}");
        }
    }

    #[test]
    fn filtered_brute_force_matches_the_hub() {
        let objects = Dataset::Stock.generate_timed(6_000, 5, ArrivalProcess::poisson(25.0));
        let tag = Predicate::any().tag(8, 3);
        let count = QueryDef {
            plane: Plane::Grouped,
            query: Query::window(1_000).top(5).slide(250).filter(tag),
        };
        let timed = QueryDef {
            plane: Plane::Shared,
            query: Query::window_duration(20_000)
                .top(5)
                .slide_duration(5_000)
                .filter(tag),
        };
        let mut hub = Hub::new();
        let mut sink = crate::workloads::Sink::default();
        for q in [&count, &timed] {
            let id = crate::workloads::register(&mut hub, q).unwrap();
            sink.watch(id, q.fold_stride());
        }
        for chunk in objects.chunks(20) {
            hub.publish_timed(chunk).iter().for_each(|u| sink.take(u));
        }
        let stream = Stream::Timed(objects);
        let mut rng = Rng::new(1);
        for (i, q) in [count, timed].iter().enumerate() {
            let expect = reference(q, &stream, stream.len(), &mut rng).unwrap();
            assert!(expect.slides > 3);
            assert_eq!(sink.tallies[i].1, expect, "{:?}", q.plane);
        }
    }

    #[test]
    fn sample_covers_every_class_deterministically() {
        let w = crate::workloads::build("fanout-shared", 3, 100).unwrap();
        let a = sample(&w.queries, 4, &mut Rng::new(9));
        let b = sample(&w.queries, 4, &mut Rng::new(9));
        assert_eq!(a, b);
        assert_eq!(a.len(), 16, "2 planes x filtered/pass-all x 4");
    }
}
