//! The registration contract, table-driven over every `Subscription`
//! constructor and both hubs: an invalid subscription (an empty score
//! range, an engine of the wrong reduced geometry) is a typed error
//! before any hub sees it — so it registers nothing and burns no
//! `QueryId` — and a valid one gets the same per-query updates from
//! `Hub` and `AsyncHub`.

use sap::prelude::*;

/// One row per `Subscription` constructor: a builder taking the
/// predicate and whether to hand it an engine of the wrong geometry.
type Row = (
    &'static str,
    Box<dyn Fn(Predicate, bool) -> Result<ShardSubscription, SapError>>,
);

#[test]
fn registration_contract_holds_on_both_hubs() {
    let engine = |n, k, s| build_send(&Query::window(n).top(k).slide(s)).unwrap();
    // the query ⟨12, 2, 3⟩ (and W⟨12, 3⟩, k = 2) reduces to ⟨8, 2, 2⟩;
    // handing a sharing plane the unreduced engine is wrong geometry
    let reduced = move |wrong: bool| {
        if wrong {
            engine(12, 2, 3)
        } else {
            engine(8, 2, 2)
        }
    };
    let timed = Query::window_duration(12).top(2).slide_duration(3);
    let rows: Vec<Row> = vec![
        (
            "count",
            Box::new(move |_, _| Ok(Subscription::count(engine(12, 2, 3)))),
        ),
        (
            "timed",
            Box::new(move |_, _| Ok(Subscription::timed(build_timed(&timed).unwrap()))),
        ),
        (
            "shared",
            Box::new(move |p, wrong| Subscription::shared(reduced(wrong), 12, 3, p)),
        ),
        (
            "grouped",
            Box::new(move |p, wrong| Subscription::grouped(reduced(wrong), 12, 3, p)),
        ),
    ];
    let empty = Predicate::any().score_range(5.0, 1.0);
    let mut hub = Hub::new();
    let mut parallel = AsyncHub::new(3, 2);
    for (i, (plane, build)) in rows.iter().enumerate() {
        if matches!(*plane, "shared" | "grouped") {
            assert!(
                matches!(build(empty, false), Err(SapError::InvalidPredicate { .. })),
                "{plane}: empty score range"
            );
            assert!(
                matches!(build(Predicate::any(), true), Err(SapError::Spec(_))),
                "{plane}: wrong reduced geometry"
            );
        }
        // the failures never reached a hub: nothing registered, no id
        // burned — the next valid registration gets id `i`
        assert_eq!((hub.len(), parallel.len()), (i, i), "{plane}");
        let seq_id = hub.register_subscription(build(Predicate::any(), false).unwrap());
        let par_id = parallel.register_subscription(build(Predicate::any(), false).unwrap());
        assert_eq!(seq_id.unwrap().to_string(), format!("q{i}"), "{plane}");
        assert_eq!(par_id.unwrap().to_string(), format!("q{i}"), "{plane}");
    }
    let data: Vec<TimedObject> = (0..120)
        .map(|i| TimedObject::new(i, i / 2, ((i * 37) % 101) as f64))
        .collect();
    let mut expected = Vec::new();
    for chunk in data.chunks(7) {
        expected.extend(hub.publish_timed(chunk));
        parallel.publish_timed(chunk).unwrap();
    }
    expected.extend(hub.advance_time(100));
    parallel.advance_time(100).unwrap();
    expected.sort_by_key(|u| (u.query, u.result.slide));
    assert_eq!(parallel.drain().unwrap(), expected);
    for id in hub.query_ids() {
        assert!(expected.iter().filter(|u| u.query == id).count() > 10);
    }
}
