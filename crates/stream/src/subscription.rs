//! What a hub is handed at registration and at construction: one
//! validated [`Subscription`] per standing query, and one
//! [`ServingConfig`] per hub.
//!
//! A subscription names the plane a query is served on — an isolated
//! count or time-based session, the shared digest plane, or the shared
//! count plane — together with the engine that answers it. The two
//! sharing planes run the engine over the Appendix-A reduction, so their
//! constructors check the engine's geometry and the subscription
//! predicate here, once: an invalid subscription cannot be built, so it
//! can never reach a hub (and never burns a [`QueryId`](crate::QueryId)).

use crate::digest::SharedTimed;
use crate::predicate::Predicate;
use crate::query::SapError;
use crate::window::{SlidingTopK, TimedTopK, WindowSpec};

/// A validated registration: the engine plus the plane that serves it.
/// Built by one of four constructors and consumed by
/// [`Hub::register_engine`](crate::Hub::register_engine) or
/// [`AsyncHub::register_engine`](crate::AsyncHub::register_engine).
///
/// `C` is the hub's count-engine type and `T` its time-based one — see
/// [`HubSubscription`] and [`ShardSubscription`].
pub struct Subscription<C: SlidingTopK, T: TimedTopK> {
    pub(crate) plane: Plane<C, T>,
}

/// The plane a [`Subscription`] is served on, with its validated parts.
pub(crate) enum Plane<C: SlidingTopK, T: TimedTopK> {
    /// An isolated count-based session.
    Count(C),
    /// An isolated time-based session.
    Timed(T),
    /// A member of the shared digest plane, keyed by
    /// `(slide_duration, predicate)`.
    Shared {
        consumer: SharedTimed<C>,
        predicate: Predicate,
    },
    /// A member of the shared count plane: the reduced consumer and the
    /// plain `⟨n, k, s⟩` spec.
    Grouped {
        consumer: SharedTimed<C>,
        spec: WindowSpec,
        predicate: Predicate,
    },
}

/// The subscription a [`Hub`](crate::Hub) registers.
pub type HubSubscription = Subscription<Box<dyn SlidingTopK>, Box<dyn TimedTopK>>;

/// The subscription an [`AsyncHub`](crate::AsyncHub) registers: engines
/// are [`Send`], because a shard's core moves between worker threads.
pub type ShardSubscription = Subscription<Box<dyn SlidingTopK + Send>, Box<dyn TimedTopK + Send>>;

/// Rejects a malformed predicate (e.g. an empty score range).
fn check_predicate(predicate: &Predicate) -> Result<(), SapError> {
    predicate
        .validate()
        .map_err(|reason| SapError::InvalidPredicate { reason })
}

impl<C: SlidingTopK, T: TimedTopK> Subscription<C, T> {
    /// An isolated count-based query: `engine` slides on arrival counts
    /// over its own spec.
    pub fn count(engine: C) -> Self {
        Subscription {
            plane: Plane::Count(engine),
        }
    }

    /// An isolated time-based query: `engine` slides on event time, so it
    /// advances on `publish_timed` and `advance_time` only. Every
    /// isolated adapter re-derives its own per-slide truncation; queries
    /// sharing a `slide_duration` can split that work through
    /// [`shared`](Subscription::shared) instead.
    pub fn timed(engine: T) -> Self {
        Subscription {
            plane: Plane::Timed(engine),
        }
    }

    /// A time-based query `W⟨window_duration, slide_duration⟩` on the
    /// **shared digest plane**: the hub computes each slide's top-`k_max`
    /// digest once per `(slide_duration, predicate)` group and serves
    /// every member its own `k ≤ k_max` prefix. Results are
    /// byte-identical to an isolated registration of the same engine.
    /// Queries may join and leave groups at runtime; a mid-stream join
    /// warms up privately for at most the remainder of the open slide.
    ///
    /// The query ranks only objects `predicate` accepts; rejected objects
    /// still advance event time. Predicate-disjoint members of one slide
    /// duration are served by disjoint sub-groups.
    ///
    /// `engine` answers the private count-based reduction and must be
    /// fresh and configured over `⟨(n/s)·k, k, k⟩` for its own `k`.
    /// Wrong geometry is a typed [`SapError::Spec`]; an invalid predicate
    /// (such as an empty score range) is
    /// [`SapError::InvalidPredicate`].
    pub fn shared(
        engine: C,
        window_duration: u64,
        slide_duration: u64,
        predicate: Predicate,
    ) -> Result<Self, SapError> {
        check_predicate(&predicate)?;
        let consumer = SharedTimed::from_engine(engine, window_duration, slide_duration)
            .map_err(SapError::Spec)?;
        Ok(Subscription {
            plane: Plane::Shared {
                consumer,
                predicate,
            },
        })
    }

    /// A count-based query `⟨n, k, s⟩` on the **shared count plane**:
    /// queries are grouped by slide length, registration offset mod `s`,
    /// and predicate, so each slide's top-`k_max` is computed once per
    /// group and every member slices its own `(n, k)` answer from it.
    /// Results are byte-identical to an isolated
    /// [`count`](Subscription::count) registration of the same query.
    ///
    /// The query ranks only objects `predicate` accepts; rejected
    /// arrivals still count toward slide boundaries (the window is over
    /// the *stream*, the predicate filters the *ranking*).
    ///
    /// `engine` answers the private reduction and must be fresh and
    /// configured over `⟨(n/s)·k, k, k⟩` for its own `k` — the
    /// Appendix-A reduction with arrival counts standing in for
    /// timestamps. Wrong geometry (including `k > n` or `s ∤ n` on the
    /// original spec) is a typed [`SapError::Spec`]; an invalid
    /// predicate is [`SapError::InvalidPredicate`].
    pub fn grouped(engine: C, n: usize, s: usize, predicate: Predicate) -> Result<Self, SapError> {
        check_predicate(&predicate)?;
        let spec = WindowSpec::new(n, engine.spec().k, s).map_err(SapError::Spec)?;
        let consumer =
            SharedTimed::from_engine(engine, n as u64, s as u64).map_err(SapError::Spec)?;
        Ok(Subscription {
            plane: Plane::Grouped {
                consumer,
                spec,
                predicate,
            },
        })
    }
}

/// Drops the [`Send`] bound, so one subscription builder serves both
/// hubs.
impl From<ShardSubscription> for HubSubscription {
    fn from(sub: ShardSubscription) -> HubSubscription {
        let local = |engine: Box<dyn SlidingTopK + Send>| engine as Box<dyn SlidingTopK>;
        let plane = match sub.plane {
            Plane::Count(engine) => Plane::Count(local(engine)),
            Plane::Timed(engine) => Plane::Timed(engine as Box<dyn TimedTopK>),
            Plane::Shared {
                consumer,
                predicate,
            } => Plane::Shared {
                consumer: consumer.map_engine(local),
                predicate,
            },
            Plane::Grouped {
                consumer,
                spec,
                predicate,
            } => Plane::Grouped {
                consumer: consumer.map_engine(local),
                spec,
                predicate,
            },
        };
        Subscription { plane }
    }
}

/// How a hub serves its registrations, fixed at construction
/// ([`Hub::with_config`](crate::Hub::with_config),
/// [`AsyncHub::with_config`](crate::AsyncHub::with_config)). Results are
/// byte-identical under every setting; the knobs only choose between
/// the optimized serving shape (the default) and its reference arm.
/// Shards an `AsyncHub` creates on `resize` inherit the config; a hub
/// restored from a checkpoint gets the default one, because the image
/// carries no knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Whether registration pools view-equivalent members of one group
    /// into shared **result classes**, so a slide close runs one
    /// reduction and one diff per class instead of per member (see
    /// [`HubStats::class_hits`](crate::HubStats::class_hits)). Off, every
    /// member founds a solo class — the pre-memoization serving shape.
    /// Members that travel through a restore or a migration re-class
    /// regardless: a follower cannot serve without its class.
    pub result_class_sharing: bool,
    /// Whether each slide group and count group keeps a running
    /// top-`k_max` score bound over its open slide and skips admitting
    /// objects that `k_max` already-admitted open-slide objects strictly
    /// dominate — such objects cannot appear in the slide's digest. Off,
    /// every object is admitted and
    /// [`HubStats::pruned`](crate::HubStats::pruned) stays `0`. Pruned
    /// objects still advance arrival ordinals and slide boundaries.
    pub admission_pruning: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            result_class_sharing: true,
            admission_pruning: true,
        }
    }
}
