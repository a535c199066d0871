//! Measurement primitives: weighted latency samples with the percentile
//! rule, the open-loop scheduler, medians, the host-speed calibration,
//! and host/process facts.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Latency samples. A value carries a weight — the number of emitted
/// updates that share it — so a slide close that fans out to thousands of
/// members is thousands of samples without thousands of entries.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    points: Vec<(f64, u64)>,
    total: u64,
}

impl Samples {
    /// Adds `weight` samples of `value` (a zero weight adds nothing).
    pub fn push(&mut self, value: f64, weight: u64) {
        if weight > 0 {
            self.points.push((value, weight));
            self.total += weight;
        }
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.points.extend_from_slice(&other.points);
        self.total += other.total;
    }

    /// The same samples with every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples {
            points: self.points.iter().map(|&(v, w)| (v * factor, w)).collect(),
            total: self.total,
        }
    }

    /// Number of samples (sum of weights).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (`0 < p < 100`) by the nearest-rank rule.
    /// Refuses — returns `Err` — when fewer than 10 samples lie beyond
    /// it, because such a tail is a handful of events and does not
    /// repeat from run to run.
    pub fn percentile(&mut self, p: f64) -> Result<f64, String> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
        let beyond = self.total as f64 * (100.0 - p) / 100.0;
        if beyond < 10.0 {
            return Err(format!(
                "p{p} needs >= 10 samples beyond it; {} samples leave {beyond:.1}",
                self.total
            ));
        }
        self.points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(value, weight) in &self.points {
            seen += weight;
            if seen >= rank {
                return Ok(value);
            }
        }
        unreachable!("rank {rank} lies within the {} samples", self.total)
    }
}

/// Median of unweighted values (mean of the middle pair for even
/// counts); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Consecutive segments a traced run's open loop is split into.
pub const SEGMENTS: usize = 8;

/// Keys one calibration sample inserts into its ordered set.
const CALIBRATION_KEYS: usize = 150_000;
/// Size of the sliding ordered set the calibration keys pass through.
const CALIBRATION_WINDOW: usize = 4_096;
/// Calibration keys per second on the host the benchmark was defined on
/// (a 2-CPU x86-64 KVM guest): the speed that reads 1.0.
const REFERENCE_KEYS_PER_S: f64 = 16e6;

/// The host's speed, sampled between the phases of a run. On a shared VM
/// the same code runs tens of percent faster or slower from one second,
/// and one process, to the next, as neighbours load the physical cores.
/// A calibration sample times a fixed kernel that shares no code with the
/// program under test: a sliding ordered set (`BTreeSet`, the shape of
/// the engines' own ordered structures) fed seeded keys, on the calling
/// thread. Its speed tracks the host's, so a phase's wall time
/// multiplied by the host speed around it (or a rate divided by it)
/// reads what the phase would have taken on the reference host, while a
/// change to the program moves the phase and not the calibration.
#[derive(Debug)]
pub struct HostSpeed {
    keys: Vec<u64>,
    /// The latest sample, relative to the reference host.
    last: f64,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first sample.
    pub fn new() -> HostSpeed {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..CALIBRATION_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut speed = HostSpeed {
            keys,
            last: 0.0,
            samples: Vec::new(),
        };
        speed.last = speed.sample();
        speed
    }

    /// One run of the kernel: its speed relative to the reference host.
    fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mut set = BTreeSet::new();
        for &k in &self.keys {
            set.insert(k);
            if set.len() > CALIBRATION_WINDOW {
                set.pop_first();
            }
        }
        black_box(set.len());
        let keys_per_s = self.keys.len() as f64 / started.elapsed().as_secs_f64();
        let speed = keys_per_s / REFERENCE_KEYS_PER_S;
        self.samples.push(speed);
        speed
    }

    /// The host's speed over the phase that just ended: the mean of the
    /// sample taken before it (the previous call's) and a new one.
    pub fn after_phase(&mut self) -> f64 {
        let now = self.sample();
        let speed = (self.last + now) / 2.0;
        self.last = now;
        speed
    }

    /// Starts a phase: takes the sample `after_phase` pairs with.
    pub fn before_phase(&mut self) {
        self.last = self.sample();
    }

    /// Median of every sample taken.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// Number of samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoopReport {
    /// One sample per delivered update: from the due time of the batch
    /// whose call delivered it to that call's return, in ms — kept per
    /// segment: consecutive, equally long stretches of the schedule.
    pub latency_ms: Vec<Samples>,
    /// How late the generator sent each batch (actual send − due), in ms,
    /// weighted by the batch's object count.
    pub late_ms: Samples,
    /// Per batch: due time → return of its call, in ms (unweighted).
    pub per_batch_ms: Vec<f64>,
    /// Batches sent (fewer than scheduled if the deadline cut the phase).
    pub batches: usize,
    /// Whether the deadline cut the phase short (a growing backlog).
    pub truncated: bool,
}

/// Sends `batches` batches on a fixed schedule — batch `i` is due at
/// `start + i·interval` whatever the system does, so a slow call does not
/// slow the offered load. `send(i)` makes the call(s) that deliver batch
/// `i`'s updates and returns `(objects, updates delivered)`. Latency is
/// timed from the batch's **due** time, not from when it was actually
/// sent, so a stall is charged to every batch that came due during it
/// (no coordinated omission). Stops early once `deadline` has passed
/// since the start. Latency samples are kept per segment of
/// `batches / segments` consecutive batches.
pub fn run_open_loop<E>(
    interval: Duration,
    batches: usize,
    segments: usize,
    deadline: Duration,
    mut send: impl FnMut(usize) -> Result<(u64, u64), E>,
) -> Result<OpenLoopReport, E> {
    let mut report = OpenLoopReport {
        latency_ms: vec![Samples::default(); segments.max(1)],
        ..OpenLoopReport::default()
    };
    let start = Instant::now();
    for i in 0..batches {
        let due = start + interval.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        if sent.duration_since(start) > deadline {
            report.truncated = true;
            break;
        }
        let (objects, updates) = send(i)?;
        let done = Instant::now();
        let latency = ms(done.duration_since(due));
        let segment = i * report.latency_ms.len() / batches;
        report.latency_ms[segment].push(latency, updates);
        report.late_ms.push(ms(sent.duration_since(due)), objects);
        report.per_batch_ms.push(latency);
        report.batches += 1;
    }
    Ok(report)
}

/// Spins (yielding) until `due`. Sleeping instead overshot by up to
/// several ms on a loaded VM, which the next batch's latency then
/// counted; a spinning publisher sends on time and keeps its CPU awake.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .ok_or(format!("no {field} line in /proc/self/status"))?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad {field} line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD").unwrap_or_default();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")),
        None => Some(head).filter(|h| !h.is_empty()),
    }
    .unwrap_or_else(|| "unknown".to_string())
}

impl OpenLoopReport {
    /// Appends a later phase's segments and counts to this report, its
    /// latencies multiplied by `speed` (the host speed over the phase;
    /// 1.0 keeps them as measured).
    pub fn absorb(&mut self, later: OpenLoopReport, speed: f64) {
        self.latency_ms
            .extend(later.latency_ms.iter().map(|s| s.scaled(speed)));
        self.late_ms.merge(&later.late_ms);
        self.per_batch_ms.extend(later.per_batch_ms);
        self.batches += later.batches;
        self.truncated |= later.truncated;
    }

    /// Latency samples over the whole phase.
    pub fn samples(&self) -> u64 {
        self.latency_ms.iter().map(Samples::count).sum()
    }

    /// The median over segments of each segment's `p`-th latency
    /// percentile. A burst in which the host stalls the VM inflates one
    /// segment's tail and leaves the median, while a slowdown of the code
    /// moves every segment. Segments a cut-short phase never reached are
    /// skipped; every other segment must have 10 samples beyond `p`.
    pub fn latency_percentile(&self, p: f64) -> Result<f64, String> {
        let per_segment = self
            .latency_ms
            .iter()
            .filter(|s| s.count() > 0)
            .map(|s| s.clone().percentile(p))
            .collect::<Result<Vec<f64>, String>>()?;
        if per_segment.is_empty() {
            return Err("the open loop delivered no update".into());
        }
        Ok(median(&per_segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64, 1);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.percentile(50.0), Ok(500.0));
        assert_eq!(s.percentile(90.0), Ok(900.0));
        assert_eq!(s.percentile(99.0), Ok(990.0));
        // p99.9 leaves one sample beyond it: refused
        assert!(s.percentile(99.9).is_err());
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let mut s = Samples::default();
        for v in 0..999 {
            s.push(v as f64, 1);
        }
        // 999 samples leave 9.99 beyond p99
        assert!(s.percentile(99.0).is_err());
        s.push(1e9, 1);
        assert!(s.percentile(99.0).is_ok());
        assert!(Samples::default().percentile(50.0).is_err());
    }

    #[test]
    fn weights_count_as_repeated_samples() {
        let mut s = Samples::default();
        s.push(2.0, 100);
        s.push(1.0, 900);
        s.push(5.0, 0);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.percentile(90.0), Ok(1.0));
        assert_eq!(s.percentile(95.0), Ok(2.0));
        let mut both = Samples::default();
        both.merge(&s);
        both.merge(&s);
        assert_eq!(both.count(), 2_000);
        assert_eq!(both.percentile(95.0), Ok(2.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scaled_samples_keep_their_weights() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64, 10);
        }
        let mut half = s.scaled(0.5);
        assert_eq!(half.count(), 1_000);
        assert_eq!(half.percentile(50.0), Ok(25.0));
        assert_eq!(s.percentile(50.0), Ok(50.0));
    }

    #[test]
    fn host_speed_is_a_positive_ratio() {
        let mut speed = HostSpeed::new();
        let s = speed.after_phase();
        assert!(s.is_finite() && s > 0.0, "{s}");
        assert_eq!(speed.samples.len(), 2);
        assert!(speed.median() > 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_the_batches_due_during_it() {
        let interval = Duration::from_millis(2);
        let stall = Duration::from_millis(40);
        let report = run_open_loop::<()>(interval, 30, 3, Duration::from_secs(10), |i| {
            if i == 3 {
                std::thread::sleep(stall);
            }
            Ok((1, 1))
        })
        .unwrap();
        assert_eq!(report.batches, 30);
        assert!(!report.truncated);
        let lat = &report.per_batch_ms;
        assert!(lat[3] >= 40.0, "the stalled call itself: {}", lat[3]);
        // batch 4 came due 2 ms into the stall, so it waited ~38 ms more
        // even though its own call was instant
        assert!(lat[4] >= 35.0, "batch due during the stall: {}", lat[4]);
        assert!(
            lat[12] >= 20.0,
            "later batch due during the stall: {}",
            lat[12]
        );
        // the generator caught up afterwards: the last batches are prompt
        assert!(lat[29] < 10.0, "after the backlog cleared: {}", lat[29]);
        assert!(report.late_ms.clone().percentile(50.0).is_ok());
        assert_eq!(report.samples(), 30);
    }

    #[test]
    fn segment_median_ignores_bad_segments() {
        let mut report = OpenLoopReport {
            latency_ms: vec![Samples::default(); SEGMENTS],
            ..OpenLoopReport::default()
        };
        for (i, seg) in report.latency_ms.iter_mut().enumerate() {
            let slow = if i == 0 || i == 5 { 100.0 } else { 1.0 };
            for v in 1..=1000 {
                seg.push(slow * v as f64, 1);
            }
        }
        assert_eq!(report.latency_percentile(99.0), Ok(990.0));
        assert_eq!(report.samples(), 8_000);
        // a slowdown in every segment moves the result
        let mut slower = OpenLoopReport::default();
        for seg in &report.latency_ms {
            let mut doubled = Samples::default();
            for v in 1..=1000 {
                doubled.push(2.0 * v as f64, 1);
            }
            slower.latency_ms.push(if seg.count() > 0 {
                doubled
            } else {
                Samples::default()
            });
        }
        assert_eq!(slower.latency_percentile(99.0), Ok(1980.0));
        report.latency_ms[3] = Samples::default();
        assert_eq!(
            report.latency_percentile(99.0),
            Ok(990.0),
            "unreached segment"
        );
        report.latency_ms[3].push(1.0, 5);
        assert!(
            report.latency_percentile(99.0).is_err(),
            "a thin segment is refused"
        );
    }

    #[test]
    fn deadline_cuts_a_backlog() {
        let report = run_open_loop::<()>(
            Duration::from_millis(1),
            1000,
            SEGMENTS,
            Duration::from_millis(30),
            |_| {
                std::thread::sleep(Duration::from_millis(5));
                Ok((1, 1))
            },
        )
        .unwrap();
        assert!(report.truncated);
        assert!(report.batches < 1000);
    }

    #[test]
    fn resident_sizes_are_positive() {
        let rss = status_mb("VmRSS").unwrap();
        assert!(rss > 0.0);
        assert!(status_mb("VmHWM").unwrap() >= rss);
        assert!(status_mb("VmNope").is_err());
        assert!(host_cpus() >= 1);
    }
}
