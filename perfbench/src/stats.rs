//! Pure arithmetic behind every reported number: percentiles and their
//! sample rule, open-loop lateness, self time, and the artifact-hash
//! cross-check. Nothing here reads a clock, so all of it is unit-tested.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of `samples` with its sample count, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `samples`: the value at
/// 1-based rank `ceil(p * n)` of the sorted samples. Returns `None` when
/// fewer than [`MIN_BEYOND`] samples rank above it, so a tail percentile
/// is never read off a handful of points.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    assert!(p > 0.0 && p < 1.0, "percentile p must be in (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], n, beyond: n - rank })
}

/// The usual median (mean of the two middle values for an even count),
/// without the tail rule: for aggregates of a few repeats within a run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The open-loop poller's timetable: request `i` is due at
/// `start + i * interval`, whether or not request `i - 1` has returned.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

/// How one open-loop request went, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollTiming {
    /// How late the generator sent it: `sent - due`.
    pub late_s: f64,
    /// Latency from the *due* time, so a stall that delays later sends
    /// is charged to every request it delayed: `done - due`.
    pub latency_s: f64,
}

impl Schedule {
    /// A timetable starting at `start` with one request per `interval`.
    pub fn new(start: Instant, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "open-loop interval must be positive");
        Schedule { start, interval }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u32) -> Instant {
        self.start + self.interval * i
    }

    /// Account request `i`, sent at `sent` and answered at `done`.
    pub fn account(&self, i: u32, sent: Instant, done: Instant) -> PollTiming {
        let due = self.due(i);
        PollTiming {
            late_s: sent.saturating_duration_since(due).as_secs_f64(),
            latency_s: done.saturating_duration_since(due).as_secs_f64(),
        }
    }
}

/// The factor that puts a sample on the reference host's clock: the
/// probe's reference time over the median of the probes taken just
/// before and just after the sample and the run's typical probe. When
/// both neighbours agree the host was slow (or fast), the factor follows
/// them; a lone outlier is outvoted. Above 1 when the host ran faster
/// than the reference, below 1 when slower.
pub fn reference_factor(reference_s: f64, before_s: f64, after_s: f64, typical_s: f64) -> f64 {
    assert!(before_s > 0.0 && after_s > 0.0 && typical_s > 0.0, "a probe takes time");
    reference_s / median(&[before_s, after_s, typical_s])
}

/// A span's self time: its duration minus the part its child spans
/// cover. Children are nested inside the parent on one thread, so they
/// cannot exceed it; clock granularity is the only way the difference
/// could dip below zero, and it is clamped there.
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    (total_s - children_s.iter().sum::<f64>()).max(0.0)
}

/// Per-sample self time of request latencies once the in-process
/// dispatch cost of each request's verb is taken out: what the socket,
/// thread spawn and (for keep-alive) the write coalescing added.
pub fn minus_dispatch(samples: &[(usize, f64)], dispatch_s: &[f64]) -> Vec<f64> {
    samples.iter().map(|&(verb, lat)| self_time(lat, &[dispatch_s[verb]])).collect()
}

/// Artifact hash recorded for one `(seed, dirty)` input at the
/// benchmark's scale, 0.05.
pub struct KnownHash {
    /// Workload seed.
    pub seed: u64,
    /// Whether 2 % dirty rows were injected.
    pub dirty: bool,
    /// The FNV-1a artifact hash `repro` prints for that input.
    pub hash: u64,
}

/// Hashes pinned from `repro --scale 0.05 --seed 20220707`, with and
/// without `--dirty-rate 0.02`.
pub const KNOWN_HASHES: &[KnownHash] = &[
    KnownHash { seed: 20220707, dirty: true, hash: 0x4cc6_76d1_881b_598b },
    KnownHash { seed: 20220707, dirty: false, hash: 0x09e6_0513_1122_9de9 },
];

/// The pinned hash for this input, if there is one.
pub fn known_hash(seed: u64, dirty: bool) -> Option<u64> {
    KNOWN_HASHES.iter().find(|k| k.seed == seed && k.dirty == dirty).map(|k| k.hash)
}

/// Check that every path that rendered the artifacts produced the same
/// hash, and that it matches the pinned hash when one is known. Returns
/// the agreed hash or a message naming every disagreeing source.
pub fn cross_check(hashes: &[(&str, u64)], known: Option<u64>) -> Result<u64, String> {
    let Some(&(first_name, first)) = hashes.first() else {
        return Err("no artifact hash to check".to_string());
    };
    let mut problems = Vec::new();
    for &(name, h) in &hashes[1..] {
        if h != first {
            problems.push(format!("{name} hash {h:016x} != {first_name} hash {first:016x}"));
        }
    }
    if let Some(k) = known {
        if first != k {
            problems.push(format!("{first_name} hash {first:016x} != pinned {k:016x}"));
        }
    }
    if problems.is_empty() {
        Ok(first)
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the function has to sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let p = percentile(&ramp(100), 0.5).expect("50 beyond");
        assert_eq!((p.value, p.n, p.beyond), (50.0, 100, 50));
        let p = percentile(&ramp(1000), 0.99).expect("10 beyond");
        assert_eq!((p.value, p.n, p.beyond), (990.0, 1000, 10));
        let p = percentile(&ramp(2000), 0.99).expect("20 beyond");
        assert_eq!(p.value, 1980.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 999 samples has rank 990 and only 9 above it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert!(percentile(&ramp(1000), 0.99).is_some());
        // A median needs 20 samples.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_repeats_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_delayed_request() {
        let t0 = Instant::now();
        let ms = |n: u64| Duration::from_millis(n);
        let s = Schedule::new(t0, ms(10));
        // Request 0 is sent on time and takes 35 ms, so requests 1..=3
        // (due at 10, 20, 30 ms) can only go out when it returns.
        let r0 = s.account(0, t0, t0 + ms(35));
        assert_eq!(r0, PollTiming { late_s: 0.0, latency_s: 0.035 });
        let r1 = s.account(1, t0 + ms(35), t0 + ms(36));
        assert!((r1.late_s - 0.025).abs() < 1e-9, "{r1:?}");
        assert!((r1.latency_s - 0.026).abs() < 1e-9, "{r1:?}");
        let r3 = s.account(3, t0 + ms(37), t0 + ms(38));
        assert!((r3.late_s - 0.007).abs() < 1e-9, "{r3:?}");
        assert!((r3.latency_s - 0.008).abs() < 1e-9, "{r3:?}");
        // Back on schedule: a request sent before it is due (the sleep
        // overshot negatively) is never early.
        let r4 = s.account(4, t0 + ms(39), t0 + ms(41));
        assert_eq!(r4.late_s, 0.0);
        assert!((r4.latency_s - 0.001).abs() < 1e-9, "{r4:?}");
        assert_eq!(s.due(4), t0 + ms(40));
    }

    #[test]
    fn reference_factor_follows_agreeing_neighbours_and_outvotes_an_outlier() {
        // The host ran at the reference speed: nothing changes.
        assert_eq!(reference_factor(0.04, 0.04, 0.04, 0.04), 1.0);
        // Both neighbours say half speed: 10 s measured is 5 s on the
        // reference clock, and 100 rows/s measured is 200.
        let f = reference_factor(0.04, 0.08, 0.08, 0.04);
        assert_eq!((10.0 * f, 100.0 / f), (5.0, 200.0));
        // One neighbour met a stall: the other and the run's typical
        // probe outvote it.
        assert_eq!(reference_factor(1.0, 8.0, 1.25, 1.0), 0.8);
        assert_eq!(reference_factor(1.0, 0.5, 8.0, 1.0), 1.0);
    }

    #[test]
    fn self_time_subtracts_children_and_never_goes_negative() {
        assert!((self_time(0.100, &[0.060, 0.015]) - 0.025).abs() < 1e-12);
        assert_eq!(self_time(0.010, &[]), 0.010);
        assert_eq!(self_time(0.010, &[0.0100001]), 0.0);
        let dispatch = [0.000_100, 0.002_300];
        let samples = [(0, 0.000_300), (1, 0.002_500), (1, 0.002_000)];
        let own = minus_dispatch(&samples, &dispatch);
        assert!((own[0] - 0.000_200).abs() < 1e-12);
        assert!((own[1] - 0.000_200).abs() < 1e-12);
        assert_eq!(own[2], 0.0);
    }

    #[test]
    fn hash_cross_check_names_every_disagreement() {
        assert_eq!(cross_check(&[("repro", 7), ("serve", 7)], None), Ok(7));
        assert_eq!(cross_check(&[("repro", 7), ("serve", 7)], Some(7)), Ok(7));
        let e = cross_check(&[("repro", 7), ("serve", 8), ("traced", 7)], None).unwrap_err();
        assert!(e.contains("serve") && !e.contains("traced"), "{e}");
        let e = cross_check(&[("repro", 7), ("serve", 7)], Some(9)).unwrap_err();
        assert!(e.contains("pinned"), "{e}");
        assert!(cross_check(&[], None).is_err());
    }

    #[test]
    fn pinned_hashes_cover_the_default_seed_only() {
        assert_eq!(known_hash(20220707, true), Some(0x4cc6_76d1_881b_598b));
        assert_eq!(known_hash(20220707, false), Some(0x09e6_0513_1122_9de9));
        assert_eq!(known_hash(1, true), None);
    }
}
