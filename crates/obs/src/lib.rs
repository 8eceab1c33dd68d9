#![warn(missing_docs)]
//! Pipeline observability: a deterministic metrics registry plus
//! lightweight tracing spans, with no dependencies beyond the vendored
//! offline stand-ins (see DESIGN.md §"Dependencies").
//!
//! The paper's whole argument is that a throughput number is meaningless
//! without its context; this crate applies the same argument to the
//! pipeline itself. Every layer (datagen, BST, sanitize, store, wire,
//! render) records *what it did* — record counts, EM iterations, KDE
//! grid evaluations, quarantine tallies, wire bytes — into a
//! [`Registry`], and the bench driver exports the result as
//! `BENCH_metrics.json` plus a `## Metrics` report section.
//!
//! Metrics are split into two classes (DESIGN.md §"Metric taxonomy"):
//!
//! * **Deterministic** ([`DeterministicMetrics`]): counters, gauges,
//!   fixed-bucket histograms, and value series. These are pure functions
//!   of the generated data, so — like the artifacts themselves — their
//!   serialized form is required to be **byte-identical at every
//!   `--parallelism` level**. The bench driver guarantees this the same
//!   way `SanitizeReport` does: each parallel unit of work records into
//!   its own sub-registry ([`Registry::sub`]) and the coordinator merges
//!   them back in city/job order ([`Registry::merge`]). The merge
//!   operations themselves are order-invariant for counters and
//!   histograms (integer sums, f64 min/max), so even direct concurrent
//!   recording cannot diverge.
//! * **Wall-clock** ([`WallClockMetrics`]): span durations and queue
//!   waits. Reported for profiling, excluded from every determinism
//!   contract — like the stage durations of a run's ledger row.
//!
//! Recording is **read-only observation**: a registry never feeds back
//! into any computation, so artifacts are byte-identical whether a run
//! records into an enabled registry or a [`Registry::disabled`] one
//! (pinned by `crates/bench/tests/run_identity.rs`).
//!
//! Spans are scoped guards ([`Span`]): [`Registry::span`] opens one,
//! dropping it (or calling [`Span::stop`]) records its wall-clock
//! duration under a `/`-separated path. Nesting is explicit via
//! [`Span::child`], so a span tree never depends on thread-local state
//! and parallel children can be recorded into sub-registries.
//!
//! Every registry also accumulates a **trace timeline** (see [`trace`]):
//! each closed span becomes a complete Chrome-Trace-Event-Format event,
//! and [`Registry::event`] records instant lifecycle marks (stage
//! start/end, quarantine outcomes, degraded jobs, wire retries).
//! [`Registry::trace`] exports the buffer; event names/categories/args/
//! lanes/order are deterministic class, `ts`/`dur` are wall-clock class.

pub mod trace;

pub use trace::{Phase, Trace, TraceEvent};

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Append `s` with the key syntax characters (`\`, `,`, `=`, `{`, `}`)
/// backslash-escaped, so the rendered key is an injective encoding of
/// the (name, labels) set.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        if matches!(c, '\\' | ',' | '=' | '{' | '}') {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Render a metric key as `name{k1=v1,k2=v2}` with labels sorted by
/// label key, so the same (name, labels) set always produces the same
/// registry key regardless of call-site label order.
///
/// Label keys and values are backslash-escaped (`\`, `,`, `=`, `{`,
/// `}`), so two *distinct* label sets can never render the same
/// registry key — `{"a": "1,b=2"}` and `{"a": "1", "b": "2"}` stay
/// distinguishable. Metric *names* are compile-time constants by
/// convention and must not contain `{` (debug-asserted), which keeps
/// the name/label boundary unambiguous.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(!name.contains('{'), "metric name {name:?} must not contain '{{'");
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, k);
        out.push('=');
        push_escaped(&mut out, v);
    }
    out.push('}');
    out
}

/// A fixed-bucket histogram over `f64` observations.
///
/// `bounds` are inclusive upper bucket edges, ascending; an observation
/// lands in the first bucket whose bound is `>= value`, values above
/// every bound (including `+inf`) land in `overflow`, `-inf` and any
/// other below-range value land in bucket 0, and `NaN` is tallied
/// separately — no observation ever panics. `min`/`max` cover the
/// finite observations only (`0.0` while `finite == 0`), so the struct
/// serializes cleanly and merging stays exactly order-invariant:
/// bucket counts add (commutative integers) and min/max combine with
/// `f64::min`/`f64::max` (associative and commutative bit-for-bit).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Inclusive upper bucket edges, ascending.
    pub bounds: Vec<f64>,
    /// Observations per bucket (`counts.len() == bounds.len()`).
    pub counts: Vec<u64>,
    /// Observations above the last bound (including `+inf`).
    pub overflow: u64,
    /// NaN observations (counted, never bucketed).
    pub nan: u64,
    /// Total observations (bucketed + overflow + NaN).
    pub count: u64,
    /// Finite observations (what `min`/`max` cover).
    pub finite: u64,
    /// Smallest finite observation (0.0 while `finite == 0`).
    pub min: f64,
    /// Largest finite observation (0.0 while `finite == 0`).
    pub max: f64,
}

impl Histogram {
    /// An empty histogram with the given bucket bounds. Non-finite or
    /// unsorted bounds are sanitized (finite, sorted, deduplicated)
    /// rather than rejected.
    pub fn new(bounds: &[f64]) -> Self {
        let mut clean: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        clean.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        clean.dedup();
        let n = clean.len();
        Histogram {
            bounds: clean,
            counts: vec![0; n],
            overflow: 0,
            nan: 0,
            count: 0,
            finite: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation. Total, never panics: NaN → `nan`,
    /// above-range (and `+inf`) → `overflow`, below-range (and `-inf`)
    /// → bucket 0.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        if value.is_finite() {
            if self.finite == 0 {
                self.min = value;
                self.max = value;
            } else {
                self.min = self.min.min(value);
                self.max = self.max.max(value);
            }
            self.finite += 1;
        }
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Bucket-interpolated quantile estimate over the non-NaN
    /// observations (the Prometheus `histogram_quantile` scheme): walk
    /// the cumulative bucket counts to the bucket containing rank
    /// `p * n`, then interpolate linearly inside it. The first bucket's
    /// lower edge is `min`, the overflow bucket's upper edge is `max`,
    /// and the estimate is clamped into `[min, max]` — so it is exact
    /// whenever `min == max` (e.g. a constant input) and always inside
    /// the observed finite range. Returns `None` when no finite
    /// observation exists or `p` is NaN.
    ///
    /// The estimate is a pure function of the merged histogram state, so
    /// it inherits the merge algebra's order-invariance: any merge order
    /// of the same sub-histograms yields bit-identical quantiles.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.finite == 0 || p.is_nan() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let n = (self.count - self.nan) as f64;
        let target = p * n;
        let mut cum = 0.0;
        let mut estimate = self.max;
        let overflow_idx = self.counts.len();
        for i in 0..=overflow_idx {
            let cnt = if i == overflow_idx { self.overflow } else { self.counts[i] } as f64;
            if cnt == 0.0 {
                continue;
            }
            if target <= cum + cnt {
                let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
                let upper = if i == overflow_idx { self.max } else { self.bounds[i] };
                let frac = ((target - cum) / cnt).clamp(0.0, 1.0);
                estimate = if upper > lower { lower + frac * (upper - lower) } else { upper };
                break;
            }
            cum += cnt;
        }
        Some(estimate.clamp(self.min, self.max))
    }

    /// The inverse of [`Histogram::merge`] on the counting fields: with
    /// `self == merge(older, x)` the returned histogram carries exactly
    /// `x`'s bucket counts, overflow, NaN tally, total, and finite
    /// count. Subtraction saturates at zero, so a delta is never
    /// negative even on pairs that did not come from a merge.
    ///
    /// `min`/`max` are **not** invertible (a merge keeps the extremes of
    /// both sides), so the delta carries `self`'s values — which makes
    /// `older.merge(&delta)` reproduce `self` exactly, the round-trip
    /// the subscription path (DESIGN.md §19) leans on.
    pub fn delta(&self, older: &Histogram) -> Histogram {
        let shared = self.counts.len().min(older.counts.len());
        let mut counts = self.counts.clone();
        for (mine, old) in counts.iter_mut().zip(older.counts[..shared].iter()) {
            *mine = mine.saturating_sub(*old);
        }
        Histogram {
            bounds: self.bounds.clone(),
            counts,
            overflow: self.overflow.saturating_sub(older.overflow),
            nan: self.nan.saturating_sub(older.nan),
            count: self.count.saturating_sub(older.count),
            finite: self.finite.saturating_sub(older.finite),
            min: self.min,
            max: self.max,
        }
    }

    /// Fold `other` into `self`. With equal bounds (the only case the
    /// registry produces, since bounds are fixed per metric name) the
    /// merge is exactly order-invariant and associative. Mismatched
    /// bounds never panic: positionally shared buckets add and the
    /// remainder folds into `overflow`.
    pub fn merge(&mut self, other: &Histogram) {
        let shared = self.counts.len().min(other.counts.len());
        for i in 0..shared {
            self.counts[i] += other.counts[i];
        }
        for &c in &other.counts[shared..] {
            self.overflow += c;
        }
        self.overflow += other.overflow;
        self.nan += other.nan;
        self.count += other.count;
        if other.finite > 0 {
            if self.finite == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            self.finite += other.finite;
        }
    }
}

/// Wall-clock statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total seconds across entries.
    pub total_s: f64,
}

/// The deterministic metric class: required byte-identical at every
/// parallelism level when serialized (all maps are ordered).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct DeterministicMetrics {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values. One writer per key by convention; on merge
    /// conflicts the maximum wins (order-invariant), NaN is ignored.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Ordered value sequences (e.g. an EM log-likelihood trajectory).
    /// One writer per key; merge appends in merge order.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl DeterministicMetrics {
    /// Fold `other` into `self` with the registry's merge algebra:
    /// counters add, gauges take the max, histograms merge bucket-wise,
    /// series append. [`Registry::merge`] delegates here, so snapshots
    /// and live registries merge identically.
    pub fn merge(&mut self, other: &DeterministicMetrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.entry(k.clone()).and_modify(|g| *g = g.max(v)).or_insert(v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, s) in &other.series {
            self.series.entry(k.clone()).or_default().extend_from_slice(s);
        }
    }

    /// The inverse of [`DeterministicMetrics::merge`]: with
    /// `self == merge(older, x)` the delta recovers `x` exactly on
    /// counters (zero deltas are omitted, subtraction saturates — a
    /// delta is never negative), histogram counting fields, and series
    /// (the appended suffix). Gauges merge as max and are therefore not
    /// invertible; the delta carries `self`'s value for every key whose
    /// value moved, which still makes `older.merge(&delta)` reproduce
    /// `self` byte-for-byte — the watch-verb recurrence (DESIGN.md §19).
    pub fn delta(&self, older: &DeterministicMetrics) -> DeterministicMetrics {
        let mut out = DeterministicMetrics::default();
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(older.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, &v) in &self.gauges {
            // Write-once-by-convention keys: only a genuinely raised
            // value shows up in the delta.
            if older.gauges.get(k).map(|&o| feq(o, v)) != Some(true) {
                out.gauges.insert(k.clone(), v);
            }
        }
        for (k, h) in &self.histograms {
            let d = match older.histograms.get(k) {
                Some(old) => h.delta(old),
                None => h.clone(),
            };
            if d.count > 0 {
                out.histograms.insert(k.clone(), d);
            }
        }
        for (k, s) in &self.series {
            let suffix = match older.series.get(k) {
                Some(old) if s.len() >= old.len() && series_eq(&s[..old.len()], old) => {
                    s[old.len()..].to_vec()
                }
                Some(_) => s.clone(),
                None => s.clone(),
            };
            if !suffix.is_empty() {
                out.series.insert(k.clone(), suffix);
            }
        }
        out
    }
}

/// NaN-tolerant float equality: snapshots round-trip NaN, so a NaN
/// gauge must compare equal to itself when computing deltas.
fn feq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn series_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| feq(*x, *y))
}

/// The wall-clock metric class: reported, never determinism-checked.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct WallClockMetrics {
    /// Span statistics keyed by `/`-separated span path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Measured-value histograms ([`Registry::observe_wall`]): values
    /// that derive from wall-clock observation (throughputs, latencies,
    /// quality scores) and therefore cannot join the deterministic
    /// class. Keys and bucket bounds are deterministic; bucket counts
    /// and min/max move with the environment, like span durations.
    pub values: BTreeMap<String, Histogram>,
}

impl WallClockMetrics {
    /// Fold `other` into `self`: span stats accumulate, value
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &WallClockMetrics) {
        for (k, s) in &other.spans {
            let stat = self.spans.entry(k.clone()).or_default();
            stat.count += s.count;
            stat.total_s += s.total_s;
        }
        for (k, h) in &other.values {
            match self.values.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.values.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Best-effort inverse of [`WallClockMetrics::merge`]: span entry
    /// counts subtract exactly (saturating), total seconds subtract and
    /// clamp at zero (floating-point sums are not exactly invertible —
    /// which is fine, this class is excluded from every determinism
    /// contract). Keys that did not move are omitted.
    pub fn delta(&self, older: &WallClockMetrics) -> WallClockMetrics {
        let mut out = WallClockMetrics::default();
        for (k, s) in &self.spans {
            let old = older.spans.get(k).copied().unwrap_or_default();
            let count = s.count.saturating_sub(old.count);
            let total_s = (s.total_s - old.total_s).max(0.0);
            if count > 0 || total_s > 0.0 {
                out.spans.insert(k.clone(), SpanStat { count, total_s });
            }
        }
        for (k, h) in &self.values {
            let d = match older.values.get(k) {
                Some(old) => h.delta(old),
                None => h.clone(),
            };
            if d.count > 0 {
                out.values.insert(k.clone(), d);
            }
        }
        out
    }
}

/// Everything a registry holds, in serializable form. Field order (and
/// the `BTreeMap` key order inside) is the stable `BENCH_metrics.json`
/// schema: `schema`, then `deterministic`, then `wall_clock`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Schema tag for consumers ("st-obs/v1").
    pub schema: &'static str,
    /// The parallelism-invariant section.
    pub deterministic: DeterministicMetrics,
    /// The profiling section (excluded from determinism contracts).
    pub wall_clock: WallClockMetrics,
}

impl MetricsSnapshot {
    /// Pretty JSON of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Pretty JSON of the deterministic section only — the byte string
    /// the parallelism-invariance tests compare.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic).expect("metrics serialize")
    }

    /// What changed between two snapshots of the *same* registry: the
    /// inverse of the merge algebra, section by section (see
    /// [`DeterministicMetrics::delta`] / [`WallClockMetrics::delta`]).
    /// The subscription read path: a watcher holds its previous
    /// snapshot `Arc`, calls `new.delta(&old)`, and gets exactly the
    /// counter increments since its last observation — never negative,
    /// and telescoping (the deltas along any snapshot chain sum to the
    /// final totals). Property-tested in `tests/delta_prop.rs`.
    pub fn delta(&self, older: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            schema: self.schema,
            deterministic: self.deterministic.delta(&older.deterministic),
            wall_clock: self.wall_clock.delta(&older.wall_clock),
        }
    }

    /// An empty snapshot — the zero element of the merge algebra and
    /// the natural `older` seed for a subscription's first delta
    /// (`snap.delta(&MetricsSnapshot::empty())` is the running totals).
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            schema: "st-obs/v1",
            deterministic: DeterministicMetrics::default(),
            wall_clock: WallClockMetrics::default(),
        }
    }
}

/// Trace event buffer plus the lane watermark used to give every merged
/// sub-registry its own deterministic CTEF track block.
struct TraceBuf {
    events: Vec<TraceEvent>,
    /// Lanes used so far: own events occupy lane 0, every merged sub
    /// shifts onto a fresh block. Grows only on merge, in merge order,
    /// so lane numbering is deterministic.
    lanes: u32,
}

struct Inner {
    /// Zero point for every `ts_us` in the trace. Sub-registries share
    /// their parent's epoch so merged timelines stay comparable.
    epoch: Instant,
    det: Mutex<DeterministicMetrics>,
    wall: Mutex<WallClockMetrics>,
    trace: Mutex<TraceBuf>,
    /// Bumped after every metric mutation (trace events excluded — they
    /// never appear in a snapshot). [`Registry::snapshot_shared`] keys
    /// its cache on this, so idle readers pay one atomic load plus an
    /// `Arc` bump instead of a full clone of every map.
    version: AtomicU64,
    /// `(version, snapshot)` pair last built by `snapshot_shared`. The
    /// version is read *before* the maps are cloned, so a write racing
    /// the build can only make the cache stale — never wrong.
    snap_cache: Mutex<(u64, Option<Arc<MetricsSnapshot>>)>,
    /// Compact JSON of the snapshot `Arc` it was serialized from, last
    /// built by `snapshot_json_shared`. Keyed on that `Arc`'s identity,
    /// so the text can never be older than the snapshot cache.
    json_cache: Mutex<Option<(Arc<MetricsSnapshot>, Arc<str>)>>,
}

impl Inner {
    fn with_epoch(epoch: Instant) -> Self {
        Inner {
            epoch,
            det: Mutex::default(),
            wall: Mutex::default(),
            trace: Mutex::new(TraceBuf { events: Vec::new(), lanes: 1 }),
            version: AtomicU64::new(0),
            snap_cache: Mutex::new((0, None)),
            json_cache: Mutex::new(None),
        }
    }

    /// Mark the metric state changed (invalidates the snapshot cache).
    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// A cheap-to-clone handle onto one run's metrics. `Registry::disabled`
/// is a no-op sink: every recording call returns immediately, so
/// instrumented code needs no `if` at the call sites.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Registry {
    /// An enabled, empty registry. Its creation instant becomes the
    /// trace epoch every `ts_us` is measured from.
    pub fn new() -> Self {
        Registry { inner: Some(Arc::new(Inner::with_epoch(Instant::now()))) }
    }

    /// A no-op registry: records nothing, costs (almost) nothing.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh, empty registry matching this one's enabled state. The
    /// unit-of-work pattern for deterministic parallelism: each parallel
    /// job records into its own `sub()` and the coordinator folds them
    /// back with [`Registry::merge`] in a fixed (city/chunk/paper) order.
    ///
    /// The sub shares this registry's trace epoch, so its events land on
    /// the same timeline when merged back.
    pub fn sub(&self) -> Self {
        match &self.inner {
            Some(inner) => Registry { inner: Some(Arc::new(Inner::with_epoch(inner.epoch))) },
            None => Registry::disabled(),
        }
    }

    /// Add `n` to the counter `name{labels}`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        let Some(inner) = &self.inner else { return };
        *inner.det.lock().counters.entry(metric_key(name, labels)).or_insert(0) += n;
        inner.bump();
    }

    /// Add 1 to the counter `name{labels}`.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// The counter `name{labels}` (0 if never written, or disabled):
    /// one lookup under the lock, with no snapshot built.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner.det.lock().counters.get(&metric_key(name, labels)).copied().unwrap_or(0)
    }

    /// Set the gauge `name{labels}`. Keys are write-once by convention;
    /// if a key is written twice the maximum wins (so the outcome never
    /// depends on write order). NaN values are ignored.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(inner) = &self.inner else { return };
        if value.is_nan() {
            return;
        }
        inner
            .det
            .lock()
            .gauges
            .entry(metric_key(name, labels))
            .and_modify(|g| *g = g.max(value))
            .or_insert(value);
        inner.bump();
    }

    /// Observe `value` in the histogram `name{labels}` with the given
    /// bucket `bounds`. The first observation of a key fixes its bounds;
    /// later calls reuse them (pass the same constant).
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64, bounds: &[f64]) {
        let Some(inner) = &self.inner else { return };
        inner
            .det
            .lock()
            .histograms
            .entry(metric_key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
        inner.bump();
    }

    /// Observe `value` in the **wall-clock** histogram `name{labels}`.
    /// Use this for measured quantities (throughput, latency, quality
    /// scores): they land in the `wall_clock.values` section, which is
    /// reported but — like span durations — excluded from every exact
    /// determinism comparison. The first observation fixes the bounds.
    pub fn observe_wall(&self, name: &str, labels: &[(&str, &str)], value: f64, bounds: &[f64]) {
        let Some(inner) = &self.inner else { return };
        inner
            .wall
            .lock()
            .values
            .entry(metric_key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
        inner.bump();
    }

    /// Append `values` to the series `name{labels}`.
    pub fn extend_series(&self, name: &str, labels: &[(&str, &str)], values: &[f64]) {
        let Some(inner) = &self.inner else { return };
        inner
            .det
            .lock()
            .series
            .entry(metric_key(name, labels))
            .or_default()
            .extend_from_slice(values);
        inner.bump();
    }

    /// Record one completed wall-clock interval under span `path`.
    /// Affects the span statistics only; the scoped [`Span`] guard is
    /// what additionally emits a trace timeline event.
    pub fn record_span(&self, path: &str, secs: f64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut wall = inner.wall.lock();
            let stat = wall.spans.entry(path.to_string()).or_default();
            stat.count += 1;
            stat.total_s += secs;
        }
        inner.bump();
    }

    /// Record an instant lifecycle trace event (`ph: "i"`) under `name`
    /// with CTEF category `cat` and deterministic `args`, stamped with
    /// the wall-clock offset from the trace epoch. Event *content and
    /// order* are deterministic class; the timestamp is wall-clock class
    /// (DESIGN.md §14).
    pub fn event(&self, name: &str, cat: &str, args: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        let ts_us = inner.epoch.elapsed().as_micros() as u64;
        inner.trace.lock().events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::Instant,
            lane: 0,
            args: args.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            ts_us,
            dur_us: 0,
        });
    }

    /// Close a span guard: record its wall-clock statistic and append
    /// the matching complete (`ph: "X"`) trace event.
    fn finish_span(&self, path: &str, start: Instant) -> f64 {
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64();
        let Some(inner) = &self.inner else { return secs };
        {
            let mut wall = inner.wall.lock();
            let stat = wall.spans.entry(path.to_string()).or_default();
            stat.count += 1;
            stat.total_s += secs;
        }
        inner.bump();
        let ts_us = start.saturating_duration_since(inner.epoch).as_micros() as u64;
        let cat = path.split('/').next().unwrap_or(path).to_string();
        inner.trace.lock().events.push(TraceEvent {
            name: path.to_string(),
            cat,
            phase: Phase::Complete,
            lane: 0,
            args: Vec::new(),
            ts_us,
            dur_us: elapsed.as_micros() as u64,
        });
        secs
    }

    /// Open a root span. The guard records its duration on drop (or
    /// [`Span::stop`]); nest with [`Span::child`].
    pub fn span(&self, name: &str) -> Span {
        Span { reg: self.clone(), path: name.to_string(), start: Instant::now(), done: false }
    }

    /// Fold every metric of `other` into `self`: counters add, gauges
    /// take the max, histograms merge bucket-wise, series append, span
    /// stats accumulate. Deterministic parallel pipelines call this in a
    /// fixed order, mirroring `SanitizeReport::merge`.
    pub fn merge(&self, other: &Registry) {
        let (Some(inner), Some(other_inner)) = (&self.inner, &other.inner) else { return };
        if Arc::ptr_eq(inner, other_inner) {
            return; // merging a registry into itself would deadlock
        }
        {
            let theirs = other_inner.det.lock();
            inner.det.lock().merge(&theirs);
        }
        {
            let theirs = other_inner.wall.lock();
            inner.wall.lock().merge(&theirs);
        }
        // Trace events append in merge order, shifted onto a fresh lane
        // block so every merged unit of work keeps its own CTEF track.
        {
            let theirs = other_inner.trace.lock();
            let mut ours = inner.trace.lock();
            let base = ours.lanes;
            ours.events.extend(theirs.events.iter().map(|e| {
                let mut e = e.clone();
                e.lane += base;
                e
            }));
            ours.lanes = base + theirs.lanes;
        }
        inner.bump();
    }

    /// A copy of the trace buffer recorded so far (empty when disabled).
    pub fn trace(&self) -> Trace {
        match &self.inner {
            Some(inner) => Trace { events: inner.trace.lock().events.clone() },
            None => Trace::default(),
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        (*self.snapshot_shared()).clone()
    }

    /// The mutation version: bumped after every metric write (trace
    /// events excluded). A subscriber can poll this one atomic load to
    /// decide whether [`Registry::snapshot_shared`] would hand back
    /// anything new — the cheap change-detection hook the operator
    /// console's live feed sits on (ROADMAP item 5). Always 0 on a
    /// disabled registry.
    pub fn version(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.version.load(Ordering::Acquire),
            None => 0,
        }
    }

    /// A shared, cached snapshot of everything recorded so far — the
    /// cheap read path a long-running service's query loop (and the
    /// operator console ROADMAP item 5 wants) can hit per request.
    ///
    /// The snapshot is rebuilt only when a metric has changed since the
    /// last call; an idle registry hands out the same `Arc` every time
    /// (one atomic load + refcount bump, no map clones). A write racing
    /// a rebuild at worst leaves the cache marked stale, so the next
    /// call rebuilds again — callers never observe a snapshot older
    /// than the last mutation that completed before they called.
    pub fn snapshot_shared(&self) -> Arc<MetricsSnapshot> {
        let Some(inner) = &self.inner else {
            return Arc::new(MetricsSnapshot::empty());
        };
        let mut cache = inner.snap_cache.lock();
        // Read the version *before* cloning the maps: a concurrent
        // write can then only invalidate (version moves on), never be
        // silently absorbed under a too-new version stamp.
        let version = inner.version.load(Ordering::Acquire);
        if let (cached_version, Some(snap)) = &*cache {
            if *cached_version == version {
                return Arc::clone(snap);
            }
        }
        let snap = Arc::new(MetricsSnapshot {
            schema: "st-obs/v1",
            deterministic: inner.det.lock().clone(),
            wall_clock: inner.wall.lock().clone(),
        });
        *cache = (version, Some(Arc::clone(&snap)));
        snap
    }

    /// [`Registry::snapshot_shared`] as compact JSON, serialized once
    /// per snapshot: while no metric changes, every call hands out the
    /// same text. The cache is keyed on the identity of the snapshot
    /// `Arc` this call gets, so the text is always exactly that
    /// snapshot's `serde_json::to_string`.
    pub fn snapshot_json_shared(&self) -> Arc<str> {
        let snap = self.snapshot_shared();
        let serialize = |s: &MetricsSnapshot| -> Arc<str> {
            serde_json::to_string(s).expect("snapshot serializes").into()
        };
        let Some(inner) = &self.inner else { return serialize(&snap) };
        let mut cache = inner.json_cache.lock();
        if let Some((cached, json)) = &*cache {
            if Arc::ptr_eq(cached, &snap) {
                return Arc::clone(json);
            }
        }
        let json = serialize(&snap);
        *cache = Some((snap, Arc::clone(&json)));
        json
    }
}

/// A scoped wall-clock span. Dropping the guard records the elapsed
/// seconds under the span's `/`-joined path; [`Span::stop`] does the
/// same but also returns the duration (it is measured even on a
/// disabled registry, so stage timings don't depend on metrics being
/// enabled).
pub struct Span {
    reg: Registry,
    path: String,
    start: Instant,
    done: bool,
}

impl Span {
    /// Open a child span `self.path + "/" + name` on the same registry.
    pub fn child(&self, name: &str) -> Span {
        Span {
            reg: self.reg.clone(),
            path: format!("{}/{name}", self.path),
            start: Instant::now(),
            done: false,
        }
    }

    /// This span's full path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Close the span, record it (span statistic plus a complete trace
    /// event), and return the elapsed seconds.
    pub fn stop(mut self) -> f64 {
        self.done = true;
        self.reg.finish_span(&self.path, self.start)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.reg.finish_span(&self.path, self.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_serialize_sorted() {
        let reg = Registry::new();
        reg.add("b.count", &[], 2);
        reg.inc("a.count", &[("city", "City-A")]);
        reg.inc("a.count", &[("city", "City-A")]);
        let snap = reg.snapshot();
        assert_eq!(snap.deterministic.counters["a.count{city=City-A}"], 2);
        assert_eq!(snap.deterministic.counters["b.count"], 2);
        let json = snap.deterministic_json();
        let a = json.find("a.count").unwrap();
        let b = json.find("b.count").unwrap();
        assert!(a < b, "keys must serialize in sorted order");
    }

    #[test]
    fn metric_key_sorts_labels() {
        assert_eq!(
            metric_key("m", &[("z", "1"), ("a", "2")]),
            metric_key("m", &[("a", "2"), ("z", "1")])
        );
        assert_eq!(metric_key("m", &[]), "m");
    }

    #[test]
    fn metric_key_escapes_label_syntax_characters() {
        // Regression: unescaped interpolation let two distinct label sets
        // render the same key. The smuggled separators must stay inert.
        let smuggled = metric_key("m", &[("a", "1,b=2")]);
        let distinct = metric_key("m", &[("a", "1"), ("b", "2")]);
        assert_ne!(smuggled, distinct, "label sets collided: {smuggled}");
        assert_eq!(smuggled, r"m{a=1\,b\=2}");
        assert_eq!(metric_key("m", &[("k", "a{b}c\\d")]), r"m{k=a\{b\}c\\d}");
        // Escaping is injective: a value that *looks* pre-escaped stays
        // distinct from the raw one.
        assert_ne!(metric_key("m", &[("k", r"x\,y")]), metric_key("m", &[("k", "x,y")]));
        // And two keys recorded through a registry stay separate.
        let reg = Registry::new();
        reg.inc("c", &[("a", "1,b=2")]);
        reg.inc("c", &[("a", "1"), ("b", "2")]);
        assert_eq!(reg.snapshot().deterministic.counters.len(), 2);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = Histogram::new(&[10.0, 20.0, 40.0]);
        for v in [2.0, 12.0, 14.0, 16.0, 18.0, 25.0, 30.0, 35.0, 38.0, 39.0] {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((10.0..=20.0).contains(&p50), "p50 {p50} outside its bucket");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= h.max && p99 >= h.quantile(0.9).unwrap());
        assert_eq!(h.quantile(0.0).unwrap(), h.min);
        assert_eq!(h.quantile(1.0).unwrap(), h.max);
        // Out-of-range p clamps, NaN p and empty histograms decline.
        assert_eq!(h.quantile(7.0).unwrap(), h.max);
        assert!(h.quantile(f64::NAN).is_none());
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_none());
        // A constant input is recovered exactly at every p.
        let mut constant = Histogram::new(&[10.0, 20.0]);
        for _ in 0..5 {
            constant.observe(15.0);
        }
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(constant.quantile(p), Some(15.0));
        }
    }

    #[test]
    fn quantiles_ignore_nan_and_survive_infinities() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        assert!(h.quantile(0.5).is_none(), "NaN-only histogram has no quantiles");
        h.observe(0.5);
        h.observe(f64::INFINITY);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50.is_finite() && (h.min..=h.max).contains(&p50));
    }

    #[test]
    fn spans_emit_complete_trace_events_and_lifecycle_events_are_instants() {
        let reg = Registry::new();
        {
            let root = reg.span("fit");
            let child = root.child("city_a");
            drop(child);
        }
        reg.event("quarantine", "lifecycle", &[("reason", "duplicate-id")]);
        let trace = reg.trace();
        assert_eq!(trace.events.len(), 3);
        // Children close before parents; instants follow in record order.
        assert_eq!(trace.events[0].name, "fit/city_a");
        assert_eq!(trace.events[0].cat, "fit");
        assert_eq!(trace.events[0].phase, Phase::Complete);
        assert_eq!(trace.events[1].name, "fit");
        assert_eq!(trace.events[2].phase, Phase::Instant);
        assert_eq!(trace.events[2].args, vec![("reason".to_string(), "duplicate-id".to_string())]);
        assert!(trace.events.iter().all(|e| e.lane == 0), "own events sit on lane 0");
        // Disabled registries record no trace.
        let off = Registry::disabled();
        off.event("x", "lifecycle", &[]);
        drop(off.span("s"));
        assert!(off.trace().events.is_empty());
    }

    #[test]
    fn merge_shifts_sub_traces_onto_fresh_lanes_in_merge_order() {
        let root = Registry::new();
        drop(root.span("stage"));
        let sub_a = root.sub();
        sub_a.event("a", "lifecycle", &[]);
        let sub_b = root.sub();
        sub_b.event("b", "lifecycle", &[]);
        root.merge(&sub_a);
        root.merge(&sub_b);
        let lanes: Vec<(String, u32)> =
            root.trace().events.iter().map(|e| (e.name.clone(), e.lane)).collect();
        assert_eq!(
            lanes,
            vec![("stage".to_string(), 0), ("a".to_string(), 1), ("b".to_string(), 2)],
            "merge order must assign deterministic lane blocks"
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        reg.inc("x", &[]);
        reg.set_gauge("g", &[], 1.0);
        reg.observe("h", &[], 1.0, &[1.0, 2.0]);
        reg.extend_series("s", &[], &[1.0]);
        let s = reg.span("root");
        let secs = s.stop();
        assert!(secs >= 0.0, "stop still measures on a disabled registry");
        let snap = reg.snapshot();
        assert_eq!(snap.deterministic, DeterministicMetrics::default());
        assert!(snap.wall_clock.spans.is_empty());
        // A sub of a disabled registry is disabled too.
        assert!(!reg.sub().is_enabled());
        assert!(Registry::new().sub().is_enabled());
    }

    #[test]
    fn gauge_merge_is_max_and_ignores_nan() {
        let reg = Registry::new();
        reg.set_gauge("g", &[], 2.0);
        reg.set_gauge("g", &[], 1.0);
        reg.set_gauge("g", &[], f64::NAN);
        assert_eq!(reg.snapshot().deterministic.gauges["g"], 2.0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 10.0, 11.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 2]);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.count, 5);
        assert_eq!((h.min, h.max), (0.5, 11.0));
    }

    #[test]
    fn histogram_handles_pathological_values() {
        let mut h = Histogram::new(&[0.0, 5.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(-3.0);
        assert_eq!(h.nan, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.counts[0], 2, "-inf and -3.0 land in the lowest bucket");
        assert_eq!(h.count, 4);
        assert_eq!(h.finite, 1);
        assert_eq!((h.min, h.max), (-3.0, -3.0));
    }

    #[test]
    fn histogram_sanitizes_bounds() {
        let h = Histogram::new(&[5.0, f64::NAN, 1.0, 5.0, f64::INFINITY]);
        assert_eq!(h.bounds, vec![1.0, 5.0]);
    }

    #[test]
    fn spans_nest_by_path_and_accumulate() {
        let reg = Registry::new();
        {
            let root = reg.span("fit");
            let child = root.child("city_a");
            drop(child);
            let again = root.child("city_a");
            drop(again);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.wall_clock.spans["fit"].count, 1);
        assert_eq!(snap.wall_clock.spans["fit/city_a"].count, 2);
        assert!(snap.wall_clock.spans["fit"].total_s >= 0.0);
    }

    #[test]
    fn merge_folds_every_class() {
        let a = Registry::new();
        let b = Registry::new();
        a.inc("c", &[]);
        b.add("c", &[], 3);
        a.set_gauge("g", &[], 1.0);
        b.set_gauge("g", &[], 5.0);
        a.observe("h", &[], 1.0, &[2.0]);
        b.observe("h", &[], 3.0, &[2.0]);
        a.extend_series("s", &[], &[1.0]);
        b.extend_series("s", &[], &[2.0]);
        b.record_span("sp", 0.5);
        a.record_span("sp", 0.25);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.deterministic.counters["c"], 4);
        assert_eq!(snap.deterministic.gauges["g"], 5.0);
        assert_eq!(snap.deterministic.histograms["h"].count, 2);
        assert_eq!(snap.deterministic.histograms["h"].overflow, 1);
        assert_eq!(snap.deterministic.series["s"], vec![1.0, 2.0]);
        assert_eq!(snap.wall_clock.spans["sp"].count, 2);
        assert!((snap.wall_clock.spans["sp"].total_s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wall_values_stay_out_of_the_deterministic_class_and_merge() {
        let a = Registry::new();
        let b = Registry::new();
        a.observe_wall("load.score_streaming", &[], 80.0, &[25.0, 50.0, 75.0, 100.0]);
        b.observe_wall("load.score_streaming", &[], 30.0, &[25.0, 50.0, 75.0, 100.0]);
        a.merge(&b);
        let snap = a.snapshot();
        assert!(snap.deterministic.histograms.is_empty(), "wall values leaked");
        let h = &snap.wall_clock.values["load.score_streaming"];
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (30.0, 80.0));
        // The deterministic comparison surface is untouched by wall
        // observations, and disabled registries record nothing.
        assert_eq!(snap.deterministic, DeterministicMetrics::default());
        let off = Registry::disabled();
        off.observe_wall("v", &[], 1.0, &[2.0]);
        assert!(off.snapshot().wall_clock.values.is_empty());
    }

    #[test]
    fn self_merge_is_a_no_op() {
        let a = Registry::new();
        a.inc("c", &[]);
        let same = a.clone();
        a.merge(&same); // must not deadlock or double-count
        assert_eq!(a.snapshot().deterministic.counters["c"], 1);
    }

    #[test]
    fn snapshot_json_has_the_stable_schema() {
        let reg = Registry::new();
        reg.inc("c", &[]);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"schema\": \"st-obs/v1\""));
        assert!(json.contains("\"deterministic\""));
        assert!(json.contains("\"wall_clock\""));
    }

    /// The cached JSON is exactly the current snapshot's compact JSON.
    fn assert_json_exact(reg: &Registry) -> Arc<str> {
        let json = reg.snapshot_json_shared();
        assert_eq!(&*json, serde_json::to_string(&*reg.snapshot_shared()).unwrap());
        json
    }

    #[test]
    fn snapshot_shared_reuses_the_arc_until_a_metric_changes() {
        let reg = Registry::new();
        reg.inc("c", &[]);
        let a = reg.snapshot_shared();
        let b = reg.snapshot_shared();
        assert!(Arc::ptr_eq(&a, &b), "idle registry must hand out the cached snapshot");
        assert_eq!(a.deterministic.counters["c"], 1);
        let json = assert_json_exact(&reg);
        assert!(Arc::ptr_eq(&json, &assert_json_exact(&reg)), "idle registry reuses the JSON");

        // Every mutation class invalidates both caches: counter, gauge,
        // histogram, wall value, series, span stat, and merge.
        reg.inc("c", &[]);
        let c = reg.snapshot_shared();
        assert!(!Arc::ptr_eq(&b, &c), "a counter write must invalidate the cache");
        assert_eq!(c.deterministic.counters["c"], 2);
        let after = assert_json_exact(&reg);
        assert!(*json != *after, "a counter write must change the JSON");

        for (i, mutate) in [
            (&|r: &Registry| r.set_gauge("g", &[], 4.0)) as &dyn Fn(&Registry),
            &|r: &Registry| r.observe("h", &[], 1.0, &[2.0]),
            &|r: &Registry| r.observe_wall("w", &[], 1.0, &[2.0]),
            &|r: &Registry| r.extend_series("s", &[], &[1.0]),
            &|r: &Registry| r.record_span("sp", 0.5),
            &|r: &Registry| {
                let sub = r.sub();
                sub.inc("m", &[]);
                r.merge(&sub);
            },
        ]
        .iter()
        .enumerate()
        {
            let before = reg.snapshot_shared();
            let json_before = assert_json_exact(&reg);
            mutate(&reg);
            let after = reg.snapshot_shared();
            assert!(!Arc::ptr_eq(&before, &after), "mutation #{i} must invalidate the cache");
            let json_after = assert_json_exact(&reg);
            assert!(*json_before != *json_after, "mutation #{i} must change the JSON");
            assert!(Arc::ptr_eq(&json_after, &assert_json_exact(&reg)));
        }
        assert_eq!(reg.snapshot_shared().deterministic.counters["m"], 1);

        // Trace events never appear in a snapshot, so they must not
        // force a rebuild.
        let before = reg.snapshot_shared();
        let json_before = reg.snapshot_json_shared();
        reg.event("e", "lifecycle", &[]);
        assert!(Arc::ptr_eq(&before, &reg.snapshot_shared()));
        assert!(Arc::ptr_eq(&json_before, &assert_json_exact(&reg)));

        // Disabled registries hand out empty snapshots.
        let off = Registry::disabled();
        assert!(off.snapshot_shared().deterministic.counters.is_empty());
        assert_json_exact(&off);
    }

    #[test]
    fn counter_reads_one_key_without_writing() {
        let reg = Registry::new();
        reg.add("serve.epochs", &[], 3);
        reg.add("rows", &[("outcome", "clean")], 7);
        let v = reg.version();
        assert_eq!(reg.counter("serve.epochs", &[]), 3);
        assert_eq!(reg.counter("rows", &[("outcome", "clean")]), 7);
        assert_eq!(reg.counter("rows", &[]), 0, "an unwritten key reads 0");
        assert_eq!(reg.version(), v, "reading a counter is not a mutation");
        assert_eq!(Registry::disabled().counter("serve.epochs", &[]), 0);
    }

    #[test]
    fn delta_inverts_merge_on_counters_and_round_trips() {
        let a = Registry::new();
        a.add("c", &[], 5);
        a.add("only_a", &[], 2);
        a.observe("h", &[], 1.0, &[2.0, 4.0]);
        a.extend_series("s", &[], &[1.0, 2.0]);
        a.set_gauge("g", &[], 1.0);
        let b = Registry::new();
        b.add("c", &[], 3);
        b.add("only_b", &[], 7);
        b.observe("h", &[], 3.0, &[2.0, 4.0]);
        b.extend_series("s", &[], &[9.0]);
        b.set_gauge("g", &[], 4.0);
        let merged = Registry::new();
        merged.merge(&a);
        merged.merge(&b);
        let d = merged.snapshot().delta(&a.snapshot());
        // Counters recover exactly what b contributed.
        assert_eq!(d.deterministic.counters, b.snapshot().deterministic.counters);
        // Histogram counting fields recover b's observation.
        let dh = &d.deterministic.histograms["h"];
        assert_eq!((dh.count, dh.counts.clone()), (1, vec![0, 1]));
        // The series delta is the appended suffix.
        assert_eq!(d.deterministic.series["s"], vec![9.0]);
        // Raised gauges carry the new value; merge back reproduces the
        // merged deterministic section byte for byte.
        assert_eq!(d.deterministic.gauges["g"], 4.0);
        let mut rt = a.snapshot().deterministic.clone();
        rt.merge(&d.deterministic);
        assert_eq!(rt, merged.snapshot().deterministic);
        assert_eq!(
            serde_json::to_string(&rt).unwrap(),
            serde_json::to_string(&merged.snapshot().deterministic).unwrap(),
            "round-trip must survive serialization byte for byte"
        );
    }

    #[test]
    fn delta_never_goes_negative_and_idle_deltas_are_empty() {
        let a = Registry::new();
        a.add("c", &[], 5);
        a.observe("h", &[], 1.0, &[2.0]);
        let snap = a.snapshot();
        // Self-delta: nothing moved.
        let d = snap.delta(&snap);
        assert_eq!(d.deterministic, DeterministicMetrics::default());
        // Even against a *newer* "older" side (not a merge pair),
        // saturation keeps every count at zero instead of wrapping.
        let fresh = Registry::new();
        fresh.add("c", &[], 2);
        let d = fresh.snapshot().delta(&snap);
        assert!(d.deterministic.counters.is_empty(), "5 -> 2 must saturate, not wrap");
    }

    #[test]
    fn registry_version_moves_with_mutations_only() {
        let reg = Registry::new();
        let v0 = reg.version();
        reg.inc("c", &[]);
        let v1 = reg.version();
        assert!(v1 > v0, "a counter write must advance the version");
        reg.event("e", "lifecycle", &[]);
        assert_eq!(reg.version(), v1, "trace events never invalidate snapshots");
        assert_eq!(Registry::disabled().version(), 0);
    }

    #[test]
    fn snapshot_delegates_to_the_shared_cache() {
        let reg = Registry::new();
        reg.inc("c", &[]);
        reg.observe_wall("w", &[], 1.0, &[2.0]);
        assert_eq!(reg.snapshot(), (*reg.snapshot_shared()).clone());
    }
}
