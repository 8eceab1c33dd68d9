//! Layer timers kept by the benchmark itself: each wraps one call into a
//! layer's public function, so the program under test is unchanged. A
//! tracer that is off runs the call and records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// What one layer did over a run: summed busy time (over every thread
/// that called it) and the work it was handed.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Summed call durations, seconds.
    pub busy_s: f64,
    /// Summed work units (rows, records, ...) the calls were handed.
    pub work: u64,
}

/// Per-layer busy time and work, keyed by layer name.
pub struct Tracer {
    layers: Option<Mutex<BTreeMap<&'static str, LayerStat>>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the calls.
    pub fn new(on: bool) -> Self {
        Tracer { layers: on.then(|| Mutex::new(BTreeMap::new())) }
    }

    /// Whether calls are being timed.
    pub fn is_on(&self) -> bool {
        self.layers.is_some()
    }

    /// Run `f`, charging its duration and `work` units to `layer`.
    pub fn time<T>(&self, layer: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(layer, t0.elapsed().as_secs_f64(), work);
        out
    }

    /// Charge one measured call to `layer`.
    pub fn record(&self, layer: &'static str, secs: f64, work: u64) {
        let Some(layers) = &self.layers else { return };
        let mut layers = layers.lock().expect("a traced call panicked while recording");
        let stat = layers.entry(layer).or_default();
        stat.busy_s += secs;
        stat.work += work;
    }

    /// Everything `layer` recorded (empty when it never ran).
    pub fn get(&self, layer: &str) -> LayerStat {
        let Some(layers) = &self.layers else { return LayerStat::default() };
        let layers = layers.lock().expect("a traced call panicked while recording");
        layers.get(layer).copied().unwrap_or_default()
    }
}
