//! The host's speed, measured between the benchmark's phases so that
//! every timed metric can be put on the reference host's clock.
//!
//! The benchmark runs on a few cores of a shared machine whose speed for
//! the same code drifts by a third or more within a minute, with the
//! neighbours' load (README.md, "Host speed"). A run cannot tell that
//! drift from a change to the program, so between every two measured
//! samples it times a fixed probe: pseudo-random read-modify-writes over
//! a table four times a core's L2 cache, on every core at once. The
//! probe is the benchmark's own code, so no change to the program moves
//! it, and it slows with the shared cache the way the campaign generator
//! does. A sample is then scaled by `REFERENCE_S` over the median of
//! the probes on either side of it and the run's median probe: what it
//! would have taken while the probe ran at its reference speed.
//!
//! The probe runs in a child process, the benchmark binary started with
//! [`PROBE_FLAG`]: its tables then never pass through the benchmark's
//! allocator nor count in the benchmark's peak resident memory, which
//! `peak_rss_mb` reads.

use crate::stats::{median, reference_factor};
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

/// The probe's median on the reference host (the 2-core VM the README's
/// figures come from), seconds.
pub const REFERENCE_S: f64 = 0.012;
/// The flag that makes the benchmark binary run one probe on the given
/// number of threads and print its seconds.
pub const PROBE_FLAG: &str = "--host-probe";
/// Table words per probe thread: 16 MB, four times a core's L2.
const TABLE_WORDS: usize = 1 << 21;
/// Read-modify-writes per timed pass.
const STEPS: usize = 3_000_000;
/// Timed passes per probe thread; the probe is the median of all of them.
const PASSES: usize = 5;

/// One timed pass: `STEPS` read-modify-writes at pseudo-random places in
/// `table`, seconds.
fn pass(table: &mut [u64], seed: u64) -> f64 {
    let mask = table.len() - 1;
    let (mut j, mut sum) = (seed, 0u64);
    let t0 = Instant::now();
    for _ in 0..STEPS {
        j = j.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = (j >> 24) as usize & mask;
        sum = sum.wrapping_add(table[k]);
        table[k] = sum;
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64()
}

/// Time the probe in this process: `PASSES` passes on each of `threads`
/// threads, each pass started on every thread together. Returns the
/// median pass, seconds.
pub fn probe(threads: usize) -> f64 {
    let start = Barrier::new(threads);
    let times: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let mut table = vec![t + 1; TABLE_WORDS];
                    (0..PASSES as u64)
                        .map(|p| {
                            start.wait();
                            pass(&mut table, t * 1000 + p)
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("probe thread panicked")).collect()
    });
    median(&times)
}

/// Time the probe in a child process, which this waits for.
fn probe_in_child(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("host probe: no executable: {e}"))?;
    let out = Command::new(exe)
        .args([PROBE_FLAG, &threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("host probe: cannot run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() && s > 0.0 => Ok(s),
        _ => Err(format!("host probe failed ({}): {:?}", out.status, text.trim())),
    }
}

/// The probes of one run, each taken between two measured samples.
pub struct HostClock {
    threads: usize,
    probes: Vec<f64>,
}

impl HostClock {
    /// Take the run's first probe on `threads` threads.
    pub fn start(threads: usize) -> Result<Self, String> {
        let threads = threads.max(1);
        Ok(HostClock { threads, probes: vec![probe_in_child(threads)?] })
    }

    /// Probe again, right after a sample, and return the probe's index:
    /// the sample's mark for [`HostClock::factor`].
    pub fn mark(&mut self) -> Result<usize, String> {
        self.probes.push(probe_in_child(self.threads)?);
        Ok(self.probes.len() - 1)
    }

    /// The factor that puts a sample marked `mark` on the reference
    /// clock: multiply its seconds by it, divide its rates by it. It
    /// reads the probes on either side of the sample and the run's
    /// median probe, so one probe that met a passing stall cannot skew
    /// the samples beside it.
    pub fn factor(&self, mark: usize) -> f64 {
        assert!(mark >= 1 && mark < self.probes.len(), "a mark follows the first probe");
        let typical = median(&self.probes);
        reference_factor(REFERENCE_S, self.probes[mark - 1], self.probes[mark], typical)
    }

    /// Every probe taken so far, seconds.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}
