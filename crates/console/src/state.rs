//! The console's state: a plain data snapshot of everything the
//! renderer draws, split along the two-class metric taxonomy
//! (DESIGN.md §13). Fields that derive from deterministic counters or
//! ledger rows feed the `D` pane (byte-identical at every parallelism
//! level); fields that derive from the environment — addresses,
//! uptimes, the parallelism knob itself — feed the `W` pane and are
//! excluded from every determinism contract.
//!
//! The state does no I/O and no formatting: feeds produce
//! [`crate::Event`]s, the [`crate::Controller`] folds them in here, and
//! the [`crate::Renderer`] reads the result. That strict split is what
//! makes the whole UI testable headless.

/// Identity of the run being observed, as recorded in its ledger row.
/// Every field is deterministic for a given (code, scale, seed) tuple
/// except `parallelism`, which is informational (the determinism
/// contract says nothing downstream may depend on it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunIdentity {
    /// Ledger row schema tag and the command that wrote the row
    /// (`st-run/v2 serve`).
    pub schema: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism` (wall-clock pane only).
    pub parallelism: u64,
    /// FNV-1a artifact-set hash, 16 hex digits.
    pub artifact_hash: String,
    /// Files under the artifact hash.
    pub artifact_files: u64,
}

/// One observed epoch crossing (one row of the `watch` feed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochPoint {
    /// Epoch index at the crossing.
    pub epoch: u64,
    /// Whether this is the post-drain final epoch.
    pub final_epoch: bool,
    /// Accepted rows at the crossing.
    pub accepted_rows: u64,
    /// Sealed segments at the crossing.
    pub segments_sealed: u64,
    /// `serve.rows{outcome=clean}` increment since the previous row.
    pub clean_delta: u64,
    /// `serve.rows{outcome=repaired}` increment since the previous row.
    pub repaired_delta: u64,
    /// `serve.rows{outcome=quarantined}` increment since the previous
    /// row.
    pub quarantined_delta: u64,
}

/// Everything the renderer draws. `Default` is the blank console: no
/// feeds attached, nothing observed yet.
#[derive(Debug, Clone, Default)]
pub struct ConsoleState {
    // ---- deterministic pane inputs ----
    /// The run identity from the newest ledger row seen.
    pub run: Option<RunIdentity>,
    /// Batch-comparable ledger rows seen so far.
    pub ledger_rows: u64,
    /// Current epoch index.
    pub epoch: u64,
    /// Whether the final epoch has been published.
    pub final_epoch: bool,
    /// Whether the live feed has ended (final row seen).
    pub feed_done: bool,
    /// Accepted rows in the current epoch snapshot.
    pub accepted_rows: u64,
    /// Rows offered to the sanitizer.
    pub rows_in: u64,
    /// Rows quarantined.
    pub quarantined: u64,
    /// Chunks ingested.
    pub chunks: u64,
    /// Segments sealed.
    pub segments_sealed: u64,
    /// Epochs published (`serve.epochs` counter).
    pub epochs_published: u64,
    /// Per-city accepted rows, in server order.
    pub cities: Vec<(String, u64)>,
    /// Sanitizer outcome totals from the deterministic counters:
    /// `(clean, repaired, quarantined)`. Two monotone sources agree on
    /// this — `metrics` polls carry totals, watch rows carry deltas
    /// that sum to the same totals — so both fold in via `max`, never
    /// by adding one source on top of the other.
    pub outcomes: (u64, u64, u64),
    /// Running sums of the watch-row deltas (the watch feed's own
    /// reconstruction of the outcome totals).
    pub watch_totals: (u64, u64, u64),
    /// Epoch timeline, oldest first, strictly increasing epoch index.
    pub timeline: Vec<EpochPoint>,
    /// Drift flags vs the baseline, empty when clean. `None` means no
    /// baseline was given (the drift panel reads "no baseline").
    pub drift: Option<Vec<String>>,

    // ---- wall-clock pane inputs ----
    /// Server address the live feed is attached to.
    pub connected: Option<String>,
    /// Ledger file being tailed.
    pub ledger_path: Option<String>,
    /// Server uptime as of the last status poll, seconds.
    pub uptime_s: f64,
    /// Frames rendered so far (advanced by `Event::Tick`).
    pub ticks: u64,
    /// Environmental notes: feed errors, reconnects. Never drift.
    pub notes: Vec<String>,
}

impl ConsoleState {
    /// Record one watch row, keeping the timeline strictly monotone:
    /// replays or reconnect overlaps are dropped, never duplicated.
    pub fn push_point(&mut self, p: EpochPoint) {
        // A row is stale unless it advances the epoch, or finalizes
        // the epoch we are already on.
        if self.timeline.last().is_some_and(|last| {
            p.epoch < last.epoch || (p.epoch == last.epoch && (last.final_epoch || !p.final_epoch))
        }) {
            return;
        }
        self.epoch = p.epoch;
        self.final_epoch = p.final_epoch;
        self.accepted_rows = p.accepted_rows;
        self.segments_sealed = p.segments_sealed;
        self.watch_totals.0 += p.clean_delta;
        self.watch_totals.1 += p.repaired_delta;
        self.watch_totals.2 += p.quarantined_delta;
        self.outcomes.0 = self.outcomes.0.max(self.watch_totals.0);
        self.outcomes.1 = self.outcomes.1.max(self.watch_totals.1);
        self.outcomes.2 = self.outcomes.2.max(self.watch_totals.2);
        if p.final_epoch {
            self.feed_done = true;
        }
        self.timeline.push(p);
    }

    /// The per-epoch accepted-row increments, the sparkline's input —
    /// a pure function of the deterministic watch counters.
    pub fn throughput_buckets(&self) -> Vec<u64> {
        self.timeline.iter().map(|p| p.clean_delta + p.repaired_delta).collect()
    }

    /// The coarse stage this run is in, derived from observed state
    /// only: attaching, ingesting, or final.
    pub fn stage(&self) -> &'static str {
        if self.final_epoch {
            "final"
        } else if self.accepted_rows > 0 || self.epoch > 0 {
            "ingesting"
        } else if self.connected.is_some() || self.ledger_rows > 0 {
            "attached"
        } else {
            "waiting"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(epoch: u64, accepted: u64) -> EpochPoint {
        EpochPoint { epoch, accepted_rows: accepted, clean_delta: accepted, ..Default::default() }
    }

    #[test]
    fn timeline_stays_monotone_under_replays() {
        let mut s = ConsoleState::default();
        s.push_point(p(0, 0));
        s.push_point(p(1, 64));
        s.push_point(p(1, 64)); // reconnect overlap: dropped
        s.push_point(p(0, 0)); // stale replay: dropped
        s.push_point(p(2, 128));
        let epochs: Vec<u64> = s.timeline.iter().map(|x| x.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert_eq!(s.epoch, 2);
        // A final row at the same index supersedes the warm one.
        let mut fin = p(2, 130);
        fin.final_epoch = true;
        s.push_point(fin);
        assert!(s.final_epoch && s.feed_done);
        assert_eq!(s.timeline.len(), 4);
    }

    #[test]
    fn stage_tracks_observed_progress() {
        let mut s = ConsoleState::default();
        assert_eq!(s.stage(), "waiting");
        s.connected = Some("127.0.0.1:1".into());
        assert_eq!(s.stage(), "attached");
        s.push_point(p(1, 64));
        assert_eq!(s.stage(), "ingesting");
        let mut fin = p(2, 128);
        fin.final_epoch = true;
        s.push_point(fin);
        assert_eq!(s.stage(), "final");
    }
}
