//! The one journaled runner: [`DurableRun`] wraps any [`Recoverable`]
//! state so every record is journaled ahead of application and the full
//! replay state is snapshotted at a configurable cadence.
//!
//! Recovery loads the latest intact snapshot, then folds the journaled
//! suffix back in record by record. A self-driving simulation
//! ([`Stepwise`]) verifies that each record is exactly the event it is
//! due to apply, which catches a journal paired with the wrong run
//! before any state drifts; the live service decodes each record as a
//! command and applies it.

use crate::journal::{self, Journal, RecoverError};
use mbts_market::{EconomyRun, EconomySnapshot};
use mbts_sim::metrics::{self, Series};
use mbts_site::{SiteRun, SiteRunSnapshot};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// State whose complete replay state can be captured at any record
/// boundary and rebuilt from a snapshot plus the records after it.
///
/// The contract [`DurableRun`] relies on: `restore(snapshot())` followed
/// by the same records is bit-identical to the original.
pub trait Recoverable: Sized {
    /// Serialized form of the complete replay state.
    type Snapshot: Serialize + Deserialize;

    /// Registry series the runner times journal appends into (`None`:
    /// untimed).
    const APPEND_SERIES: Option<Series> = None;
    /// Registry series the runner times applies into.
    const APPLY_SERIES: Option<Series> = None;
    /// Registry series the runner times snapshot capture, encode and
    /// append into.
    const SNAPSHOT_SERIES: Option<Series> = Some(Series::SnapshotWrite);

    /// Captures the state at the current record boundary.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rebuilds the state from a captured snapshot; `Err` says why the
    /// snapshot is not one this kind can restore.
    fn restore(snapshot: Self::Snapshot) -> Result<Self, String>;

    /// Folds one journaled record back in during recovery; `Err` says
    /// why the record cannot follow the current state.
    fn replay(&mut self, record: &[u8]) -> Result<(), String>;
}

/// A simulation that produces its own events: the journal records the
/// event it was due to apply, serialized as `(time, event)` JSON.
/// [`next_event_json`](Stepwise::next_event_json) must be deterministic
/// (same state ⇒ same bytes).
pub trait Stepwise: Recoverable {
    /// The next event due — `None` once the run is quiescent.
    fn next_event_json(&self) -> Option<String>;

    /// Applies the next event; `false` once the run is quiescent.
    fn step(&mut self) -> bool;
}

/// [`Recoverable::replay`] for a [`Stepwise`] run: the record must be
/// exactly the event the restored state is due to apply.
fn replay_due<R: Stepwise>(run: &mut R, record: &[u8]) -> Result<(), String> {
    let due = run
        .next_event_json()
        .ok_or("journal holds events past quiescence")?;
    if due.as_bytes() != record {
        return Err(format!(
            "journal says {:?}, replay is due {:?}",
            String::from_utf8_lossy(record),
            due
        ));
    }
    run.step();
    Ok(())
}

/// Implements [`Recoverable`] and [`Stepwise`] for a simulation run with
/// inherent `snapshot` / `from_snapshot` / `next_event` / `step`.
macro_rules! stepwise_sim {
    ($run:ty, $snapshot:ty) => {
        impl Recoverable for $run {
            type Snapshot = $snapshot;

            fn snapshot(&self) -> $snapshot {
                <$run>::snapshot(self)
            }

            fn restore(snapshot: $snapshot) -> Result<Self, String> {
                Ok(<$run>::from_snapshot(snapshot))
            }

            fn replay(&mut self, record: &[u8]) -> Result<(), String> {
                replay_due(self, record)
            }
        }

        impl Stepwise for $run {
            fn next_event_json(&self) -> Option<String> {
                self.next_event()
                    .map(|(at, e)| serde_json::to_string(&(at, *e)).expect("sim events serialize"))
            }

            fn step(&mut self) -> bool {
                <$run>::step(self)
            }
        }
    };
}

stepwise_sim!(SiteRun, SiteRunSnapshot);
stepwise_sim!(EconomyRun, EconomySnapshot);

/// What a recovery did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed from the journal suffix.
    pub replayed_events: u64,
    /// Event records superseded by the snapshot recovery started from.
    pub events_superseded: usize,
    /// Torn/corrupt trailing bytes discarded by the scan (and, for
    /// [`DurableRun::resume_file`], truncated off the file).
    pub dropped_bytes: usize,
}

fn timed<T>(series: Option<Series>, f: impl FnOnce() -> T) -> T {
    match series {
        Some(series) => metrics::time(series, f),
        None => f(),
    }
}

/// A [`Recoverable`] state coupled to a write-ahead [`Journal`].
///
/// Construction writes a genesis snapshot; every record goes through
/// [`commit`](Self::commit), which journals it before applying it; every
/// `snapshot_every` records a fresh snapshot bounds how much suffix
/// recovery must replay. Killing the process at *any* byte boundary
/// leaves a journal [`recover`](Self::recover) restores bit-identically.
pub struct DurableRun<R: Recoverable> {
    run: R,
    journal: Journal,
    snapshot_every: u64,
    since_snapshot: u64,
}

impl<R: Recoverable> DurableRun<R> {
    /// Wraps `run`, writing its genesis snapshot into `journal`.
    /// `snapshot_every` = 0 means genesis-only (journal grows as pure
    /// record log).
    pub fn new(run: R, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        let mut durable = DurableRun {
            run,
            journal,
            snapshot_every,
            since_snapshot: 0,
        };
        durable.snapshot_now()?;
        Ok(durable)
    }

    /// Serializes the current state into a snapshot record immediately
    /// and restarts the cadence.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        let (run, journal) = (&self.run, &mut self.journal);
        timed(R::SNAPSHOT_SERIES, || {
            let json = serde_json::to_vec(&run.snapshot())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            journal.append_snapshot(&json)
        })?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Journal-first application, the only way state moves: appends
    /// `record`, then applies it with `apply`, then snapshots if the
    /// cadence says so. `apply` must do exactly what
    /// [`Recoverable::replay`] does with `record`. An error from the
    /// append leaves the state untouched; one from the snapshot comes
    /// after the record was applied.
    pub fn commit<T>(&mut self, record: &[u8], apply: impl FnOnce(&mut R) -> T) -> io::Result<T> {
        timed(R::APPEND_SERIES, || self.journal.append_event(record))?;
        let out = timed(R::APPLY_SERIES, || apply(&mut self.run));
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(out)
    }

    /// Forces buffered journal bytes to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// The wrapped run.
    pub fn run(&self) -> &R {
        &self.run
    }

    /// The journal written so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Journal length in bytes — each value observed between records is
    /// a kill point a harness can truncate to.
    pub fn offset(&self) -> usize {
        self.journal.len()
    }

    /// Unwraps into the run and its journal.
    pub fn into_parts(self) -> (R, Journal) {
        (self.run, self.journal)
    }

    /// Recovers a run from journal bytes: the latest intact snapshot
    /// plus every suffix record folded back in through
    /// [`Recoverable::replay`]. Any torn or corrupt tail is discarded,
    /// never panicked on; the report says how much.
    pub fn recover(bytes: &[u8]) -> Result<(R, RecoveryReport), RecoverError> {
        let recovered = journal::recover_bytes(bytes)?;
        let snap: R::Snapshot = serde_json::from_slice(recovered.snapshot)
            .map_err(|e| RecoverError::BadSnapshot(e.to_string()))?;
        let mut run = R::restore(snap).map_err(RecoverError::BadSnapshot)?;
        for (index, record) in recovered.events.iter().enumerate() {
            run.replay(record)
                .map_err(|detail| RecoverError::Divergence { index, detail })?;
        }
        Ok((
            run,
            RecoveryReport {
                replayed_events: recovered.events.len() as u64,
                events_superseded: recovered.events_superseded,
                dropped_bytes: recovered.dropped_bytes,
            },
        ))
    }

    /// Resumes (or starts) a run on a journal file: truncates any torn
    /// tail, recovers the surviving prefix, and keeps appending to the
    /// same file. A missing or empty file — or one whose every record
    /// was torn — starts `fresh()` with a genesis snapshot.
    pub fn resume_file(
        path: impl AsRef<Path>,
        fresh: impl FnOnce() -> R,
        snapshot_every: u64,
        fsync_every_n: u64,
    ) -> io::Result<(Self, RecoveryReport)> {
        let path = path.as_ref();
        let (journal, truncated) = if path.exists() && std::fs::metadata(path)?.len() > 0 {
            Journal::reopen(path)?
        } else {
            (Journal::create(path)?, 0)
        };
        let journal = journal.with_fsync_every_n(fsync_every_n);
        if journal.is_empty() {
            let report = RecoveryReport {
                dropped_bytes: truncated,
                ..RecoveryReport::default()
            };
            return Ok((DurableRun::new(fresh(), journal, snapshot_every)?, report));
        }
        let (run, mut report) = Self::recover(journal.bytes())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        report.dropped_bytes += truncated;
        let durable = DurableRun {
            run,
            journal,
            snapshot_every,
            since_snapshot: report.replayed_events,
        };
        Ok((durable, report))
    }
}

impl<R: Stepwise> DurableRun<R> {
    /// Commits the next due event; `Ok(false)` once the run is
    /// quiescent.
    pub fn step(&mut self) -> io::Result<bool> {
        let Some(event_json) = self.run.next_event_json() else {
            return Ok(false);
        };
        let stepped = self.commit(event_json.as_bytes(), R::step)?;
        debug_assert!(stepped, "a due event must be steppable");
        Ok(true)
    }

    /// Steps until quiescent.
    pub fn run_to_completion(&mut self) -> io::Result<()> {
        while self.step()? {}
        Ok(())
    }
}
