//! Journal-first command application: the durability contract of the live
//! service.
//!
//! A [`ServiceRun`] is the `mbts-durable` runner over a [`ServiceMachine`]:
//! every command is **appended to the journal before it is applied** — the
//! journal is the single source of truth, and the machine is a
//! deterministic fold over it. `kill -9` between append and apply loses
//! nothing: recovery replays the appended command. `kill -9` mid-append
//! leaves a torn tail that the CRC framing truncates, so the command was
//! simply never accepted (and the client never saw a reply).
//!
//! Snapshots are folded into the same journal on a command-count cadence,
//! bounding replay work without a second file. Genesis, cadence, recovery
//! and resume are [`DurableRun`]'s; this module adds only what is
//! service-specific: construction from a [`MachineConfig`], dense task-id
//! assignment, and the live-series timing of each stage.

use std::io;
use std::ops::{Deref, DerefMut};
use std::path::Path;

use mbts_durable::{DurableRun, Journal, RecoverError, Recoverable, RecoveryReport};
use mbts_sim::metrics::Series;
use mbts_sim::Time;
use mbts_workload::TaskId;

use crate::machine::{
    ApplyOutcome, Command, CommandKind, MachineConfig, ServiceMachine, ServiceSnapshot,
    SERVICE_SNAPSHOT_FORMAT,
};

/// The machine's journal records are its stamped commands. The durability
/// half and the compute half of the apply path are timed separately
/// (fsync stalls vs fold cost), and the snapshot stall on its own; the
/// registry only observes wall time, never feeds into `at` or a payload.
impl Recoverable for ServiceMachine {
    type Snapshot = ServiceSnapshot;

    const APPEND_SERIES: Option<Series> = Some(Series::ServeJournalAppend);
    const APPLY_SERIES: Option<Series> = Some(Series::ServeApply);
    const SNAPSHOT_SERIES: Option<Series> = Some(Series::ServeSnapshot);

    fn snapshot(&self) -> ServiceSnapshot {
        ServiceMachine::snapshot(self)
    }

    fn restore(snapshot: ServiceSnapshot) -> Result<Self, String> {
        if snapshot.format != SERVICE_SNAPSHOT_FORMAT {
            return Err(format!(
                "unsupported service snapshot format {}",
                snapshot.format
            ));
        }
        Ok(ServiceMachine::from_snapshot(snapshot))
    }

    fn replay(&mut self, record: &[u8]) -> Result<(), String> {
        let cmd: Command =
            serde_json::from_slice(record).map_err(|e| format!("not a service command: {e}"))?;
        if cmd.seq != self.applied() {
            return Err(format!(
                "command seq {} but replay is due seq {}",
                cmd.seq,
                self.applied()
            ));
        }
        self.apply(&cmd);
        Ok(())
    }
}

/// A machine bound to its journal — see the module docs. Everything but
/// [`apply`](Self::apply) is the wrapped [`DurableRun`]'s.
pub struct ServiceRun(DurableRun<ServiceMachine>);

impl ServiceRun {
    /// Starts a fresh run: writes the genesis snapshot so the journal is
    /// recoverable from its very first byte.
    pub fn new(config: MachineConfig, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        DurableRun::new(ServiceMachine::new(config), journal, snapshot_every).map(ServiceRun)
    }

    /// Replays a journal byte image into a fresh machine. Pure — no file
    /// handles involved; [`resume_file`](Self::resume_file) resumes on disk.
    pub fn recover(bytes: &[u8]) -> Result<(ServiceMachine, RecoveryReport), RecoverError> {
        DurableRun::recover(bytes)
    }

    /// Resumes (or starts) a run on a journal file; see
    /// [`DurableRun::resume_file`].
    pub fn resume_file(
        path: impl AsRef<Path>,
        config: MachineConfig,
        snapshot_every: u64,
        fsync_every_n: u64,
    ) -> io::Result<(Self, RecoveryReport)> {
        let (run, report) = DurableRun::resume_file(
            path,
            || ServiceMachine::new(config),
            snapshot_every,
            fsync_every_n,
        )?;
        Ok((ServiceRun(run), report))
    }

    /// Journal-first apply: assigns the dense task id (for `Submit`/`Shed`),
    /// stamps and sequences the command, and commits it. Returns the
    /// journaled command alongside the outcome so callers can mirror the
    /// exact log (tests, audits).
    pub fn apply(&mut self, at: Time, kind: CommandKind) -> io::Result<(Command, ApplyOutcome)> {
        let machine = self.machine();
        let cmd = Command {
            seq: machine.applied(),
            at: at.max(machine.now()),
            kind: with_task_id(kind, TaskId(machine.next_task_id())),
        };
        let payload = serde_json::to_vec(&cmd).expect("service commands always serialize");
        let outcome = self.0.commit(&payload, |machine| machine.apply(&cmd))?;
        Ok((cmd, outcome))
    }

    /// The machine (read-only).
    pub fn machine(&self) -> &ServiceMachine {
        self.0.run()
    }
}

fn with_task_id(mut kind: CommandKind, id: TaskId) -> CommandKind {
    if let CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } = &mut kind {
        spec.id = id;
    }
    kind
}

impl From<DurableRun<ServiceMachine>> for ServiceRun {
    fn from(run: DurableRun<ServiceMachine>) -> Self {
        ServiceRun(run)
    }
}

impl Deref for ServiceRun {
    type Target = DurableRun<ServiceMachine>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for ServiceRun {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ShedReason;
    use mbts_site::SiteConfig;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn config() -> MachineConfig {
        MachineConfig {
            site: SiteConfig::new(2),
            provenance: true,
            status_capacity: 1024,
        }
    }

    fn spec(runtime: f64, value: f64, at: f64) -> TaskSpec {
        TaskSpec::new(0, at, runtime, value, 0.2, PenaltyBound::ZERO)
    }

    fn drive(run: &mut ServiceRun) {
        run.apply(
            Time::new(0.0),
            CommandKind::Submit {
                spec: spec(2.0, 8.0, 0.0),
            },
        )
        .unwrap();
        run.apply(
            Time::new(0.5),
            CommandKind::Submit {
                spec: spec(1.0, 3.0, 0.5),
            },
        )
        .unwrap();
        run.apply(
            Time::new(0.75),
            CommandKind::Shed {
                spec: spec(1.0, 0.25, 0.75),
                queue_depth: 5,
                reason: ShedReason::LowestValue,
            },
        )
        .unwrap();
        run.apply(Time::new(1.0), CommandKind::Cancel { task: TaskId(1) })
            .unwrap();
    }

    #[test]
    fn journal_replay_matches_live_machine() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let (recovered, rec) = ServiceRun::recover(run.journal().bytes()).unwrap();
        assert_eq!(rec.replayed_events, 4);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(recovered.snapshot_json(), run.machine().snapshot_json());
    }

    #[test]
    fn snapshot_cadence_bounds_replay() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 2).unwrap();
        drive(&mut run);
        let (recovered, rec) = ServiceRun::recover(run.journal().bytes()).unwrap();
        // Snapshots at 2 and 4 applied commands: nothing left to replay.
        assert_eq!(rec.replayed_events, 0);
        assert_eq!(recovered.snapshot_json(), run.machine().snapshot_json());
    }

    #[test]
    fn torn_tail_loses_only_unacked_suffix() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let bytes = run.journal().bytes().to_vec();
        let mut recoverable_from = None;
        for cut in 0..=bytes.len() {
            match ServiceRun::recover(&bytes[..cut]) {
                Ok((m, _)) => {
                    recoverable_from.get_or_insert(cut);
                    assert!(m.applied() <= 4, "cut at {cut}");
                }
                Err(RecoverError::Framing(_) | RecoverError::NoSnapshot) => {
                    // Only legal before the genesis snapshot is intact.
                    assert!(
                        recoverable_from.is_none(),
                        "recovery regressed at cut {cut}"
                    );
                }
                Err(e) => panic!("cut at {cut}: unexpected {e}"),
            }
        }
        let first = recoverable_from.expect("journal becomes recoverable");
        assert!(first < bytes.len(), "full journal recovers");
        // And the full journal replays every command.
        let (full, _) = ServiceRun::recover(&bytes).unwrap();
        assert_eq!(full.applied(), 4);
    }

    #[test]
    fn recover_rejects_foreign_snapshot() {
        let mut j = Journal::in_memory();
        j.append_snapshot(b"{\"not\":\"a service snapshot\"}")
            .unwrap();
        assert!(matches!(
            ServiceRun::recover(j.bytes()),
            Err(RecoverError::BadSnapshot(_))
        ));
    }

    #[test]
    fn recover_rejects_commands_out_of_sequence() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let mut j = Journal::in_memory();
        j.append_snapshot(run.machine().snapshot_json().as_bytes())
            .unwrap();
        // Replays the first command again: a seq the machine is past.
        let first = r#"{"seq":0,"at":0.0,"kind":"Drain"}"#;
        j.append_event(first.as_bytes()).unwrap();
        match ServiceRun::recover(j.bytes()) {
            Err(RecoverError::Divergence { index: 0, detail }) => {
                assert!(detail.contains("seq 0"), "{detail}")
            }
            other => panic!("expected a divergence, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn resume_file_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("mbts-serve-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.journal");
        let _ = std::fs::remove_file(&path);

        let (mut run, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed_events, 0);
        drive(&mut run);
        run.sync().unwrap();
        let live_json = run.machine().snapshot_json();
        drop(run);

        let (mut resumed, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed_events, 4);
        assert_eq!(resumed.machine().snapshot_json(), live_json);
        // Appends keep working after resume.
        resumed.apply(Time::new(2.0), CommandKind::Drain).unwrap();
        assert!(resumed.machine().draining());
        drop(resumed);

        let (after, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed_events, 5);
        assert!(after.machine().draining());
        std::fs::remove_dir_all(&dir).ok();
    }
}
