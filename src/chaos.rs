//! The `mbts chaos` scenario orchestrator.
//!
//! Runs JSON fault-injection scenarios (the `tests/chaos/` corpus)
//! against journaled site runs, journaled economy runs, and scripted
//! service runs, crashing and recovering the workload every
//! time an injected disk fault surfaces — and asserting, after every
//! fault, the invariants the rest of the test suite promises:
//!
//! * **Recovery bit-identity** — the faulted run's final state is
//!   byte-for-byte the uninjected reference's (determinism re-derives
//!   the future from whatever intact prefix the disk held).
//! * **Acked-prefix durability** (service scenarios) — every command
//!   whose journal append was acknowledged survives recovery, with its
//!   `/status` entry intact; a failed fsync may leave one command in
//!   ack limbo, and recovery must resolve it exactly once.
//! * **Conservation auditors clean** — no invariant-auditor violation
//!   anywhere in the faulted run.
//! * **No panics, no hangs** — every fault degrades to a typed error
//!   or a crash-recovery cycle.
//!
//! Determinism contract: a scenario's outcome — report, fault log, and
//! chaos trace events — is a pure function of `(seed, schedule)`. The
//! CLI runs every scenario twice and fails on any byte-level divergence
//! between the two runs, dumping both sides under [`DUMP_DIR`].
//!
//! Crash model: disk faults are fail-stop. When an append fails the
//! orchestrator abandons the process state, re-reads exactly what the
//! in-memory disk image holds (optionally flipping one seeded bit via
//! the `durable.read` failpoint), recovers, and re-journals onto a
//! fresh disk generation — the in-process equivalent of log rotation at
//! restart.

use mbts_chaos::{ChaosRegistry, Scenario, ScenarioTarget};
use mbts_durable::framing::{write_header, HEADER_LEN};
use mbts_durable::{
    corrupt_image, ChaosSink, DurableRun, Journal, Recoverable, RecoveryReport, SharedImage,
    Stepwise,
};
use mbts_market::{EconomyConfig, EconomyOutcome, EconomyRun};
use mbts_serve::{
    ApplyOutcome, Command as ServeCommand, CommandKind, MachineConfig, ServiceMachine, ServiceRun,
    ShedReason,
};
use mbts_sim::Time;
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::{to_jsonl, TraceEvent, TraceKind, Tracer};
use mbts_workload::{generate_trace, MixConfig, PenaltyBound, TaskId, TaskSpec, Trace};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where divergence dumps land when an invariant or the determinism
/// contract fails (CI uploads this directory on failure).
pub const DUMP_DIR: &str = "target/chaos";

/// Crash-recovery cycles a single scenario may consume before the
/// orchestrator declares the schedule unable to make progress.
const MAX_CRASHES: u64 = 64;

/// Per-scenario outcome, serialized into the corpus report.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name from the JSON.
    pub name: String,
    /// Target class: `site`, `market`, or `serve`.
    pub class: String,
    /// Seed actually used (after any CLI override).
    pub seed: u64,
    /// Total faults fired across every failpoint instance.
    pub injected: u64,
    /// Fires per failpoint instance.
    pub by_point: BTreeMap<String, u64>,
    /// Crash-recovery cycles the injected faults forced.
    pub crashes: u64,
    /// Journal events replayed across all recoveries.
    pub replayed: u64,
    /// Invariants that held (each would have failed the scenario).
    pub checks: Vec<String>,
}

/// The full `mbts chaos` run: every scenario, run twice, all clean.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusReport {
    /// Per-scenario outcomes, in corpus order.
    pub scenarios: Vec<ScenarioReport>,
    /// Faults fired across the corpus.
    pub total_injected: u64,
    /// Crash-recovery cycles across the corpus.
    pub total_crashes: u64,
    /// Always true on success: both runs of every scenario were
    /// byte-identical (report and chaos trace events).
    pub deterministic: bool,
}

/// Invariants a passing site or market scenario held.
const SIM_CHECKS: [&str; 3] = [
    "bit-identical-to-reference",
    "auditors-clean",
    "recovery-replay-verified",
];

/// Invariants a passing service scenario held.
const SERVE_CHECKS: [&str; 4] = [
    "bit-identical-to-reference",
    "acked-prefix-durable",
    "auditors-clean",
    "drained-cleanly",
];

fn dump(name: &str, label: &str, payload: &str) -> String {
    let dir = std::path::Path::new(DUMP_DIR);
    let path = dir.join(format!("{name}.{label}.json"));
    let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, payload));
    match write {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<dump failed: {e}>"),
    }
}

/// The per-target hooks the crash-recovery driver needs beyond
/// [`Recoverable`].
trait ChaosTarget: Recoverable {
    /// Current simulation time (stamps chaos trace events).
    fn sim_now(&self) -> Time;

    /// Serialized full replay state, for bit-identity comparison.
    fn state_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("snapshots serialize")
    }
}

impl ChaosTarget for SiteRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

impl ChaosTarget for EconomyRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

impl ChaosTarget for ServiceMachine {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

/// The crash-recovery driver every scenario class shares: it owns the
/// live disk generation and the crash/replay tallies, and emits the
/// chaos trace markers.
struct Driver<'a> {
    name: &'a str,
    registry: &'a Arc<ChaosRegistry>,
    snapshot_every: u64,
    events: &'a mut Vec<TraceEvent>,
    image: SharedImage,
    crashes: u64,
    replayed: u64,
}

impl<'a> Driver<'a> {
    fn new(
        name: &'a str,
        registry: &'a Arc<ChaosRegistry>,
        snapshot_every: u64,
        events: &'a mut Vec<TraceEvent>,
    ) -> Self {
        Driver {
            name,
            registry,
            snapshot_every,
            events,
            image: SharedImage::new(),
            crashes: 0,
            replayed: 0,
        }
    }

    /// Converts everything fired since the last drain into
    /// `ChaosInjected` trace events stamped at `at`.
    fn drain_injected(&mut self, at: Time) {
        for fault in self.registry.drain_fired() {
            let action = fault.action.label().to_string();
            let point = fault.point;
            self.push(at, TraceKind::ChaosInjected { point, action });
        }
    }

    fn push_recovered(&mut self, at: Time, point: &str, detail: String) {
        let point = point.to_string();
        self.push(at, TraceKind::ChaosRecovered { point, detail });
    }

    fn push(&mut self, at: Time, kind: TraceKind) {
        let event = TraceEvent {
            at,
            task: None,
            site: None,
            kind,
        };
        self.events.push(event);
    }

    /// Counts one crash at `at` against the recovery budget and stamps
    /// every fault fired since the last drain.
    fn crash(&mut self, at: Time) -> Result<(), String> {
        self.crashes += 1;
        if self.crashes > MAX_CRASHES {
            return Err(format!(
                "scenario '{}': exceeded the {MAX_CRASHES}-crash recovery budget; \
                 gate the fault with `every`/`max_fires` so the run can make progress",
                self.name
            ));
        }
        self.drain_injected(at);
        Ok(())
    }

    /// What recovery would read off the live generation right now:
    /// header + the exact bytes the sink accepted, with one read-time
    /// corruption pass applied (a no-op unless the schedule arms
    /// `durable.read`).
    fn read_disk(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + self.image.len());
        write_header(&mut bytes);
        bytes.extend_from_slice(&self.image.snapshot());
        let _flipped = corrupt_image(&mut bytes, self.registry);
        bytes
    }

    /// Journals the run `next()` yields onto a fresh disk generation,
    /// absorbing faults on its opening snapshot as reformat-and-retry
    /// crashes (stamped at `at`, or the run's own time when `None`).
    fn open_generation<R: ChaosTarget>(
        &mut self,
        mut next: impl FnMut() -> Result<R, String>,
        at: Option<Time>,
        what: &str,
    ) -> Result<DurableRun<R>, String> {
        loop {
            // A fresh disk generation: an empty image behind a
            // fault-injecting sink, fsynced on every append so
            // `durable.sink.sync` failpoints see one hit per record.
            let image = SharedImage::new();
            let sink = ChaosSink::new(image.clone(), Arc::clone(self.registry));
            let journal = Journal::with_sink(Box::new(sink)).with_fsync_every_n(1);
            let run = next()?;
            let at = at.unwrap_or_else(|| run.sim_now());
            match DurableRun::new(run, journal, self.snapshot_every) {
                Ok(durable) => {
                    self.image = image;
                    return Ok(durable);
                }
                Err(err) => {
                    self.crash(at)?;
                    let detail = format!("{what} failed ({err}); reformatted");
                    self.push_recovered(at, "durable.sink", detail);
                }
            }
        }
    }

    /// Starts (or restarts) a run from scratch.
    fn genesis<R: ChaosTarget>(&mut self, mk: &dyn Fn() -> R) -> Result<DurableRun<R>, String> {
        self.open_generation(|| Ok(mk()), None, "genesis snapshot")
    }

    /// Recovers from `disk` and re-journals the run onto a fresh disk
    /// generation. `Ok(None)` means the image held no intact snapshot.
    fn recover_and_rejournal<R: ChaosTarget>(
        &mut self,
        disk: &[u8],
        at: Time,
    ) -> Result<Option<(DurableRun<R>, RecoveryReport)>, String> {
        let Ok((first, report)) = DurableRun::<R>::recover(disk) else {
            return Ok(None);
        };
        self.replayed += report.replayed_events;
        let name = self.name;
        let mut first = Some(first);
        // `DurableRun::new` consumes the run even when the genesis append
        // fails; re-recovering from the same bytes rebuilds it
        // bit-identically.
        let next = || match first.take() {
            Some(run) => Ok(run),
            None => DurableRun::<R>::recover(disk)
                .map(|(run, _)| run)
                .map_err(|e| format!("scenario '{name}': re-recovery failed: {e:?}")),
        };
        let durable = self.open_generation(next, Some(at), "re-genesis")?;
        Ok(Some((durable, report)))
    }
}

/// Drives a journaled simulation to completion under disk faults,
/// crashing and recovering on every surfaced append error.
fn run_durable_chaos<R: ChaosTarget + Stepwise>(
    mk: &dyn Fn() -> R,
    d: &mut Driver,
) -> Result<R, String> {
    let mut durable = d.genesis(mk)?;
    loop {
        let err = match durable.step() {
            Ok(true) => {
                d.drain_injected(durable.run().sim_now());
                continue;
            }
            Ok(false) => break,
            Err(err) => err,
        };
        let at = durable.run().sim_now();
        d.crash(at)?;
        let disk = d.read_disk();
        durable = match d.recover_and_rejournal::<R>(&disk, at)? {
            Some((recovered, report)) => {
                let detail = format!("crash on '{err}': replayed={}", report.replayed_events);
                d.push_recovered(recovered.run().sim_now(), "durable.sink", detail);
                recovered
            }
            None => {
                // Bit rot (or a fault during genesis) destroyed every
                // intact snapshot. A real operator starts the run over;
                // determinism guarantees the same final state either way.
                let detail = format!("image unrecoverable after '{err}'; restarted from genesis");
                d.push_recovered(at, "durable.read", detail);
                d.genesis(mk)?
            }
        };
    }
    d.drain_injected(durable.run().sim_now());
    Ok(durable.into_parts().0)
}

fn bit_identity_check(
    name: &str,
    what: &str,
    reference: &str,
    chaotic: &str,
) -> Result<(), String> {
    if reference == chaotic {
        return Ok(());
    }
    let ref_path = dump(name, &format!("{what}.reference"), reference);
    let got_path = dump(name, &format!("{what}.chaotic"), chaotic);
    Err(format!(
        "scenario '{name}': {what} diverged from the uninjected reference \
         (dumps: {ref_path} vs {got_path})"
    ))
}

fn site_workload(tasks: u64, processors: usize, load: f64, seed: u64) -> Trace {
    let mix = MixConfig::millennium_default()
        .with_tasks((tasks.max(1)) as usize)
        .with_processors(processors)
        .with_load_factor(load);
    generate_trace(&mix, seed)
}

fn run_site_scenario(
    d: &mut Driver,
    seed: u64,
    tasks: u64,
    processors: usize,
    load: f64,
    policy: &str,
) -> Result<(), String> {
    let name = d.name;
    let policy = crate::cli::parse_policy(policy)?;
    let trace = site_workload(tasks, processors, load, seed);
    let config = SiteConfig::new(processors)
        .with_policy(policy)
        .with_preemption(true);

    let mut reference = SiteRun::new(config.clone(), &trace, Tracer::Off);
    reference.run_to_completion();
    let reference_state = reference.state_json();

    let mk = || SiteRun::new(config.clone(), &trace, Tracer::Off);
    let run = run_durable_chaos(&mk, d)?;

    bit_identity_check(
        name,
        "final-site-state",
        &reference_state,
        &run.state_json(),
    )?;
    let violations = run.state().violations().len();
    if violations > 0 {
        return Err(format!(
            "scenario '{name}': {violations} auditor violations in the faulted run"
        ));
    }
    Ok(())
}

/// Invariant-auditor violations across the economy: market-level money
/// conservation plus every site's task/processor/yield audits. (Not
/// [`EconomyOutcome::violations`] — those are contract-time breaches, a
/// normal market phenomenon under load, not invariant failures.)
fn economy_audit_violations(outcome: &EconomyOutcome) -> usize {
    outcome.audit_violations.len()
        + outcome
            .per_site
            .iter()
            .map(|s| s.violations.len())
            .sum::<usize>()
}

fn run_market_scenario(
    d: &mut Driver,
    seed: u64,
    tasks: u64,
    sites: usize,
    processors: usize,
    load: f64,
    policy: &str,
) -> Result<(), String> {
    let name = d.name;
    let policy = crate::cli::parse_policy(policy)?;
    let trace = site_workload(tasks, processors * sites.max(1), load, seed);
    let site = SiteConfig::new(processors)
        .with_policy(policy)
        .with_preemption(true);
    let config = EconomyConfig::uniform(sites, site);

    let mut reference = EconomyRun::new(config.clone(), &trace, Tracer::Off);
    reference.run_to_completion();
    let reference_state = reference.state_json();

    let mk = || EconomyRun::new(config.clone(), &trace, Tracer::Off);
    let run = run_durable_chaos(&mk, d)?;
    bit_identity_check(
        name,
        "final-economy-state",
        &reference_state,
        &run.state_json(),
    )?;
    let (outcome, _) = run.finish();
    let audit = economy_audit_violations(&outcome);
    if audit > 0 {
        return Err(format!(
            "scenario '{name}': {audit} conservation-auditor violations in the faulted run"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scripted service scenarios
// ---------------------------------------------------------------------------

/// xorshift64* — same generator the failpoint streams and `mbts flood`
/// use; seeds the scripted command schedule.
struct ScriptRng(u64);

impl ScriptRng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ScriptRng((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One step of the scripted client, independent of machine state so the
/// reference and chaos runs fold the identical schedule.
enum ScriptStep {
    Submit {
        gap: f64,
        runtime: f64,
        value: f64,
        decay: f64,
    },
    Cancel {
        pick: u64,
    },
    Shed {
        gap: f64,
        runtime: f64,
        value: f64,
        decay: f64,
        depth: usize,
    },
    Drain,
}

fn build_script(seed: u64, commands: u64, queue_capacity: usize) -> Vec<ScriptStep> {
    let mut rng = ScriptRng::new(seed ^ 0xC0FF_EE00);
    let mut steps = Vec::with_capacity(commands.max(2) as usize);
    for i in 0..commands.max(2) - 1 {
        let gap = 0.05 + rng.next_f64() * 0.4;
        let runtime = 0.5 + rng.next_f64() * 4.0;
        let value = 5.0 + rng.next_f64() * 20.0;
        let decay = 0.01 + rng.next_f64() * 0.2;
        if i % 13 == 9 {
            steps.push(ScriptStep::Shed {
                gap,
                runtime,
                value,
                decay,
                depth: (rng.next_u64() as usize) % queue_capacity.max(1),
            });
        } else if i % 7 == 5 {
            steps.push(ScriptStep::Cancel {
                pick: rng.next_u64(),
            });
        } else {
            steps.push(ScriptStep::Submit {
                gap,
                runtime,
                value,
                decay,
            });
        }
    }
    steps.push(ScriptStep::Drain);
    steps
}

/// Turns a script step into a concrete command at the machine's current
/// task-id frontier; `None` when the step has nothing to act on (a
/// cancel before anything was submitted) — identically skipped by the
/// reference and chaos runs.
fn materialize(
    step: &ScriptStep,
    machine: &ServiceMachine,
    submitted: &[u64],
    clock: &mut f64,
) -> Option<(Time, CommandKind)> {
    match step {
        ScriptStep::Submit {
            gap,
            runtime,
            value,
            decay,
        } => {
            *clock += gap;
            let spec = TaskSpec::new(
                machine.next_task_id(),
                *clock,
                *runtime,
                *value,
                *decay,
                PenaltyBound::Bounded { max_penalty: 0.0 },
            );
            Some((Time::new(*clock), CommandKind::Submit { spec }))
        }
        ScriptStep::Cancel { pick } => {
            if submitted.is_empty() {
                return None;
            }
            let task = submitted[(*pick as usize) % submitted.len()];
            Some((
                Time::new(*clock),
                CommandKind::Cancel { task: TaskId(task) },
            ))
        }
        ScriptStep::Shed {
            gap,
            runtime,
            value,
            decay,
            depth,
        } => {
            *clock += gap;
            let spec = TaskSpec::new(
                machine.next_task_id(),
                *clock,
                *runtime,
                *value,
                *decay,
                PenaltyBound::Bounded { max_penalty: 0.0 },
            );
            Some((
                Time::new(*clock),
                CommandKind::Shed {
                    spec,
                    queue_depth: *depth,
                    reason: ShedReason::LowestValue,
                },
            ))
        }
        ScriptStep::Drain => Some((Time::new(*clock), CommandKind::Drain)),
    }
}

/// The uninjected reference fold: same script, infallible journal.
fn drive_reference_serve(mc: &MachineConfig, script: &[ScriptStep]) -> String {
    let mut machine = ServiceMachine::new(mc.clone());
    let mut submitted = Vec::new();
    let mut clock = 0.0f64;
    for step in script {
        let Some((at, kind)) = materialize(step, &machine, &submitted, &mut clock) else {
            continue;
        };
        let cmd = ServeCommand {
            seq: machine.applied(),
            at,
            kind,
        };
        if let ApplyOutcome::Submitted { task, .. } = machine.apply(&cmd) {
            submitted.push(task.0);
        }
    }
    machine.snapshot_json()
}

fn run_serve_scenario(
    d: &mut Driver,
    seed: u64,
    commands: u64,
    processors: usize,
    policy: &str,
    queue_capacity: usize,
) -> Result<(), String> {
    let name = d.name;
    let policy = crate::cli::parse_policy(policy)?;
    let mc = MachineConfig {
        site: SiteConfig::new(processors)
            .with_policy(policy)
            .with_preemption(true),
        provenance: false,
        status_capacity: 65_536,
    };
    let script = build_script(seed, commands, queue_capacity);
    let reference_state = drive_reference_serve(&mc, &script);

    let mut run = ServiceRun::from(d.genesis(&|| ServiceMachine::new(mc.clone()))?);
    let mut submitted: Vec<u64> = Vec::new();
    let mut acked_tasks: Vec<u64> = Vec::new();
    let mut clock = 0.0f64;

    for step in &script {
        let Some((at, kind)) = materialize(step, run.machine(), &submitted, &mut clock) else {
            continue;
        };
        // `materialize` stamped the id `ServiceRun::apply` assigns.
        let task = match &kind {
            CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } => Some(spec.id.0),
            _ => None,
        };
        loop {
            let before = run.machine().applied();
            let Err(err) = run.apply(at, kind.clone()) else {
                d.drain_injected(at);
                break;
            };
            // A failed cadence snapshot comes after the command applied:
            // it is acked, and recovery must hold it.
            let live = run.machine().applied();
            let in_flight = task.filter(|_| live > before);
            d.crash(at)?;
            let disk = d.read_disk();
            let (recovered, report) = d
                .recover_and_rejournal::<ServiceMachine>(&disk, at)?
                .ok_or_else(|| {
                    format!("scenario '{name}': acked service state unrecoverable after '{err}'")
                })?;
            let machine = recovered.run();
            // Ack limbo: a failed fsync after the command's bytes landed
            // leaves it durable though never acked; recovery applies it
            // exactly once and the client must not retry.
            let absorbed = live == before && machine.applied() == before + 1;
            if machine.applied() != live && !absorbed {
                return Err(format!(
                    "scenario '{name}': acked-prefix durability violated — {live} commands \
                     acked, {} recovered",
                    machine.applied()
                ));
            }
            let mut acked = acked_tasks.iter().copied().chain(in_flight);
            if let Some(lost) = acked.find(|&t| machine.status(t).is_none()) {
                return Err(format!(
                    "scenario '{name}': acked task {lost} lost its /status entry across recovery"
                ));
            }
            d.push_recovered(
                at,
                "durable.sink",
                format!(
                    "crash on '{err}': applied={} replayed={} dropped_bytes={}{}",
                    machine.applied(),
                    report.replayed_events,
                    report.dropped_bytes,
                    if absorbed { " absorbed-in-flight" } else { "" }
                ),
            );
            let landed = machine.applied() > before;
            run = ServiceRun::from(recovered);
            if landed {
                break;
            }
            // The command never became durable: retry it against the
            // recovered machine.
        }
        if let Some(task) = task {
            acked_tasks.push(task);
            if matches!(kind, CommandKind::Submit { .. }) {
                submitted.push(task);
            }
        }
    }

    let machine = run.machine();
    bit_identity_check(
        name,
        "final-service-state",
        &reference_state,
        &machine.state_json(),
    )?;
    if machine.violations() > 0 {
        return Err(format!(
            "scenario '{name}': {} auditor violations in the faulted service run",
            machine.violations()
        ));
    }
    if machine.counters().drains == 0 {
        return Err(format!(
            "scenario '{name}': the drain command never survived to the machine"
        ));
    }
    Ok(())
}

/// Runs one scenario once. The trace events returned are the chaos
/// markers (`ChaosInjected` / `ChaosRecovered`) the run emitted, in
/// deterministic order.
pub fn run_scenario(
    scenario: &Scenario,
    seed_override: Option<u64>,
) -> Result<(ScenarioReport, Vec<TraceEvent>), String> {
    let seed = seed_override.unwrap_or(scenario.seed);
    let registry = Arc::new(ChaosRegistry::new(seed, scenario.failpoints.clone()));
    let mut events = Vec::new();
    let name = scenario.name.as_str();
    let mut d = Driver::new(
        name,
        &registry,
        scenario.target.snapshot_every(),
        &mut events,
    );
    let checks: &[&str] = match &scenario.target {
        ScenarioTarget::Site {
            tasks,
            processors,
            load,
            policy,
            ..
        } => {
            run_site_scenario(&mut d, seed, *tasks, *processors, *load, policy)?;
            &SIM_CHECKS
        }
        ScenarioTarget::Market {
            tasks,
            sites,
            processors,
            load,
            policy,
            ..
        } => {
            run_market_scenario(&mut d, seed, *tasks, *sites, *processors, *load, policy)?;
            &SIM_CHECKS
        }
        ScenarioTarget::Serve {
            commands,
            processors,
            policy,
            queue_capacity,
            ..
        } => {
            run_serve_scenario(
                &mut d,
                seed,
                *commands,
                *processors,
                policy,
                *queue_capacity,
            )?;
            &SERVE_CHECKS
        }
    };
    let (crashes, replayed) = (d.crashes, d.replayed);
    if !scenario.failpoints.is_empty() && registry.fired_total() == 0 {
        return Err(format!(
            "scenario '{name}': schedule armed but no failpoint ever fired — \
             check point names against DESIGN.md §15"
        ));
    }
    Ok((
        ScenarioReport {
            name: scenario.name.clone(),
            class: scenario.target.class().to_string(),
            seed,
            injected: registry.fired_total(),
            by_point: registry.fired_by_point(),
            crashes,
            replayed,
            checks: checks.iter().map(|c| c.to_string()).collect(),
        },
        events,
    ))
}

/// Runs every scenario **twice**, enforcing the determinism contract:
/// both runs must produce byte-identical reports and chaos traces.
pub fn run_corpus(
    scenarios: &[Scenario],
    seed_override: Option<u64>,
) -> Result<(CorpusReport, Vec<TraceEvent>), String> {
    let mut reports = Vec::with_capacity(scenarios.len());
    let mut all_events = Vec::new();
    for scenario in scenarios {
        let (r1, e1) = run_scenario(scenario, seed_override)?;
        let (r2, e2) = run_scenario(scenario, seed_override)?;
        let a = serde_json::to_string(&r1).map_err(|e| e.to_string())?;
        let b = serde_json::to_string(&r2).map_err(|e| e.to_string())?;
        let ea = to_jsonl(&e1);
        let eb = to_jsonl(&e2);
        if a != b || ea != eb {
            let first = dump(&scenario.name, "run1", &format!("{a}\n{ea}"));
            let second = dump(&scenario.name, "run2", &format!("{b}\n{eb}"));
            return Err(format!(
                "scenario '{}' is NONDETERMINISTIC: two runs with seed {} diverged \
                 (dumps: {first} vs {second})",
                scenario.name, r1.seed
            ));
        }
        reports.push(r1);
        all_events.extend(e1);
    }
    let total_injected = reports.iter().map(|r| r.injected).sum();
    let total_crashes = reports.iter().map(|r| r.crashes).sum();
    Ok((
        CorpusReport {
            scenarios: reports,
            total_injected,
            total_crashes,
            deterministic: true,
        },
        all_events,
    ))
}
