//! The daemon workload: `serve-write`.
//!
//! Each ladder step starts a fresh `mbts serve` on a fresh journal, drives
//! it open loop at one rate, drains it, and then checks the recovered
//! journal against the client's books. The traced pass repeats the nominal
//! step live and replays its journal offline through the layers' public
//! functions, one span per call.

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mbts_durable::framing::{self, RecordTag};
use mbts_durable::{recover_bytes, Journal};
use mbts_serve::{
    http, Command, CommandKind, ServeCounters, ServiceMachine, ServiceRun, ServiceSnapshot,
};
use mbts_workload::{generate_trace, BoundPolicy, MixConfig, PenaltyBound};

use crate::client::{self, LoopResult, Request};
use crate::daemon::{Daemon, DaemonConfig};
use crate::json::{self, num, obj, Value};
use crate::report::{metric, Checks, Outcome};
use crate::sim::{universal_layers, write_spans, CoreProbes};
use crate::spans::{Span, Spans};
use crate::stats::{median, Summary};
use crate::sys::{peak_rss_mb, process_cpu_s};

/// Offered request rates of the ladder, in requests per second.
const LADDER: [u64; 4] = [1000, 2000, 4000, 8000];
/// The step whose latencies, CPU and memory are the headline numbers.
const NOMINAL: u64 = 2000;
/// Write requests per step: enough that the p99.9 has ten samples beyond
/// it, and that every step crosses exactly one snapshot (every 8192
/// commands) after the genesis one.
const WRITES_PER_STEP: usize = 10_000;
/// A step passes when write p99 stays within this, in ms.
const LIMIT_MS: f64 = 50.0;
/// A step whose generator ran later than this at p99 is invalid, in ms.
const GEN_LATE_LIMIT_MS: f64 = 10.0;
/// The daemon's snapshot cadence, mirrored by the offline replay.
const SNAPSHOT_EVERY: u64 = 8192;
/// Set-ups timed beyond the ladder's own, for a steady `setup_s` median.
const SETUP_REPEATS: usize = 8;
/// Commands between core-layer probes in the offline replay.
const PROBE_GAP: u64 = 64;
/// Commands between `Journal::sync` calls in the offline replay.
const SYNC_GAP: u64 = 256;
/// Requests per block; each block holds one `/cancel`.
const CANCEL_BLOCK: usize = 64;
/// Recent submits a cancel picks its target among.
const TARGET_WINDOW: usize = 512;
/// A cancel target was sent at least this many requests earlier.
const TARGET_LAG: usize = 64;
const NAME: &str = "serve-write";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Submit,
    Cancel,
}

/// Deterministic inputs of one step.
struct StepInput {
    reqs: Vec<Request>,
    kinds: Vec<Kind>,
    /// Offered submits per second of wall time.
    submit_rate: f64,
    gen_s: f64,
}

/// SplitMix64: a small seeded stream for arrival gaps and targets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn make_step(seed: u64, rate: u64, spans: &mut Spans) -> StepInput {
    let mut rng = Rng(seed ^ rate.wrapping_mul(0xA076_1D64_78BD_642F));
    let blocks = WRITES_PER_STEP.div_ceil(CANCEL_BLOCK);
    let mut kinds = Vec::with_capacity(blocks * CANCEL_BLOCK);
    for _ in 0..blocks {
        let cancel = rng.below(CANCEL_BLOCK);
        kinds.extend((0..CANCEL_BLOCK).map(|j| {
            if j == cancel {
                Kind::Cancel
            } else {
                Kind::Submit
            }
        }));
    }
    // The first requests have no earlier submit to point at.
    for k in kinds.iter_mut().take(TARGET_LAG + 1) {
        *k = Kind::Submit;
    }
    let submits = kinds.iter().filter(|k| **k == Kind::Submit).count();
    let mix = MixConfig::millennium_default()
        .with_tasks(submits)
        .with_processors(16)
        .with_load_factor(1.0)
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
    let gen = spans.begin("workload.generate_trace", None, rate);
    let trace = generate_trace(&mix, seed);
    spans.end(gen);
    let gen_s = spans.dur_ns(gen) as f64 / 1e9;

    let mut reqs = Vec::with_capacity(kinds.len());
    let mut at = 0.0f64;
    let mut submit_ordinals: Vec<usize> = Vec::with_capacity(kinds.len());
    let mut next_submit = 0usize;
    for (i, kind) in kinds.iter().enumerate() {
        at += -rng.unit().ln() / rate as f64;
        let mut wire = Vec::new();
        match kind {
            Kind::Submit => {
                let spec = &trace.tasks[next_submit];
                // Full precision: a rounded runtime can read as 0, which the
                // daemon rightly refuses.
                let mut body = vec![
                    ("runtime", num(spec.runtime.as_f64())),
                    ("value", num(spec.value)),
                    ("decay", num(spec.decay)),
                ];
                if let PenaltyBound::Bounded { max_penalty } = spec.bound {
                    body.push(("max_penalty", num(max_penalty)));
                }
                let body = json::to_string(&obj(body));
                http::write_post(&mut wire, "/submit", body.as_bytes()).expect("writes to a Vec");
                next_submit += 1;
            }
            Kind::Cancel => {
                // Submits are applied in send order, so the n-th submit is
                // assigned task id n.
                let eligible = submit_ordinals[i - TARGET_LAG];
                let target = eligible - 1 - rng.below(eligible.min(TARGET_WINDOW));
                let body = format!("{{\"task\":{target}}}");
                http::write_post(&mut wire, "/cancel", body.as_bytes()).expect("writes to a Vec");
            }
        }
        submit_ordinals.push(next_submit);
        reqs.push(Request {
            at_ns: (at * 1e9) as u64,
            wire,
        });
    }
    StepInput {
        reqs,
        kinds,
        submit_rate: rate as f64 * submits as f64 / submit_ordinals.len() as f64,
        gen_s,
    }
}

/// One ladder step, measured and checked.
struct Step {
    rate: u64,
    sent: usize,
    failed: usize,
    writes: Summary,
    gen_late: Summary,
    last_tenth_p99: f64,
    setup_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    journal: PathBuf,
    journal_bytes: usize,
    applied: u64,
    counters: ServeCounters,
    input: StepInput,
    result: LoopResult,
    telemetry: Option<String>,
}

impl Step {
    fn valid(&self) -> bool {
        self.gen_late.p99 <= GEN_LATE_LIMIT_MS
    }

    fn passes(&self) -> bool {
        self.valid()
            && self.failed == 0
            && self.writes.n > 0
            && self.writes.p99 <= LIMIT_MS
            && self.last_tenth_p99 <= LIMIT_MS
    }

    fn row(&self) -> String {
        let verdict = match (self.valid(), self.passes()) {
            (false, _) => "INVALID",
            (true, true) => "pass",
            (true, false) => "FAIL",
        };
        let p999 = if self.writes.p999_resolved() {
            format!("{:.3}", self.writes.p999)
        } else {
            "n/a".into()
        };
        format!(
            "{:>6} {:>7} {:>6} {:>6} {:>6} {:>9.3} {:>9.3} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>8}",
            self.rate,
            self.sent,
            self.failed,
            self.counters.accepted,
            self.counters.rejected,
            self.writes.p50,
            self.writes.p99,
            p999,
            self.writes.max,
            self.gen_late.p99,
            self.gen_late.max,
            verdict
        )
    }
}

const TABLE_HEAD: &str =
    "  rate    sent failed    acc    rej   w.p50ms   w.p99ms  w.p999ms   w.maxms  late.p99  late.max  verdict";

fn journal_dir() -> PathBuf {
    let dir = crate::out_dir().join("journals");
    fs::create_dir_all(&dir).expect("the output directory is writable");
    dir
}

fn run_step(
    bin: &Path,
    seed: u64,
    rate: u64,
    spans: &mut Spans,
    scrape: bool,
    checks: &mut Checks,
) -> std::io::Result<Step> {
    let input = make_step(seed, rate, spans);
    let journal = journal_dir().join(format!("{NAME}-{rate}.mbtsj"));
    let _ = fs::remove_file(&journal);
    let (daemon, ready) = Daemon::start(&DaemonConfig {
        bin,
        journal: &journal,
        time_scale: input.submit_rate * 100.0 / 16.0,
    })?;
    let cpu0 = process_cpu_s(daemon.pid());
    let result = client::run(&daemon.addr, &input.reqs, Duration::from_secs(10))?;
    let cpu_s = process_cpu_s(daemon.pid()) - cpu0;
    let rss_mb = peak_rss_mb(&daemon.pid().to_string());
    let telemetry = if scrape {
        Some(String::from_utf8_lossy(&daemon.get("/metrics")?.1).into_owned())
    } else {
        None
    };
    let exit_ok = daemon.drain()?;
    checks.check(exit_ok, || {
        format!("{NAME} @{rate}: daemon exit status not 0")
    });
    let bytes = fs::read(&journal)?;
    let (applied, counters) = check_books(rate, &input, &result, &bytes, checks);

    let n = input.reqs.len();
    let mut writes = Vec::new();
    let mut failed = 0;
    let last_at = input.reqs.last().map_or(0, |r| r.at_ns);
    let mut last_tenth = Vec::new();
    for i in 0..n {
        let reply = &result.replies[i];
        if !reply.ok() {
            failed += 1;
            continue;
        }
        let ms = result.latency_ms(&input.reqs, i);
        writes.push(ms);
        if input.reqs[i].at_ns * 10 >= last_at * 9 {
            last_tenth.push(ms);
        }
    }
    let gen_late = Summary::of((0..n).map(|i| result.gen_late_ms(&input.reqs, i)).collect());
    Ok(Step {
        rate,
        sent: n,
        failed,
        writes: Summary::of(writes),
        gen_late,
        last_tenth_p99: Summary::of(last_tenth).p99,
        setup_s: input.gen_s + ready.as_secs_f64(),
        cpu_s,
        rss_mb,
        journal,
        journal_bytes: bytes.len(),
        applied,
        counters,
        input,
        result,
        telemetry,
    })
}

/// Recovers the drained journal and checks it against what the client was
/// told; returns the number of commands applied and the journal's counters.
fn check_books(
    rate: u64,
    input: &StepInput,
    result: &LoopResult,
    bytes: &[u8],
    checks: &mut Checks,
) -> (u64, ServeCounters) {
    let tag = format!("{NAME} @{rate}");
    let machine = match ServiceRun::recover(bytes) {
        Ok((m, _)) => m,
        Err(e) => {
            checks.check(false, || format!("{tag}: journal does not recover: {e}"));
            return (0, ServeCounters::default());
        }
    };
    let (mut submits, mut accepted, mut cancels, mut cancelled, mut failed) = (0, 0, 0, 0, 0);
    let mut ids = Vec::new();
    for (kind, reply) in input.kinds.iter().zip(&result.replies) {
        if !reply.ok() {
            failed += 1;
            continue;
        }
        let body: Value = match serde_json::from_slice(&reply.body) {
            Ok(v) => v,
            Err(_) => {
                checks.check(false, || format!("{tag}: reply body is not JSON"));
                continue;
            }
        };
        match kind {
            Kind::Submit => {
                submits += 1;
                accepted += u64::from(json::is_true(&body, "accepted"));
                ids.extend(json::get_u64(&body, "task"));
            }
            Kind::Cancel => {
                cancels += 1;
                cancelled += u64::from(json::is_true(&body, "cancelled"));
            }
        }
    }
    let c = machine.counters();
    checks.check(submits == c.accepted + c.rejected, || {
        format!(
            "{tag}: acked submits {submits} != accepted {} + rejected {}",
            c.accepted, c.rejected
        )
    });
    checks.check(accepted == c.accepted, || {
        format!(
            "{tag}: client saw {accepted} accepted, journal {}",
            c.accepted
        )
    });
    checks.check(cancels == c.cancelled + c.cancel_misses, || {
        format!(
            "{tag}: acked cancels {cancels} != cancelled {} + misses {}",
            c.cancelled, c.cancel_misses
        )
    });
    checks.check(cancelled == c.cancelled, || {
        format!(
            "{tag}: client saw {cancelled} cancelled, journal {}",
            c.cancelled
        )
    });
    let missing = ids
        .iter()
        .filter(|id| machine.status(**id).is_none())
        .count();
    checks.check(ids.len() as u64 == submits && missing == 0, || {
        format!("{tag}: {missing} acked task ids have no status")
    });
    checks.check(machine.violations() == 0, || {
        format!("{tag}: {} audit violations", machine.violations())
    });
    if failed == 0 {
        // Every write plus the drain marker, and nothing else.
        checks.check(machine.applied() == submits + cancels + 1, || {
            format!(
                "{tag}: journal holds {} commands, client acked {} writes",
                machine.applied(),
                submits + cancels
            )
        });
    }
    (machine.applied(), *c)
}

/// Restart time on a copy of `journal`: spawn until `/readyz` answers 200.
fn recover_times(bin: &Path, journal: &Path, checks: &mut Checks) -> Vec<f64> {
    let copy = journal_dir().join(format!("{NAME}-recover.mbtsj"));
    let mut times = Vec::new();
    for _ in 0..3 {
        let ok = fs::copy(journal, &copy).and_then(|_| {
            let (daemon, ready) = Daemon::start(&DaemonConfig {
                bin,
                journal: &copy,
                time_scale: 1.0,
            })?;
            times.push(ready.as_secs_f64());
            daemon.drain()
        });
        checks.check(matches!(ok, Ok(true)), || {
            format!("{NAME}: restarted daemon did not drain cleanly: {ok:?}")
        });
    }
    let _ = fs::remove_file(&copy);
    times
}

/// Extra set-ups (nominal inputs, then a daemon on a fresh journal until
/// `/readyz` answers), so that `setup_s` is a median over enough samples.
fn setup_times(bin: &Path, seed: u64, checks: &mut Checks) -> std::io::Result<Vec<f64>> {
    let journal = journal_dir().join(format!("{NAME}-setup.mbtsj"));
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let _ = fs::remove_file(&journal);
        let input = make_step(seed, NOMINAL, &mut Spans::new());
        let (daemon, ready) = Daemon::start(&DaemonConfig {
            bin,
            journal: &journal,
            time_scale: input.submit_rate * 100.0 / 16.0,
        })?;
        times.push(input.gen_s + ready.as_secs_f64());
        let exit_ok = daemon.drain()?;
        checks.check(exit_ok, || format!("{NAME}: idle daemon exit status not 0"));
    }
    Ok(times)
}

fn wake_calibration() -> Summary {
    Summary::of(client::wake_lateness_ms(500, Duration::from_millis(1)))
}

pub fn run(bin: &Path, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let result = if traced {
        run_traced(bin, seed, &mut out)
    } else {
        run_ladder(bin, seed, &mut out)
    };
    if let Err(e) = result {
        out.checks.check(false, || format!("{NAME}: {e}"));
    }
    let _ = fs::remove_dir_all(journal_dir());
    out
}

fn run_ladder(bin: &Path, seed: u64, out: &mut Outcome) -> std::io::Result<()> {
    let wake = wake_calibration();
    let mut spans = Spans::new();
    let mut steps = Vec::new();
    for rate in LADDER {
        steps.push(run_step(
            bin,
            seed,
            rate,
            &mut spans,
            false,
            &mut out.checks,
        )?);
    }
    let nominal = steps
        .iter()
        .find(|s| s.rate == NOMINAL)
        .expect("the ladder holds the nominal rate");
    let recover = recover_times(bin, &nominal.journal, &mut out.checks);

    out.lines.push(format!(
        "ladder ({} writes per step, limit {LIMIT_MS} ms, generator bound {GEN_LATE_LIMIT_MS} ms)",
        WRITES_PER_STEP
    ));
    out.lines.push(TABLE_HEAD.into());
    out.lines.extend(steps.iter().map(Step::row));
    let sent: usize = steps.iter().map(|s| s.sent).sum();
    let failed: usize = steps.iter().map(|s| s.failed).sum();
    let max_rate = steps
        .iter()
        .filter(|s| s.passes())
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    out.attempted = sent as u64;
    out.failed = failed as u64;
    let mut setups: Vec<f64> = steps.iter().map(|s| s.setup_s).collect();
    setups.extend(setup_times(bin, seed, &mut out.checks)?);
    let w = &nominal.writes;
    // Over the whole ladder: four times the CPU samples of one step, spread
    // over the run, so host load that drifts over seconds averages out.
    let cpu_s: f64 = steps.iter().map(|s| s.cpu_s).sum();
    out.metrics = vec![
        metric("cpu_us_per_op", cpu_s * 1e6 / sent as f64, "us", Some(sent)),
        metric("rss_mb", nominal.rss_mb, "MiB", None),
        metric("setup_s", median(&setups), "s", Some(setups.len())),
    ];
    out.info = vec![
        metric("ack_p50_ms", w.p50, "ms", Some(w.n)),
        metric("ack_p99_ms", w.p99, "ms", Some(w.n)),
        metric(
            "cpu_us_per_op.nominal",
            nominal.cpu_s * 1e6 / nominal.sent as f64,
            "us",
            Some(nominal.sent),
        ),
        metric("max_rate_rps", max_rate as f64, "req/s", Some(steps.len())),
        metric(
            "fail_frac",
            failed as f64 / sent as f64,
            "ratio",
            Some(sent),
        ),
        metric("recover_s", median(&recover), "s", Some(recover.len())),
        metric(
            "journal_bytes_per_cmd",
            nominal.journal_bytes as f64 / nominal.applied.max(1) as f64,
            "B",
            Some(nominal.applied as usize),
        ),
        metric("client.wake_late_p99_ms", wake.p99, "ms", Some(wake.n)),
    ];
    Ok(())
}

/// The traced pass: the nominal step live, with client spans and a
/// `/metrics` scrape at the end, then an offline replay of its journal
/// through each layer's public functions. The daemon runs in its own
/// process and is never traced, so `trace_overhead_frac` compares the
/// offline replay with spans against the same replay without them.
fn run_traced(bin: &Path, seed: u64, out: &mut Outcome) -> std::io::Result<()> {
    let wake = wake_calibration();
    let mut spans = Spans::new();
    let step = run_step(bin, seed, NOMINAL, &mut spans, true, &mut out.checks)?;

    // Client spans, one per request, on the recorder's clock.
    let offset = step
        .result
        .started
        .duration_since(spans.origin())
        .as_nanos() as u64;
    for (i, req) in step.input.reqs.iter().enumerate() {
        let reply = &step.result.replies[i];
        if reply.ok() {
            spans.record(Span {
                name: "client.write",
                start_ns: offset + req.at_ns,
                end_ns: offset + reply.done_ns,
                parent: None,
                req: i as u64,
            });
        }
    }

    let bytes = fs::read(&step.journal)?;
    let (replay, untraced_ns) = replay_journal(&bytes, &mut spans, &mut out.checks)?;
    for (i, req) in step.input.reqs.iter().enumerate() {
        spans.time("serve.parse", None, i as u64, || {
            http::read_request(&mut Cursor::new(&req.wire))
        })?;
        let reply = &step.result.replies[i];
        let mut wire = Vec::with_capacity(256);
        spans.time("serve.reply", None, i as u64, || {
            http::write_response_typed(
                &mut wire,
                reply.status,
                http::reason(reply.status),
                "application/json",
                &[],
                &reply.body,
            )
        })?;
    }

    let by = spans.by_name();
    let get = |n: &str| by.get(n).cloned().unwrap_or_default();
    let (submit, cancel) = (get("serve.apply.submit"), get("serve.apply.cancel"));
    let mut apply_samples = submit.durations.clone();
    apply_samples.extend(&cancel.durations);
    let apply = Summary::of(apply_samples.iter().map(|ns| ns / 1e3).collect());
    let append = get("durable.append_event");
    let append_s = Summary::of(append.durations.iter().map(|ns| ns / 1e3).collect());
    let snap = get("serve.snapshot");
    let (parse, reply, encode) = (get("serve.parse"), get("serve.reply"), get("serve.encode"));
    let writes = get("client.write");
    let wall_ns = step.result.wall_ns as f64;
    let core_busy = apply.mean * 1e3 * apply.n as f64 + append.total_ns() + snap.total_ns();
    let per_write_busy_us = parse.mean_us()
        + encode.mean_us()
        + append.mean_us()
        + apply.mean
        + reply.mean_us()
        + snap.total_ns() / 1e3 / writes.count().max(1) as f64;
    let overhead = (replay.busy_ns - untraced_ns) / untraced_ns;
    let pending = Summary::of(replay.pending.clone());
    out.metrics = universal_layers(&by, &replay.probes, &pending, overhead);
    out.attempted = step.sent as u64;
    out.failed = step.failed as u64;

    let gen_late = &step.gen_late;
    let mb = |b: f64| b / (1024.0 * 1024.0);
    let mut info = vec![
        metric(
            "serve.snapshot_ms",
            snap.mean_us() / 1e3,
            "ms",
            Some(snap.count()),
        ),
        metric(
            "serve.snapshot_max_ms",
            snap.durations.iter().cloned().fold(0.0, f64::max) / 1e6,
            "ms",
            Some(snap.count()),
        ),
        metric(
            "serve.snapshot_mb",
            mb(replay.snapshot_bytes.iter().sum::<f64>()
                / replay.snapshot_bytes.len().max(1) as f64),
            "MiB",
            Some(snap.count()),
        ),
        metric("serve.snapshots", snap.count() as f64, "count", None),
        metric("serve.apply_us", apply.mean, "us", Some(apply.n)),
        metric("serve.apply_p99_us", apply.p99, "us", Some(apply.n)),
        metric(
            "serve.apply_submit_us",
            submit.mean_us(),
            "us",
            Some(submit.count()),
        ),
        metric(
            "serve.apply_cancel_us",
            cancel.mean_us(),
            "us",
            Some(cancel.count()),
        ),
        metric(
            "serve.encode_us",
            encode.mean_us(),
            "us",
            Some(encode.count()),
        ),
        metric("serve.parse_us", parse.mean_us(), "us", Some(parse.count())),
        metric("serve.reply_us", reply.mean_us(), "us", Some(reply.count())),
        metric("serve.core_busy_frac", core_busy / wall_ns, "ratio", None),
        metric(
            "serve.wait_us",
            writes.mean_us() - per_write_busy_us,
            "us",
            Some(writes.count()),
        ),
        metric(
            "serve.cpu_ms_per_kreq",
            step.cpu_s * 1e3 / (step.sent as f64 / 1e3),
            "ms",
            Some(step.sent),
        ),
        metric(
            "serve.recover_ms",
            get("serve.recover").mean_us() / 1e3,
            "ms",
            Some(1),
        ),
        metric("durable.append_us", append_s.mean, "us", Some(append_s.n)),
        metric(
            "durable.append_p99_us",
            append_s.p99,
            "us",
            Some(append_s.n),
        ),
        metric(
            "durable.sync_us",
            get("durable.sync").mean_us(),
            "us",
            Some(get("durable.sync").count()),
        ),
        metric(
            "durable.scan_ms",
            get("durable.scan").mean_us() / 1e3,
            "ms",
            Some(1),
        ),
        metric("durable.journal_mb", mb(bytes.len() as f64), "MiB", None),
        metric("client.sent", step.sent as f64, "count", None),
        metric("client.failed", step.failed as f64, "count", None),
        metric(
            "client.gen_late_p99_ms",
            gen_late.p99,
            "ms",
            Some(gen_late.n),
        ),
        metric(
            "client.gen_late_max_ms",
            gen_late.max,
            "ms",
            Some(gen_late.n),
        ),
        metric("client.wake_late_p99_ms", wake.p99, "ms", Some(wake.n)),
        metric("ack_p50_ms", step.writes.p50, "ms", Some(step.writes.n)),
        metric("replay.untraced_ms", untraced_ns / 1e6, "ms", Some(2)),
        metric("replay.traced_ms", replay.busy_ns / 1e6, "ms", Some(1)),
    ];
    if let Some(text) = &step.telemetry {
        // Cross-check against the daemon's own histograms (informational:
        // the series names belong to the daemon and may change).
        let sum_ms = |series: &str| prom_value(text, series).map_or(f64::NAN, |s| s * 1e3);
        let request_ms = sum_ms("serve_request_duration_seconds_sum");
        let attributed_ms = (parse.total_ns()
            + encode.total_ns()
            + append.total_ns()
            + apply.mean * 1e3 * apply.n as f64
            + snap.total_ns()
            + reply.total_ns())
            / 1e6
            + sum_ms("serve_queue_wait_duration_seconds_sum");
        info.extend([
            metric("telemetry.request_sum_ms", request_ms, "ms", None),
            metric(
                "telemetry.queue_wait_sum_ms",
                sum_ms("serve_queue_wait_duration_seconds_sum"),
                "ms",
                None,
            ),
            metric(
                "telemetry.journal_append_sum_ms",
                sum_ms("serve_journal_append_duration_seconds_sum"),
                "ms",
                None,
            ),
            metric(
                "replay.journal_append_sum_ms",
                append.total_ns() / 1e6,
                "ms",
                None,
            ),
            metric(
                "telemetry.apply_sum_ms",
                sum_ms("serve_apply_duration_seconds_sum"),
                "ms",
                None,
            ),
            metric(
                "replay.apply_sum_ms",
                apply.mean * apply.n as f64 / 1e3,
                "ms",
                None,
            ),
            metric(
                "serve.unattributed_frac",
                1.0 - attributed_ms / request_ms,
                "ratio",
                None,
            ),
        ]);
    }
    out.info = info;
    write_spans(NAME, seed, &spans, out);
    Ok(())
}

/// What one offline replay pass measured besides spans.
#[derive(Default)]
struct Replay {
    pending: Vec<f64>,
    probes: CoreProbes,
    snapshot_bytes: Vec<f64>,
    /// Wall time of the pass minus its syncs and core probes.
    busy_ns: f64,
}

/// Replays a drained journal through the layers the daemon's core thread
/// runs, checks that it ends where recovery does, and returns the traced
/// pass with the mean busy time of two untraced passes around it.
fn replay_journal(
    bytes: &[u8],
    spans: &mut Spans,
    checks: &mut Checks,
) -> std::io::Result<(Replay, f64)> {
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    spans
        .time("durable.scan", None, 0, || recover_bytes(bytes))
        .map_err(|e| invalid(e.to_string()))?;
    let (recovered, _) = spans
        .time("serve.recover", None, 0, || ServiceRun::recover(bytes))
        .map_err(|e| invalid(e.to_string()))?;
    let scan = framing::scan(bytes).map_err(|e| invalid(e.to_string()))?;
    let genesis = scan
        .records
        .first()
        .filter(|(tag, _)| *tag == RecordTag::Snapshot)
        .ok_or_else(|| invalid("journal does not start with a snapshot".into()))?
        .1;
    let commands = scan.records[1..]
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Event)
        .map(|(_, payload)| serde_json::from_slice::<Command>(payload))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| invalid(e.to_string()))?;
    // Untraced passes before and after the traced one, so that neither
    // side of the overhead ratio is the cold first pass.
    let (_, before) = replay_pass(genesis, &commands, &mut Spans::off())?;
    let (machine, traced) = replay_pass(genesis, &commands, spans)?;
    let (_, after) = replay_pass(genesis, &commands, &mut Spans::off())?;
    let same = serde_json::to_vec(&machine.snapshot()).ok()
        == serde_json::to_vec(&recovered.snapshot()).ok();
    checks.check(same, || {
        format!("{NAME}: offline replay diverged from recovery")
    });
    Ok((traced, (before.busy_ns + after.busy_ns) / 2.0))
}

/// One pass of the core thread's work over `commands`, from the genesis
/// snapshot: encode, append to a fresh on-disk journal without fsync,
/// apply, and snapshot at the daemon's cadence, plus a `Journal::sync`
/// every `SYNC_GAP` commands. A recording `spans` also gets the pending
/// pool's length after every command and a core probe every `PROBE_GAP`.
fn replay_pass(
    genesis: &[u8],
    commands: &[Command],
    spans: &mut Spans,
) -> std::io::Result<(ServiceMachine, Replay)> {
    let snapshot: ServiceSnapshot = serde_json::from_slice(genesis)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut machine = ServiceMachine::from_snapshot(snapshot);
    let path = journal_dir().join(format!("{NAME}-replay.mbtsj"));
    let mut journal = Journal::create(&path)?;
    journal.append_snapshot(genesis)?;

    let mut r = Replay::default();
    let mut excluded = Duration::ZERO;
    let mut since_snapshot = 0u64;
    let t0 = Instant::now();
    for cmd in commands {
        let parent = spans.begin("serve.command", None, cmd.seq);
        let wire = spans.time("serve.encode", Some(parent), cmd.seq, || {
            serde_json::to_vec(cmd).expect("commands serialize")
        });
        spans.time("durable.append_event", Some(parent), cmd.seq, || {
            journal.append_event(&wire)
        })?;
        let apply = match cmd.kind {
            CommandKind::Submit { .. } => "serve.apply.submit",
            CommandKind::Cancel { .. } => "serve.apply.cancel",
            _ => "serve.apply.other",
        };
        spans.time(apply, Some(parent), cmd.seq, || machine.apply(cmd));
        since_snapshot += 1;
        if since_snapshot >= SNAPSHOT_EVERY {
            let snap = spans.time("serve.snapshot", Some(parent), cmd.seq, || {
                serde_json::to_vec(&machine.snapshot()).expect("snapshots serialize")
            });
            spans.time("durable.append_snapshot", Some(parent), cmd.seq, || {
                journal.append_snapshot(&snap)
            })?;
            r.snapshot_bytes.push(snap.len() as f64);
            since_snapshot = 0;
        }
        spans.end(parent);
        if cmd.seq % SYNC_GAP == SYNC_GAP - 1 {
            let t = Instant::now();
            spans.time("durable.sync", None, cmd.seq, || journal.sync())?;
            excluded += t.elapsed();
        }
        if spans.recording() {
            let t = Instant::now();
            r.pending.push(machine.site().pending_len() as f64);
            if cmd.seq % PROBE_GAP == PROBE_GAP - 1 {
                let pool = machine.site().snapshot().pending;
                r.probes.probe(spans, machine.now(), vec![pool], cmd.seq);
            }
            excluded += t.elapsed();
        }
    }
    r.busy_ns = (t0.elapsed() - excluded).as_nanos() as f64;
    drop(journal);
    let _ = fs::remove_file(&path);
    Ok((machine, r))
}

/// Value of the first exposition line for `series` (no labels).
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_inputs_depend_only_on_the_seed() {
        let mut spans = Spans::new();
        let a = make_step(3, 2000, &mut spans);
        let b = make_step(3, 2000, &mut spans);
        assert!(a
            .reqs
            .iter()
            .zip(&b.reqs)
            .all(|(x, y)| x.at_ns == y.at_ns && x.wire == y.wire));
        assert!(a.reqs.len() >= WRITES_PER_STEP);
        let cancels = a.kinds.iter().filter(|k| **k == Kind::Cancel).count();
        assert!(cancels > 0 && cancels <= a.reqs.len() / CANCEL_BLOCK);
        let c = make_step(4, 2000, &mut spans);
        assert!(a.reqs.iter().zip(&c.reqs).any(|(x, y)| x.wire != y.wire));
    }

    #[test]
    fn every_submit_body_parses_as_a_valid_bid() {
        let mut spans = Spans::new();
        let s = make_step(1, 1000, &mut spans);
        for (req, kind) in s.reqs.iter().zip(&s.kinds) {
            let parsed = http::read_request(&mut Cursor::new(&req.wire))
                .unwrap()
                .unwrap();
            if *kind == Kind::Submit {
                let v: Value = serde_json::from_slice(&parsed.body).unwrap();
                assert!(matches!(v.get("runtime"), Some(Value::Float(r)) if *r > 0.0));
            }
        }
    }

    #[test]
    fn reads_prometheus_sums() {
        let text = "# TYPE x histogram\nserve_apply_duration_seconds_sum 1.5e-3\nserve_apply_duration_seconds_count 3\n";
        assert_eq!(
            prom_value(text, "serve_apply_duration_seconds_sum"),
            Some(1.5e-3)
        );
        assert_eq!(prom_value(text, "serve_apply_duration_seconds"), None);
    }
}
