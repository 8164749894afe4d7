//! The simulator workloads: `site-overload` (one deep-pool site) and
//! `market-fanout` (the serial economy over 1000 shallow sites).
//!
//! Untraced runs replay the seed's trace again and again until the run's
//! time is up; every replay is set up from scratch, so set-up time is a
//! median over many set-ups spread over the run, and every replay must
//! reach the same outcome digest.

use std::time::{Duration, Instant};

use mbts_core::{AdmissionPolicy, Job, PendingPool, Policy, PoolCheckpoint};
use mbts_market::{EcoEvent, EconomyConfig, EconomyRun};
use mbts_sim::Time;
use mbts_site::{SimEvent, SiteConfig, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{generate_trace, BoundPolicy, MixConfig, PenaltyBound, TaskSpec};

use crate::report::{metric, Checks, Outcome};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::sys::{keep_freed_memory, peak_rss_mb, thread_cpu_ns};

/// Events per latency window: per-event step times are averaged over this
/// many consecutive events, which smooths the cheap/expensive alternation
/// of arrivals and completions into one latency distribution.
const WINDOW: u64 = 64;
/// Set-ups timed after each replay besides the next replay's own, so that
/// `setup_s` is a median over enough samples, taken across the whole run,
/// to be steady at a few milliseconds each.
const SETUP_PER_REPLAY: usize = 12;

/// A replayable simulation, as the benchmark drives it.
pub trait Sim: Sized {
    /// Span names of `step()` by the kind of event it handles:
    /// arrival, completion, anything else.
    const STEP_SPANS: [&'static str; 3];
    /// Events between core-layer probes in a traced run.
    const PROBE_EVERY: u64;
    /// Generates the seed's trace and builds the run.
    fn setup(seed: u64, spans: &mut Spans) -> Self;
    fn step(&mut self) -> bool;
    fn events(&self) -> u64;
    fn now(&self) -> Time;
    /// Kind index (into `STEP_SPANS`) of the next event, if any.
    fn next_kind(&self) -> Option<usize>;
    /// Pending-pool length right now, where one site owns the run.
    fn pending_len(&self) -> Option<usize>;
    /// Checkpoints of every site's pending pool.
    fn pools(&self) -> Vec<PoolCheckpoint>;
    /// Consumes the finished run: checks its outcome and returns its digest.
    fn finish(self, checks: &mut Checks) -> String;
}

pub struct SiteOverload(SiteRun);

impl Sim for SiteOverload {
    const STEP_SPANS: [&'static str; 3] = [
        "site.step.arrival",
        "site.step.completion",
        "site.step.other",
    ];
    const PROBE_EVERY: u64 = 2048;

    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let mix = MixConfig::millennium_default()
            .with_tasks(20_000)
            .with_processors(16)
            .with_load_factor(1.5)
            .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
        let trace = spans.time("workload.generate_trace", None, 0, || {
            generate_trace(&mix, seed)
        });
        let config = SiteConfig::new(16)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_admission(AdmissionPolicy::AcceptAll);
        SiteOverload(spans.time("site.new", None, 0, || {
            SiteRun::new(config, &trace, Tracer::Off)
        }))
    }

    fn step(&mut self) -> bool {
        self.0.step()
    }

    fn events(&self) -> u64 {
        self.0.events_handled()
    }

    fn now(&self) -> Time {
        self.0.now()
    }

    fn next_kind(&self) -> Option<usize> {
        self.0.next_event().map(|(_, e)| match e {
            SimEvent::Arrival(_) => 0,
            SimEvent::Completion(_) => 1,
            _ => 2,
        })
    }

    fn pending_len(&self) -> Option<usize> {
        Some(self.0.state().pending_len())
    }

    fn pools(&self) -> Vec<PoolCheckpoint> {
        vec![self.0.snapshot().site.pending]
    }

    fn finish(self, checks: &mut Checks) -> String {
        let (outcome, _) = self.0.finish();
        let m = &outcome.metrics;
        checks.check(outcome.violations.is_empty(), || {
            format!("site audit violations: {:?}", outcome.violations)
        });
        checks.check(m.submitted == 20_000, || {
            format!("site saw {} submissions, expected 20000", m.submitted)
        });
        checks.check(m.submitted == m.completed + m.rejected + m.dropped, || {
            format!(
                "submitted {} != completed {} + rejected {} + dropped {}",
                m.submitted, m.completed, m.rejected, m.dropped
            )
        });
        format!(
            "yield={:016x} completed={}",
            m.total_yield.to_bits(),
            m.completed
        )
    }
}

pub struct MarketFanout(EconomyRun);

impl Sim for MarketFanout {
    const STEP_SPANS: [&'static str; 3] = [
        "market.step.arrival",
        "market.step.completion",
        "market.step.other",
    ];
    const PROBE_EVERY: u64 = 4096;

    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let mix = MixConfig::millennium_default()
            .with_tasks(20_000)
            .with_processors(2 * 1000)
            .with_load_factor(1.2);
        let trace = spans.time("workload.generate_trace", None, 0, || {
            generate_trace(&mix, seed)
        });
        let mut config = EconomyConfig::uniform(
            1000,
            SiteConfig::new(2)
                .with_policy(Policy::FirstPrice)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
        );
        config.seed = seed;
        MarketFanout(spans.time("market.new", None, 0, || {
            EconomyRun::new(config, &trace, Tracer::Off)
        }))
    }

    fn step(&mut self) -> bool {
        self.0.step()
    }

    fn events(&self) -> u64 {
        self.0.events_handled()
    }

    fn now(&self) -> Time {
        self.0.now()
    }

    fn next_kind(&self) -> Option<usize> {
        self.0.next_event().map(|(_, e)| match e {
            EcoEvent::Arrival(_) => 0,
            EcoEvent::Completion { .. } => 1,
            _ => 2,
        })
    }

    fn pending_len(&self) -> Option<usize> {
        None
    }

    fn pools(&self) -> Vec<PoolCheckpoint> {
        self.0
            .snapshot()
            .sites
            .into_iter()
            .map(|s| s.pending)
            .collect()
    }

    fn finish(self, checks: &mut Checks) -> String {
        let (outcome, _) = self.0.finish();
        checks.check(outcome.audit_violations.is_empty(), || {
            format!("market audit violations: {:?}", outcome.audit_violations)
        });
        let site_violations: usize = outcome.per_site.iter().map(|s| s.violations.len()).sum();
        checks.check(site_violations == 0, || {
            format!("{site_violations} site audit violations")
        });
        let sum = |f: fn(&mbts_site::SiteMetrics) -> usize| -> usize {
            outcome.per_site.iter().map(|s| f(&s.metrics)).sum()
        };
        let (submitted, completed, rejected, dropped) = (
            sum(|m| m.submitted),
            sum(|m| m.completed),
            sum(|m| m.rejected),
            sum(|m| m.dropped),
        );
        checks.check(submitted == completed + rejected + dropped, || {
            format!(
                "sites: submitted {submitted} != completed {completed} + rejected {rejected} + dropped {dropped}"
            )
        });
        checks.check(
            outcome.offered == 20_000
                && outcome.offered == outcome.placed + outcome.unplaced + outcome.unfunded,
            || {
                format!(
                    "market: offered {} != placed {} + unplaced {} + unfunded {}",
                    outcome.offered, outcome.placed, outcome.unplaced, outcome.unfunded
                )
            },
        );
        checks.check(outcome.placed == completed + dropped, || {
            format!(
                "market: placed {} != completed {completed} + dropped {dropped}",
                outcome.placed
            )
        });
        format!(
            "paid={:016x} completed={completed}",
            outcome.total_paid.to_bits()
        )
    }
}

/// Runs a simulator workload for `seconds` (untraced) or its traced pass.
pub fn run<S: Sim>(name: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    keep_freed_memory();
    if traced {
        return run_traced::<S>(name, seed);
    }
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Set-up is timed on the thread's CPU clock: it takes milliseconds,
    // and wall time would mostly measure when the shared host preempted it.
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t = thread_cpu_ns();
        let sim = S::setup(seed, &mut Spans::off());
        setups.push((thread_cpu_ns() - t) as f64 / 1e9);
        sim
    };
    let mut windows = Vec::new();
    let (mut cpu_ns, mut wall_s, mut events) = (0u64, 0.0f64, 0u64);
    let mut digests = Vec::new();
    // The first set-up is not timed: it page-faults the heap in, which
    // later set-ups reuse.
    let mut sim = S::setup(seed, &mut Spans::off());
    loop {
        let cpu0 = thread_cpu_ns();
        let w0 = Instant::now();
        let mut window_start = w0;
        while sim.step() {
            if sim.events() % WINDOW == 0 {
                let now = Instant::now();
                windows.push((now - window_start).as_secs_f64() * 1e3 / WINDOW as f64);
                window_start = now;
            }
        }
        wall_s += w0.elapsed().as_secs_f64();
        cpu_ns += thread_cpu_ns() - cpu0;
        events += sim.events();
        digests.push(sim.finish(&mut out.checks));
        for _ in 0..SETUP_PER_REPLAY {
            drop(timed_setup());
        }
        if Instant::now() >= deadline {
            break;
        }
        sim = timed_setup();
    }
    check_digests(name, seed, &digests, &mut out);
    let lat = Summary::of(windows);
    out.attempted = events;
    out.metrics = vec![
        metric(
            "cpu_us_per_op",
            cpu_ns as f64 / 1e3 / events as f64,
            "us",
            Some(events as usize),
        ),
        metric("rss_mb", peak_rss_mb("self"), "MiB", None),
        metric("setup_s", median(&setups), "s", Some(setups.len())),
    ];
    out.info = vec![
        metric(
            "events_per_s",
            events as f64 / wall_s,
            "1/s",
            Some(events as usize),
        ),
        metric("event_p50_ms", lat.p50, "ms", Some(lat.n)),
        metric("event_p99_ms", lat.p99, "ms", Some(lat.n)),
        metric("replays", digests.len() as f64, "count", None),
    ];
    out
}

fn check_digests(name: &str, seed: u64, digests: &[String], out: &mut Outcome) {
    out.lines.push(format!("digest {}", digests[0]));
    out.checks
        .check(digests.iter().all(|d| *d == digests[0]), || {
            format!("outcome digest differs across replays: {digests:?}")
        });
    if let Some(expected) = crate::expected_digest(name, seed) {
        out.checks.check(digests[0] == expected, || {
            format!(
                "digest {} != recorded {expected} for seed {seed}",
                digests[0]
            )
        });
    }
}

/// One untraced replay (the overhead baseline), then one replay with a span
/// around every `step()` and core-layer probes along the way.
fn run_traced<S: Sim>(name: &str, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new();

    // Untraced replays before and after the traced one, so that neither
    // side of the overhead ratio is the process's cold first replay.
    let untraced = |spans: &mut Spans, checks: &mut Checks| {
        let mut sim = S::setup(seed, spans);
        let w0 = Instant::now();
        while sim.step() {}
        let eps = sim.events() as f64 / w0.elapsed().as_secs_f64();
        (eps, sim.finish(checks))
    };
    let (before_eps, first) = untraced(&mut spans, &mut out.checks);

    let mut sim = S::setup(seed, &mut spans);
    let mut pending = Vec::new();
    let mut probes = CoreProbes::default();
    let mut stepping_ns = 0u64;
    while let Some(kind) = sim.next_kind() {
        let id = spans.begin(S::STEP_SPANS[kind], None, sim.events());
        sim.step();
        spans.end(id);
        stepping_ns += spans.dur_ns(id);
        if let Some(n) = sim.pending_len() {
            pending.push(n as f64);
        }
        if sim.events() % S::PROBE_EVERY == 0 {
            let pools = sim.pools();
            if sim.pending_len().is_none() {
                pending.extend(pools.iter().map(|p| p.jobs.len() as f64));
            }
            probes.probe(&mut spans, sim.now(), pools, sim.events());
        }
    }
    let events = sim.events();
    let traced_eps = events as f64 / (stepping_ns as f64 / 1e9);
    let second = sim.finish(&mut out.checks);
    let (after_eps, third) = untraced(&mut spans, &mut out.checks);
    let untraced_eps = (before_eps + after_eps) / 2.0;
    check_digests(name, seed, &[first, second, third], &mut out);

    let by = spans.by_name();
    let step_us = |i: usize| by.get(S::STEP_SPANS[i]).map_or(0.0, |s| s.mean_us());
    let step_n = |i: usize| by.get(S::STEP_SPANS[i]).map_or(0, |s| s.count());
    let pend = Summary::of(pending);
    out.attempted = events;
    out.metrics = universal_layers(
        &by,
        &probes,
        &pend,
        (untraced_eps - traced_eps) / untraced_eps,
    );
    let layer = S::STEP_SPANS[0].split('.').next().unwrap_or("sim");
    out.info = vec![
        metric(
            "events_per_s.untraced",
            untraced_eps,
            "1/s",
            Some(events as usize),
        ),
        metric(
            "events_per_s.traced",
            traced_eps,
            "1/s",
            Some(events as usize),
        ),
    ];
    for (i, label) in ["arrival_step_us", "completion_step_us", "other_step_us"]
        .iter()
        .enumerate()
    {
        out.info.push(metric(
            format!("{layer}.{label}"),
            step_us(i),
            "us",
            Some(step_n(i)),
        ));
    }
    if layer == "market" {
        let arrival_ns = by.get(S::STEP_SPANS[0]).map_or(0.0, |s| s.total_ns());
        out.info.push(metric(
            "market.arrival_busy_frac",
            arrival_ns / stepping_ns as f64,
            "ratio",
            None,
        ));
    }
    write_spans(name, seed, &spans, &mut out);
    out
}

/// `PendingPool` timings on pools rebuilt from checkpoints of live runs.
#[derive(Default)]
pub struct CoreProbes {
    /// (select_best ns, push ns, pool length at the selection) per probe.
    pub samples: Vec<(f64, f64, usize)>,
}

impl CoreProbes {
    /// Pushes one probe job into each rebuilt pool, then selects from it,
    /// so that empty pools are measured too.
    pub fn probe(&mut self, spans: &mut Spans, now: Time, pools: Vec<PoolCheckpoint>, req: u64) {
        let parent = spans.begin("core.probe", None, req);
        for cp in pools {
            let n = cp.jobs.len() + 1;
            let mut pool = PendingPool::from_checkpoint(cp);
            // The first selection after a rebuild also builds the pool's
            // lazy indexes; the timed calls run on a warm pool.
            pool.select_best(now);
            let job = Job::new(TaskSpec::new(
                u64::MAX >> 1,
                now.as_f64(),
                100.0,
                100.0,
                0.5,
                PenaltyBound::Unbounded,
            ));
            let p = spans.begin("core.push", Some(parent), req);
            pool.push(job);
            spans.end(p);
            let s = spans.begin("core.select_best", Some(parent), req);
            std::hint::black_box(pool.select_best(now));
            spans.end(s);
            self.samples
                .push((spans.dur_ns(s) as f64, spans.dur_ns(p) as f64, n));
        }
        spans.end(parent);
    }
}

/// The per-layer metrics every workload reports, in `BENCHMARK.json` order.
pub fn universal_layers(
    by: &std::collections::BTreeMap<&'static str, crate::spans::NameStats>,
    probes: &CoreProbes,
    pending: &Summary,
    overhead: f64,
) -> Vec<crate::report::Metric> {
    let gen = by
        .get("workload.generate_trace")
        .cloned()
        .unwrap_or_default();
    let n = probes.samples.len();
    let mean = |f: &dyn Fn(&(f64, f64, usize)) -> f64| {
        probes.samples.iter().map(f).sum::<f64>() / n.max(1) as f64
    };
    vec![
        metric(
            "workload.gen_ms",
            gen.mean_us() / 1e3,
            "ms",
            Some(gen.count()),
        ),
        metric("core.select_us", mean(&|s| s.0 / 1e3), "us", Some(n)),
        // Σ time over Σ pool length, so that deep pools, where the sweep's
        // cost per job shows, outweigh the many near-empty ones.
        metric(
            "core.select_us_per_kpending",
            probes.samples.iter().map(|s| s.0).sum::<f64>()
                / probes.samples.iter().map(|s| s.2).sum::<usize>().max(1) as f64,
            "us",
            Some(n),
        ),
        metric("core.push_us", mean(&|s| s.1 / 1e3), "us", Some(n)),
        metric("site.pending_mean", pending.mean, "count", Some(pending.n)),
        metric("site.pending_max", pending.max, "count", Some(pending.n)),
        metric("trace_overhead_frac", overhead, "ratio", None),
    ]
}

/// Prints the per-name self-time table and writes the spans out.
pub fn write_spans(name: &str, seed: u64, spans: &Spans, out: &mut Outcome) {
    out.lines.extend(Spans::table(&spans.by_name()));
    let path = crate::out_dir().join(format!("spans-{name}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => out.lines.push(format!("spans -> {}", path.display())),
        Err(e) => out
            .checks
            .check(false, || format!("cannot write {}: {e}", path.display())),
    }
}
