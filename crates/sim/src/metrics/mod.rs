//! The process-global observability registry: every latency series,
//! request counter and gauge the stack records, in one enum-indexed,
//! sharded, relaxed-atomic store.
//!
//! It lives at the bottom of the crate stack so the pending pool
//! (`mbts-core`), the snapshot writer (`mbts-durable`) and the serve
//! daemon all record into it without new dependency edges.
//!
//! * **Two scopes.** Each [`Series`] belongs to one [`Scope`]. The
//!   *profile* scope (scheduler hot paths) is off until `--profile` arms
//!   it; the *live* scope (the serve path, request counters, gauges) is
//!   on unless `--no-telemetry` turns it off. A disabled call is one
//!   relaxed load and a direct call — no clock read.
//! * **Sharded writers.** Cells are replicated across 8
//!   cache-line-aligned shards; each thread picks a shard once (a
//!   round-robin ticket) and then issues relaxed RMWs on it only.
//! * **Read-side sums.** [`snapshot`] sums the shards with relaxed loads
//!   into plain [`LatencyHistogram`]s. A concurrent scrape can miss an
//!   in-flight sample, but every counter is monotone across scrapes.
//! * **Observation only.** Nothing here feeds back into scheduling,
//!   journaling or simulated time, so journals, outcomes and traces are
//!   byte-identical with either scope on or off.

mod exposition;
mod histogram;

pub use exposition::Exposition;
pub use histogram::{
    bucket_of, bucket_of_upper_edge, lower_edge, upper_edge, LatencyHistogram, BUCKETS, SUB_BUCKETS,
};

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Writer shards.
const NSHARDS: usize = 8;

/// Which switch gates a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Scheduler hot paths; off until `--profile` arms it.
    Profile,
    /// The serve path, request counters and gauges; on by default.
    Live,
}

static PROFILE_ON: AtomicBool = AtomicBool::new(false);
static LIVE_ON: AtomicBool = AtomicBool::new(true);

impl Scope {
    #[inline]
    fn flag(self) -> &'static AtomicBool {
        match self {
            Scope::Profile => &PROFILE_ON,
            Scope::Live => &LIVE_ON,
        }
    }

    /// Turns recording on for this scope.
    pub fn enable(self) {
        self.flag().store(true, Relaxed);
    }

    /// Turns recording off for this scope (cells keep their values).
    pub fn disable(self) {
        self.flag().store(false, Relaxed);
    }

    /// Whether this scope records.
    #[inline]
    pub fn is_enabled(self) -> bool {
        self.flag().load(Relaxed)
    }
}

/// The live scope's switches under the names the serve path's
/// byte-identity tests use; `mbts_trace::telemetry` re-exports this.
pub mod live {
    pub use super::reset;
    use super::Scope;

    /// Turns the live scope on (the default).
    pub fn enable() {
        Scope::Live.enable();
    }

    /// Turns the live scope off.
    pub fn disable() {
        Scope::Live.disable();
    }

    /// Whether the live scope records.
    pub fn is_enabled() -> bool {
        Scope::Live.is_enabled()
    }
}

/// Declares a fieldless enum with a stable label per variant: the enum,
/// a constant slice of every variant in declaration order (indexes
/// match `as usize`), and `name()`.
macro_rules! labelled_enum {
    (
        $(#[$meta:meta])* pub enum $ty:ident, all = $all:ident {
            $($(#[$vmeta:meta])* $variant:ident = $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        #[doc = concat!("Every [`", stringify!($ty), "`], in declaration order.")]
        pub const $all: &[$ty] = &[$($ty::$variant),+];

        impl $ty {
            /// Stable label.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $label,)+
                }
            }
        }
    };
}

labelled_enum! {
    /// Every latency series, exposed as `<name>_duration_seconds`.
    pub enum Series, all = SERIES {
        /// `PendingPool::push`.
        PoolInsert = "pool_insert",
        /// `PendingPool::select_best`: cost-model upkeep plus selection.
        Select = "select",
        /// `PendingPool::scores`: the full backfill merge sweep.
        MergeSweep = "merge_sweep",
        /// Durable-run snapshot frame write.
        SnapshotWrite = "snapshot_write",
        /// Parsing one HTTP request off the wire.
        ServeParse = "serve_parse",
        /// Wait in the admission queue, enqueue to core pickup.
        ServeQueueWait = "serve_queue_wait",
        /// Journal append (+ cadence fsync) of one command.
        ServeJournalAppend = "serve_journal_append",
        /// State-machine fold of one command.
        ServeApply = "serve_apply",
        /// Service snapshot: machine capture, JSON encode and append.
        ServeSnapshot = "serve_snapshot",
        /// One request in a connection worker, parsed to reply rendered.
        ServeRequest = "serve_request",
    }
}

impl Series {
    /// The gate this series records under.
    #[inline]
    pub const fn scope(self) -> Scope {
        match self {
            Series::PoolInsert | Series::Select | Series::MergeSweep | Series::SnapshotWrite => {
                Scope::Profile
            }
            _ => Scope::Live,
        }
    }
}

labelled_enum! {
    /// Request routes the daemon serves (label `route`).
    pub enum Route, all = ROUTES {
        /// `POST /submit`.
        Submit = "submit",
        /// `POST /cancel`.
        Cancel = "cancel",
        /// `GET /status/{id}`.
        Status = "status",
        /// `GET /stats`.
        Stats = "stats",
        /// `POST /drain`.
        Drain = "drain",
        /// `GET /metrics`.
        Metrics = "metrics",
        /// `GET /healthz` / `GET /readyz`.
        Health = "health",
        /// Anything else (unknown endpoints, unparseable requests).
        Other = "other",
    }
}

labelled_enum! {
    /// Terminal request outcomes (label `outcome`).
    pub enum Outcome, all = OUTCOMES {
        /// 2xx: an accepted submission, an applied cancel, a served read.
        Ack = "ack",
        /// 200 on `/submit` whose admission heuristic declined the task.
        Rejected = "rejected",
        /// 429 from the overload shed pass.
        Shed = "shed",
        /// 429 from queue-full backpressure.
        Backpressure = "backpressure",
        /// 400 from protocol garbage the HTTP parser refused.
        Malformed = "malformed",
        /// 400 from a well-framed but invalid body or target.
        BadRequest = "bad_request",
        /// 404 (unknown task or endpoint).
        NotFound = "not_found",
        /// 503 while draining.
        Unavailable = "unavailable",
        /// 503 after the core-thread reply timeout.
        Timeout = "timeout",
        /// Anything else (405s, 5xx surprises).
        Error = "error",
    }
}

labelled_enum! {
    /// Point-in-time gauges the daemon publishes, by Prometheus name
    /// (live scope; single last-write-wins atomics, so unsharded).
    pub enum Gauge, all = GAUGES {
        /// Live admission-queue depth.
        QueueDepth = "serve_queue_depth",
        /// Configured queue capacity.
        QueueCapacity = "serve_queue_capacity",
        /// Remaining queue slack (`capacity − depth`).
        QueueSlack = "serve_queue_slack",
        /// 1 while draining, else 0.
        Draining = "serve_draining",
        /// EMA of journal-append + apply latency (the `Retry-After` signal).
        ApplyEmaNs = "serve_apply_ema_nanoseconds",
        /// Commands applied (replayed + live).
        Applied = "serve_applied_total",
        /// Tasks waiting in the site's pending pool.
        PendingTasks = "serve_pending_tasks",
        /// Gangs currently running.
        RunningTasks = "serve_running_tasks",
        /// Idle processors.
        FreeProcessors = "serve_free_processors",
        /// Completion events still in flight inside the sim core.
        OutstandingCompletions = "serve_outstanding_completions",
        /// Tasks released into the admission path (f64).
        TasksSubmitted = "serve_tasks_submitted_total",
        /// Tasks stranded by upstream workflow failures (f64).
        TasksStranded = "serve_tasks_stranded_total",
        /// Σ earned yield settled so far (f64).
        TotalYield = "serve_yield_total",
        /// Σ penalties charged so far (f64).
        TotalPenalty = "serve_penalty_total",
        /// Σ positive present value the shed pass walked away from (f64).
        ShedPvLost = "serve_shed_pv_lost_total",
        /// Invariant-auditor violations.
        Violations = "serve_violations",
        /// Commands replayed from the journal at startup.
        RecoveredReplayed = "serve_recovered_replayed_total",
        /// Torn bytes truncated from the journal at startup.
        RecoveredDroppedBytes = "serve_recovered_dropped_bytes",
        /// Chaos faults injected on the socket layer so far.
        ChaosFaultsInjected = "serve_chaos_faults_injected_total",
        /// Seconds since the daemon started (f64).
        UptimeSeconds = "serve_uptime_seconds",
    }
}

impl Gauge {
    /// Whether the cell carries `f64` bits instead of an integer.
    fn is_f64(self) -> bool {
        matches!(
            self,
            Gauge::TasksSubmitted
                | Gauge::TasksStranded
                | Gauge::TotalYield
                | Gauge::TotalPenalty
                | Gauge::ShedPvLost
                | Gauge::UptimeSeconds
        )
    }
}

const NSERIES: usize = SERIES.len();
const NCELLS: usize = ROUTES.len() * OUTCOMES.len();

struct SeriesCells {
    sum: AtomicU64,
    /// Bitwise-inverted minimum, so all-zero memory means "no sample"
    /// and the registry stays in `.bss`.
    min_inv: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

#[repr(align(64))]
struct Shard {
    requests: [AtomicU64; NCELLS],
    series: [SeriesCells; NSERIES],
}

static SHARDS: [Shard; NSHARDS] = [const {
    Shard {
        requests: [const { AtomicU64::new(0) }; NCELLS],
        series: [const {
            SeriesCells {
                sum: AtomicU64::new(0),
                min_inv: AtomicU64::new(0),
                max: AtomicU64::new(0),
                buckets: [const { AtomicU64::new(0) }; BUCKETS],
            }
        }; NSERIES],
    }
}; NSHARDS];

static GAUGE_CELLS: [AtomicU64; GAUGES.len()] = [const { AtomicU64::new(0) }; GAUGES.len()];

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % NSHARDS;
}

#[inline]
fn shard() -> &'static Shard {
    &SHARDS[MY_SHARD.with(|s| *s)]
}

/// Nanoseconds since `since`, saturating.
#[inline]
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Zeroes every cell (scope switches are left as they are). Tests and
/// `--profile` runs only; a live daemon's counters stay monotone.
pub fn reset() {
    for s in &SHARDS {
        s.requests.iter().for_each(|c| c.store(0, Relaxed));
        for c in &s.series {
            c.sum.store(0, Relaxed);
            c.min_inv.store(0, Relaxed);
            c.max.store(0, Relaxed);
            c.buckets.iter().for_each(|b| b.store(0, Relaxed));
        }
    }
    GAUGE_CELLS.iter().for_each(|g| g.store(0, Relaxed));
}

fn record_unchecked(series: Series, ns: u64) {
    let c = &shard().series[series as usize];
    c.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
    c.sum.fetch_add(ns, Relaxed);
    if ns > c.max.load(Relaxed) {
        c.max.fetch_max(ns, Relaxed);
    }
    if !ns > c.min_inv.load(Relaxed) {
        c.min_inv.fetch_max(!ns, Relaxed);
    }
}

/// Folds one sample (nanoseconds) into a series, if its scope records.
#[inline]
pub fn record(series: Series, ns: u64) {
    if series.scope().is_enabled() {
        record_unchecked(series, ns);
    }
}

/// Runs `f`, timing it into `series` when its scope records. The
/// disabled path is one relaxed load and a direct call.
#[inline]
pub fn time<R>(series: Series, f: impl FnOnce() -> R) -> R {
    if !series.scope().is_enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record_unchecked(series, elapsed_ns(start));
    out
}

/// Counts one finished request: one relaxed `fetch_add` on this
/// thread's shard.
#[inline]
pub fn count_request(route: Route, outcome: Outcome) {
    if Scope::Live.is_enabled() {
        let cell = route as usize * OUTCOMES.len() + outcome as usize;
        shard().requests[cell].fetch_add(1, Relaxed);
    }
}

/// Publishes an integer gauge (last write wins).
#[inline]
pub fn gauge_set(gauge: Gauge, value: u64) {
    if Scope::Live.is_enabled() {
        GAUGE_CELLS[gauge as usize].store(value, Relaxed);
    }
}

/// Publishes a floating-point gauge.
#[inline]
pub fn gauge_set_f64(gauge: Gauge, value: f64) {
    gauge_set(gauge, value.to_bits());
}

/// Adds to an integer gauge kept as a running total.
#[inline]
pub fn gauge_add(gauge: Gauge, delta: u64) {
    if Scope::Live.is_enabled() {
        GAUGE_CELLS[gauge as usize].fetch_add(delta, Relaxed);
    }
}

/// Adds to a floating-point gauge (CAS loop; only the core thread
/// calls it, so it never spins in practice).
pub fn gauge_add_f64(gauge: Gauge, delta: f64) {
    if Scope::Live.is_enabled() {
        let _ = GAUGE_CELLS[gauge as usize].fetch_update(Relaxed, Relaxed, |cur| {
            Some((f64::from_bits(cur) + delta).to_bits())
        });
    }
}

/// One `serve_requests_total` cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCell {
    /// `route` label value.
    pub route: String,
    /// `outcome` label value.
    pub outcome: String,
    /// Monotone count.
    pub count: u64,
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// [`Series::name`].
    pub name: String,
    /// Samples, nanoseconds.
    pub hist: LatencyHistogram,
}

impl SeriesSnapshot {
    /// Writes the series as the `<name>_duration_seconds` family.
    pub fn write(&self, exp: &mut Exposition) {
        let name = format!("{}_duration_seconds", self.name);
        exp.histogram(&name, "Latency, log-linear buckets", &self.hist);
    }
}

/// One gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeCell {
    /// Prometheus series name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Whether the profile scope was recording at capture time.
    pub profile_enabled: bool,
    /// Whether the live scope was recording at capture time.
    pub live_enabled: bool,
    /// Nonzero request cells, route-major.
    pub requests: Vec<RequestCell>,
    /// Every series, in [`SERIES`] order.
    pub series: Vec<SeriesSnapshot>,
    /// Every gauge, in [`GAUGES`] order.
    pub gauges: Vec<GaugeCell>,
}

impl Snapshot {
    /// A series' histogram by [`Series::name`].
    pub fn series(&self, name: &str) -> Option<&LatencyHistogram> {
        self.series.iter().find(|s| s.name == name).map(|s| &s.hist)
    }

    /// A gauge by Prometheus name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The `GET /metrics` exposition: request counters, every live
    /// series (empty ones too, so scrapes always expose them), profile
    /// series that have samples, and the gauges.
    pub fn render(&self) -> String {
        let mut exp = Exposition::new();
        let cells: Vec<(String, f64)> = self
            .requests
            .iter()
            .map(|c| {
                let labels = format!("route=\"{}\",outcome=\"{}\"", c.route, c.outcome);
                (labels, c.count as f64)
            })
            .collect();
        exp.counter(
            "serve_requests_total",
            "Requests served, by route and terminal outcome",
            &cells,
        );
        for (s, series) in self.series.iter().zip(SERIES) {
            if series.scope() == Scope::Live || s.hist.count > 0 {
                s.write(&mut exp);
            }
        }
        for g in &self.gauges {
            let sample = [(String::new(), g.value)];
            if g.name.ends_with("_total") {
                exp.counter(&g.name, "", &sample);
            } else {
                exp.gauge(&g.name, "", &sample);
            }
        }
        exp.finish()
    }
}

/// Reads the whole registry: relaxed loads summed across shards.
pub fn snapshot() -> Snapshot {
    let mut requests = Vec::new();
    for &route in ROUTES {
        for &outcome in OUTCOMES {
            let cell = route as usize * OUTCOMES.len() + outcome as usize;
            let count: u64 = SHARDS.iter().map(|s| s.requests[cell].load(Relaxed)).sum();
            if count > 0 {
                requests.push(RequestCell {
                    route: route.name().to_string(),
                    outcome: outcome.name().to_string(),
                    count,
                });
            }
        }
    }
    let series = SERIES
        .iter()
        .map(|&series| {
            let mut hist = LatencyHistogram::default();
            let mut min = u64::MAX;
            for shard in &SHARDS {
                let c = &shard.series[series as usize];
                for (acc, b) in hist.buckets.iter_mut().zip(&c.buckets) {
                    *acc += b.load(Relaxed);
                }
                hist.sum = hist.sum.wrapping_add(c.sum.load(Relaxed));
                hist.max = hist.max.max(c.max.load(Relaxed));
                min = min.min(!c.min_inv.load(Relaxed));
            }
            hist.count = hist.buckets.iter().sum();
            hist.min = if hist.count > 0 { min } else { 0 };
            SeriesSnapshot {
                name: series.name().to_string(),
                hist,
            }
        })
        .collect();
    let gauges = GAUGES
        .iter()
        .map(|&g| {
            let raw = GAUGE_CELLS[g as usize].load(Relaxed);
            GaugeCell {
                name: g.name().to_string(),
                value: if g.is_f64() {
                    f64::from_bits(raw)
                } else {
                    raw as f64
                },
            }
        })
        .collect();
    Snapshot {
        profile_enabled: Scope::Profile.is_enabled(),
        live_enabled: Scope::Live.is_enabled(),
        requests,
        series,
        gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global: tests serialize on a lock, reset
    // around themselves, and restore the default switches.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fresh() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        Scope::Live.enable();
        Scope::Profile.disable();
        guard
    }

    #[test]
    fn scopes_gate_their_own_series() {
        let _g = fresh();
        record(Series::PoolInsert, 100);
        record(Series::ServeApply, 100);
        assert_eq!(time(Series::Select, || 7), 7);
        let snap = snapshot();
        assert_eq!(
            snap.series("pool_insert").unwrap().count,
            0,
            "profile is off by default"
        );
        assert_eq!(snap.series("select").unwrap().count, 0);
        assert_eq!(
            snap.series("serve_apply").unwrap().count,
            1,
            "live is on by default"
        );

        Scope::Profile.enable();
        live::disable();
        record(Series::PoolInsert, 100);
        record(Series::ServeApply, 100);
        count_request(Route::Submit, Outcome::Ack);
        gauge_set(Gauge::QueueDepth, 9);
        let out = time(Series::Select, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        assert_eq!(out, 499_500);
        let snap = snapshot();
        assert_eq!(snap.series("pool_insert").unwrap().count, 1);
        assert_eq!(snap.series("select").unwrap().count, 1);
        assert_eq!(snap.series("serve_apply").unwrap().count, 1);
        assert!(snap.requests.is_empty());
        assert_eq!(snap.gauge("serve_queue_depth"), Some(0.0));
        live::enable();
        Scope::Profile.disable();
    }

    #[test]
    fn shards_sum_into_one_histogram_with_min_and_max() {
        let _g = fresh();
        record(Series::ServeRequest, 5);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100 {
                        record(Series::ServeRequest, 1_000 + t * 100 + i);
                        count_request(Route::Submit, Outcome::Ack);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        let h = snap.series("serve_request").unwrap();
        assert_eq!(h.count, 401);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 1_399);
        assert!(h.quantile(0.99) <= h.max);
        assert_eq!(snap.requests[0].count, 400);
        assert!(snapshot().requests[0].count >= snap.requests[0].count);
    }

    #[test]
    fn gauges_hold_integers_and_floats() {
        let _g = fresh();
        gauge_set(Gauge::QueueDepth, 17);
        gauge_set_f64(Gauge::TotalYield, 123.25);
        gauge_add_f64(Gauge::ShedPvLost, 1.5);
        gauge_add_f64(Gauge::ShedPvLost, 2.25);
        gauge_add(Gauge::ChaosFaultsInjected, 3);
        let snap = snapshot();
        assert_eq!(snap.gauge("serve_queue_depth"), Some(17.0));
        assert_eq!(snap.gauge("serve_yield_total"), Some(123.25));
        assert_eq!(snap.gauge("serve_shed_pv_lost_total"), Some(3.75));
        assert_eq!(snap.gauge("serve_chaos_faults_injected_total"), Some(3.0));
    }

    #[test]
    fn exposition_is_labelled_cumulative_and_parseable() {
        let _g = fresh();
        count_request(Route::Submit, Outcome::Ack);
        count_request(Route::Submit, Outcome::Backpressure);
        record(Series::ServeRequest, 2048);
        record(Series::ServeRequest, 3000);
        gauge_set(Gauge::QueueDepth, 5);
        let prom = snapshot().render();
        assert_eq!(
            prom.matches("# TYPE serve_requests_total counter").count(),
            1
        );
        assert!(prom.contains("serve_requests_total{route=\"submit\",outcome=\"ack\"} 1\n"));
        assert!(prom.contains("# TYPE serve_request_duration_seconds histogram"));
        assert!(prom.contains("serve_request_duration_seconds_bucket{le=\"2.304e-6\"} 1\n"));
        assert!(prom.contains("serve_request_duration_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("serve_request_duration_seconds_count 2\n"));
        assert!(prom.contains("serve_request_duration_seconds_max 0.000003\n"));
        assert!(prom.contains("# TYPE serve_snapshot_duration_seconds histogram"));
        assert!(
            !prom.contains("pool_insert"),
            "empty profile series stay off /metrics"
        );
        assert!(prom.contains("serve_queue_depth 5\n"));
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample in {line:?}"
            );
        }
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let _g = fresh();
        count_request(Route::Stats, Outcome::Ack);
        record(Series::ServeQueueWait, 500);
        let snap = snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
