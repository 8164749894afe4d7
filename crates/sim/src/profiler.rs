//! Process-global hot-path self-profiler: HDR-style log-bucketed latency
//! histograms over the scheduler's critical sections.
//!
//! This module is the *instrumentation* half of the profiler: a fixed set
//! of [`Section`]s, a global enable flag, and lock-free atomic counters.
//! It lives at the bottom of the crate stack so `mbts-core`'s pending
//! pool and `mbts-durable`'s snapshot writer can both wrap their hot
//! paths without new dependency edges; the *reporting* half (JSON
//! capture, text and Prometheus rendering) lives in `mbts-trace`.
//!
//! Disabled cost is one relaxed atomic load per instrumented call — no
//! clock read, no allocation — so always-compiled-in instrumentation
//! stays within noise of uninstrumented code (the `bench_dispatch` gate
//! enforces this). Enabled cost is two `Instant` reads plus three relaxed
//! atomic RMWs. The profiler observes wall-clock latencies only; it never
//! feeds back into simulation time or scheduling decisions, so enabling
//! it cannot perturb a replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket absorbing the tail
/// (`2^39`ns ≈ 9 minutes — far beyond any real section).
pub const PROFILER_BUCKETS: usize = 40;

/// The instrumented scheduler hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `PendingPool::push` — admission into the persistent pending pool.
    PoolInsert = 0,
    /// `PendingPool::select_best` — incremental cost-model maintenance
    /// and best-candidate selection at dispatch.
    CostModelUpdate = 1,
    /// `PendingPool::scores` — full score materialization (the backfill
    /// merge sweep).
    MergeSweep = 2,
    /// Durable snapshot frame serialization + journal write.
    SnapshotWrite = 3,
    /// Live service: parsing one HTTP request off the wire.
    ServeParse = 4,
    /// Live service: a request's wait in the bounded admission queue,
    /// from enqueue to the core thread picking it up.
    ServeQueueWait = 5,
    /// Live service: journal append + state-machine apply of one
    /// accepted command.
    ServeApply = 6,
    /// Live service: journal append (+ cadence fsync) of one accepted
    /// command — the durability half of [`Section::ServeApply`], split
    /// out so fsync stalls are visible separately from the fold.
    ServeJournalAppend = 7,
}

/// Every section, in wire order. Indexes match `Section as usize`.
pub const SECTIONS: [Section; 8] = [
    Section::PoolInsert,
    Section::CostModelUpdate,
    Section::MergeSweep,
    Section::SnapshotWrite,
    Section::ServeParse,
    Section::ServeQueueWait,
    Section::ServeApply,
    Section::ServeJournalAppend,
];

impl Section {
    /// Stable snake_case name used in reports and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Section::PoolInsert => "pool_insert",
            Section::CostModelUpdate => "cost_model_update",
            Section::MergeSweep => "merge_sweep",
            Section::SnapshotWrite => "snapshot_write",
            Section::ServeParse => "serve_parse",
            Section::ServeQueueWait => "serve_queue_wait",
            Section::ServeApply => "serve_apply",
            Section::ServeJournalAppend => "serve_journal_append",
        }
    }
}

const NSECTIONS: usize = SECTIONS.len();

static ENABLED: AtomicBool = AtomicBool::new(false);

struct SectionCounters {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; PROFILER_BUCKETS],
}

impl SectionCounters {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        SectionCounters {
            count: ZERO,
            sum_ns: ZERO,
            max_ns: ZERO,
            buckets: [ZERO; PROFILER_BUCKETS],
        }
    }
}

static COUNTERS: [SectionCounters; NSECTIONS] = [
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
    SectionCounters::new(),
];

/// Turns sampling on. Instrumented sections start taking timestamps.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns sampling off (counters are retained until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether sampling is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (sampling state is left unchanged).
pub fn reset() {
    for c in &COUNTERS {
        c.count.store(0, Ordering::Relaxed);
        c.sum_ns.store(0, Ordering::Relaxed);
        c.max_ns.store(0, Ordering::Relaxed);
        for b in &c.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Folds one latency sample into a section's histogram.
pub fn record_ns(section: Section, ns: u64) {
    let c = &COUNTERS[section as usize];
    c.count.fetch_add(1, Ordering::Relaxed);
    c.sum_ns.fetch_add(ns, Ordering::Relaxed);
    c.max_ns.fetch_max(ns, Ordering::Relaxed);
    let bucket = (63 - ns.max(1).leading_zeros() as usize).min(PROFILER_BUCKETS - 1);
    c.buckets[bucket].fetch_add(1, Ordering::Relaxed);
}

/// Runs `f`, timing it into `section` when the profiler is enabled. The
/// disabled path is a single relaxed load and a direct call.
#[inline]
pub fn time<R>(section: Section, f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    record_ns(section, ns);
    out
}

/// A point-in-time copy of one section's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSample {
    /// Which section this samples.
    pub section: Section,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
    /// Largest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Log2 bucket counts: `buckets[i]` counts samples in
    /// `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

/// Reads a consistent-enough copy of every section's counters. Individual
/// loads are relaxed; concurrent recording can skew a bucket by a sample,
/// which is irrelevant at reporting granularity.
pub fn sample() -> Vec<SectionSample> {
    COUNTERS
        .iter()
        .zip(SECTIONS)
        .map(|(c, section)| SectionSample {
            section,
            count: c.count.load(Ordering::Relaxed),
            sum_ns: c.sum_ns.load(Ordering::Relaxed),
            max_ns: c.max_ns.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global, so tests in this module serialize
    // on a lock to avoid cross-test interference; tests elsewhere only
    // assert on deltas of their own sections.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        let out = time(Section::PoolInsert, || 7);
        assert_eq!(out, 7);
        assert_eq!(sample()[Section::PoolInsert as usize].count, 0);
    }

    #[test]
    fn enabled_profiler_buckets_samples_logarithmically() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        // Synthetic samples: bucket index is floor(log2(ns)).
        record_ns(Section::MergeSweep, 1); // bucket 0
        record_ns(Section::MergeSweep, 2); // bucket 1
        record_ns(Section::MergeSweep, 3); // bucket 1
        record_ns(Section::MergeSweep, 1024); // bucket 10
        record_ns(Section::MergeSweep, 0); // clamps to bucket 0
        let s = &sample()[Section::MergeSweep as usize];
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 1030);
        assert_eq!(s.max_ns, 1024);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        reset();
        assert_eq!(sample()[Section::MergeSweep as usize].count, 0);
    }

    #[test]
    fn time_measures_when_enabled() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        let out = time(Section::SnapshotWrite, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        disable();
        assert_eq!(out, 499_500);
        let s = &sample()[Section::SnapshotWrite as usize];
        assert_eq!(s.count, 1);
        assert!(s.sum_ns > 0, "a timed closure takes nonzero time");
        reset();
    }

    #[test]
    fn huge_samples_land_in_the_tail_bucket() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        record_ns(Section::CostModelUpdate, u64::MAX);
        let s = &sample()[Section::CostModelUpdate as usize];
        assert_eq!(s.buckets[PROFILER_BUCKETS - 1], 1);
        reset();
    }
}
