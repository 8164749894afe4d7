//! Overhead of the `mbts_sim::metrics` registry on both of its scopes.
//!
//! One iteration is a FirstReward dispatch drain over a 10k-job pool
//! (the pool's `push` / `select_best` / `scores` run inside profile-scope
//! series) plus one request's worth of serve-path instrumentation per
//! dispatched event (route counter, request latency sample, the journal
//! and apply sections). Three cases:
//!
//! * `disabled` — both scopes off: one relaxed load per call site, which
//!   must stay within noise of uninstrumented code (the `bench_dispatch`
//!   ≥5× gate runs over the same instrumented pool and is the CI
//!   enforcement of that claim);
//! * `enabled` — both scopes on: clock reads plus relaxed RMWs on this
//!   thread's shard, the price of `--profile` and of the default daemon;
//! * `scrape` — `snapshot().render()`, what one `GET /metrics` costs a
//!   worker thread over a populated registry.

use criterion::{criterion_group, criterion_main, Criterion};
use mbts_bench::hotpath::{drain_incremental, pending_queue, pool_of};
use mbts_core::Policy;
use mbts_sim::metrics::{self, Outcome, Route, Scope, Series, OUTCOMES, ROUTES};
use std::hint::black_box;

const EVENTS: usize = 200;
const DT: f64 = 0.05;
const PENDING: usize = 10_000;

/// The calls `serve` issues per accepted submit.
fn instrument_request(i: u64) {
    metrics::count_request(Route::Submit, Outcome::Ack);
    metrics::record(Series::ServeRequest, 1_000 + (i % 512) * 37);
    metrics::time(Series::ServeJournalAppend, || {
        black_box(i.wrapping_mul(0x9e37))
    });
    metrics::time(Series::ServeApply, || black_box(i.wrapping_add(0x79b9)));
}

fn registry_overhead(c: &mut Criterion) {
    let jobs = pending_queue(PENDING);
    let policy = Policy::first_reward(0.3, 0.01);
    let mut one_iteration = || {
        let mut pool = pool_of(policy, &jobs);
        let out = black_box(drain_incremental(&mut pool, EVENTS, DT));
        for i in 0..EVENTS as u64 {
            instrument_request(black_box(i));
        }
        out
    };

    for (case, on) in [("registry/disabled", false), ("registry/enabled", true)] {
        metrics::reset();
        for scope in [Scope::Profile, Scope::Live] {
            if on {
                scope.enable();
            } else {
                scope.disable();
            }
        }
        c.bench_function(case, |b| b.iter(&mut one_iteration));
    }

    // Populate a realistic spread of cells before pricing a scrape.
    for (r, route) in ROUTES.iter().enumerate() {
        for (o, outcome) in OUTCOMES.iter().enumerate() {
            metrics::count_request(*route, *outcome);
            metrics::record(Series::ServeRequest, ((r + 1) * (o + 1) * 911) as u64);
        }
    }
    c.bench_function("registry/scrape", |b| {
        b.iter(|| black_box(metrics::snapshot().render()))
    });
    Scope::Profile.disable();
}

criterion_group!(benches, registry_overhead);
criterion_main!(benches);
