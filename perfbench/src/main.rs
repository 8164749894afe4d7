//! Benchmark of the market-based task service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --mbts <path>
//! ```
//!
//! Workloads: `serve-write` drives the shipped `mbts serve` binary (at
//! `--mbts`) over HTTP; `site-overload` and
//! `market-fanout` step the simulators in process. An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
//! status is 1 when any output check failed.

mod client;
mod daemon;
mod json;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{int, num, obj, text, Value};
use report::{format_metric, Outcome};

const WORKLOADS: [&str; 3] = ["serve-write", "site-overload", "market-fanout"];

/// Outcome digests recorded for one seed per simulator workload.
const EXPECTED: &str = include_str!("../expected.json");

/// The digest recorded for `workload` on `seed`, if that seed has one.
pub fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    let v: Value = serde_json::from_str(EXPECTED).expect("expected.json is valid JSON");
    let entry = v.get(workload)?;
    match entry.get("digest") {
        Some(Value::Str(d)) if json::get_u64(entry, "seed") == Some(seed) => Some(d.clone()),
        _ => None,
    }
}

/// Where runs leave spans, results and scratch journals.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    mbts: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    for pair in argv.chunks(2) {
        if !["--workload", "--seed", "--seconds", "--trace", "--mbts"].contains(&pair[0].as_str())
            || pair.len() != 2
        {
            return Err(format!("unexpected argument {:?}", pair[0]));
        }
    }
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number"))
        })
    };
    let traced = match num("--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let seconds = num("--seconds", 20)?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds,
        traced,
        mbts: PathBuf::from(get("--mbts").unwrap_or(".bench_build/release/mbts")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let context = obj([
        ("workload", text(&args.workload)),
        ("seed", int(args.seed)),
        ("seconds", int(args.seconds)),
        ("trace", int(u64::from(args.traced))),
        ("machine", sys::machine_context()),
    ]);
    let context = json::to_string(&context);
    println!("context {context}");
    let out: Outcome = match args.workload.as_str() {
        "serve-write" => serve::run(&args.mbts, args.seed, args.traced),
        "site-overload" => {
            sim::run::<sim::SiteOverload>(&args.workload, args.seed, args.seconds, args.traced)
        }
        _ => sim::run::<sim::MarketFanout>(&args.workload, args.seed, args.seconds, args.traced),
    };
    for line in &out.lines {
        println!("{line}");
    }
    for m in out.metrics.iter().chain(&out.info) {
        println!("{}", format_metric(m));
    }
    println!(
        "checks passed {}, failed {}",
        out.checks.passed,
        out.checks.failures.len()
    );
    for f in &out.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let as_json = |ms: &[report::Metric], with_n: bool| {
        obj(ms.iter().map(|m| {
            let mut v = vec![("value", num(m.value)), ("unit", text(m.unit))];
            if with_n {
                v.push(("n", m.n.map_or(Value::Null, |n| int(n as u64))));
            }
            (m.name.as_str(), obj(v))
        }))
    };
    let result = json::to_string(&obj([
        ("correct", Value::Bool(out.checks.ok())),
        ("attempted", int(out.attempted)),
        ("failed", int(out.failed)),
        ("metrics", as_json(&out.metrics, false)),
    ]));
    let record = obj([
        (
            "context",
            serde_json::from_str(&context).expect("context is JSON"),
        ),
        (
            "result",
            serde_json::from_str(&result).expect("result is JSON"),
        ),
        ("info", as_json(&out.info, true)),
        (
            "lines",
            Value::Array(out.lines.iter().map(|l| text(l)).collect()),
        ),
        (
            "check_failures",
            Value::Array(out.checks.failures.iter().map(|l| text(l)).collect()),
        ),
    ]);
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.traced)
    ));
    if let Err(e) = std::fs::write(&path, json::to_string(&record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    if out.checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
