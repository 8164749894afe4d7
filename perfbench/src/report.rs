//! What one run reports: named metrics with units and sample counts, and
//! the output checks that decide `correct`.

use std::fmt::Write as _;

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the number, when it is a statistic over samples.
    pub n: Option<usize>,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// Output checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted (requests sent, or simulation events handled).
    pub attempted: u64,
    /// Operations without a successful result.
    pub failed: u64,
    /// The metrics of the final JSON line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further numbers, printed but not part of the final line.
    pub info: Vec<Metric>,
    /// Free-form lines printed before the metrics (tables).
    pub lines: Vec<String>,
}

pub fn format_metric(m: &Metric) -> String {
    let mut s = format!("{:<34} {:>16} {}", m.name, fmt_num(m.value), m.unit);
    if let Some(n) = m.n {
        let _ = write!(s, "  (n={n})");
    }
    s
}

/// Full-precision rendering for numbers that are shown, not parsed.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}
