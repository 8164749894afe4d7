//! Saved profiles: a capture of the `mbts_sim::metrics` registry plus,
//! for `mbts serve`, the session's request summary.
//!
//! Reports carry a `"mbts_profile"` marker field so `mbts analyze` can
//! tell a saved profile apart from a trace JSONL by content, and
//! [`ProfileReport::from_json`] refuses reports whose bucket vectors
//! come from another histogram geometry instead of misreading them.

use mbts_sim::metrics::{self, Exposition, Snapshot, BUCKETS};
use serde::{Deserialize, Serialize, Value};

/// Marker value stored in [`ProfileReport::kind`].
pub const PROFILE_MARKER: &str = "mbts_profile";

/// Request-outcome counters of one `mbts serve` session, folded into
/// the profile report on shutdown so `mbts metrics --prom` can export
/// accept/shed/timeout rates next to the latency histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServeSummary {
    /// Requests read off the wire (any endpoint).
    pub requests: u64,
    /// Submissions admitted by the site's acceptance heuristic.
    pub accepted: u64,
    /// Submissions the heuristic rejected (journaled, then declined).
    pub rejected: u64,
    /// Submissions dropped by overload shedding (lowest PV / expired
    /// first) before reaching the acceptance heuristic.
    pub shed: u64,
    /// Submissions bounced by queue-full backpressure (HTTP 429 without
    /// ever occupying a queue slot).
    pub backpressured: u64,
    /// Cancellations applied.
    pub cancelled: u64,
    /// Tasks completed by the sim core.
    pub completed: u64,
    /// Requests that timed out waiting for the core thread.
    pub timeouts: u64,
    /// Wall-clock nanoseconds the service was up.
    pub wall_ns: u64,
}

/// A point-in-time capture of the registry, serializable to JSON for
/// `mbts analyze` and renderable as Prometheus text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Always [`PROFILE_MARKER`]; lets `analyze` detect profile files.
    pub kind: String,
    /// The registry at capture time.
    pub registry: Snapshot,
    /// Service request counters, present only for `mbts serve` runs.
    #[serde(default)]
    pub serve: Option<ServeSummary>,
}

impl ProfileReport {
    /// Captures the registry now.
    pub fn capture() -> Self {
        ProfileReport {
            kind: PROFILE_MARKER.to_string(),
            registry: metrics::snapshot(),
            serve: None,
        }
    }

    /// Reads a saved report. `Ok(None)` when `text` is not a profile
    /// report at all (no `"kind": "mbts_profile"` object); an error when
    /// it is one this build cannot read.
    pub fn from_json(text: &str) -> Result<Option<Self>, String> {
        let Ok(value) = serde_json::from_str::<Value>(text) else {
            return Ok(None);
        };
        if value.get("kind") != Some(&Value::Str(PROFILE_MARKER.into())) {
            return Ok(None);
        }
        let report = ProfileReport::from_value(&value)
            .map_err(|e| format!("unreadable {PROFILE_MARKER} report: {e}"))?;
        for s in &report.registry.series {
            if s.hist.buckets.len() != BUCKETS {
                return Err(format!(
                    "{PROFILE_MARKER} report series '{}' has {} buckets; this build's \
                     log-linear geometry has {BUCKETS} — re-capture the profile",
                    s.name,
                    s.hist.buckets.len()
                ));
            }
        }
        Ok(Some(report))
    }

    /// True when no series recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.registry.series.iter().all(|s| s.hist.count == 0)
    }

    /// Plain-text report: one line per series with samples.
    pub fn render_text(&self) -> String {
        let mut out = String::from("hot-path profile (log-linear ns buckets)\n");
        if self.is_empty() {
            out.push_str("  (no samples: profiler disabled or nothing instrumented ran)\n");
        }
        for s in self.registry.series.iter().filter(|s| s.hist.count > 0) {
            let h = &s.hist;
            out.push_str(&format!(
                "  {:<20} n={:<9} mean {:>10.0}ns  p50 {:>10}ns  p99 {:>10}ns  max {:>10}ns\n",
                s.name,
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            ));
        }
        if let Some(sv) = &self.serve {
            let wall_s = sv.wall_ns as f64 * 1e-9;
            let rps = if wall_s > 0.0 {
                sv.requests as f64 / wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "serve ({} requests in {:.2}s, {:.0} req/s)\n  \
                 accepted {}  rejected {}  shed {}  backpressured {}  \
                 cancelled {}  completed {}  timeouts {}\n",
                sv.requests,
                wall_s,
                rps,
                sv.accepted,
                sv.rejected,
                sv.shed,
                sv.backpressured,
                sv.cancelled,
                sv.completed,
                sv.timeouts
            ));
        }
        out
    }

    /// Writes every series with samples, plus the serve summary.
    pub fn write_prometheus(&self, exp: &mut Exposition) {
        for s in self.registry.series.iter().filter(|s| s.hist.count > 0) {
            s.write(exp);
        }
        let Some(sv) = &self.serve else { return };
        let outcomes: Vec<(String, f64)> = [
            ("accepted", sv.accepted),
            ("rejected", sv.rejected),
            ("shed", sv.shed),
            ("backpressured", sv.backpressured),
            ("cancelled", sv.cancelled),
            ("timeout", sv.timeouts),
        ]
        .iter()
        .map(|(outcome, n)| (format!("outcome=\"{outcome}\""), *n as f64))
        .collect();
        exp.counter(
            "mbts_serve_requests_total",
            "Service requests by outcome",
            &outcomes,
        );
        exp.counter(
            "mbts_serve_completed_total",
            "Tasks completed by the sim core",
            &[(String::new(), sv.completed as f64)],
        );
        exp.gauge(
            "mbts_serve_uptime_seconds",
            "Service wall-clock uptime",
            &[(String::new(), sv.wall_ns as f64 / 1e9)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_round_trips_through_json() {
        let mut report = ProfileReport::capture();
        report.registry.series[0].hist.record(1_500);
        report.serve = Some(ServeSummary {
            accepted: 3,
            ..ServeSummary::default()
        });
        assert_eq!(report.registry.series[0].name, "pool_insert");
        assert_eq!(report.registry.series[1].name, "select");
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(ProfileReport::from_json(&json).unwrap(), Some(report));
    }

    #[test]
    fn foreign_geometry_and_old_layouts_are_refused_not_misread() {
        let mut report = ProfileReport::capture();
        report.registry.series[2].hist.buckets = vec![0; 40];
        let json = serde_json::to_string(&report).unwrap();
        let err = ProfileReport::from_json(&json).unwrap_err();
        assert!(err.contains("'merge_sweep' has 40 buckets"), "{err}");
        // The log2 `sections` layout of earlier builds.
        let old = r#"{"kind":"mbts_profile","enabled":false,"sections":[]}"#;
        assert!(ProfileReport::from_json(old).is_err());
        // Not profiles at all.
        assert_eq!(ProfileReport::from_json("{\"kind\":\"x\"}"), Ok(None));
        assert_eq!(ProfileReport::from_json("{}\n{}\n"), Ok(None));
    }

    #[test]
    fn exposition_names_series_by_duration_and_adds_the_serve_summary() {
        let mut report = ProfileReport::capture();
        for s in &mut report.registry.series {
            s.hist = Default::default();
        }
        assert!(report.is_empty());
        assert!(report.render_text().contains("no samples"));
        report.registry.series[0].hist.record(3);
        report.serve = Some(ServeSummary::default());
        let mut exp = Exposition::new();
        report.write_prometheus(&mut exp);
        let prom = exp.finish();
        assert!(prom.contains("# TYPE pool_insert_duration_seconds histogram"));
        assert!(prom.contains("pool_insert_duration_seconds_bucket{le=\"4e-9\"} 1"));
        assert!(prom.contains("pool_insert_duration_seconds_count 1"));
        assert!(
            !prom.contains("select_duration_seconds"),
            "empty series are skipped"
        );
        assert!(prom.contains("mbts_serve_requests_total{outcome=\"accepted\"} 0"));
        assert!(report.render_text().contains("pool_insert"));
    }
}
