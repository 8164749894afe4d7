//! Reporting half of the hot-path self-profiler.
//!
//! `mbts_sim::profiler` owns the always-compiled-in instrumentation
//! (sections, enable flag, atomic log2-bucketed counters); this module
//! turns a sample of those counters into a serializable
//! [`ProfileReport`] and renders it as text or Prometheus exposition
//! format. Reports carry a `"mbts_profile"` marker field so `mbts
//! analyze` can tell a saved profile apart from a trace JSONL by content.

use mbts_sim::profiler::{sample, PROFILER_BUCKETS};
use serde::{Deserialize, Serialize};

/// Marker value stored in [`ProfileReport::kind`].
pub const PROFILE_MARKER: &str = "mbts_profile";

/// One section's captured histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionProfile {
    /// Stable section name (`pool_insert`, `cost_model_update`,
    /// `merge_sweep`, `snapshot_write`, `serve_parse`, `serve_queue_wait`,
    /// `serve_apply`, `serve_journal_append`).
    pub section: String,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
    /// Largest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Log2 bucket counts; `buckets[i]` counts samples in
    /// `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl SectionProfile {
    /// Mean sample latency in nanoseconds (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// Approximate quantile from the log2 buckets: the upper edge of the
    /// bucket containing the q-th sample. Coarse (within 2x) by
    /// construction, which is the HDR trade this profiler makes.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return upper_edge_ns(i);
            }
        }
        self.max_ns
    }
}

fn upper_edge_ns(bucket: usize) -> u64 {
    1u64 << (bucket as u32 + 1).min(63)
}

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

/// A point-in-time capture of every section, serializable to JSON for
/// `mbts analyze` and renderable as Prometheus text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Always [`PROFILE_MARKER`]; lets `analyze` detect profile files.
    pub kind: String,
    /// Whether sampling was enabled at capture time.
    pub enabled: bool,
    /// Per-section histograms, wire order.
    pub sections: Vec<SectionProfile>,
    /// Service request counters, present only for `mbts serve` runs.
    #[serde(default)]
    pub serve: Option<ServeSummary>,
}

impl ProfileReport {
    /// Captures the current global profiler counters.
    pub fn capture() -> Self {
        ProfileReport {
            kind: PROFILE_MARKER.to_string(),
            enabled: mbts_sim::profiler::is_enabled(),
            sections: sample()
                .into_iter()
                .map(|s| SectionProfile {
                    section: s.section.name().to_string(),
                    count: s.count,
                    sum_ns: s.sum_ns,
                    max_ns: s.max_ns,
                    buckets: s.buckets,
                })
                .collect(),
            serve: None,
        }
    }

    /// True when no section recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(|s| s.count == 0)
    }

    /// Plain-text report: one line per section with count, mean, p50,
    /// p99 (bucket-resolution), and max.
    pub fn render_text(&self) -> String {
        let mut out = String::from("hot-path profile (log2-bucketed ns)\n");
        if self.is_empty() {
            out.push_str("  (no samples: profiler disabled or nothing instrumented ran)\n");
        } else {
            for s in &self.sections {
                if s.count == 0 {
                    out.push_str(&format!("  {:<18} no samples\n", s.section));
                    continue;
                }
                out.push_str(&format!(
                    "  {:<18} n={:<9} mean {:>10.0}ns  p50 ≤{:>10}ns  p99 ≤{:>10}ns  max {:>10}ns\n",
                    s.section,
                    s.count,
                    s.mean_ns(),
                    s.quantile_ns(0.50),
                    s.quantile_ns(0.99),
                    s.max_ns
                ));
            }
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

    /// Prometheus text exposition: a cumulative histogram per section in
    /// seconds, plus `_sum` and `_count` series.
    pub fn render_prometheus(&self) -> String {
        let name = "mbts_profiler_latency_seconds";
        let mut out = format!(
            "# HELP {name} Scheduler hot-path latency (log2-bucketed)\n# TYPE {name} histogram\n"
        );
        for s in &self.sections {
            let mut cumulative = 0u64;
            for (i, b) in s.buckets.iter().enumerate().take(PROFILER_BUCKETS) {
                cumulative += b;
                if *b == 0 && i + 1 != PROFILER_BUCKETS {
                    continue; // keep the exposition compact: emit occupied edges + +Inf
                }
                out.push_str(&format!(
                    "{name}_bucket{{section=\"{}\",le=\"{:e}\"}} {cumulative}\n",
                    s.section,
                    upper_edge_ns(i) as f64 * 1e-9
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{section=\"{}\",le=\"+Inf\"}} {}\n",
                s.section, s.count
            ));
            out.push_str(&format!(
                "{name}_sum{{section=\"{}\"}} {:e}\n",
                s.section,
                s.sum_ns as f64 * 1e-9
            ));
            out.push_str(&format!(
                "{name}_count{{section=\"{}\"}} {}\n",
                s.section, s.count
            ));
        }
        if let Some(sv) = &self.serve {
            out.push_str(
                "# HELP mbts_serve_requests_total Service requests by outcome\n\
                 # TYPE mbts_serve_requests_total counter\n",
            );
            for (outcome, n) in [
                ("accepted", sv.accepted),
                ("rejected", sv.rejected),
                ("shed", sv.shed),
                ("backpressured", sv.backpressured),
                ("cancelled", sv.cancelled),
                ("timeout", sv.timeouts),
            ] {
                out.push_str(&format!(
                    "mbts_serve_requests_total{{outcome=\"{outcome}\"}} {n}\n"
                ));
            }
            out.push_str(&format!(
                "# HELP mbts_serve_completed_total Tasks completed by the sim core\n\
                 # TYPE mbts_serve_completed_total counter\n\
                 mbts_serve_completed_total {}\n",
                sv.completed
            ));
            out.push_str(&format!(
                "# HELP mbts_serve_uptime_seconds Service wall-clock uptime\n\
                 # TYPE mbts_serve_uptime_seconds gauge\n\
                 mbts_serve_uptime_seconds {:e}\n",
                sv.wall_ns as f64 * 1e-9
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_serializes_and_round_trips() {
        let report = ProfileReport::capture();
        assert_eq!(report.kind, PROFILE_MARKER);
        assert_eq!(report.sections.len(), 8);
        assert_eq!(report.sections[0].section, "pool_insert");
        assert_eq!(report.sections[4].section, "serve_parse");
        assert_eq!(report.sections[6].section, "serve_apply");
        assert_eq!(report.sections[7].section, "serve_journal_append");
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let s = SectionProfile {
            section: "merge_sweep".into(),
            count: 4,
            sum_ns: 1 + 2 + 1024 + 2048,
            max_ns: 2048,
            buckets: {
                let mut b = vec![0u64; PROFILER_BUCKETS];
                b[0] = 1; // 1ns
                b[1] = 1; // 2ns
                b[10] = 1; // 1024ns
                b[11] = 1; // 2048ns
                b
            },
        };
        assert_eq!(s.quantile_ns(0.0), 2); // first sample's bucket edge
        assert_eq!(s.quantile_ns(0.5), 4); // 2nd of 4 → bucket 1 → edge 4
        assert_eq!(s.quantile_ns(1.0), 4096); // bucket 11 → edge 4096
        assert_eq!(s.mean_ns(), (1.0 + 2.0 + 1024.0 + 2048.0) / 4.0);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_labelled() {
        let mut report = ProfileReport::capture();
        report.sections[0].count = 3;
        report.sections[0].sum_ns = 7;
        report.sections[0].buckets[0] = 2;
        report.sections[0].buckets[2] = 1;
        let prom = report.render_prometheus();
        assert!(prom.contains("# TYPE mbts_profiler_latency_seconds histogram"));
        assert!(prom.contains(
            "mbts_profiler_latency_seconds_bucket{section=\"pool_insert\",le=\"2e-9\"} 2"
        ));
        assert!(prom.contains(
            "mbts_profiler_latency_seconds_bucket{section=\"pool_insert\",le=\"+Inf\"} 3"
        ));
        assert!(prom.contains("mbts_profiler_latency_seconds_count{section=\"pool_insert\"} 3"));
    }

    #[test]
    fn empty_report_renders_a_placeholder() {
        let report = ProfileReport {
            kind: PROFILE_MARKER.into(),
            enabled: false,
            sections: vec![],
            serve: None,
        };
        assert!(report.is_empty());
        assert!(report.render_text().contains("no samples"));
    }

    #[test]
    fn reports_with_a_legacy_shards_field_still_deserialize() {
        // Files written by builds that had a sharded market carry a
        // `shards` key; it is ignored.
        let legacy = r#"{"kind":"mbts_profile","enabled":false,"sections":[],"shards":null}"#;
        let report: ProfileReport = serde_json::from_str(legacy).unwrap();
        assert!(report.serve.is_none());
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
