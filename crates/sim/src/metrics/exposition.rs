//! The one Prometheus text-exposition (format 0.0.4) writer. Every
//! `# TYPE` line in the workspace is written by [`Exposition::family`]:
//! `GET /metrics`, `mbts metrics --prom` and the per-policy registry all
//! render through the counter/gauge/histogram calls below.

use std::fmt::Write;

use super::histogram::{upper_edge, LatencyHistogram};

/// An exposition under construction. Samples are `(labels, value)`
/// pairs, where `labels` is the brace body (`route="submit"`), empty
/// for an unlabelled sample.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        if !help.is_empty() {
            let _ = writeln!(self.out, "# HELP {name} {help}");
        }
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn samples(&mut self, name: &str, samples: &[(String, f64)]) {
        for (labels, value) in samples {
            if labels.is_empty() {
                let _ = writeln!(self.out, "{name} {value}");
            } else {
                let _ = writeln!(self.out, "{name}{{{labels}}} {value}");
            }
        }
    }

    /// A counter family (the header is written even with no samples).
    pub fn counter(&mut self, name: &str, help: &str, samples: &[(String, f64)]) {
        self.family(name, "counter", help);
        self.samples(name, samples);
    }

    /// A gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, samples: &[(String, f64)]) {
        self.family(name, "gauge", help);
        self.samples(name, samples);
    }

    /// A nanosecond histogram rendered in seconds: one cumulative
    /// `_bucket` per occupied bucket (`le` = its exclusive upper edge),
    /// `+Inf`, `_sum` and `_count`, followed by `<name>_min` and
    /// `<name>_max` gauges so a reader can clamp quantiles exactly as
    /// [`LatencyHistogram::quantile`] does.
    pub fn histogram(&mut self, name: &str, help: &str, h: &LatencyHistogram) {
        self.family(name, "histogram", help);
        let mut cumulative = 0u64;
        for (i, &n) in h.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                let le = upper_edge(i) / 1e9;
                let _ = writeln!(self.out, "{name}_bucket{{le=\"{le:e}\"}} {cumulative}");
            }
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(self.out, "{name}_sum {:e}", h.sum as f64 / 1e9);
        let _ = writeln!(self.out, "{name}_count {}", h.count);
        for (suffix, v) in [("min", h.min), ("max", h.max)] {
            self.gauge(
                &format!("{name}_{suffix}"),
                "",
                &[(String::new(), v as f64 / 1e9)],
            );
        }
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }
}
