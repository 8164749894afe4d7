//! JSON chaos-scenario schedules — the on-disk shape of the
//! `tests/chaos/` corpus that `mbts chaos` runs.
//!
//! A scenario is pure data: a seed, a workload target, and the failpoint
//! schedule to arm. The orchestrator (in the `mbts` facade crate)
//! interprets the target — this crate stays engine-free so every layer
//! can depend on it.

use crate::registry::FailpointSpec;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

fn default_tasks() -> u64 {
    200
}
fn default_processors() -> usize {
    4
}
fn default_load() -> f64 {
    1.2
}
fn default_policy() -> String {
    "first-reward:0.3:0.01".to_string()
}
fn default_sites() -> usize {
    4
}
fn default_snapshot_every() -> u64 {
    64
}
fn default_commands() -> u64 {
    300
}
fn default_queue_capacity() -> usize {
    64
}

/// Which workload the scenario injects faults into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioTarget {
    /// A journaled single-site run (`DurableRun<SiteRun>`): disk-layer
    /// faults hit the write-ahead journal under the run.
    Site {
        /// Synthetic trace size.
        #[serde(default = "default_tasks")]
        tasks: u64,
        /// Site processors.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Workload load factor.
        #[serde(default = "default_load")]
        load: f64,
        /// Scheduling policy spec (CLI syntax, e.g. `first-reward:0.3:0.01`).
        #[serde(default = "default_policy")]
        policy: String,
        /// Snapshot cadence in events.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
    /// A journaled economy run (`DurableRun<EconomyRun>`): disk-layer
    /// faults hit the write-ahead journal under the run.
    Market {
        /// Synthetic trace size.
        #[serde(default = "default_tasks")]
        tasks: u64,
        /// Economy sites.
        #[serde(default = "default_sites")]
        sites: usize,
        /// Processors per site.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Workload load factor.
        #[serde(default = "default_load")]
        load: f64,
        /// Scheduling policy spec.
        #[serde(default = "default_policy")]
        policy: String,
        /// Snapshot cadence in events.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
    /// A scripted service run: a seeded submit/cancel command schedule
    /// folded through the journaled `ServiceRun` while disk faults hit
    /// the journal underneath. Fully deterministic — no sockets; the
    /// live socket path is exercised by `tests/serve_service.rs` and the
    /// CI chaos-soak flood.
    Serve {
        /// Commands in the scripted schedule.
        #[serde(default = "default_commands")]
        commands: u64,
        /// Site processors behind the service.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Scheduling policy spec.
        #[serde(default = "default_policy")]
        policy: String,
        /// Admission-queue capacity the script models.
        #[serde(default = "default_queue_capacity")]
        queue_capacity: usize,
        /// Snapshot cadence in applied commands.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
}

impl ScenarioTarget {
    /// Short class label for reports (`site` / `market` / `serve`).
    pub fn class(&self) -> &'static str {
        match self {
            ScenarioTarget::Site { .. } => "site",
            ScenarioTarget::Market { .. } => "market",
            ScenarioTarget::Serve { .. } => "serve",
        }
    }

    /// Snapshot cadence of the target's journal.
    pub fn snapshot_every(&self) -> u64 {
        match self {
            ScenarioTarget::Site { snapshot_every, .. }
            | ScenarioTarget::Market { snapshot_every, .. }
            | ScenarioTarget::Serve { snapshot_every, .. } => *snapshot_every,
        }
    }
}

/// One chaos scenario: `(seed, target, schedule)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports, dump filenames).
    pub name: String,
    /// Seed for both the workload and every failpoint stream.
    pub seed: u64,
    /// What to run.
    pub target: ScenarioTarget,
    /// The failpoint schedule to arm.
    pub failpoints: Vec<FailpointSpec>,
    /// Free-form description carried in the JSON for corpus readers.
    #[serde(default)]
    pub notes: String,
}

impl Scenario {
    /// Parses a scenario from JSON text. A field the schema does not
    /// know — in the scenario, its target, or a failpoint — is an error
    /// naming it, so a stale or misspelled knob never runs silently.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let bad = |e: String| format!("bad scenario JSON: {e}");
        let given: Value = serde_json::from_str(text).map_err(|e| bad(e.to_string()))?;
        let scenario = Scenario::from_value(&given).map_err(|e| bad(e.to_string()))?;
        // The vendored serde cannot deny unknown fields; every field it
        // knows survives a round trip, so anything else is unknown.
        match unknown_field(&given, &scenario.to_value(), "scenario") {
            Some(path) => Err(bad(format!("unknown field `{path}`"))),
            None => Ok(scenario),
        }
    }

    /// Serializes the scenario as pretty JSON (corpus format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenarios serialize")
    }

    /// Loads one scenario file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Loads every `*.json` scenario in a corpus directory, sorted by
    /// file name so corpus order is stable across platforms.
    pub fn load_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Scenario)>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let scenario = Self::load(&path)?;
            out.push((path, scenario));
        }
        Ok(out)
    }
}

/// The path of the first key in `given` that `known` (the same document
/// re-serialized from its parsed form) lacks.
fn unknown_field(given: &Value, known: &Value, path: &str) -> Option<String> {
    match (given, known) {
        (Value::Object(given), Value::Object(known)) => given.iter().find_map(|(key, value)| {
            let path = format!("{path}.{key}");
            match known.iter().find(|(k, _)| k == key) {
                Some((_, known)) => unknown_field(value, known, &path),
                None => Some(path),
            }
        }),
        (Value::Array(given), Value::Array(known)) => given
            .iter()
            .zip(known)
            .enumerate()
            .find_map(|(i, (g, k))| unknown_field(g, k, &format!("{path}[{i}]"))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FailAction;

    #[test]
    fn scenario_round_trips_and_defaults_fill() {
        let scenario = Scenario {
            name: "disk-short-writes".to_string(),
            seed: 11,
            target: ScenarioTarget::Site {
                tasks: 150,
                processors: 4,
                load: 1.0,
                policy: "pv:0.01".to_string(),
                snapshot_every: 32,
            },
            failpoints: vec![FailpointSpec::always(
                "durable.sink.write",
                FailAction::ShortWrite { max_bytes: 9 },
            )],
            notes: String::new(),
        };
        let back = Scenario::from_json(&scenario.to_json()).expect("round trip");
        assert_eq!(back, scenario);

        let sparse = r#"{
            "name": "x", "seed": 1,
            "target": {"Serve": {}},
            "failpoints": []
        }"#;
        let parsed = Scenario::from_json(sparse).expect("defaults fill");
        match parsed.target {
            ScenarioTarget::Serve {
                commands,
                processors,
                queue_capacity,
                ..
            } => {
                assert_eq!(commands, 300);
                assert_eq!(processors, 4);
                assert_eq!(queue_capacity, 64);
            }
            other => panic!("wrong target: {other:?}"),
        }
        assert_eq!(parsed.target.class(), "serve");
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let with = |target: &str, failpoint: &str, top: &str| {
            format!(
                r#"{{"name": "x", "seed": 1{top},
                    "target": {{"Serve": {{"commands": 10{target}}}}},
                    "failpoints": [{{"point": "durable.sink.write", "action": "Enospc"{failpoint}}}]}}"#
            )
        };
        assert!(Scenario::from_json(&with("", "", "")).is_ok());
        for (text, field) in [
            (
                with(r#", "shards": 4, "bogus": true"#, "", ""),
                "scenario.target.Serve.shards",
            ),
            (
                with("", r#", "evry": 3"#, ""),
                "scenario.failpoints[0].evry",
            ),
            (with("", "", r#", "sede": 2"#), "scenario.sede"),
        ] {
            let err = Scenario::from_json(&text).expect_err(field);
            assert!(err.contains(&format!("unknown field `{field}`")), "{err}");
        }
    }
}
