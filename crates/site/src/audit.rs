//! Conservation-audit failures.

use mbts_sim::Time;
use serde::{Deserialize, Serialize};

/// One failed conservation check from the always-on auditor.
///
/// The auditor re-verifies the site's books after every state
/// transition: task conservation (accepted = queued + running +
/// completed + dropped + cancelled + orphaned), submission accounting
/// (submitted = accepted + rejected), processor conservation
/// (Σ running widths + free = capacity), and yield consistency (the
/// per-job outcome records sum to the metrics' total yield). A failure
/// panics in debug builds; in release it is recorded here and surfaced
/// through [`SiteOutcome::violations`](crate::SiteOutcome::violations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditViolation {
    /// When the check failed.
    pub at: Time,
    /// Which conservation rule failed.
    pub rule: String,
    /// Human-readable account of the imbalance.
    pub detail: String,
}
