//! Invariant audit counters for §5.1's I1–I4.
//!
//! The machine *enforces* the invariants through its flush sequencer and
//! directory protocol; these counters *observe* the enforcement points
//! and count how often the claimed condition actually held. A violation
//! count of zero is the cheap always-on sanity signal; a non-zero count
//! localises which invariant a regression broke without re-deriving
//! behaviour from aggregate totals. Auditing never changes machine
//! behaviour.

use crate::json::Json;

/// Checks performed / violations seen for one invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounter {
    /// Times the invariant's enforcement point was observed.
    pub checks: u64,
    /// Observations where the invariant did not hold.
    pub violations: u64,
}

impl AuditCounter {
    fn observe(&mut self, ok: bool) {
        self.checks += 1;
        if !ok {
            self.violations += 1;
        }
    }

    /// Folds another counter's observations into this one.
    pub fn merge(&mut self, other: AuditCounter) {
        self.checks += other.checks;
        self.violations += other.violations;
    }

    /// The `{"checks", "violations"}` encoding of every audit row.
    pub fn to_json(self) -> Json {
        Json::obj([
            ("checks", Json::U64(self.checks)),
            ("violations", Json::U64(self.violations)),
        ])
    }

    /// Parses the [`to_json`](Self::to_json) encoding.
    pub fn parse(doc: &Json) -> Result<AuditCounter, String> {
        Ok(AuditCounter {
            checks: doc.field_u64("checks")?,
            violations: doc.field_u64("violations")?,
        })
    }
}

/// Audit counters for the four LRP invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantAudit {
    /// I1 — a released line's write-back leaves the L1 only after all
    /// earlier writes have persisted.
    pub i1: AuditCounter,
    /// I2 — a downgrade response for a released line is sent only after
    /// the release itself (and its priors) persisted.
    pub i2: AuditCounter,
    /// I3 — a successful acquire-RMW retires only once its own write's
    /// persist is acknowledged.
    pub i3: AuditCounter,
    /// I4 — the directory persists L1 write-backs carrying unpersisted
    /// writes before making them visible.
    pub i4: AuditCounter,
}

impl InvariantAudit {
    /// A fresh audit with no observations.
    pub fn new() -> InvariantAudit {
        InvariantAudit::default()
    }

    /// I1 enforcement point: a released victim's write-back is sent to
    /// the directory. `pending_persists` is the core's outstanding
    /// persist count at that moment; the invariant demands it be zero.
    pub fn release_writeback(&mut self, pending_persists: u64) {
        self.i1.observe(pending_persists == 0);
    }

    /// I2 enforcement point: a downgrade response for a released line is
    /// sent. The line must have persisted locally (`line_persisted`) and
    /// no prior persist may still be outstanding.
    pub fn release_downgrade(&mut self, pending_persists: u64, line_persisted: bool) {
        self.i2.observe(pending_persists == 0 && line_persisted);
    }

    /// I3 enforcement point: an acquire-RMW's store retires.
    /// `persist_acked` is whether its synchronous persist completed.
    pub fn rmw_retire(&mut self, persist_acked: bool) {
        self.i3.observe(persist_acked);
    }

    /// I4 enforcement point: the directory received a data write-back.
    /// `carries_writes` is whether it still covers unpersisted writes,
    /// `will_persist` whether the directory persists it before granting.
    pub fn dir_writeback(&mut self, carries_writes: bool, will_persist: bool) {
        self.i4.observe(!carries_writes || will_persist);
    }

    /// Total observations across all four invariants.
    pub fn total_checks(&self) -> u64 {
        self.i1.checks + self.i2.checks + self.i3.checks + self.i4.checks
    }

    /// Total violations across all four invariants.
    pub fn total_violations(&self) -> u64 {
        self.i1.violations + self.i2.violations + self.i3.violations + self.i4.violations
    }

    /// `(name, counter)` rows in invariant order, for reports.
    pub fn rows(&self) -> [(&'static str, AuditCounter); 4] {
        [
            ("i1", self.i1),
            ("i2", self.i2),
            ("i3", self.i3),
            ("i4", self.i4),
        ]
    }

    fn counters_mut(&mut self) -> [&mut AuditCounter; 4] {
        [&mut self.i1, &mut self.i2, &mut self.i3, &mut self.i4]
    }

    /// Folds another audit's observations into this one.
    pub fn merge(&mut self, other: &InvariantAudit) {
        for (mine, (_, theirs)) in self.counters_mut().into_iter().zip(other.rows()) {
            mine.merge(theirs);
        }
    }

    /// One `name: {"checks", "violations"}` pair per invariant, in
    /// invariant order.
    pub fn json_rows(&self) -> [(&'static str, Json); 4] {
        self.rows().map(|(name, c)| (name, c.to_json()))
    }

    /// Parses an object holding the [`json_rows`](Self::json_rows).
    pub fn parse(doc: &Json) -> Result<InvariantAudit, String> {
        let mut audit = InvariantAudit::new();
        let names = InvariantAudit::new().rows().map(|(name, _)| name);
        for (slot, name) in audit.counters_mut().into_iter().zip(names) {
            let row = doc
                .get(name)
                .ok_or_else(|| format!("missing audit row {name:?}"))?;
            *slot = AuditCounter::parse(row)?;
        }
        Ok(audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_observations_count_checks_only() {
        let mut a = InvariantAudit::new();
        a.release_writeback(0);
        a.release_downgrade(0, true);
        a.rmw_retire(true);
        a.dir_writeback(true, true);
        a.dir_writeback(false, false); // no writes carried: vacuously ok
        assert_eq!(a.total_checks(), 5);
        assert_eq!(a.total_violations(), 0);
    }

    #[test]
    fn corrupted_stream_is_flagged() {
        // A deliberately corrupted event stream: each enforcement point
        // reports the condition the invariant forbids.
        let mut a = InvariantAudit::new();
        a.release_writeback(3); // I1: priors still pending
        a.release_downgrade(0, false); // I2: line not persisted
        a.release_downgrade(1, true); // I2: priors pending
        a.rmw_retire(false); // I3: retired without its ack
        a.dir_writeback(true, false); // I4: visible without a persist
        assert_eq!(a.i1.violations, 1);
        assert_eq!(a.i2.violations, 2);
        assert_eq!(a.i3.violations, 1);
        assert_eq!(a.i4.violations, 1);
        assert_eq!(a.total_violations(), 5);
        assert_eq!(a.total_checks(), 5);
    }

    #[test]
    fn rows_are_stable() {
        let names: Vec<&str> = InvariantAudit::new().rows().iter().map(|r| r.0).collect();
        assert_eq!(names, vec!["i1", "i2", "i3", "i4"]);
    }
}
