//! The mergeable summary of one recorded replay.
//!
//! [`ObsSummary`] is what every consumer of recorded runs keeps and
//! folds together — a campaign cell and its per-mechanism rollup, a
//! serving shard across its batches, the profiler: the two latency
//! histograms the recorder measures itself, the blame table, the
//! critical-path digest and the I1–I4 audit. Release-to-persist is
//! measured once, by the critical-path engine: it is `crit.path`, which
//! [`ObsSummary::hist_rows`] reports under its own name beside the
//! other two histograms.

use crate::audit::InvariantAudit;
use crate::blame::{blame_json, parse_blame, BlameTable};
use crate::critpath::{crit_json, parse_crit, CritSummary};
use crate::hist::Hist;
use crate::json::Json;
use crate::metrics::{hist_json, parse_hist};

/// What one recorded replay yields, and what every consumer merges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSummary {
    /// Cycles from flush issue to persist ack.
    pub flush_to_ack: Hist,
    /// Cycles a released line spent in the RET before its flush issued.
    pub ret_residency: Hist,
    /// Per-`(site, cause)` blame attribution with line heavy hitters.
    pub blame: BlameTable,
    /// Durability critical-path digest; its `path` histogram is the
    /// release-to-persist latency.
    pub crit: CritSummary,
    /// I1–I4 observation counters.
    pub audit: InvariantAudit,
}

impl ObsSummary {
    /// Folds another summary into this one: histograms, blame, critical
    /// path and audit, each by its own merge.
    pub fn merge(&mut self, other: &ObsSummary) {
        self.flush_to_ack.merge(&other.flush_to_ack);
        self.ret_residency.merge(&other.ret_residency);
        self.blame.merge(&other.blame);
        self.crit.merge(&other.crit);
        self.audit.merge(&other.audit);
    }

    /// The three latency histograms in their stable report order:
    /// flush-to-ack, release-to-persist (`crit.path`), RET residency.
    pub fn hist_rows(&self) -> [(&'static str, &Hist); 3] {
        [
            ("flush_to_ack", &self.flush_to_ack),
            ("release_to_persist", &self.crit.path),
            ("ret_residency", &self.ret_residency),
        ]
    }

    /// The `hists` object of campaign reports: one [`hist_json`] per
    /// [`hist_rows`](Self::hist_rows) entry.
    pub fn hists_json(&self) -> Json {
        Json::obj(self.hist_rows().map(|(name, h)| (name, hist_json(h))))
    }

    /// The summary as the `hists`, `blame`, `critpath` and `audit` (one
    /// row per invariant) fields of a record.
    pub fn json_fields(&self) -> [(&'static str, Json); 4] {
        [
            ("hists", self.hists_json()),
            ("blame", blame_json(&self.blame)),
            ("critpath", crit_json(&self.crit)),
            ("audit", Json::obj(self.audit.json_rows())),
        ]
    }

    /// Parses the [`json_fields`](Self::json_fields) of `doc`. Every
    /// field is required, and the `release_to_persist` row must equal
    /// the critical path's `paths` histogram it was written from.
    pub fn parse(doc: &Json) -> Result<ObsSummary, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
        let hists = field("hists")?;
        let hist = |name: &str| {
            parse_hist(
                hists
                    .get(name)
                    .ok_or_else(|| format!("missing histogram {name:?}"))?,
            )
        };
        let summary = ObsSummary {
            flush_to_ack: hist("flush_to_ack")?,
            ret_residency: hist("ret_residency")?,
            blame: parse_blame(field("blame")?)?,
            crit: parse_crit(field("critpath")?)?,
            audit: InvariantAudit::parse(field("audit")?)?,
        };
        if hist("release_to_persist")? != summary.crit.path {
            return Err("release_to_persist disagrees with critpath.paths".to_string());
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::CritSegKind;
    use crate::event::MechEvent;
    use crate::recorder::{Recorder, RecorderConfig};
    use crate::stats::{FlushClass, StallCause, Stats};

    /// Feeds cell `k`'s stream into `r`: a flushed and an issue-less
    /// release, one RET stay, one stall and two audit observations.
    fn feed(r: &mut Recorder, k: u32) {
        let (t, ev, line) = (1000 * k as u64, 10 * k, 0x40 * (k as u64 + 1));
        r.set_core_site(0, (k % 2 + 1) as u16);
        r.release_committed(t, ev);
        r.flush_issue(t + 20, 0, line, FlushClass::Critical, 1, &[ev]);
        r.flush_ack(t + 150 + 7 * k as u64, 0, line);
        r.persisted(t + 150 + 7 * k as u64, &[ev]);
        r.release_committed(t + 5, ev + 1);
        r.persisted(t + 60 + k as u64, &[ev + 1]);
        let (epoch, occupancy) = (1, 1);
        r.mech_events(
            t,
            0,
            &[MechEvent::RetInsert {
                line,
                epoch,
                occupancy,
            }],
        );
        let squash = MechEvent::RetSquash { line, occupancy: 0 };
        r.mech_events(t + 30 + k as u64, 0, &[squash]);
        r.stall_end(
            t + 200,
            0,
            StallCause::LoadMiss,
            11 + k as u64,
            Some(line),
            false,
        );
        r.audit.release_writeback(k as u64 % 2);
        r.audit.rmw_retire(true);
    }

    #[test]
    fn merged_cell_summaries_equal_one_serial_recording() {
        let names: Vec<String> = ["unknown", "q/enq", "q/deq"].map(String::from).to_vec();
        let cfg = RecorderConfig::summaries_only();
        let recorder = || Recorder::new(cfg.clone(), 1, names.clone(), CritSegKind::ReleaseOrder);
        let mut merged = ObsSummary::default();
        let mut serial = recorder();
        for k in 0..3 {
            let mut cell = recorder();
            feed(&mut cell, k);
            feed(&mut serial, k);
            merged.merge(&cell.finish(5000, &Stats::default()).summary);
        }
        let mut want = serial.finish(5000, &Stats::default()).summary;
        // Each finished cell makes its own C2 wall-bound check.
        want.crit.audit.c2.checks += 2;
        assert_eq!(merged.flush_to_ack, want.flush_to_ack);
        assert_eq!(merged.ret_residency, want.ret_residency);
        assert_eq!(merged.blame, want.blame);
        assert_eq!(merged.crit, want.crit);
        assert_eq!(merged.audit, want.audit);
        assert_eq!(merged, want);
        assert_eq!(merged.crit.paths(), 6);
        assert_eq!((merged.audit.i1.checks, merged.audit.i1.violations), (3, 1));
        assert_eq!(
            merged.hist_rows()[1],
            ("release_to_persist", &merged.crit.path)
        );
    }

    #[test]
    fn json_fields_round_trip_and_refuse_a_stale_release_row() {
        let mut r = Recorder::new(
            RecorderConfig::summaries_only(),
            1,
            vec!["unknown".to_string(), "q/enq".to_string()],
            CritSegKind::ReleaseOrder,
        );
        feed(&mut r, 1);
        let summary = r.finish(5000, &Stats::default()).summary;
        let doc = Json::obj(summary.json_fields());
        assert_eq!(ObsSummary::parse(&doc).unwrap(), summary);
        let mut other = summary.clone();
        other.crit.path.record(1);
        let mut stale = summary.json_fields();
        stale[0].1 = other.hists_json();
        let err = ObsSummary::parse(&Json::obj(stale)).unwrap_err();
        assert!(err.contains("release_to_persist"), "{err}");
    }
}
