//! Deterministic aggregation of campaign cell results.
//!
//! Shapes follow the paper's figures: per-(structure, mode, threads)
//! groups with normalized-to-NOP execution time (Fig. 5/7), critical
//! write-back fractions (Fig. 6), thread sweeps (Fig. 8), plus geomean
//! speedups and 95% confidence intervals over the seed axis.
//!
//! Everything here is a pure function of the matrix and the per-cell
//! outcomes — never of wall-clock time or worker interleaving — so a
//! parallel campaign aggregates byte-identically to a serial one.

use crate::isolation::{CellOutcome, CellRecord};
use crate::matrix::MatrixSpec;
use lrp_lfds::Structure;
use lrp_obs::ObsSummary;
use lrp_sim::{Mechanism, NvmMode, Stats};
use std::collections::HashMap;

/// Geometric mean; `None` when empty or any value is non-positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation; 0 for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs).expect("non-empty");
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Normal-approximation 95% confidence interval for the mean.
pub fn ci95(xs: &[f64]) -> Option<(f64, f64)> {
    let m = mean(xs)?;
    let half = 1.96 * stddev(xs) / (xs.len() as f64).sqrt();
    Some((m - half, m + half))
}

/// One mechanism's aggregate within a (structure, mode, threads) group.
#[derive(Debug, Clone)]
pub struct MechSummary {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Cells that completed.
    pub ok: usize,
    /// Cells that panicked.
    pub failed: usize,
    /// Cells the watchdog reaped.
    pub timed_out: usize,
    /// `(seed, cycles)` for completed cells, in matrix seed order.
    pub cycles_by_seed: Vec<(u64, u64)>,
    /// Execution time normalized to the same-seed NOP run (Fig. 5/7
    /// metric), in matrix seed order; empty without NOP coverage.
    pub normalized: Vec<f64>,
    /// Geomean of `normalized` over seeds.
    pub norm_geomean: Option<f64>,
    /// 95% CI of `normalized` over seeds.
    pub norm_ci95: Option<(f64, f64)>,
    /// Mean critical write-back fraction over seeds (Fig. 6 metric).
    pub critical_fraction_mean: Option<f64>,
    /// All completed cells' counters merged.
    pub merged: Stats,
    /// All completed cells' observability summaries merged.
    pub obs: ObsSummary,
    /// Total RP violations (0 for a healthy mechanism).
    pub rp_violations: u64,
    /// Total crash points examined by null-recovery checking.
    pub recovery_points: u64,
    /// Total crash points that failed recovery.
    pub recovery_failures: u64,
}

/// Aggregates for one (structure, mode, threads) point, all mechanisms.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Workload structure.
    pub structure: Structure,
    /// NVM mode.
    pub mode: NvmMode,
    /// Worker threads.
    pub threads: u16,
    /// Per-mechanism aggregates, in matrix mechanism order.
    pub mechs: Vec<MechSummary>,
}

/// Campaign-wide rollup of one (mode, mechanism) pair across every
/// structure, thread count, and seed.
#[derive(Debug, Clone)]
pub struct OverallRow {
    /// NVM mode.
    pub mode: NvmMode,
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Geomean normalized execution time (the headline speedup number).
    pub norm_geomean: Option<f64>,
    /// 95% CI of normalized execution time.
    pub norm_ci95: Option<(f64, f64)>,
    /// Mean critical write-back fraction.
    pub critical_fraction_mean: Option<f64>,
}

/// The full aggregate view of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Cells in the matrix.
    pub total_cells: usize,
    /// Completed cells.
    pub ok: usize,
    /// Panicked cells.
    pub failed: usize,
    /// Timed-out cells.
    pub timed_out: usize,
    /// Per-group aggregates in canonical matrix order.
    pub groups: Vec<GroupSummary>,
    /// Campaign-wide rollups, mode-major then matrix mechanism order.
    pub overall: Vec<OverallRow>,
}

type Key = (Structure, Mechanism, NvmMode, u16, u64);

/// Builds the deterministic aggregate view of `records` for `matrix`.
/// Records may cover only part of the matrix (failed cells, interrupted
/// campaigns); missing cells simply don't contribute.
pub fn summarize(matrix: &MatrixSpec, records: &[CellRecord]) -> CampaignSummary {
    let by_key: HashMap<Key, &CellRecord> = records
        .iter()
        .map(|r| {
            let s = &r.spec;
            ((s.structure, s.mechanism, s.mode, s.threads, s.seed), r)
        })
        .collect();

    let mut ok = 0;
    let mut failed = 0;
    let mut timed_out = 0;
    for r in records {
        match r.outcome {
            CellOutcome::Ok(_) => ok += 1,
            CellOutcome::Failed { .. } => failed += 1,
            CellOutcome::TimedOut { .. } => timed_out += 1,
        }
    }

    let mut groups = Vec::new();
    for &structure in &matrix.structures {
        for &mode in &matrix.modes {
            for &threads in &matrix.threads {
                let mut mechs = Vec::new();
                for &mechanism in &matrix.mechanisms {
                    mechs.push(summarize_mech(
                        matrix, &by_key, structure, mode, threads, mechanism,
                    ));
                }
                groups.push(GroupSummary {
                    structure,
                    mode,
                    threads,
                    mechs,
                });
            }
        }
    }

    let mut overall = Vec::new();
    for &mode in &matrix.modes {
        for &mechanism in &matrix.mechanisms {
            let mut normalized = Vec::new();
            let mut fractions = Vec::new();
            for g in groups.iter().filter(|g| g.mode == mode) {
                for m in g.mechs.iter().filter(|m| m.mechanism == mechanism) {
                    normalized.extend_from_slice(&m.normalized);
                    if let Some(f) = m.critical_fraction_mean {
                        fractions.push(f);
                    }
                }
            }
            overall.push(OverallRow {
                mode,
                mechanism,
                norm_geomean: geomean(&normalized),
                norm_ci95: ci95(&normalized),
                critical_fraction_mean: mean(&fractions),
            });
        }
    }

    CampaignSummary {
        total_cells: matrix.len(),
        ok,
        failed,
        timed_out,
        groups,
        overall,
    }
}

fn summarize_mech(
    matrix: &MatrixSpec,
    by_key: &HashMap<Key, &CellRecord>,
    structure: Structure,
    mode: NvmMode,
    threads: u16,
    mechanism: Mechanism,
) -> MechSummary {
    let mut s = MechSummary {
        mechanism,
        ok: 0,
        failed: 0,
        timed_out: 0,
        cycles_by_seed: Vec::new(),
        normalized: Vec::new(),
        norm_geomean: None,
        norm_ci95: None,
        critical_fraction_mean: None,
        merged: Stats::default(),
        obs: ObsSummary::default(),
        rp_violations: 0,
        recovery_points: 0,
        recovery_failures: 0,
    };
    let mut fractions = Vec::new();
    for &seed in &matrix.seeds {
        let Some(rec) = by_key.get(&(structure, mechanism, mode, threads, seed)) else {
            continue;
        };
        match &rec.outcome {
            CellOutcome::Failed { .. } => s.failed += 1,
            CellOutcome::TimedOut { .. } => s.timed_out += 1,
            CellOutcome::Ok(result) => {
                s.ok += 1;
                s.cycles_by_seed.push((seed, result.stats.cycles));
                s.merged.merge(&result.stats);
                s.obs.merge(&result.obs);
                s.rp_violations += result.rp_violations;
                s.recovery_points += result.recovery_points;
                s.recovery_failures += result.recovery_failures;
                if result.stats.total_flushes() > 0 {
                    fractions.push(result.stats.critical_writeback_fraction());
                }
                // Normalize to the same-seed NOP run when it completed.
                if mechanism != Mechanism::Nop {
                    if let Some(nop) = by_key.get(&(structure, Mechanism::Nop, mode, threads, seed))
                    {
                        if let CellOutcome::Ok(nop_result) = &nop.outcome {
                            if nop_result.stats.cycles > 0 {
                                s.normalized.push(
                                    result.stats.cycles as f64 / nop_result.stats.cycles as f64,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    s.norm_geomean = geomean(&s.normalized);
    s.norm_ci95 = ci95(&s.normalized);
    s.critical_fraction_mean = mean(&fractions);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{build_trace, replay_cell};
    use crate::matrix::MatrixSpec;

    #[test]
    fn geomean_and_ci_helpers() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 2f64.sqrt()).abs() < 1e-12);
        let (lo, hi) = ci95(&[2.0, 2.0, 2.0]).unwrap();
        assert_eq!((lo, hi), (2.0, 2.0));
        let (lo, hi) = ci95(&[1.0, 3.0]).unwrap();
        assert!(lo < 2.0 && 2.0 < hi);
    }

    /// Merging per-cell stats must equal accumulating the same runs
    /// serially, and the aggregate view must expose exactly that merge.
    #[test]
    fn merged_stats_equal_serial_accumulation() {
        let mut matrix = MatrixSpec::smoke();
        matrix.seeds = vec![1, 2, 3];
        let cells = matrix.cells();
        let records: Vec<CellRecord> = cells
            .iter()
            .map(|spec| CellRecord {
                spec: spec.clone(),
                outcome: CellOutcome::Ok(replay_cell(spec, &build_trace(spec))),
                wall_ms: 0.0,
            })
            .collect();

        let mut serial = Stats::default();
        let mut expected_ops = 0;
        for r in &records {
            if let (CellOutcome::Ok(res), Mechanism::Lrp) = (&r.outcome, r.spec.mechanism) {
                serial.merge(&res.stats);
                expected_ops += res.stats.ops;
            }
        }

        let summary = summarize(&matrix, &records);
        let lrp = summary.groups[0]
            .mechs
            .iter()
            .find(|m| m.mechanism == Mechanism::Lrp)
            .unwrap();
        assert_eq!(lrp.merged, serial);
        assert_eq!(lrp.merged.ops, expected_ops);
        assert_eq!(lrp.ok, 3);
        assert_eq!(lrp.cycles_by_seed.len(), 3);
        assert_eq!(lrp.normalized.len(), 3);
        assert!(lrp.norm_geomean.unwrap() >= 0.9);
        let (lo, hi) = lrp.norm_ci95.unwrap();
        assert!(lo <= lrp.norm_geomean.unwrap() * 1.2 && hi >= lo);
    }

    #[test]
    fn failed_cells_are_counted_not_aggregated() {
        let matrix = MatrixSpec::smoke();
        let cells = matrix.cells();
        let records: Vec<CellRecord> = cells
            .iter()
            .map(|spec| CellRecord {
                spec: spec.clone(),
                outcome: if spec.mechanism == Mechanism::Lrp {
                    CellOutcome::Failed {
                        error: "injected".to_string(),
                    }
                } else {
                    CellOutcome::Ok(replay_cell(spec, &build_trace(spec)))
                },
                wall_ms: 0.0,
            })
            .collect();
        let summary = summarize(&matrix, &records);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.ok, 1);
        let lrp = summary.groups[0]
            .mechs
            .iter()
            .find(|m| m.mechanism == Mechanism::Lrp)
            .unwrap();
        assert_eq!(lrp.failed, 1);
        assert_eq!(lrp.ok, 0);
        assert!(lrp.cycles_by_seed.is_empty());
        assert_eq!(lrp.merged, Stats::default());
    }

    #[test]
    fn partial_records_summarize_without_panicking() {
        let matrix = MatrixSpec::smoke();
        let summary = summarize(&matrix, &[]);
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.total_cells, matrix.len());
        assert!(summary
            .groups
            .iter()
            .all(|g| g.mechs.iter().all(|m| m.norm_geomean.is_none())));
    }
}
