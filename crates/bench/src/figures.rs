//! The paper's §6 figures as campaign matrices.
//!
//! Every figure is a set of `lrp-campaign` cells over one workload
//! [`Shape`]. [`Figures::run`] runs the distinct cells of all requested
//! figures once through [`run_campaign`]: each workload trace is
//! generated once and shared by the cells replaying it, and every cell
//! is RP-checked and recovery-audited. Each table is rendered from the
//! [`CampaignSummary`] of its own cells, so a figure over several seeds
//! is a change to the seed axis, not a new runner.
//!
//! Sizing follows §6.1 with the documented substitution: the paper's
//! default of 64 K initial entries is kept for the sublinear structures
//! (hash map, BST, skip list); the O(n)-per-op linked list is scaled to
//! 512 entries and the queue to 1024 (the interpreted executor is ~10³×
//! slower than the paper's native Pin runs).

use lrp_campaign::{
    run_campaign, summarize, CampaignConfig, CampaignSummary, CellRecord, CellSpec, GroupSummary,
    MatrixSpec,
};
use lrp_lfds::Structure;
use lrp_sim::{Mechanism, NvmMode};

/// The workload shape every figure replays.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Worker threads (paper: 32).
    pub threads: u16,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// Workload seed.
    pub seed: u64,
    /// Tiny structures and sweeps, for tests and CI.
    quick: bool,
}

impl Shape {
    /// The paper-shaped configuration, or with `quick` the seconds-scale
    /// one.
    pub fn new(quick: bool) -> Shape {
        let (threads, ops_per_thread) = if quick { (4, 12) } else { (32, 30) };
        Shape {
            threads,
            ops_per_thread,
            seed: 42,
            quick,
        }
    }

    /// Initial size of `s`.
    pub fn initial_size(&self, s: Structure) -> usize {
        match (self.quick, s) {
            (true, _) => 48,
            (false, Structure::LinkedList) => 512,
            (false, Structure::Queue) => 1024,
            (false, _) => 65536,
        }
    }

    /// The cell replaying `s` under `mechanism` in `mode` at this shape.
    pub fn cell(&self, s: Structure, mechanism: Mechanism, mode: NvmMode) -> CellSpec {
        self.matrix(s, &[mechanism], mode, &[self.threads], self.initial_size(s))
            .cells()
            .remove(0)
    }

    /// A matrix of `s` at `initial_size` and this shape's seed and ops,
    /// with the campaign's default crash sampling.
    fn matrix(
        &self,
        s: Structure,
        mechanisms: &[Mechanism],
        mode: NvmMode,
        threads: &[u16],
        initial_size: usize,
    ) -> MatrixSpec {
        MatrixSpec {
            structures: vec![s],
            mechanisms: mechanisms.to_vec(),
            modes: vec![mode],
            threads: threads.to_vec(),
            seeds: vec![self.seed],
            initial_size,
            ops_per_thread: self.ops_per_thread,
            crash_samples: MatrixSpec::default_campaign().crash_samples,
        }
    }
}

/// The figures that are campaign matrices: normalized execution time
/// (Fig. 5 cached, Fig. 7 uncached), critical-path write-backs (Fig. 6),
/// overhead against threads (Fig. 8) and hash-map size (§6.4), and the
/// headline claims derived from Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Sens,
    Claims,
}

impl Figure {
    /// Every figure, in `lrp-eval all` order.
    pub const ALL: [Figure; 6] = {
        use Figure::*;
        [Fig5, Fig6, Fig7, Fig8, Sens, Claims]
    };

    /// The matrices this figure's table reads, one per table section.
    fn matrices(self, shape: &Shape) -> Vec<MatrixSpec> {
        use Mechanism::{Bb, Lrp, Nop};
        use NvmMode::{Cached, Uncached};
        let t = &[shape.threads];
        let per_structure = |mechanisms: &[Mechanism], mode, threads: &[u16]| {
            (Structure::ALL.iter())
                .map(|&s| shape.matrix(s, mechanisms, mode, threads, shape.initial_size(s)))
                .collect()
        };
        let (sweep, sizes): (&[u16], _) = if shape.quick {
            (&[1, 2, 4], [16, 48, 128])
        } else {
            (&[1, 8, 16, 32], [32 * 1024, 128 * 1024, 512 * 1024])
        };
        match self {
            Figure::Fig5 | Figure::Claims => per_structure(&Mechanism::ALL, Cached, t),
            Figure::Fig6 => per_structure(&[Bb, Lrp], Cached, t),
            Figure::Fig7 => per_structure(&Mechanism::ALL, Uncached, t),
            Figure::Fig8 => per_structure(&[Nop, Bb, Lrp], Cached, sweep),
            Figure::Sens => (sizes.iter())
                .map(|&n| shape.matrix(Structure::HashMap, &[Nop, Bb, Lrp], Cached, t, n))
                .collect(),
        }
    }
}

/// The distinct cells of `figures`, indexed in run order: largest
/// workloads first and each one's cells together, so the biggest trace
/// is built before the heap fragments, every trace is freed soon after
/// it is built, and the workers' tails stay short.
fn plan(shape: &Shape, figures: &[Figure]) -> Vec<CellSpec> {
    let mut cells: Vec<CellSpec> = Vec::new();
    for m in figures.iter().flat_map(|f| f.matrices(shape)) {
        for c in m.cells() {
            let c = CellSpec { index: 0, ..c };
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
    }
    let workloads: Vec<_> = cells.iter().map(CellSpec::workload).collect();
    let first = |c: &CellSpec| workloads.iter().position(|w| *w == c.workload());
    cells.sort_by_key(|c| (std::cmp::Reverse(c.initial_size), first(c)));
    for (i, c) in cells.iter_mut().enumerate() {
        c.index = i;
    }
    cells
}

/// `mechanism`'s execution time in `g` normalized to NOP.
fn norm(g: &GroupSummary, mechanism: Mechanism) -> f64 {
    let m = g.mechs.iter().find(|m| m.mechanism == mechanism);
    m.and_then(|m| m.norm_geomean).unwrap_or(f64::NAN)
}

/// `mechanism`'s overhead in `g` over NOP, %.
fn overhead(g: &GroupSummary, mechanism: Mechanism) -> f64 {
    100.0 * (norm(g, mechanism) - 1.0)
}

/// The share of `mechanism`'s write-backs in `g` on the critical path, %
/// (0 for a run without write-backs).
fn critical_pct(g: &GroupSummary, mechanism: Mechanism) -> f64 {
    let m = g
        .mechs
        .iter()
        .find(|m| m.mechanism == mechanism && m.ok > 0);
    m.map_or(f64::NAN, |m| {
        100.0 * m.critical_fraction_mean.unwrap_or(0.0)
    })
}

/// A headline claim: the paper's numbers, and the measured value per
/// workload from its (SB, BB, LRP) normalized times.
type Claim = (&'static str, fn([f64; 3]) -> f64);

const CLAIMS: [Claim; 3] = [
    (
        "BB improvement over SB : paper 24%-68% (avg 52%)",
        |[sb, bb, _]| 100.0 * (1.0 - bb / sb),
    ),
    (
        "LRP improvement over BB: paper 14%-44% (avg 33%)",
        |[_, bb, lrp]| 100.0 * (1.0 - lrp / bb),
    ),
    (
        "LRP overhead over NOP  : paper 2%-8% (avg 6%)   ",
        |[_, _, lrp]| 100.0 * (lrp - 1.0),
    ),
];

/// The records of one figure run.
pub struct Figures {
    shape: Shape,
    /// Every cell that ran, by index.
    pub records: Vec<CellRecord>,
}

impl Figures {
    /// Runs the cells of `figures` at `shape`, each distinct cell once.
    pub fn run(shape: Shape, figures: &[Figure], cfg: &CampaignConfig) -> Figures {
        let records = run_campaign(plan(&shape, figures), cfg, |_| {});
        Figures { shape, records }
    }

    /// `figure`'s table as paper-style text, ending in a blank line;
    /// `legend` completes the normalized-time titles. A value whose cell
    /// failed prints as NaN.
    pub fn render(&self, figure: Figure, legend: &str) -> String {
        use Mechanism::{Bb, Lrp, Sb};
        // One summary per matrix, over the records at its size (within
        // them the campaign's cell key is unique), with its size.
        let sections: Vec<(usize, CampaignSummary)> = (figure.matrices(&self.shape).iter())
            .map(|m| {
                let at_size = |r: &&CellRecord| r.spec.initial_size == m.initial_size;
                let records: Vec<CellRecord> =
                    self.records.iter().filter(at_size).cloned().collect();
                (m.initial_size, summarize(m, &records))
            })
            .collect();
        let mut out = Vec::new();
        let title = match figure {
            Figure::Fig5 => format!("Figure 5: normalized execution time (cached mode{legend})"),
            Figure::Fig6 => {
                "Figure 6: % of write-backs in the critical path (lower is better)".into()
            }
            Figure::Fig7 => format!("Figure 7: normalized execution time (uncached mode{legend})"),
            Figure::Fig8 => "Figure 8: persistency overhead (%) vs worker threads".into(),
            Figure::Sens => "§6.4 size sensitivity (hashmap): overhead (%) vs initial size".into(),
            Figure::Claims => "Headline claims: paper vs measured".into(),
        };
        out.push(format!("== {title} =="));
        match figure {
            Figure::Fig5 | Figure::Fig7 => {
                out.push(format!(
                    "{:<12} {:>7} {:>7} {:>7}",
                    "workload", "SB", "BB", "LRP"
                ));
                for (_, s) in &sections {
                    let g = &s.groups[0];
                    let [sb, bb, lrp] = [Sb, Bb, Lrp].map(|m| norm(g, m));
                    out.push(format!(
                        "{:<12} {sb:>7.3} {bb:>7.3} {lrp:>7.3}",
                        g.structure.name()
                    ));
                }
            }
            Figure::Fig6 => {
                out.push(format!("{:<12} {:>7} {:>7}", "workload", "BB", "LRP"));
                for (_, s) in &sections {
                    let g = &s.groups[0];
                    let [bb, lrp] = [Bb, Lrp].map(|m| critical_pct(g, m));
                    out.push(format!("{:<12} {bb:>6.1}% {lrp:>6.1}%", g.structure.name()));
                }
            }
            Figure::Fig8 => {
                for (_, s) in &sections {
                    out.push(format!("({})", s.groups[0].structure.name()));
                    out.push(format!("{:>8} {:>8} {:>8}", "threads", "BB", "LRP"));
                    for g in &s.groups {
                        let [bb, lrp] = [Bb, Lrp].map(|m| overhead(g, m));
                        out.push(format!("{:>8} {bb:>7.1}% {lrp:>7.1}%", g.threads));
                    }
                }
            }
            Figure::Sens => {
                out.push(format!("{:>10} {:>8} {:>8}", "size", "BB", "LRP"));
                for (size, s) in &sections {
                    let [bb, lrp] = [Bb, Lrp].map(|m| overhead(&s.groups[0], m));
                    out.push(format!("{size:>10} {bb:>7.1}% {lrp:>7.1}%"));
                }
            }
            Figure::Claims => {
                for (label, claim) in CLAIMS {
                    let v: Vec<f64> = (sections.iter())
                        .map(|(_, s)| claim([Sb, Bb, Lrp].map(|m| norm(&s.groups[0], m))))
                        .collect();
                    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let avg = v.iter().sum::<f64>() / v.len() as f64;
                    out.push(format!(
                        "{label} | measured {lo:.0}%-{hi:.0}% (avg {avg:.0}%)"
                    ));
                }
            }
        }
        out.join("\n") + "\n\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builds_each_cell_and_trace_once() {
        // Full scale: Fig. 5/6/claims share 20 cached cells, Fig. 7 adds
        // 20 uncached, Fig. 8 45 (its 32-thread point is Fig. 5's) and
        // §6.4 9, over 5 + 15 + 3 traces. At quick scale Fig. 8's
        // 4-thread point and §6.4's 48 entries are Fig. 5's too.
        for (quick, want) in [(false, (94, 23)), (true, (76, 17))] {
            let cells = plan(&Shape::new(quick), &Figure::ALL);
            let mut workloads: Vec<_> = cells.iter().map(CellSpec::workload).collect();
            workloads.sort_by_key(|w| format!("{w:?}"));
            workloads.dedup();
            assert_eq!((cells.len(), workloads.len()), want);
            assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        }
    }

    #[test]
    fn a_failed_cell_is_reported_and_prints_as_nan() {
        let cfg = CampaignConfig {
            inject_panic: Some("hashmap/lrp/cached/t4/s42".to_string()),
            ..CampaignConfig::default()
        };
        let figs = Figures::run(Shape::new(true), &[Figure::Fig6], &cfg);
        let bad: Vec<String> = (figs.records.iter())
            .filter(|r| r.problem().is_some())
            .map(|r| r.spec.id())
            .collect();
        assert_eq!(bad, ["hashmap/lrp/cached/t4/s42"]);
        let table = figs.render(Figure::Fig6, "");
        let row = table.lines().find(|l| l.starts_with("hashmap")).unwrap();
        assert!(row.ends_with("   NaN%") && !row.contains(" NaN% "), "{row}");
    }

    #[test]
    fn claims_math() {
        let [bb_over_sb, lrp_over_bb, lrp_over_nop] = CLAIMS.map(|(_, f)| f([2.0, 1.5, 1.2]));
        assert!((bb_over_sb - 25.0).abs() < 1e-9);
        assert!((lrp_over_bb - 20.0).abs() < 1e-9);
        assert!((lrp_over_nop - 20.0).abs() < 1e-9);
    }
}
