//! Campaign matrix: the cross product of the paper's evaluation axes
//! (§6 — structure × mechanism × NVM mode × thread count × seed),
//! enumerated in a single canonical order so cell indices, resume
//! manifests, and aggregate reports all agree.

use lrp_lfds::Structure;
use lrp_obs::Json;
use lrp_sim::{Mechanism, NvmMode};

/// What a cell's trace is generated from: structure, initial size,
/// threads, ops per thread and seed. Cells that agree on it replay the
/// same trace.
pub type Workload = (Structure, usize, u16, usize, u64);

/// One point of the evaluation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Position in the canonical enumeration (stable across runs of the
    /// same matrix; the resume key).
    pub index: usize,
    /// Workload data structure.
    pub structure: Structure,
    /// Persistency mechanism.
    pub mechanism: Mechanism,
    /// NVM latency mode.
    pub mode: NvmMode,
    /// Worker threads in the generated workload.
    pub threads: u16,
    /// Workload seed (also seeds the crash-point sampler).
    pub seed: u64,
    /// Initial structure size.
    pub initial_size: usize,
    /// Operations per worker thread.
    pub ops_per_thread: usize,
    /// Crash points sampled for null-recovery checking.
    pub crash_samples: usize,
}

impl CellSpec {
    /// Human- and machine-readable cell identifier, e.g.
    /// `hashmap/lrp/cached/t4/s1`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/t{}/s{}",
            self.structure.name(),
            self.mechanism.name(),
            self.mode.name(),
            self.threads,
            self.seed
        )
    }

    /// The workload this cell replays.
    pub fn workload(&self) -> Workload {
        (
            self.structure,
            self.initial_size,
            self.threads,
            self.ops_per_thread,
            self.seed,
        )
    }
}

/// The full campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Structures axis.
    pub structures: Vec<Structure>,
    /// Mechanisms axis.
    pub mechanisms: Vec<Mechanism>,
    /// NVM modes axis.
    pub modes: Vec<NvmMode>,
    /// Thread-count axis.
    pub threads: Vec<u16>,
    /// Seeds axis (confidence intervals aggregate over this).
    pub seeds: Vec<u64>,
    /// Initial structure size; `0` picks a per-structure default that
    /// keeps the O(n)-per-op structures tractable.
    pub initial_size: usize,
    /// Operations per worker thread.
    pub ops_per_thread: usize,
    /// Crash points sampled per cell for null-recovery checking.
    pub crash_samples: usize,
}

impl MatrixSpec {
    /// The default campaign: all five LFDs, the paper's four comparison
    /// mechanisms, both NVM modes, a small thread sweep, three seeds.
    pub fn default_campaign() -> Self {
        MatrixSpec {
            structures: Structure::ALL.to_vec(),
            mechanisms: Mechanism::ALL.to_vec(),
            modes: NvmMode::ALL.to_vec(),
            threads: vec![1, 4],
            seeds: vec![1, 2, 3],
            initial_size: 0,
            ops_per_thread: 16,
            crash_samples: 24,
        }
    }

    /// The CI smoke subset: one structure, NOP + LRP, one mode, one
    /// seed. Completes in seconds.
    pub fn smoke() -> Self {
        MatrixSpec {
            structures: vec![Structure::HashMap],
            mechanisms: vec![Mechanism::Nop, Mechanism::Lrp],
            modes: vec![NvmMode::Cached],
            threads: vec![2],
            seeds: vec![1],
            initial_size: 32,
            ops_per_thread: 10,
            crash_samples: 8,
        }
    }

    /// The paper tier: SynchroBench scale — 64K initial entries on the
    /// machine's full 64-core mesh, cached NVM, one seed. Only the
    /// structures the paper evaluates at that size (the O(n) linked
    /// list and the queue are excluded — a single traversal at 64K
    /// entries dwarfs the rest of the matrix). Crash sampling is
    /// lighter than the default campaign: each sample replays the
    /// whole trace, and the traces are three orders larger here.
    pub fn paper() -> Self {
        MatrixSpec {
            structures: vec![Structure::HashMap, Structure::Bst, Structure::SkipList],
            mechanisms: Mechanism::ALL.to_vec(),
            modes: vec![NvmMode::Cached],
            threads: vec![64],
            seeds: vec![1],
            initial_size: 64 * 1024,
            ops_per_thread: 64,
            crash_samples: 4,
        }
    }

    /// The model checker's bound (`lrp-check`): every structure under
    /// every mechanism, DPO included, at 2 threads × 4 ops over 8
    /// entries, seeds 3 and 4. Large enough that every mechanism but
    /// NOP (which never flushes) records several distinct persist
    /// stamps, small enough that the whole cut lattice fits the
    /// enumerator's state budget. The checker visits every crash point,
    /// so `crash_samples` is unused.
    pub fn check() -> Self {
        MatrixSpec {
            structures: Structure::ALL.to_vec(),
            mechanisms: Mechanism::EXTENDED.to_vec(),
            modes: vec![NvmMode::Cached],
            threads: vec![2],
            seeds: vec![3, 4],
            initial_size: 8,
            ops_per_thread: 4,
            crash_samples: 0,
        }
    }

    /// Effective initial size for `s` (per-structure default when
    /// `initial_size` is 0: the O(n) linked list stays small).
    pub fn size_for(&self, s: Structure) -> usize {
        if self.initial_size != 0 {
            return self.initial_size;
        }
        match s {
            Structure::LinkedList => 64,
            Structure::Queue => 128,
            _ => 256,
        }
    }

    /// Number of cells in the matrix.
    pub fn len(&self) -> usize {
        self.structures.len()
            * self.mechanisms.len()
            * self.modes.len()
            * self.threads.len()
            * self.seeds.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every cell in canonical order (structure, mechanism,
    /// mode, threads, seed — innermost last).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(self.len());
        for &structure in &self.structures {
            for &mechanism in &self.mechanisms {
                for &mode in &self.modes {
                    for &threads in &self.threads {
                        for &seed in &self.seeds {
                            out.push(CellSpec {
                                index: out.len(),
                                structure,
                                mechanism,
                                mode,
                                threads,
                                seed,
                                initial_size: self.size_for(structure),
                                ops_per_thread: self.ops_per_thread,
                                crash_samples: self.crash_samples,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Canonical one-line description (the fingerprint input, also shown
    /// in reports).
    pub fn describe(&self) -> String {
        let join = |items: Vec<String>| items.join(",");
        format!(
            "structures={} mechanisms={} modes={} threads={} seeds={} size={} ops={} crash_samples={}",
            join(self.structures.iter().map(|s| s.name().to_string()).collect()),
            join(self.mechanisms.iter().map(|m| m.name().to_string()).collect()),
            join(self.modes.iter().map(|m| m.name().to_string()).collect()),
            join(self.threads.iter().map(|t| t.to_string()).collect()),
            join(self.seeds.iter().map(|s| s.to_string()).collect()),
            self.initial_size,
            self.ops_per_thread,
            self.crash_samples,
        )
    }

    /// The `matrix` object of every report over a matrix
    /// (`BENCH_campaign.json`, `BENCH_host.json`, `lrp-check
    /// --json-out`): the axes and the workload shape.
    pub fn to_json(&self) -> Json {
        let names = |items: Vec<&str>| {
            Json::Arr(
                items
                    .into_iter()
                    .map(|n| Json::Str(n.to_string()))
                    .collect(),
            )
        };
        Json::obj([
            (
                "structures",
                names(self.structures.iter().map(|s| s.name()).collect()),
            ),
            (
                "mechanisms",
                names(self.mechanisms.iter().map(|m| m.name()).collect()),
            ),
            (
                "modes",
                names(self.modes.iter().map(|m| m.name()).collect()),
            ),
            (
                "threads",
                Json::Arr(self.threads.iter().map(|&t| Json::U64(t as u64)).collect()),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::U64(s)).collect()),
            ),
            ("initial_size", Json::U64(self.initial_size as u64)),
            ("ops_per_thread", Json::U64(self.ops_per_thread as u64)),
            ("crash_samples", Json::U64(self.crash_samples as u64)),
        ])
    }

    /// FNV-1a fingerprint of the canonical description; a resume refuses
    /// to mix results from a different matrix.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.describe().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_canonical_and_indexed() {
        let m = MatrixSpec::default_campaign();
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        assert_eq!(cells.len(), 5 * 4 * 2 * 2 * 3);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Innermost axis is the seed.
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[2].seed, 3);
        assert_eq!(cells[3].threads, 4);
        // Enumeration is deterministic.
        assert_eq!(m.cells(), cells);
    }

    #[test]
    fn ids_are_unique() {
        let cells = MatrixSpec::default_campaign().cells();
        let mut ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn fingerprint_tracks_matrix_shape() {
        let a = MatrixSpec::default_campaign();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seeds.push(4);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
    }

    #[test]
    fn smoke_matrix_is_small() {
        let m = MatrixSpec::smoke();
        assert_eq!(m.len(), 2);
        assert!(m.cells().iter().any(|c| c.mechanism == Mechanism::Nop));
    }

    #[test]
    fn paper_matrix_is_paper_scale() {
        let m = MatrixSpec::paper();
        assert_eq!(m.len(), 3 * 4);
        assert_eq!(m.initial_size, 64 * 1024);
        assert!(m.cells().iter().all(|c| c.threads == 64));
        assert!(!m.structures.contains(&Structure::LinkedList));
        assert!(!m.structures.contains(&Structure::Queue));
    }

    #[test]
    fn size_defaults_keep_linked_list_small() {
        let m = MatrixSpec::default_campaign();
        assert!(m.size_for(Structure::LinkedList) < m.size_for(Structure::HashMap));
        let mut fixed = m.clone();
        fixed.initial_size = 99;
        assert_eq!(fixed.size_for(Structure::LinkedList), 99);
    }
}
