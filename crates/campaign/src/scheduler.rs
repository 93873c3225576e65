//! Work-stealing parallel execution of a campaign's cells.
//!
//! Cells are dealt round-robin onto per-worker deques; each worker
//! drains its own deque from the front and, when empty, steals from the
//! back of a victim's. Results stream to the caller's sink in completion
//! order (for JSONL persistence) and are returned sorted by cell index,
//! so every aggregate downstream is a pure function of the matrix — the
//! worker count and steal interleaving cannot perturb reports.

use crate::isolation::{run_isolated, with_quiet_cell_panics, CellRecord};
use crate::matrix::CellSpec;
use crate::traces::SharedTraces;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Execution policy for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker OS threads (1 = serial; results are identical either way).
    pub workers: usize,
    /// Watchdog timeout per cell.
    pub timeout: Duration,
    /// Cell id or index that should deliberately panic (isolation-path
    /// fault injection; `None` in real campaigns).
    pub inject_panic: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            timeout: Duration::from_secs(300),
            inject_panic: None,
        }
    }
}

impl CampaignConfig {
    /// True when fault injection targets `spec`.
    fn injects(&self, spec: &CellSpec) -> bool {
        self.inject_panic
            .as_deref()
            .is_some_and(|t| t == spec.id() || t == spec.index.to_string())
    }
}

/// Runs `f` over `items` on `workers` work-stealing threads and
/// returns the results in item order.
///
/// Items are dealt round-robin onto per-worker deques; each worker
/// drains its own deque from the front and, when empty, steals from
/// the back of a victim's — the same discipline [`run_campaign`] uses
/// for campaign cells, exposed generically so other fan-outs (the
/// host benchmark's `--workers`, trace pre-building) reuse it. `each`
/// runs on the caller's thread once per completed item in completion
/// order (for streaming persistence or progress lines). With
/// `workers <= 1` everything runs serially on the caller's thread and
/// no threads are spawned.
pub fn run_parallel<T, R>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
    mut each: impl FnMut(&R),
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);
    if workers == 1 {
        return items
            .into_iter()
            .map(|item| {
                let r = f(item);
                each(&r);
                r
            })
            .collect();
    }

    let mut deques: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push_back((i, item));
    }
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> = deques.into_iter().map(Mutex::new).collect();

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let f = &f;
            scope.spawn(move || {
                loop {
                    // Own work first (front), then steal (back). The own
                    // pop is bound first so its guard is released before
                    // any victim lock is taken: holding it while stealing
                    // lets two idle workers lock each other's deques in
                    // opposite order and deadlock.
                    let own = deques[w].lock().unwrap().pop_front();
                    let next = own.or_else(|| {
                        (1..workers)
                            .find_map(|d| deques[(w + d) % workers].lock().unwrap().pop_back())
                    });
                    let Some((i, item)) = next else { break };
                    if tx.send((i, f(item))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            each(&r);
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("a worker died before completing its item"))
        .collect()
}

/// Runs `cells` under `cfg`, invoking `sink` once per completed cell in
/// completion order, and returns all records sorted by cell index.
/// Each distinct workload's trace is generated once and shared by the
/// cells that replay it ([`SharedTraces`]).
pub fn run_campaign(
    cells: Vec<CellSpec>,
    cfg: &CampaignConfig,
    mut sink: impl FnMut(&CellRecord),
) -> Vec<CellRecord> {
    let traces = Arc::new(SharedTraces::new(&cells));
    let mut records = with_quiet_cell_panics(|| {
        run_parallel(
            cells,
            cfg.workers,
            |spec| {
                let record = run_isolated(&spec, cfg.timeout, cfg.injects(&spec), &traces);
                traces.finish(&spec);
                record
            },
            |record| sink(record),
        )
    });
    // Item order is matrix order already; sort by the specs' own index
    // so callers can rely on it even for hand-built cell lists.
    records.sort_by_key(|r| r.spec.index);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolation::CellOutcome;
    use crate::matrix::MatrixSpec;

    fn quick_matrix() -> MatrixSpec {
        let mut m = MatrixSpec::smoke();
        m.seeds = vec![1, 2];
        m.threads = vec![1, 2];
        m
    }

    fn strip_wall(records: &[CellRecord]) -> Vec<(usize, CellOutcome)> {
        records
            .iter()
            .map(|r| (r.spec.index, r.outcome.clone()))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let cells = quick_matrix().cells();
        let serial = run_campaign(
            cells.clone(),
            &CampaignConfig {
                workers: 1,
                ..CampaignConfig::default()
            },
            |_| {},
        );
        let parallel = run_campaign(
            cells,
            &CampaignConfig {
                workers: 4,
                ..CampaignConfig::default()
            },
            |_| {},
        );
        assert_eq!(strip_wall(&serial), strip_wall(&parallel));
        assert!(serial
            .iter()
            .all(|r| matches!(r.outcome, CellOutcome::Ok(_))));
    }

    #[test]
    fn sink_sees_every_cell_once() {
        let cells = quick_matrix().cells();
        let n = cells.len();
        let mut seen = Vec::new();
        let records = run_campaign(
            cells,
            &CampaignConfig {
                workers: 3,
                ..CampaignConfig::default()
            },
            |r| seen.push(r.spec.index),
        );
        assert_eq!(records.len(), n);
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert!(records
            .windows(2)
            .all(|w| w[0].spec.index < w[1].spec.index));
    }

    #[test]
    fn injected_panic_degrades_one_cell_only() {
        let cells = quick_matrix().cells();
        let target = cells[1].id();
        let records = run_campaign(
            cells,
            &CampaignConfig {
                workers: 2,
                inject_panic: Some(target.clone()),
                ..CampaignConfig::default()
            },
            |_| {},
        );
        let failed: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.outcome, CellOutcome::Failed { .. }))
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].spec.id(), target);
        assert!(records
            .iter()
            .filter(|r| r.spec.id() != target)
            .all(|r| matches!(r.outcome, CellOutcome::Ok(_))));
    }

    #[test]
    fn a_failing_workload_fails_only_the_cells_sharing_its_trace() {
        // 65 worker threads exceed the 64-core machine, so every cell
        // replaying those traces panics; the 2-thread traces are shared
        // by cells that must all still complete.
        let mut matrix = quick_matrix();
        matrix.threads = vec![2, 65];
        let cells = matrix.cells();
        let run = |workers| {
            let cfg = CampaignConfig {
                workers,
                ..CampaignConfig::default()
            };
            run_campaign(cells.clone(), &cfg, |_| {})
        };
        let serial = run(1);
        for r in &serial {
            let failed = matches!(r.outcome, CellOutcome::Failed { .. });
            assert_eq!(failed, r.spec.threads == 65, "{}", r.spec.id());
        }
        assert_eq!(strip_wall(&serial), strip_wall(&run(3)));
    }

    #[test]
    fn run_parallel_matches_serial_and_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        let mut seen = 0;
        let parallel = run_parallel(items.clone(), 4, |i| i * 2 + 1, |_| seen += 1);
        assert_eq!(seen, 37);
        assert_eq!(parallel, (0..37).map(|i| i * 2 + 1).collect::<Vec<_>>());
        let serial = run_parallel(items, 1, |i| i * 2 + 1, |_| {});
        assert_eq!(parallel, serial);
        assert_eq!(run_parallel(Vec::<usize>::new(), 8, |i| i, |_| {}), vec![]);
    }

    #[test]
    fn run_parallel_survives_steal_contention() {
        for round in 0..2000 {
            let items: Vec<usize> = (0..16).collect();
            let r = run_parallel(items, 8, |i| i, |_| {});
            assert_eq!(r.len(), 16, "round {round}");
        }
    }

    #[test]
    fn empty_matrix_is_a_noop() {
        let records = run_campaign(Vec::new(), &CampaignConfig::default(), |_| {
            panic!("no cells should complete")
        });
        assert!(records.is_empty());
    }
}
