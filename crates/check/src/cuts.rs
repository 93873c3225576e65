//! The crash-cut lattice: per-location write prefixes.
//!
//! A crash leaves each memory location holding the value of some prefix
//! of its (coherence-ordered) write sequence — a cache line is one
//! atomic unit, so nothing finer is observable. A *cut* is therefore a
//! vector of per-location prefix lengths; the discipline's generator
//! edges ([`crate::order`]) carve out which cuts are admissible.
//!
//! [`enumerate_cuts`] walks the admissible sub-lattice by DFS with
//! memoized states (the ISSUE's "memoized state hashing"): each
//! reachable prefix vector is visited exactly once, and a `max_states`
//! budget bounds the walk for the unconstrained (NOP) lattice, whose
//! size is the product of the per-location chain lengths.

use lrp_lfds::MemImage;
use lrp_model::spec::PersistSchedule;
use lrp_model::{Addr, EventId, Trace};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-location write chains of a trace, in interleaving order.
#[derive(Debug, Clone)]
pub struct WriteChains {
    /// Locations in ascending address order (deterministic).
    addrs: Vec<Addr>,
    /// `chains[l]` = write event ids to `addrs[l]`, in id order.
    chains: Vec<Vec<EventId>>,
    /// Event id → (location index, position in chain).
    pos: HashMap<EventId, (usize, usize)>,
}

impl WriteChains {
    /// Builds the chains over every write effect of `trace`.
    pub fn new(trace: &Trace) -> Self {
        let mut by_addr: BTreeMap<Addr, Vec<EventId>> = BTreeMap::new();
        for e in trace.events.iter().filter(|e| e.is_write_effect()) {
            by_addr.entry(e.addr).or_default().push(e.id);
        }
        let mut addrs = Vec::with_capacity(by_addr.len());
        let mut chains = Vec::with_capacity(by_addr.len());
        let mut pos = HashMap::new();
        for (a, chain) in by_addr {
            for (i, &w) in chain.iter().enumerate() {
                pos.insert(w, (addrs.len(), i));
            }
            addrs.push(a);
            chains.push(chain);
        }
        WriteChains { addrs, chains, pos }
    }

    /// Number of written locations.
    pub fn nlocs(&self) -> usize {
        self.addrs.len()
    }

    /// The write chain of location index `l`, in coherence order.
    pub fn chain(&self, l: usize) -> &[EventId] {
        &self.chains[l]
    }

    /// Is write `e` included in `cut`?
    pub fn includes(&self, cut: &[usize], e: EventId) -> bool {
        self.pos.get(&e).is_some_and(|&(l, p)| cut[l] > p)
    }

    /// The included write ids of `cut`, ascending.
    pub fn included_writes(&self, cut: &[usize]) -> Vec<EventId> {
        let mut out: Vec<EventId> = cut
            .iter()
            .enumerate()
            .flat_map(|(l, &k)| self.chains[l][..k].iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// The durable memory image of `cut`: the initial image overwritten
    /// by each location's last included write. For lattice cuts and the
    /// minimizer; a schedule's crash images come from
    /// `lrp_recovery::PersistWalk`.
    pub fn image(&self, trace: &Trace, cut: &[usize]) -> MemImage {
        let mut img = MemImage::new(trace.initial_mem.iter().copied());
        for (l, &k) in cut.iter().enumerate() {
            if k > 0 {
                let e = &trace.events[self.chains[l][k - 1] as usize];
                img.write(e.addr, e.wval);
            }
        }
        img
    }

    /// The per-location `(addr, value)` overlay of `cut` — the exact
    /// durable difference from the initial image. Used to deduplicate
    /// validation work across cuts producing identical durable states.
    pub fn overlay(&self, trace: &Trace, cut: &[usize]) -> Vec<(Addr, u64)> {
        cut.iter()
            .enumerate()
            .filter(|&(_, &k)| k > 0)
            .map(|(l, &k)| {
                let e = &trace.events[self.chains[l][k - 1] as usize];
                (e.addr, e.wval)
            })
            .collect()
    }

    /// The cut realized by `sched` at crash stamp `stamp` (durable =
    /// stamp `<= stamp`). Returns `Err((w, p))` when no cache line can
    /// leave the durable set: `w` is durable while `p`, an earlier write
    /// to the same location, is not durable or persisted after `w`.
    /// Where this is `Ok`, the cut's [`image`](Self::image) is the crash
    /// image `lrp_recovery::PersistWalk` builds at `stamp`.
    pub fn realized(
        &self,
        sched: &PersistSchedule,
        stamp: Option<u64>,
    ) -> Result<Vec<usize>, (EventId, EventId)> {
        let durable = |w: EventId| match (sched.stamp(w), stamp) {
            (Some(s), Some(cut)) => s <= cut,
            _ => false,
        };
        let mut cut = vec![0; self.nlocs()];
        for (l, chain) in self.chains.iter().enumerate() {
            let mut k = 0;
            while k < chain.len() && durable(chain[k]) {
                if k > 0 && sched.stamp(chain[k]) < sched.stamp(chain[k - 1]) {
                    return Err((chain[k], chain[k - 1]));
                }
                k += 1;
            }
            if let Some(&w) = chain[k..].iter().find(|&&w| durable(w)) {
                return Err((w, chain[k]));
            }
            cut[l] = k;
        }
        Ok(cut)
    }
}

/// Outcome of one lattice walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumStats {
    /// Distinct admissible cuts visited.
    pub states: usize,
    /// True if the `max_states` budget stopped the walk before
    /// exhausting the lattice.
    pub truncated: bool,
}

/// Walks every admissible cut of the lattice (downward closed under
/// `preds`, always per-location prefix-shaped), calling `visit` once
/// per distinct cut. `visit` returns `false` to stop early. At most
/// `max_states` states are visited; exceeding the budget sets
/// [`EnumStats::truncated`].
pub fn enumerate_cuts(
    chains: &WriteChains,
    preds: &[Vec<EventId>],
    max_states: usize,
    visit: &mut dyn FnMut(&[usize]) -> bool,
) -> EnumStats {
    let nl = chains.nlocs();
    let empty = vec![0usize; nl];
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    seen.insert(empty.clone());
    let mut stack = vec![empty];
    let mut truncated = false;
    while let Some(cut) = stack.pop() {
        if !visit(&cut) {
            return EnumStats {
                states: seen.len(),
                truncated,
            };
        }
        for l in 0..nl {
            if cut[l] >= chains.chains[l].len() {
                continue;
            }
            let w = chains.chains[l][cut[l]];
            if !preds[w as usize].iter().all(|&p| chains.includes(&cut, p)) {
                continue;
            }
            let mut next = cut.clone();
            next[l] += 1;
            if !seen.contains(&next) {
                if seen.len() >= max_states {
                    truncated = true;
                    continue;
                }
                seen.insert(next.clone());
                stack.push(next);
            }
        }
    }
    EnumStats {
        states: seen.len(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::persist_preds;
    use lrp_model::litmus::LitmusBuilder;
    use lrp_model::spec::PersistDiscipline;

    /// Two independent plain writes plus one same-address overwrite.
    fn small() -> (Trace, EventId, EventId, EventId) {
        let mut b = LitmusBuilder::new(1);
        let w1 = b.write(0, 0x10, 1);
        let w2 = b.write(0, 0x18, 2);
        let w3 = b.write(0, 0x10, 3);
        (b.build(), w1, w2, w3)
    }

    fn count_cuts(t: &Trace, d: PersistDiscipline) -> usize {
        let chains = WriteChains::new(t);
        let preds = persist_preds(t, d).unwrap();
        let mut n = 0;
        let stats = enumerate_cuts(&chains, &preds, 10_000, &mut |_| {
            n += 1;
            true
        });
        assert!(!stats.truncated);
        assert_eq!(stats.states, n);
        n
    }

    #[test]
    fn unconstrained_lattice_is_the_prefix_product() {
        let (t, ..) = small();
        // Chains: 0x10 has 2 writes (3 prefixes), 0x18 has 1 (2): 6 cuts.
        assert_eq!(count_cuts(&t, PersistDiscipline::Unconstrained), 6);
    }

    #[test]
    fn store_order_restricts_to_po_prefixes() {
        let (t, ..) = small();
        // Store order chains w1 -> w2 -> w3: exactly the 4 po prefixes.
        assert_eq!(count_cuts(&t, PersistDiscipline::StoreOrder), 4);
    }

    #[test]
    fn release_order_only_constrains_the_release() {
        let mut b = LitmusBuilder::new(1);
        let _wa = b.write(0, 0x10, 1);
        let _rel = b.write_rel(0, 0x80, 2);
        let t = b.build();
        // Cuts: {}, {wa}, {wa, rel} — rel without wa is inadmissible.
        assert_eq!(count_cuts(&t, PersistDiscipline::ReleaseOrder), 3);
        assert_eq!(count_cuts(&t, PersistDiscipline::Unconstrained), 4);
    }

    #[test]
    fn budget_truncates_and_reports() {
        let (t, ..) = small();
        let chains = WriteChains::new(&t);
        let preds = persist_preds(&t, PersistDiscipline::Unconstrained).unwrap();
        let stats = enumerate_cuts(&chains, &preds, 2, &mut |_| true);
        assert!(stats.truncated);
        assert_eq!(stats.states, 2);
    }

    #[test]
    fn image_and_overlay_track_last_included_write() {
        let (t, w1, _w2, w3) = small();
        let chains = WriteChains::new(&t);
        // Location order is by address: 0x10 (chain w1,w3), 0x18 (w2).
        let img = chains.image(&t, &[1, 0]);
        assert_eq!(img.read(0x10), 1);
        assert_eq!(img.read(0x18), Trace::POISON);
        let img = chains.image(&t, &[2, 1]);
        assert_eq!(img.read(0x10), 3);
        assert_eq!(img.read(0x18), 2);
        assert_eq!(chains.overlay(&t, &[2, 0]), vec![(0x10, 3)]);
        assert!(chains.includes(&[1, 0], w1));
        assert!(!chains.includes(&[1, 0], w3));
        assert_eq!(chains.included_writes(&[2, 0]), vec![w1, w3]);
    }

    #[test]
    fn realized_cut_matches_stamps_and_rejects_holes() {
        let (t, w1, w2, w3) = small();
        let chains = WriteChains::new(&t);
        let mut sched = PersistSchedule::new(t.events.len());
        sched.set(w1, 0);
        sched.set(w2, 2);
        sched.set(w3, 1);
        assert_eq!(chains.realized(&sched, None).unwrap(), vec![0, 0]);
        assert_eq!(chains.realized(&sched, Some(0)).unwrap(), vec![1, 0]);
        assert_eq!(chains.realized(&sched, Some(1)).unwrap(), vec![2, 0]);
        assert_eq!(chains.realized(&sched, Some(2)).unwrap(), vec![2, 1]);
        // A hole: w3 durable while w1 (same location, earlier) is not.
        let mut holey = PersistSchedule::new(t.events.len());
        holey.set(w3, 0);
        assert_eq!(chains.realized(&holey, Some(0)), Err((w3, w1)));
        // Both durable, but w3 persisted before w1: the line would end
        // up holding w1's value, which no prefix of its chain leaves.
        let mut reordered = PersistSchedule::new(t.events.len());
        reordered.set(w1, 1);
        reordered.set(w3, 0);
        assert_eq!(chains.realized(&reordered, Some(0)), Err((w3, w1)));
        assert_eq!(chains.realized(&reordered, Some(1)), Err((w3, w1)));
    }
}
