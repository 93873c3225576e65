//! The recovery-time resolver.
//!
//! Built from the slot table recovered out of a crash-cut image, a
//! [`Resolver`] answers the only question a post-crash client needs:
//! *did request `rid` execute and persist?* The answer is total and
//! deterministic — a durable stamp resolves
//! [`Done`](ResolvedStatus::Done) with the recorded outcome, anything
//! else resolves [`NotStarted`](ResolvedStatus::NotStarted) and the
//! client retries. Two calls with the same rid always agree: the
//! resolver is a pure function of the recovered image.

use crate::slot::{SlotKind, SlotRecord, SlotTable};
use std::collections::HashMap;

/// The deterministic post-crash verdict for one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedStatus {
    /// The operation executed and its checkpoint stamp is durable:
    /// under a release-ordering discipline its effect is durable too.
    /// Do **not** retry.
    Done {
        /// Operation class the stamp recorded.
        kind: SlotKind,
        /// Functional outcome that persisted.
        applied: bool,
        /// Key the operation targeted.
        key: u64,
        /// Batch that executed it.
        batch: u64,
    },
    /// No durable stamp: retry. (The effect may still have persisted
    /// with its stamp in the volatile tail — the retry is idempotent
    /// under set semantics, so this answer is always safe.)
    NotStarted,
}

impl ResolvedStatus {
    /// True for [`ResolvedStatus::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, ResolvedStatus::Done { .. })
    }
}

/// Maps uncertain request ids to verdicts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Resolver {
    by_rid: HashMap<u64, SlotRecord>,
}

impl Resolver {
    /// An empty resolver: everything resolves `NotStarted`. Used when
    /// the mechanism's discipline cannot back a stamp's promise
    /// (e.g. `nop`), degrading gracefully to at-least-once.
    pub fn empty() -> Resolver {
        Resolver::default()
    }

    /// Builds the resolver from a recovered slot table.
    pub fn from_table(table: &SlotTable) -> Resolver {
        Resolver {
            by_rid: table.iter().map(|r| (r.rid, *r)).collect(),
        }
    }

    /// Stamped records known to this resolver.
    pub fn len(&self) -> usize {
        self.by_rid.len()
    }

    /// True when no stamp is known.
    pub fn is_empty(&self) -> bool {
        self.by_rid.is_empty()
    }

    /// The verdict for `rid`.
    pub fn resolve(&self, rid: u64) -> ResolvedStatus {
        match self.by_rid.get(&rid) {
            Some(r) => ResolvedStatus::Done {
                kind: r.kind,
                applied: r.applied,
                key: r.key,
                batch: r.batch,
            },
            None => ResolvedStatus::NotStarted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotSpec;

    fn rid(client: u64, seq: u64) -> u64 {
        (client << 48) | seq
    }

    #[test]
    fn resolver_is_total_and_deterministic() {
        let mut table = SlotTable::new(SlotSpec {
            clients: 4,
            ring: 4,
        });
        table.put(SlotRecord {
            rid: rid(1, 3),
            key: 99,
            kind: SlotKind::Put,
            applied: true,
            batch: 7,
        });
        let r = Resolver::from_table(&table);
        assert_eq!(r.len(), 1);
        let done = r.resolve(rid(1, 3));
        assert_eq!(
            done,
            ResolvedStatus::Done {
                kind: SlotKind::Put,
                applied: true,
                key: 99,
                batch: 7
            }
        );
        // Same rid, same answer; unknown rids answer NotStarted.
        assert_eq!(r.resolve(rid(1, 3)), done);
        assert_eq!(r.resolve(rid(1, 4)), ResolvedStatus::NotStarted);
        assert_eq!(r.resolve(0), ResolvedStatus::NotStarted);
        assert!(Resolver::empty().is_empty());
    }
}
