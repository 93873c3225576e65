//! Michael–Scott lock-free queue \[29\] — the paper's `queue` workload.
//!
//! Layout: a 2-word anchor `[head, tail]` pointing at a dummy node; nodes
//! are `[value, next]`. Enqueue publishes with a CAS on `tail.next`
//! (release), then swings `tail`; dequeue advances `head`.

use lrp_exec::{DirectCtx, PmemCtx};
use lrp_model::Addr;

/// Byte offset of a node's value word.
pub const VAL: Addr = 0;
/// Byte offset of a node's next word.
pub const NEXT: Addr = 8;
/// Words per node.
pub const NODE_WORDS: usize = 2;

/// Michael–Scott queue handle: the anchor holds `[head, tail]`.
#[derive(Debug, Clone, Copy)]
pub struct Queue {
    /// Address of the anchor (head word; tail word is `anchor + 8`).
    pub anchor: Addr,
}

impl Queue {
    /// Byte address of the head pointer word.
    pub fn head_loc(&self) -> Addr {
        self.anchor
    }

    /// Byte address of the tail pointer word.
    pub fn tail_loc(&self) -> Addr {
        self.anchor + 8
    }

    /// Allocates the anchor and the initial dummy node.
    pub fn new(ctx: &mut DirectCtx) -> Self {
        let anchor = ctx.alloc(2);
        let dummy = ctx.alloc(NODE_WORDS);
        ctx.write(dummy + VAL, 0);
        ctx.write(dummy + NEXT, 0);
        ctx.write(anchor, dummy);
        ctx.write(anchor + 8, dummy);
        Queue { anchor }
    }

    /// Enqueues `value`.
    pub async fn enqueue<C: PmemCtx>(&self, ctx: &mut C, value: u64) {
        ctx.site_phase("init-node");
        let node = ctx.alloc(NODE_WORDS);
        ctx.write(node + VAL, value).await;
        ctx.write(node + NEXT, 0).await;
        ctx.site_phase("traverse");
        loop {
            let tail = ctx.read_acq(self.tail_loc()).await;
            let next = ctx.read_acq(tail + NEXT).await;
            if tail != ctx.read_acq(self.tail_loc()).await {
                continue; // tail moved under us
            }
            if next == 0 {
                // Publish: link after the last node (the release).
                ctx.site_phase("link-next");
                if ctx.cas_rel(tail + NEXT, 0, node).await.0 {
                    // Swing the tail — a hint, not a publication: plain.
                    ctx.site_phase("swing-tail");
                    let _ = ctx
                        .cas_annot(self.tail_loc(), tail, node, lrp_model::Annot::Plain)
                        .await;
                    return;
                }
                ctx.site_phase("traverse");
            } else {
                // Help a lagging enqueuer swing the tail (plain hint).
                ctx.site_phase("help-swing");
                let _ = ctx
                    .cas_annot(self.tail_loc(), tail, next, lrp_model::Annot::Plain)
                    .await;
                ctx.site_phase("traverse");
            }
        }
    }

    /// Dequeues a value, or `None` if the queue is empty.
    pub async fn dequeue<C: PmemCtx>(&self, ctx: &mut C) -> Option<u64> {
        ctx.site_phase("traverse");
        loop {
            let head = ctx.read_acq(self.head_loc()).await;
            let tail = ctx.read_acq(self.tail_loc()).await;
            let next = ctx.read_acq(head + NEXT).await;
            if head != ctx.read_acq(self.head_loc()).await {
                continue;
            }
            if next == 0 {
                return None; // empty
            }
            if head == tail {
                // Tail is lagging; help before advancing head (hint).
                ctx.site_phase("help-swing");
                let _ = ctx
                    .cas_annot(self.tail_loc(), tail, next, lrp_model::Annot::Plain)
                    .await;
                ctx.site_phase("traverse");
                continue;
            }
            let value = ctx.read(next + VAL).await;
            ctx.site_phase("advance-head");
            if ctx.cas_rel(self.head_loc(), head, next).await.0 {
                return Some(value);
            }
            ctx.site_phase("traverse");
        }
    }

    /// Pre-populates with `values` (enqueued in order) by chaining nodes
    /// directly after the dummy.
    pub fn populate(&self, ctx: &mut DirectCtx, values: &[u64]) {
        let mut tail = ctx.read(self.tail_loc());
        for &v in values {
            let node = ctx.alloc(NODE_WORDS);
            ctx.write(node + VAL, v);
            ctx.write(node + NEXT, 0);
            ctx.write(tail + NEXT, node);
            tail = node;
        }
        ctx.write(self.tail_loc(), tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_exec::{block_on, body, run, ExecConfig, SchedPolicy, ThreadBody};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn fresh() -> (DirectCtx, Queue) {
        let mut c = DirectCtx::new(1, 7);
        let q = Queue::new(&mut c);
        (c, q)
    }

    #[test]
    fn fifo_order() {
        let (mut c, q) = fresh();
        for v in 1..=5 {
            block_on(q.enqueue(&mut c, v));
        }
        for v in 1..=5 {
            assert_eq!(block_on(q.dequeue(&mut c)), Some(v));
        }
        assert_eq!(block_on(q.dequeue(&mut c)), None);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let (mut c, q) = fresh();
        assert_eq!(block_on(q.dequeue(&mut c)), None);
        block_on(q.enqueue(&mut c, 9));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(9));
        assert_eq!(block_on(q.dequeue(&mut c)), None);
    }

    #[test]
    fn interleaved_enq_deq() {
        let (mut c, q) = fresh();
        block_on(q.enqueue(&mut c, 1));
        block_on(q.enqueue(&mut c, 2));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(1));
        block_on(q.enqueue(&mut c, 3));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(2));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(3));
        assert_eq!(block_on(q.dequeue(&mut c)), None);
    }

    #[test]
    fn populate_matches_enqueues() {
        let (mut c, q) = fresh();
        q.populate(&mut c, &[10, 20, 30]);
        block_on(q.enqueue(&mut c, 40));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(10));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(20));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(30));
        assert_eq!(block_on(q.dequeue(&mut c)), Some(40));
        assert_eq!(block_on(q.dequeue(&mut c)), None);
    }

    /// Concurrent producers/consumers: every enqueued value is dequeued
    /// at most once, and per-producer order is preserved.
    #[test]
    fn concurrent_producers_consumers() {
        let cfg = ExecConfig::new(4).policy(SchedPolicy::Random(17));
        let collected = Rc::new(RefCell::new(Vec::<Vec<u64>>::new()));
        let anchor = lrp_exec::ctx::HEAP_BASE + 4 * lrp_exec::ctx::ARENA_BYTES;
        let mut bodies: Vec<ThreadBody> = Vec::new();
        for p in 0..2u64 {
            bodies.push(body(move |mut c| async move {
                let q = Queue { anchor };
                for i in 0..20 {
                    q.enqueue(&mut c, (p + 1) * 1000 + i).await;
                }
            }));
        }
        for _ in 0..2 {
            let collected = Rc::clone(&collected);
            bodies.push(body(move |mut c| async move {
                let q = Queue { anchor };
                let mut got = Vec::new();
                let mut misses = 0;
                while got.len() < 20 && misses < 4000 {
                    match q.dequeue(&mut c).await {
                        Some(v) => got.push(v),
                        None => misses += 1,
                    }
                }
                collected.borrow_mut().push(got);
            }));
        }
        let trace = run(
            &cfg,
            |s| {
                Queue::new(s);
            },
            bodies,
        );
        trace.validate().unwrap();
        let per_consumer = collected.borrow().clone();
        // No duplicates across consumers.
        let all: Vec<u64> = per_consumer.iter().flatten().copied().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate dequeue");
        // Per-producer FIFO holds within each consumer's sequence.
        for seq in &per_consumer {
            for p in 0..2u64 {
                let ps: Vec<u64> = seq.iter().copied().filter(|v| v / 1000 == p + 1).collect();
                assert!(
                    ps.windows(2).all(|w| w[0] < w[1]),
                    "producer {p} out of order"
                );
            }
        }
    }
}
