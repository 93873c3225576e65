//! Workload-mix and harness-option tests for the five LFDs.

use lrp_exec::{block_on, DirectCtx, Xorshift64};
use lrp_lfds::bst::Bst;
use lrp_lfds::hashmap::HashMap;
use lrp_lfds::list::LinkedList;
use lrp_lfds::queue::Queue;
use lrp_lfds::skiplist::SkipList;
use lrp_lfds::{validate_image, MemImage, Structure, WorkloadSpec};
use lrp_model::OpKind;

#[test]
fn read_heavy_mix_produces_mostly_contains() {
    for s in [Structure::LinkedList, Structure::HashMap, Structure::Bst] {
        let t = WorkloadSpec::new(s)
            .initial_size(32)
            .threads(2)
            .ops_per_thread(40)
            .read_pct(90)
            .seed(8)
            .build_trace();
        let contains = t
            .markers
            .iter()
            .filter(|m| matches!(m.op, OpKind::Contains(_)))
            .count();
        assert!(
            contains > 40,
            "{s}: expected mostly reads, got {contains}/80"
        );
    }
}

#[test]
fn update_results_are_recorded_in_markers() {
    let t = WorkloadSpec::new(Structure::HashMap)
        .initial_size(16)
        .threads(2)
        .ops_per_thread(30)
        .seed(14)
        .build_trace();
    let succ_inserts = t
        .markers
        .iter()
        .filter(|m| matches!(m.op, OpKind::Insert(..)) && m.result == 1)
        .count();
    let succ_deletes = t
        .markers
        .iter()
        .filter(|m| matches!(m.op, OpKind::Delete(_)) && m.result == 1)
        .count();
    assert!(succ_inserts > 0 && succ_deletes > 0);
    // Steady state: final size = initial + inserts - deletes.
    let img = MemImage::new(t.final_mem());
    let rec = validate_image(Structure::HashMap, &t.roots, &img).unwrap();
    let initial_img = MemImage::new(t.initial_mem.iter().copied());
    let initial = validate_image(Structure::HashMap, &t.roots, &initial_img).unwrap();
    assert_eq!(
        rec.keys().len() as i64,
        initial.keys().len() as i64 + succ_inserts as i64 - succ_deletes as i64
    );
}

#[test]
fn marker_event_ranges_nest_properly() {
    let t = WorkloadSpec::new(Structure::SkipList)
        .initial_size(16)
        .threads(3)
        .ops_per_thread(10)
        .seed(4)
        .build_trace();
    for m in &t.markers {
        assert!(m.first_event <= m.end_event);
        assert!((m.end_event as usize) <= t.events.len());
        // Every event in the marker's range from the same thread belongs
        // to this operation (ops do not overlap within a thread).
        for e in &t.events[m.first_event as usize..m.end_event as usize] {
            if e.tid == m.tid {
                // belongs to this op by construction
            }
        }
    }
    // Per-thread markers are contiguous and ordered.
    for tid in 0..t.nthreads {
        let mine: Vec<_> = t.markers.iter().filter(|m| m.tid == tid).collect();
        for w in mine.windows(2) {
            assert!(w[0].first_event <= w[1].first_event);
        }
    }
}

/// Cross-structure differential test: the same op sequence applied to
/// all four set structures must produce the same abstract set.
#[test]
fn set_structures_agree_on_random_histories() {
    let mut c = DirectCtx::new(1, 99);
    let list = LinkedList::new(&mut c);
    let map = HashMap::new(&mut c, 16);
    let bst = Bst::new(&mut c);
    let skip = SkipList::new(&mut c);
    let mut rng = Xorshift64::new(1234);
    for _ in 0..800 {
        let k = rng.below(64) + 1;
        if rng.below(2) == 0 {
            let a = block_on(list.insert(&mut c, k, k));
            let b = block_on(map.insert(&mut c, k, k));
            let d = block_on(bst.insert(&mut c, k, k));
            let e = block_on(skip.insert(&mut c, k, k));
            assert!(a == b && b == d && d == e, "insert {k} disagrees");
        } else {
            let a = block_on(list.delete(&mut c, k));
            let b = block_on(map.delete(&mut c, k));
            let d = block_on(bst.delete(&mut c, k));
            let e = block_on(skip.delete(&mut c, k));
            assert!(a == b && b == d && d == e, "delete {k} disagrees");
        }
    }
    for k in 1..=64 {
        let a = block_on(list.contains(&mut c, k));
        assert_eq!(a, block_on(map.contains(&mut c, k)), "contains {k}");
        assert_eq!(a, block_on(bst.contains(&mut c, k)), "contains {k}");
        assert_eq!(a, block_on(skip.contains(&mut c, k)), "contains {k}");
    }
}

/// Queue drain test: enqueue/dequeue churn ends empty and FIFO.
#[test]
fn queue_churn_preserves_fifo() {
    let mut c = DirectCtx::new(1, 7);
    let q = Queue::new(&mut c);
    let mut expected = std::collections::VecDeque::new();
    let mut rng = Xorshift64::new(5);
    let mut next = 1u64;
    for _ in 0..1000 {
        if rng.below(2) == 0 {
            block_on(q.enqueue(&mut c, next));
            expected.push_back(next);
            next += 1;
        } else {
            assert_eq!(block_on(q.dequeue(&mut c)), expected.pop_front());
        }
    }
    while let Some(v) = expected.pop_front() {
        assert_eq!(block_on(q.dequeue(&mut c)), Some(v));
    }
    assert_eq!(block_on(q.dequeue(&mut c)), None);
}

#[test]
fn explicit_nbuckets_is_respected() {
    let t = WorkloadSpec::new(Structure::HashMap)
        .initial_size(16)
        .nbuckets(8)
        .threads(1)
        .ops_per_thread(2)
        .build_trace();
    let n = t.roots.iter().find(|(n, _)| n == "nbuckets").unwrap().1;
    assert_eq!(n, 8);
}

#[test]
fn single_thread_single_op_traces_work() {
    for s in Structure::ALL {
        let t = WorkloadSpec::new(s)
            .initial_size(4)
            .threads(1)
            .ops_per_thread(1)
            .seed(2)
            .build_trace();
        t.validate().unwrap();
        assert_eq!(t.markers.len(), 1, "{s}");
    }
}

#[test]
fn zero_initial_size_structures_still_operate() {
    for s in Structure::ALL {
        let t = WorkloadSpec::new(s)
            .initial_size(0)
            .key_range(16)
            .threads(2)
            .ops_per_thread(8)
            .seed(3)
            .build_trace();
        t.validate().unwrap_or_else(|e| panic!("{s}: {e}"));
        let img = MemImage::new(t.final_mem());
        validate_image(s, &t.roots, &img).unwrap_or_else(|e| panic!("{s}: {e}"));
    }
}
