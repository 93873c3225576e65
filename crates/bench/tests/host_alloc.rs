//! Allocation budget for the simulator hot path.
//!
//! The event queue stores payloads inline, the coherence tables are
//! flat, and `covered` write-sets move (never clone) along the
//! flush/ack path — so steady-state allocations per harness op stay
//! small. This test installs the counting allocator and pins a budget;
//! re-introducing a per-event `HashMap` insert or a `covered.clone()`
//! on the ack path blows well past it.

use lrp_bench::alloc_count::{self, CountingAlloc};
use lrp_bench::host::{run_host, SAMPLES};
use lrp_campaign::MatrixSpec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measured steady state after the arena/SoA work is ~1.3 (nop) to
/// ~2.0 (lrp) allocs/op on the smoke matrix at 32 ops per thread
/// ([`smoke_32`]); 8.0 leaves 4x headroom
/// for legitimate drift while still catching any reintroduced
/// per-event allocation (the old clone-happy path measured 60+).
const MAX_ALLOCS_PER_OP: f64 = 8.0;

/// The smoke matrix (hash map under NOP and LRP, two threads) at 32
/// ops per thread, enough to amortize each run's set-up allocations.
fn smoke_32() -> MatrixSpec {
    MatrixSpec {
        ops_per_thread: 32,
        ..MatrixSpec::smoke()
    }
}

#[test]
fn hot_path_allocations_stay_bounded() {
    assert!(alloc_count::installed(), "counting allocator not active");
    let report = run_host(&smoke_32(), SAMPLES, 1, |_| {});
    assert!(!report.cells.is_empty());
    for cell in &report.cells {
        let allocs = cell
            .allocs_per_op
            .expect("allocs_per_op measured when the allocator is installed");
        assert!(
            allocs <= MAX_ALLOCS_PER_OP,
            "{}: {allocs:.1} allocs/op exceeds budget {MAX_ALLOCS_PER_OP}",
            cell.spec.id()
        );
    }
}
