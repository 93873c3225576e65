//! Crash-plan coverage properties: sampling must be a deterministic
//! function of its seed, and it must agree with exhaustive enumeration
//! wherever the two examine the same stamps.

use lrp_lfds::{Structure, WorkloadSpec};
use lrp_model::spec::PersistSchedule;
use lrp_recovery::{check_null_recovery, CrashPlan};
use lrp_sim::{Mechanism, Sim, SimConfig};

fn dense_schedule(n: usize) -> PersistSchedule {
    let mut sched = PersistSchedule::new(n);
    for i in 0..n {
        sched.set(i as u32, i as u64);
    }
    sched
}

#[test]
fn random_sampling_is_deterministic_for_a_fixed_seed() {
    let sched = dense_schedule(200);
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let plan = CrashPlan::Random { samples: 17, seed };
        assert_eq!(plan.stamps(&sched), plan.stamps(&sched), "seed {seed}");
    }
}

#[test]
fn random_sampling_varies_with_the_seed() {
    let sched = dense_schedule(500);
    let a = CrashPlan::Random {
        samples: 10,
        seed: 1,
    }
    .stamps(&sched);
    let b = CrashPlan::Random {
        samples: 10,
        seed: 2,
    }
    .stamps(&sched);
    assert_ne!(a, b, "distinct seeds should probe distinct crash points");
}

#[test]
fn random_sampling_bounds_size_keeps_last_and_sorts() {
    let sched = dense_schedule(300);
    let stamps = CrashPlan::Random {
        samples: 25,
        seed: 3,
    }
    .stamps(&sched);
    assert!(stamps.len() <= 26, "None + at most 25 samples");
    assert_eq!(stamps[0], None);
    assert_eq!(
        *stamps.last().unwrap(),
        Some(299),
        "final stamp always probed"
    );
    assert!(
        stamps[1..].windows(2).all(|w| w[0] < w[1]),
        "sorted, distinct"
    );
}

#[test]
fn sampling_degenerates_to_exhaustive_on_small_schedules() {
    // When the stamp universe fits in the budget, sampling must
    // enumerate exactly the exhaustive stamp set.
    let sched = dense_schedule(12);
    let exhaustive = CrashPlan::Exhaustive.stamps(&sched);
    assert_eq!(
        CrashPlan::Random {
            samples: 64,
            seed: 9
        }
        .stamps(&sched),
        exhaustive
    );
}

#[test]
fn exhaustive_and_sampled_recovery_agree_on_a_small_trace() {
    // A healthy LRP run recovers everywhere, so any subset of its crash
    // points must agree with the exhaustive verdict; and the sampled
    // stamp set must be a genuine subset of the exhaustive one.
    let t = WorkloadSpec::new(Structure::LinkedList)
        .initial_size(16)
        .threads(2)
        .ops_per_thread(8)
        .seed(5)
        .build_trace();
    let r = Sim::new(SimConfig::new(Mechanism::Lrp), &t).run();
    let exhaustive = check_null_recovery(
        Structure::LinkedList,
        &t,
        &r.schedule,
        &CrashPlan::Exhaustive,
    );
    assert!(exhaustive.all_recovered(), "{exhaustive}");
    let all = CrashPlan::Exhaustive.stamps(&r.schedule);
    let plan = CrashPlan::Random {
        samples: 5,
        seed: 11,
    };
    let stamps = plan.stamps(&r.schedule);
    assert!(
        stamps.iter().all(|s| all.contains(s)),
        "{plan:?} drew a stamp outside the schedule"
    );
    let report = check_null_recovery(Structure::LinkedList, &t, &r.schedule, &plan);
    assert_eq!(
        report.all_recovered(),
        exhaustive.all_recovered(),
        "{plan:?} disagrees with exhaustive enumeration"
    );
    assert!(report.crash_points <= exhaustive.crash_points);
}
