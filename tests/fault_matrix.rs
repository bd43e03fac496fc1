//! The fault-matrix integration gate (tentpole acceptance criteria).
//!
//! Under every injected fault class, each detector conclusion must be
//! either identical to the fault-free run or explicitly degraded — never
//! a panic, never a silently different answer. The matrix scenarios
//! themselves encode the clean-vs-faulted comparison; this test runs the
//! whole matrix through the guarded runner and checks the contract held,
//! that a panicking driver surfaces as a structured failure, and that the
//! results are byte-identical at any worker count *with faults active*.

use containerleaks::experiments::{run_entries_with, ExperimentFn, ExperimentResult};
use containerleaks::{run_fault_matrix, DEFAULT_SEED, FAULT_MATRIX};

#[test]
fn every_fault_class_degrades_gracefully() {
    let results = run_fault_matrix(DEFAULT_SEED, 1);
    assert_eq!(results.len(), FAULT_MATRIX.len());
    let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "fault_fs",
            "fault_reboot",
            "fault_sensor",
            "fault_clock",
            "fault_powerns"
        ]
    );
    for r in &results {
        assert!(
            r.error.is_none(),
            "{} hit a structured failure: {:?}",
            r.id,
            r.error
        );
        assert!(
            r.all_hold(),
            "{} violated the degradation contract:\n{:#?}",
            r.id,
            r.comparisons
        );
        // Each scenario must prove its fault plan actually fired — a
        // matrix that quietly runs fault-free proves nothing.
        assert!(
            !r.comparisons.is_empty(),
            "{} produced no comparisons",
            r.id
        );
    }
}

#[test]
fn matrix_is_byte_identical_across_worker_counts() {
    let serial = run_fault_matrix(DEFAULT_SEED, 1);
    let pooled = run_fault_matrix(DEFAULT_SEED, 4);
    let a = serde_json::to_string(&serial).expect("serializable");
    let b = serde_json::to_string(&pooled).expect("serializable");
    assert_eq!(a, b, "fault schedules must not leak wall-clock state");
}

#[test]
fn a_panicking_scenario_is_contained_by_the_pool() {
    fn boom(_: u64, _: u64) -> ExperimentResult {
        panic!("injected matrix panic");
    }
    // Splice a hostile driver between two real (cheap) scenarios: the
    // runner must convert the panic into a structured failure and still
    // finish the neighbours.
    let entries: &[(&str, ExperimentFn)] = &[FAULT_MATRIX[2], ("boom", boom), FAULT_MATRIX[4]];
    for jobs in [1usize, 2] {
        let results = run_entries_with(entries, DEFAULT_SEED, 1, jobs, |_, _| {});
        assert_eq!(results.len(), 3);
        assert!(results[0].all_hold(), "jobs={jobs}");
        assert!(!results[1].all_hold(), "jobs={jobs}");
        let err = results[1].error.as_deref().unwrap_or_default();
        assert!(err.contains("injected matrix panic"), "jobs={jobs}: {err}");
        assert!(results[2].all_hold(), "jobs={jobs}");
    }
}
