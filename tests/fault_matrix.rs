//! The fault-matrix integration gate (tentpole acceptance criteria).
//!
//! Under every injected fault class, each detector conclusion must be
//! either identical to the fault-free run or explicitly degraded — never
//! a panic, never a silently different answer. The matrix scenarios
//! themselves encode the clean-vs-faulted comparison; this test runs the
//! whole matrix through the guarded runner and checks the contract held,
//! that a failing or panicking driver surfaces as a structured failure
//! under its registry title, and that the results are byte-identical at
//! any worker count *with faults active*.

use containerleaks::experiments::{run_entries_with, ExperimentFn, ExperimentResult};
use containerleaks::{DEFAULT_SEED, FAULT_MATRIX};

/// The whole matrix through the guarded runner, on `jobs` lanes.
fn matrix(jobs: usize) -> Vec<ExperimentResult> {
    run_entries_with(FAULT_MATRIX, DEFAULT_SEED, 1, jobs, |_, _| {})
}

#[test]
fn every_fault_class_degrades_gracefully() {
    let results = matrix(1);
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
    let serial = matrix(1);
    let parallel = matrix(4);
    let a = serde_json::to_string(&serial).expect("serializable");
    let b = serde_json::to_string(&parallel).expect("serializable");
    assert_eq!(a, b, "fault schedules must not leak wall-clock state");
}

#[test]
fn a_failing_or_panicking_scenario_is_contained_by_the_runner() {
    let failing = ExperimentFn {
        title: "Fails",
        run: |_, _| Err("injected matrix error".into()),
    };
    let panicking = ExperimentFn {
        title: "Panics",
        run: |_, _| panic!("injected matrix panic"),
    };
    // Splice two hostile drivers between real (cheap) scenarios: the
    // runner must turn the error and the panic into structured failures
    // named by their registry entries and still finish the neighbours.
    let entries = [
        FAULT_MATRIX[2],
        ("fails", failing),
        FAULT_MATRIX[3],
        ("panics", panicking),
        FAULT_MATRIX[4],
    ];
    for jobs in [1usize, 2] {
        let results = run_entries_with(&entries, DEFAULT_SEED, 1, jobs, |_, _| {});
        assert_eq!(results.len(), entries.len());
        for (r, (id, exp)) in results.iter().zip(&entries) {
            assert_eq!(
                (r.id.as_str(), r.title.as_str()),
                (*id, exp.title),
                "jobs={jobs}"
            );
        }
        for i in [0, 2, 4] {
            assert!(results[i].all_hold(), "jobs={jobs}: {}", results[i].id);
        }
        for (i, message) in [(1, "injected matrix error"), (3, "injected matrix panic")] {
            assert!(!results[i].all_hold(), "jobs={jobs}");
            let err = results[i].error.as_deref().unwrap_or_default();
            assert!(err.contains(message), "jobs={jobs}: {err}");
            assert!(results[i].rendered.contains(message), "jobs={jobs}");
        }
    }
}
