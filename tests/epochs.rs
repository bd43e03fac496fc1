//! The dirty-epoch contract.
//!
//! Every kernel subsystem a pseudo-file can render carries a monotone
//! epoch, and every route declares the subsystems its renderer reads.
//! The fleet calendar's sync check, the cross-validator's host-snapshot
//! freshness check and the idle-channel metrics' epoch memo all trust an
//! unchanged masked epoch sum to mean unchanged bytes. These tests pin
//! both halves of that trust: reading is pure (no read bumps an epoch),
//! and whenever any route's rendered bytes change between two instants,
//! the masked sum of its declared dependency epochs has advanced.

use proptest::prelude::*;

use containerleaks::pseudofs::{route_for, PseudoFs, View, ROUTES};
use containerleaks::simkernel::kernel::ProcessSpec;
use containerleaks::simkernel::{dep, Kernel, MachineConfig, PowerModel};
use containerleaks::workloads::models;

#[test]
fn reads_never_advance_epochs() {
    // Listing and reading every path through every view must not bump a
    // single subsystem epoch.
    let fs = PseudoFs::new();
    let mut k = Kernel::new(MachineConfig::small_server(), 11);
    let env = k.create_container_env("c1").unwrap();
    k.advance_secs(5);
    let before = k.epochs().total();
    for view in [View::host(), View::container(env.ns, env.cgroups)] {
        for path in fs.list(&k, &view) {
            let _ = fs.read(&k, &view, &path);
        }
    }
    assert_eq!(k.epochs().total(), before, "a read bumped an epoch");
}

/// A fixed Formula 2 model for the namespaced cases.
fn model() -> PowerModel {
    PowerModel {
        core_coef: [6.0e-4, 2.0e-3, 1.0e-3, 1.5e-3, 2.0e5],
        dram_coef: [4.0e-3, 3.0e5],
        lambda_uj: 1.2e6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The soundness direction of the epoch contract, over one listed
    /// instance of every route on a fault-free kernel (distortion faults change bytes
    /// without touching kernel state, so the claim is scoped to clean
    /// reads): whenever a route's rendered bytes change between two
    /// instants, the masked sum of its declared dependency epochs must
    /// have advanced — and the total epoch sum never decreases. Odd seeds
    /// run on a kernel with the power namespace installed.
    #[test]
    fn changed_bytes_imply_advanced_epochs(seed in 0u64..10_000) {
        let namespaced = seed % 2 == 1;
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), seed);
        if namespaced {
            k = k.power_namespace(model());
        }
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("init", models::sleeper()).in_container(&env))
            .unwrap();
        let fs = PseudoFs::new();
        // Each route is read at its first instance in the first view
        // that lists one, taken at boot: the container's init, the only
        // process then, lives through the walk. A namespaced kernel reads
        // through the container's view first, so its RAPL files serve the
        // calibrated energy.
        let mut views = [View::host(), View::container(env.ns, env.cgroups)];
        if namespaced {
            views.reverse();
        }
        let listed: Vec<(&View, Vec<String>)> =
            views.iter().map(|v| (v, fs.list(&k, v))).collect();
        let reads: Vec<(&View, &str)> = ROUTES
            .iter()
            .map(|r| {
                listed
                    .iter()
                    .find_map(|(view, paths)| {
                        let path = paths.iter().find(|p| route_for(p) == Some(r))?;
                        Some((*view, path.as_str()))
                    })
                    .unwrap_or_else(|| panic!("{} lists no instance", r.template))
            })
            .collect();

        // Reads every route's instance and checks it against the
        // previous reading.
        let mut last: Vec<(String, u64)> = Vec::new();
        let mut last_total = k.epochs().total();
        let mut check = |k: &Kernel, when: &str| -> Result<(), TestCaseError> {
            let total = k.epochs().total();
            prop_assert!(total >= last_total, "total epoch sum went backwards {when}");
            last_total = total;
            let mut now = Vec::with_capacity(ROUTES.len());
            for (r, (view, path)) in ROUTES.iter().zip(&reads) {
                let bytes = fs.read(k, view, path);
                prop_assert!(bytes.is_ok(), "{path} failed {when}: {bytes:?}");
                now.push((bytes.unwrap(), k.epochs().masked_sum(r.deps)));
            }
            for (((r, (_, path)), (bytes, sum)), (prev_bytes, prev_sum)) in
                ROUTES.iter().zip(&reads).zip(&now).zip(&last)
            {
                prop_assert!(
                    bytes == prev_bytes || sum != prev_sum,
                    "{path} changed bytes while its dependency epochs ({}) stood still {when}",
                    dep::mask_names(r.deps)
                );
            }
            last = now;
            Ok(())
        };

        let (mut worker, mut churn) = (None, None);
        check(&k, "at boot")?;
        for step in 0..6u64 {
            // Seed-derived uneven advances, then a lifecycle event checked
            // on its own, with no time passing: a container create and
            // destroy and a host spawn and kill, so run ticks, idle ticks,
            // and namespace, cgroup, net and process-table changes all
            // occur in the walk.
            k.advance_secs(1 + seed.wrapping_mul(31).wrapping_add(step * 7) % 9);
            check(&k, &format!("after the advance of step {step}"))?;
            match step {
                1 => {
                    let env = k.create_container_env("churn").unwrap();
                    k.spawn(
                        ProcessSpec::new("svc", models::web_service(0.2)).in_container(&env),
                    )
                    .unwrap();
                    churn = Some(env);
                }
                2 => worker = Some(k.spawn_host_process("w", models::stress_small()).unwrap()),
                3 => k.destroy_container_env(&churn.take().unwrap()).unwrap(),
                4 => k.kill(worker.take().unwrap()).unwrap(),
                _ => continue,
            }
            check(&k, &format!("after the event of step {step}"))?;
        }
    }
}
