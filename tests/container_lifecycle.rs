//! Container create and destroy against plain rules.
//!
//! A net_prio group stores only the priorities explicitly set in it, and
//! nothing sets one, so the kernel keeps no per-interface entry anywhere.
//! What readers see must still be the leak the paper describes (Case
//! Study I): `net_prio.ifpriomap`, from the host and from every
//! container, lists every host device in the host's device order, each
//! at priority 0. And a destroyed container must hand back everything its
//! creation added: seven namespaces, one host device, one net_prio group
//! per hierarchy, and no map entry.

use std::collections::HashSet;

use containerleaks::container_runtime::{ContainerId, ContainerSpec, Runtime};
use containerleaks::pseudofs::render::sys_cgroup;
use containerleaks::pseudofs::View;
use containerleaks::simkernel::cgroup::CgroupData;
use containerleaks::simkernel::{CgroupKind, Kernel, MachineConfig};
use containerleaks::workloads::models;
use proptest::prelude::*;

/// The plain rule: every host device, in device order, at priority 0.
fn ifpriomap_rule(k: &Kernel) -> String {
    k.net()
        .devices()
        .iter()
        .map(|d| format!("{} 0\n", d.name))
        .collect()
}

fn ifpriomap(k: &Kernel, view: &View) -> String {
    let mut out = String::new();
    sys_cgroup::ifpriomap(k, view, &[], &mut out).expect("ifpriomap renders");
    out
}

/// `net_prio.ifpriomap` under the host view and every container's view
/// must follow the plain rule.
fn assert_ifpriomap_rule(k: &Kernel, rt: &Runtime, what: &str) {
    let want = ifpriomap_rule(k);
    assert_eq!(ifpriomap(k, &View::host()), want, "{what}: host view");
    for c in rt.iter() {
        assert_eq!(ifpriomap(k, c.view()), want, "{what}: view of {}", c.id());
    }
}

/// What a container's lifecycle books: live namespaces, host devices,
/// net_prio groups, and the entries all their maps hold.
fn bookkeeping(k: &Kernel) -> [usize; 4] {
    let groups = k.cgroups().nodes_of_kind(CgroupKind::NetPrio);
    let entries = groups
        .iter()
        .map(|n| match n.data() {
            CgroupData::NetPrio { ifpriomap } => ifpriomap.len(),
            other => panic!("net_prio node {} holds {other:?}", n.path()),
        })
        .sum();
    [
        k.namespaces().len(),
        k.net().devices().len(),
        groups.len(),
        entries,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 256 }))]
    #[test]
    fn lifecycle_renders_ifpriomap_and_books_by_the_plain_rules(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((0u8..4, 0u64..u64::MAX), 1..48),
    ) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let mut rt = Runtime::new();
        // The first container also creates each hierarchy's `/docker`
        // parent, which outlives every container.
        let warm = rt.create(&mut k, ContainerSpec::new("warm-up")).expect("warm-up");
        rt.remove(&mut k, warm).expect("warm-up teardown");
        let baseline = bookkeeping(&k);
        // Live containers with what each one's create added.
        let mut live: Vec<(ContainerId, [usize; 4])> = Vec::new();
        for (i, &(op, w)) in ops.iter().enumerate() {
            let pick = |n: usize| (w % n as u64) as usize;
            match op {
                0 => {
                    let before = bookkeeping(&k);
                    let id = rt
                        .create(&mut k, ContainerSpec::new(format!("c{i}")))
                        .expect("create");
                    let after = bookkeeping(&k);
                    live.push((id, [0, 1, 2, 3].map(|j| after[j] - before[j])));
                }
                1 if !live.is_empty() => {
                    let (id, _) = live[pick(live.len())];
                    let jobs = [models::prime(), models::sleeper(), models::web_service(0.3)];
                    rt.exec(&mut k, id, "job", jobs[pick(3)].clone()).expect("exec");
                }
                2 if !live.is_empty() => {
                    let (id, added) = live.remove(pick(live.len()));
                    let before = bookkeeping(&k);
                    rt.remove(&mut k, id).expect("remove");
                    let after = bookkeeping(&k);
                    prop_assert_eq!(
                        [0, 1, 2, 3].map(|j| before[j] - after[j]),
                        added,
                        "op {}: destroy must hand back what create added", i
                    );
                }
                _ => k.advance_secs(1 + w % 90),
            }
            assert_ifpriomap_rule(&k, &rt, &format!("op {i} ({op})"));
            prop_assert_eq!(bookkeeping(&k)[3], 0, "op {}: no priority is ever set", i);
        }
        for (id, _) in live {
            rt.remove(&mut k, id).expect("teardown");
        }
        prop_assert_eq!(bookkeeping(&k), baseline);
    }
}

#[test]
fn a_veth_reusing_a_destroyed_name_renders_priority_zero() {
    // Veth suffixes are random 32-bit draws, so create and destroy until
    // a new veth takes the name of a destroyed one: the seed fixes where
    // (at this one, after about 49 000 containers).
    let mut k = Kernel::new(MachineConfig::small_server(), 3);
    let mut seen = HashSet::new();
    for i in 0..400_000 {
        let env = k.create_container_env(&format!("c{i}")).expect("create");
        if !seen.insert(env.veth.clone()) {
            let want = ifpriomap_rule(&k);
            assert!(want.contains(&format!("{} 0\n", env.veth)));
            assert_eq!(ifpriomap(&k, &View::host()), want);
            assert_eq!(ifpriomap(&k, &View::container(env.ns, env.cgroups)), want);
            return;
        }
        k.destroy_container_env(&env).expect("destroy");
    }
    panic!("no veth name repeated in 400 000 containers");
}
