//! The full-tree byte gate: one FNV-1a digest over every (path, bytes or
//! error) that [`PseudoFs::walk`] yields on a fixed matrix of kernels and
//! views. Any change to a renderer, to path formatting, to the mask, the
//! fault layer or the enumeration order moves the digest; a change that
//! means to move bytes must say so and re-record it.
//!
//! The matrix: six machine configurations × three seeds, each churned
//! with a [`ChurnDriver`] and read from the host and from every live
//! container under every provider's policy; one kernel sampled each
//! second through a [`FaultPlan`]'s windows; one kernel whose power
//! namespace serves containers their own energy.

use cloudsim::CloudProfile;
use pseudofs::{FsError, MaskPolicy, PseudoFs, View};
use simkernel::kernel::ProcessSpec;
use simkernel::{
    fnv1a, ChurnDriver, ChurnPlan, FaultPlan, Kernel, MachineConfig, PowerModel, FNV1A_OFFSET,
};
use workloads::models;

/// The digest of the matrix below, recorded before route templates were
/// compiled and the integer writer replaced `write!` in the renderers.
const TREE_DIGEST: u64 = 0xa736_62b3_06f7_a006;

/// The running digest, with how many reads it folded and how many
/// of them the fault layer failed.
#[derive(Default)]
struct Digest {
    h: u64,
    reads: usize,
    io: usize,
    truncated: usize,
}

impl Digest {
    /// Folds one view's walk: its label, then each path and its bytes or
    /// error, in walk order.
    fn walk(&mut self, k: &Kernel, view: &View, label: &str) {
        let mut h = fnv1a(self.h, label.as_bytes());
        PseudoFs::new().walk(k, view, |path, read| {
            self.reads += 1;
            h = fnv1a(h, path.as_bytes());
            h = match read {
                Ok(bytes) => fnv1a(fnv1a(h, b"\0ok\0"), bytes.as_bytes()),
                Err(e) => {
                    self.io += usize::from(matches!(e, FsError::Io(_)));
                    self.truncated += usize::from(matches!(e, FsError::Truncated(_)));
                    fnv1a(h, format!("\0err\0{e:?}").as_bytes())
                }
            };
            h = fnv1a(h, b"\n");
        });
        self.h = h;
    }
}

/// The standard machines plus two that stretch the columns: a 40-cpu
/// four-socket host with two disks, and a one-cpu host.
fn machines() -> Vec<MachineConfig> {
    let wide = MachineConfig {
        hostname: "wide".into(),
        cpus: 40,
        packages: 4,
        numa_nodes: 4,
        disks: vec![("sda".into(), 4 << 40), ("nvme0n1".into(), 1 << 40)],
        ..MachineConfig::cloud_server()
    };
    let tiny = MachineConfig {
        hostname: "tiny".into(),
        cpus: 1,
        packages: 1,
        numa_nodes: 1,
        ..MachineConfig::small_server()
    };
    vec![
        MachineConfig::testbed_i7_6700(),
        MachineConfig::cloud_server(),
        MachineConfig::small_server(),
        MachineConfig::legacy_server_no_rapl(),
        wide,
        tiny,
    ]
}

/// The unmasked view and every provider's policy.
fn policies() -> Vec<(String, MaskPolicy)> {
    std::iter::once(CloudProfile::Local)
        .chain(CloudProfile::COMMERCIAL)
        .map(|p| (format!("{p:?}"), p.mask_policy()))
        .collect()
}

/// A kernel with a busy host process and a container running two
/// processes, advanced `secs`, and the container's unmasked view.
fn populated(mut k: Kernel, secs: u64) -> (Kernel, View) {
    k.spawn_host_process("hostproc", models::web_service(0.3))
        .unwrap();
    let env = k.create_container_env("c1").unwrap();
    for (name, model) in [("app", models::prime()), ("db", models::mcf())] {
        k.spawn(ProcessSpec::new(name, model).in_container(&env))
            .unwrap();
    }
    k.advance_secs(secs);
    (k, View::container(env.ns, env.cgroups))
}

#[test]
fn every_walked_byte_matches_the_recorded_tree_digest() {
    let mut d = Digest {
        h: FNV1A_OFFSET,
        ..Digest::default()
    };
    let mut fold = |k: &Kernel, view: &View, label: String| d.walk(k, view, &label);

    let policies = policies();
    for machine in machines() {
        for seed in [1, 42, 1729] {
            let name = machine.hostname.clone();
            let mut k = Kernel::new(machine.clone(), seed);
            k.spawn_host_process("hostproc", models::web_service(0.2))
                .unwrap();
            let mut driver = ChurnDriver::new(ChurnPlan::new(seed).cycles(10).max_live(3));
            driver.run(&mut k);
            k.advance_secs(5);
            fold(&k, &View::host(), format!("{name}/{seed}/host"));
            for (i, (env, _)) in driver.live().iter().enumerate() {
                for (policy_name, policy) in &policies {
                    let view = View::container(env.ns, env.cgroups).with_policy(policy.clone());
                    fold(&k, &view, format!("{name}/{seed}/c{i}/{policy_name}"));
                }
            }
        }
    }

    const HORIZON_S: u64 = 20;
    let (mut k, container) = populated(Kernel::new(MachineConfig::testbed_i7_6700(), 7), 2);
    k.install_faults(
        FaultPlan::builder(7)
            .horizon_secs(HORIZON_S)
            .transient_reads(2)
            .sensor_faults(3)
            .clock_skew(1)
            .build(),
    );
    for second in 0..=HORIZON_S {
        if second > 0 {
            k.advance_secs(1);
        }
        fold(&k, &View::host(), format!("faulted/{second}/host"));
        fold(&k, &container, format!("faulted/{second}/container"));
    }

    let model = PowerModel {
        core_coef: [6.0e-4, 2.0e-3, 1.0e-3, 1.5e-3, 2.0e5],
        dram_coef: [4.0e-3, 3.0e5],
        lambda_uj: 1.2e6,
    };
    let k = Kernel::new(MachineConfig::testbed_i7_6700(), 11).power_namespace(model);
    let (k, container) = populated(k, 3);
    fold(&k, &View::host(), "powerns/host".to_string());
    fold(&k, &container, "powerns/container".to_string());

    assert!(d.reads > 10_000, "only {} reads", d.reads);
    assert!(
        d.io > 0 && d.truncated > 0,
        "the fault windows were missed: {} EIO, {} short reads",
        d.io,
        d.truncated
    );
    assert_eq!(
        d.h, TREE_DIGEST,
        "the pseudo-file tree's bytes moved ({} reads): digest {:#018x}",
        d.reads, d.h
    );
}
