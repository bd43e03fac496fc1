//! The render cache must never serve a destroyed container's bytes.
//!
//! A create–destroy–recreate loop is the adversarial input for an
//! epoch-keyed cache: if a recreated container ever reused a dead view's
//! fingerprint, cached entries rendered for the *old* namespaces and
//! cgroups could be served into the *new* container — a cross-incarnation
//! information leak (e.g. the old container's `/proc/self/cgroup` path or
//! cpuacct totals). These property tests drive seeded recreate loops
//! through the container [`Runtime`] and pin three contracts: view
//! fingerprints are fresh across incarnations, every read from a cached
//! kernel is byte-identical to an uncached twin driven through the same
//! script, and removal actually evicts the dead view's cache entries.

use proptest::prelude::*;

use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::simkernel::{Kernel, MachineConfig, RunConfig};
use containerleaks::workloads::models;

/// Channels a recreated container could leak its predecessor through:
/// identity (`self/cgroup`), accounting (`cpuacct`), interface state
/// (`net/dev`), and scheduler residue (`stat`, `uptime`).
const PROBES: &[&str] = &[
    "/proc/self/cgroup",
    "/sys/fs/cgroup/cpuacct/cpuacct.usage",
    "/proc/net/dev",
    "/proc/stat",
    "/proc/uptime",
];

/// One incarnation: create a container under `name`, exec a worker, let
/// it run, read every probe, then remove it. Returns the probe bytes and
/// the view fingerprint the incarnation lived under.
fn incarnate(k: &mut Kernel, rt: &mut Runtime, name: &str, secs: u64) -> (String, u64) {
    let id = rt.create(k, ContainerSpec::new(name)).unwrap();
    rt.exec(k, id, "worker", models::web_service(0.2)).unwrap();
    k.advance_secs(secs);
    let fp = rt.container(id).unwrap().view().fingerprint();
    let mut out = String::new();
    for path in PROBES {
        match rt.read_file(k, id, path) {
            Ok(body) => out.push_str(&body),
            Err(e) => out.push_str(&format!("<{e:?}>")),
        }
    }
    rt.remove(k, id).unwrap();
    (out, fp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across a seeded create–destroy–recreate loop — reusing the *same
    /// container name* every time, the hardest aliasing case — every
    /// incarnation gets a fresh view fingerprint, and a render-caching
    /// kernel serves exactly the bytes an uncached twin renders.
    #[test]
    fn recreated_containers_never_see_cached_predecessor_bytes(
        seed in 0u64..10_000,
        cycles in 2usize..6,
    ) {
        let run = |cache: bool| -> (Vec<String>, Vec<u64>) {
            let mut k = {
                let _run = RunConfig {
                    render_cache: cache,
                    ..RunConfig::DEFAULT
                }
                .enter();
                Kernel::new(MachineConfig::small_server(), seed)
            };
            let mut rt = Runtime::new();
            let mut transcripts = Vec::new();
            let mut fps = Vec::new();
            for cycle in 0..cycles {
                // Seed-derived but mode-independent run length.
                let secs = 1 + (seed.wrapping_add(cycle as u64 * 13)) % 5;
                let (bytes, fp) = incarnate(&mut k, &mut rt, "phoenix", secs);
                transcripts.push(bytes);
                fps.push(fp);
            }
            (transcripts, fps)
        };
        let (cached, cached_fps) = run(true);
        let (plain, _) = run(false);

        for (i, fp) in cached_fps.iter().enumerate() {
            for later in &cached_fps[i + 1..] {
                prop_assert!(
                    fp != later,
                    "view fingerprint recurred across incarnations (seed {})", seed
                );
            }
        }
        prop_assert_eq!(
            cached, plain,
            "a recreated container read different bytes with caching on (seed {})",
            seed
        );
    }

    /// Removal evicts the dead incarnation's render-cache entries: after
    /// each remove, the cache holds nothing under the dead fingerprint
    /// (re-reading through a fresh view with the same bytes would be a
    /// miss), so occupancy stays bounded by one live incarnation.
    #[test]
    fn removal_evicts_the_dead_views_cache_entries(seed in 0u64..10_000) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        prop_assert!(k.render_caching());
        let mut rt = Runtime::new();

        // Baseline: occupancy right after the first incarnation dies.
        let (_, first_fp) = incarnate(&mut k, &mut rt, "phoenix", 2);
        let baseline = k.render_cache_len();

        // The dead fingerprint's entries are gone — evicting again finds
        // nothing to remove.
        prop_assert_eq!(
            k.render_cache_evict_view(first_fp),
            0,
            "remove() left render-cache entries under the dead view"
        );

        // Five more incarnations: occupancy never exceeds the baseline
        // plus one live container's worth of entries (= the per-cycle
        // probe count), because each remove evicts its incarnation.
        for cycle in 0..5u64 {
            let (_, fp) = incarnate(&mut k, &mut rt, "phoenix", 1 + cycle % 3);
            prop_assert_eq!(
                k.render_cache_evict_view(fp),
                0,
                "cycle {} left entries under its dead view", cycle
            );
            prop_assert!(
                k.render_cache_len() <= baseline + PROBES.len(),
                "render cache grew across recreate cycles: {} > {} + {}",
                k.render_cache_len(), baseline, PROBES.len()
            );
        }
    }
}
