//! Static leakage auditor for the modeled pseudo-filesystem.
//!
//! The dynamic scanner ([`leakscan`]'s cross-validator) detects
//! namespace-blind channels by *reading* every file from a host view and
//! a container view and diffing. This crate reaches the same verdicts
//! without executing a kernel: it tokenizes the handler sources under
//! `crates/pseudofs/src/render/`, extracts per-function kernel/view
//! accesses, and classifies each registered channel on the
//! [`Verdict`] lattice. A second pass lints the
//! simulation crates for shared state inside `par_for_each_mut_threads`
//! partitions; panic sites and hash-order iteration are clippy's to
//! gate (see [`determinism`]).
//!
//! The channel list is [`pseudofs::ROUTES`] itself: each route's handler
//! name is generated from the same path as the function pointer the
//! read path calls, so the table this crate audits is the code that
//! routes reads and cannot drift from it. An integration test asserts
//! static verdicts agree with the dynamic scanner on every channel
//! (modulo a documented allowlist).
//!
//! [`leakscan`]: https://docs.rs/leakscan

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod callgraph;
pub mod classify;
pub mod determinism;
pub mod extract;
pub mod flow;
pub mod lexer;
pub mod report;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub use classify::{analyze, Facts, Verdict};
pub use determinism::{lint_file, Hazard};
pub use report::{diff_lines, ChannelReport, FlowReport, FlowRow, MaskFindingReport, Report};

/// The render modules serving a route, in name order: the `module` of
/// each [`pseudofs::Route::handler`].
fn render_modules() -> BTreeSet<&'static str> {
    pseudofs::ROUTES
        .iter()
        .filter_map(|r| r.handler.split_once("::").map(|(m, _)| m))
        .collect()
}

/// Crates whose sources the determinism lint covers: everything that can
/// influence rendered bytes or run inside a parallel fan-out. Each root
/// also enables clippy's panic-site and hash-order lints.
pub const LINTED_CRATES: &[&str] = &[
    "campaign",
    "cloudsim",
    "container",
    "core",
    "detector",
    "leakcheck",
    "leakscan",
    "powerns",
    "powersim",
    "pseudofs",
    "simkernel",
    "simtrace",
    "workloads",
];

/// The workspace root, derived from this crate's manifest directory.
#[expect(
    clippy::expect_used,
    reason = "compile-time manifest path: CARGO_MANIFEST_DIR always sits two levels below the \
        workspace root in this repository layout"
)]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/leakcheck sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs the full audit against the workspace sources on disk.
///
/// Classifies every [`pseudofs::ROUTES`] channel, checks each route's
/// declared dependency mask against the flow analysis, and lints the
/// simulation crates for determinism hazards. Errors describe handlers
/// missing from the sources or unreadable files; they are audit
/// *failures*, not findings.
pub fn audit() -> Result<Report, String> {
    audit_at(&workspace_root())
}

/// [`audit`] against an explicit workspace root (testable entry point).
pub fn audit_at(root: &Path) -> Result<Report, String> {
    let render_dir = root.join("crates/pseudofs/src/render");
    let mut modules = vec![
        callgraph::parse_module("render", None, &read(&render_dir.join("mod.rs"))?),
        callgraph::parse_module("fs", None, &read(&root.join("crates/pseudofs/src/fs.rs"))?),
    ];
    for m in render_modules() {
        let src = read(&render_dir.join(format!("{m}.rs")))?;
        modules.push(callgraph::parse_module(m, Some("render"), &src));
    }
    let facts = classify::analyze(&callgraph::build(&modules));

    let mut channels = Vec::new();
    for r in pseudofs::ROUTES {
        let handler = facts
            .get(r.handler)
            .ok_or_else(|| format!("`{}` not found in render sources", r.handler))?;
        channels.push(ChannelReport::new(
            &r.pattern(),
            r.handler,
            handler,
            dep_names(r.deps),
        ));
    }

    let flow = flow_report(&facts)?;

    let mut hazards = Vec::new();
    for c in LINTED_CRATES {
        let dir = root.join("crates").join(c).join("src");
        for file in rust_files(&dir)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = read(&file)?;
            hazards.extend(determinism::lint_file(&rel, &src));
        }
    }

    Ok(Report {
        channels,
        flow,
        hazards,
    })
}

/// Subsystem names for the set bits of `mask`, in bit order.
fn dep_names(mask: u32) -> Vec<String> {
    simkernel::dep::BITS
        .iter()
        .filter(|b| mask & **b != 0)
        .map(|b| simkernel::dep::name(*b).to_string())
        .collect()
}

/// Checks every registered route — plus the listing path, declared as
/// [`pseudofs::LIST_DEPS`] — against its declared mask, using the flow
/// the analyzed facts imply. The derived masks cross module boundaries
/// and value returns, so a declared mask missing a derived bit is a
/// *proved* missing-dependency-bit finding (the bytes can change while
/// the declared epochs stand still), reported in [`FlowReport::missing`].
fn flow_report(facts: &BTreeMap<String, Facts>) -> Result<FlowReport, String> {
    let mut specs: Vec<flow::RouteSpec> = pseudofs::ROUTES
        .iter()
        .map(|r| flow::RouteSpec {
            pattern: r.pattern(),
            handler: r.handler.to_string(),
            declared: r.deps,
        })
        .collect();
    // The listing renders bytes too: the set of visible paths. The
    // analysis follows returned data, not closures, so the row names
    // the enumerator that reads the kernel, not `list` and `count`,
    // which only collect what it hands their visitors.
    specs.push(flow::RouteSpec {
        pattern: "(list)".to_string(),
        handler: "fs::enumerate".to_string(),
        declared: pseudofs::LIST_DEPS,
    });
    let check = flow::check_routes(facts, &specs)?;

    let rows = check
        .routes
        .iter()
        .map(|r| FlowRow {
            pattern: r.pattern.clone(),
            handler: r.handler.clone(),
            verdict: r.verdict.to_string(),
            derived: dep_names(r.derived),
            hot: dep_names(r.hot),
            declared: dep_names(r.declared),
        })
        .collect();
    let finding = |m: &flow::MaskFinding| MaskFindingReport {
        pattern: m.pattern.clone(),
        handler: m.handler.clone(),
        bits: dep_names(m.bits),
        allowed: m.allowed.clone(),
    };
    Ok(FlowReport {
        subsystems: simkernel::dep::BITS
            .iter()
            .map(|b| simkernel::dep::name(*b).to_string())
            .collect(),
        rows,
        missing: check.missing.iter().map(finding).collect(),
        extra: check.extra.iter().map(finding).collect(),
    })
}

/// `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            out.extend(rust_files(&p)?);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(out)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_runs_against_the_workspace() {
        let report = audit().expect("audit succeeds");
        assert_eq!(report.channels.len(), pseudofs::ROUTES.len());
        // Case Study I: net_prio.ifpriomap is the paper's mixed channel.
        let ifprio = report
            .channels
            .iter()
            .find(|c| c.pattern.ends_with("net_prio.ifpriomap"))
            .expect("ifpriomap audited");
        assert_eq!(ifprio.verdict, "namespace-blind-mixed");
        // The pid channels route through the reader's namespace.
        let self_status = report
            .channels
            .iter()
            .find(|c| c.pattern == "/proc/self/status")
            .unwrap();
        assert_eq!(self_status.verdict, "view-routed");
        // Masking is policy, not isolation.
        let cpuinfo = report
            .channels
            .iter()
            .find(|c| c.pattern == "/proc/cpuinfo")
            .unwrap();
        assert_eq!(cpuinfo.verdict, "masked-only");
    }

    #[test]
    fn derived_masks_cover_every_declared_mask() {
        let report = audit().expect("audit succeeds");
        // One row per registered route plus the listing path.
        assert_eq!(report.flow.rows.len(), pseudofs::ROUTES.len() + 1);
        assert!(
            report.flow.missing.is_empty(),
            "declared masks missing derived bits: {:?}",
            report.flow.missing
        );
        let unreviewed: Vec<_> = report
            .flow
            .extra
            .iter()
            .filter(|x| x.allowed.is_none())
            .collect();
        assert!(
            unreviewed.is_empty(),
            "declared masks with underived bits — tighten the registry or \
             allowlist with a reason: {unreviewed:?}"
        );
    }

    #[test]
    fn flow_matrix_matches_the_paper_case_studies() {
        let report = audit().expect("audit succeeds");
        let row = |p: &str| {
            report
                .flow
                .rows
                .iter()
                .find(|r| r.pattern == p)
                .unwrap_or_else(|| panic!("{p} has a flow row"))
        };
        // Case Study I: ifpriomap leaks host net + cgroup state unrouted.
        let ifprio = row("/sys/fs/cgroup/net_prio/net_prio.ifpriomap");
        assert_eq!(ifprio.hot, ["net", "cgroup"]);
        // Uptime is host-global boot time through a neutral accessor.
        assert!(row("/proc/uptime").hot.contains(&"clock".to_string()));
        // Pid channels route every read through the viewer's namespace.
        let status = row("/proc/self/status");
        assert!(status.hot.is_empty(), "{:?}", status.hot);
        assert!(status.derived.contains(&"ns".to_string()));
        // Every subsystem the listing declares is derived from its
        // handler's body: a refactor that hides the enumerator's kernel
        // reads (behind a closure, say) empties this row.
        let list = row("(list)");
        assert_eq!(
            list.derived,
            dep_names(pseudofs::LIST_DEPS),
            "the `(list)` row's handler {} no longer derives LIST_DEPS; \
             point its RouteSpec at the function that reads the kernel",
            list.handler
        );
        // The listing's pid sweep is routed (through the cross-module
        // call into `proc_pid`); its topology reads are not.
        assert!(!list.hot.contains(&"process".to_string()));
        assert!(list.hot.contains(&"hw".to_string()));
        assert_eq!(list.verdict, "namespace-blind-mixed");
    }

    /// The panic-site and hash-order gate is clippy's, run by `ci.sh`;
    /// this fails a tier-1 run when a crate root or `clippy.toml` drops
    /// its half of it.
    #[test]
    fn clippy_gate_is_configured() {
        const PANIC: &[&str] = &[
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
        ];
        const HASH: &str = "clippy::iter_over_hash_type";
        let root = workspace_root();
        let warned = |c: &str| -> Vec<String> {
            let src = read(&root.join("crates").join(c).join("src/lib.rs")).expect("crate root");
            let attr = src
                .split_once("\n#![warn(")
                .and_then(|(_, rest)| rest.split_once(")]"))
                .map_or("", |(list, _)| list);
            attr.split(',').map(|l| l.trim().to_string()).collect()
        };
        for c in LINTED_CRATES {
            let lints = warned(c);
            for l in PANIC.iter().chain([&HASH]) {
                assert!(
                    lints.iter().any(|x| x == l),
                    "crates/{c}/src/lib.rs lost `#![warn({l})]`"
                );
            }
        }
        let toml = read(&root.join("clippy.toml")).expect("clippy.toml");
        let toml: String = toml
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .collect();
        let (_, methods) = toml
            .split_once("disallowed-methods = [")
            .expect("clippy.toml has a disallowed-methods list");
        for m in [
            "HashMap::iter",
            "HashMap::iter_mut",
            "HashMap::keys",
            "HashMap::values",
            "HashMap::values_mut",
            "HashMap::drain",
            "HashMap::into_keys",
            "HashMap::into_values",
            "HashSet::iter",
            "HashSet::drain",
        ] {
            assert!(
                methods.contains(&format!("\"std::collections::{m}\"")),
                "clippy.toml's disallowed-methods lost {m}"
            );
        }
    }
}
