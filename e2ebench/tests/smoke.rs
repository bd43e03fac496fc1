//! Every workload at its seconds-long smoke size: each metric
//! `BENCHMARK.json` names is emitted, finite, and every check passes.
//!
//! One test runs all workloads in turn: simtrace's sink is installed
//! once per process, so the traced passes share it.

use containerleaks_e2e::{run, Options, Size, END_TO_END, PER_LAYER, WORKLOADS};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The value of `"key": "..."` or `"key": number` on one line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(name, unit, bound)` of every metric line in one section.
fn section(name: &str) -> Vec<(String, String, Option<f64>)> {
    let start = MANIFEST
        .find(&format!("\"{name}\""))
        .expect("section present");
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| {
            Some((
                field(l, "name")?.to_string(),
                field(l, "unit")?.to_string(),
                field(l, "bound").map(|b| b.parse().expect("numeric bound")),
            ))
        })
        .collect()
}

#[test]
fn manifest_matches_the_metric_tables() {
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), Some(b)))
        .collect();
    assert_eq!(section("end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string(), None))
        .collect();
    assert_eq!(section("per_layer"), layers);
    for w in WORKLOADS {
        assert!(
            MANIFEST.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        let report = run(&Options {
            workload: workload.to_string(),
            seed: containerleaks::DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            size: Size::Smoke,
            spans_path: None,
        })
        .expect("known workload");
        assert!(report.correct(), "{workload}: {:?}", report.failures);
        assert!(report.attempted > 0, "{workload}");
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, _, _)| n)
            .chain(PER_LAYER.iter().map(|&(n, _)| n))
            .collect();
        for name in names {
            let (_, value, _) = report
                .all_metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        for (name, value, _) in &report.metrics {
            assert!(
                PER_LAYER.iter().any(|&(n, _)| n == name),
                "{workload}: {name}"
            );
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        let json = report.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n') && !json.contains("null"), "{json}");
    }
}

#[test]
fn registry_subset_reproduces_the_committed_report_sections() {
    // The default seed checks each section verbatim against
    // EXPERIMENTS.md; another seed checks headings and errors only.
    for seed in [containerleaks::DEFAULT_SEED, 7] {
        let report = run(&Options {
            workload: "registry".to_string(),
            seed,
            seconds: 0.0,
            trace: false,
            size: Size::Smoke,
            spans_path: None,
        })
        .expect("known workload");
        assert!(report.correct(), "seed {seed}: {:?}", report.failures);
        assert_eq!(report.metrics.len(), END_TO_END.len());
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    let err = run(&Options {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Smoke,
        spans_path: None,
    })
    .expect_err("unknown workload");
    assert!(err.contains("registry"), "{err}");
}
