//! Smoke runs of the experiment binaries: each must exit 0 and write its
//! markdown report, the `.json` companion and a JSONL trace that opens
//! with the `meta` line and carries the counter totals. A flag the CLI
//! does not know, `--coalesce` included, exits 2.

use std::path::PathBuf;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn each_binary_writes_its_report_json_and_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_smoke");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for (name, bin, args) in [
        (
            "all",
            env!("CARGO_BIN_EXE_all"),
            &["--only", "table3,table1"][..],
        ),
        (
            "fault_matrix",
            env!("CARGO_BIN_EXE_fault_matrix"),
            &["--jobs", "2"],
        ),
        (
            "campaign",
            env!("CARGO_BIN_EXE_campaign"),
            &["--seeds", "2"],
        ),
    ] {
        let path = |ext: &str| dir.join(format!("{name}.{ext}"));
        for ext in ["md", "json", "trace"] {
            let _ = std::fs::remove_file(path(ext));
        }
        let (md, trace) = (path("md"), path("trace"));
        let out = run(
            bin,
            &[
                args,
                &[
                    "--out",
                    md.to_str().unwrap(),
                    "--trace",
                    trace.to_str().unwrap(),
                ],
            ]
            .concat(),
        );
        assert!(
            out.status.success(),
            "{name} {args:?}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        for ext in ["md", "json"] {
            let written = std::fs::read_to_string(path(ext)).expect("report written");
            assert!(!written.is_empty(), "{name}: empty .{ext}");
        }
        let trace = std::fs::read_to_string(&trace).expect("trace written");
        assert!(
            trace.starts_with("{\"type\":\"meta\","),
            "{name}: trace opens with {:?}",
            trace.lines().next()
        );
        assert!(
            trace
                .lines()
                .any(|l| l.starts_with("{\"type\":\"counter\",")),
            "{name}: no counter line in the trace"
        );
    }
}

#[test]
fn the_coalesce_flag_is_gone() {
    for bin in [
        env!("CARGO_BIN_EXE_all"),
        env!("CARGO_BIN_EXE_fault_matrix"),
    ] {
        let out = run(bin, &["--coalesce", "off"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--coalesce"), "{stderr}");
    }
}
