//! `benchcmp` takes only `--baseline <path>` and `--fresh <path>`: a
//! flag it no longer knows must stop it with exit 2 and a usage line,
//! not be accepted without effect.

use std::process::Command;

#[test]
fn unknown_flags_and_missing_paths_exit_2_with_usage() {
    let both = ["--baseline", "BENCH_pipelines.json", "--fresh", "x.json"];
    for extra in [
        &["--threshold-pct", "10"][..],
        &["--floor-ns", "20000"],
        &["--require-speedup", "fleet_10k_week:fleet_10k_week_eager:5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchcmp"))
            .args(both)
            .args(extra)
            .output()
            .expect("benchcmp runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(extra[0]), "{stderr}");
        assert!(stderr.contains("usage: benchcmp"), "{stderr}");
    }
    for partial in [&both[..2], &both[2..], &both[..3]] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchcmp"))
            .args(partial)
            .output()
            .expect("benchcmp runs");
        assert_eq!(out.status.code(), Some(2), "{partial:?}");
    }
}
