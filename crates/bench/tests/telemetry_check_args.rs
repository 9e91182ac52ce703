//! `telemetry_check` argument handling: bad arguments print the usage and
//! exit 2 instead of panicking, and exit 1 keeps its meaning (a validation
//! failed, or nothing was found to validate).

use std::path::PathBuf;
use std::process::Command;

fn telemetry_check(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .args(args)
        .output()
        .expect("spawn telemetry_check");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("exit code, not a signal"), stderr)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_arguments_print_the_usage_and_exit_2() {
    let dir = scratch("tc-args");
    let d = dir.to_str().unwrap();
    for args in [
        vec![],
        vec!["--require-spec"],
        vec![d, "--require"],
        vec![d, "--require", "wec_fill", "--require"],
        vec![d, "second-dir"],
        vec![d, "--no-such-option"],
    ] {
        let (code, stderr) = telemetry_check(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: telemetry_check DIR"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exit_1_still_means_a_failed_or_missing_validation() {
    let dir = scratch("tc-exit");
    let d = dir.to_str().unwrap();
    // Nothing to validate.
    assert_eq!(telemetry_check(&[d]).0, 1);
    // A valid document passes; the same document with its ledger broken
    // fails validation.
    let stats = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1,\"workers\":1,\
                 \"busy_workers\":0,\"draining\":false,\
                 \"queue\":{\"depth\":0,\"cap\":4,\"rejected\":0},\
                 \"jobs\":{\"submitted\":1,\"deduped\":0,\"completed\":1,\"failed\":0},\
                 \"cache\":{\"cold\":1,\"disk_hits\":0,\"mem_hits\":0},\
                 \"throughput\":{\"jobs_per_sec\":1.0,\"utilization\":0.0}}";
    std::fs::write(dir.join("stats.json"), stats).unwrap();
    assert_eq!(telemetry_check(&[d]).0, 0);
    // A requirement that cannot be met is a failed check, not bad usage.
    assert_eq!(telemetry_check(&[d, "--require", "wec_fill"]).0, 1);
    std::fs::write(
        dir.join("stats.json"),
        stats.replace("\"cold\":1", "\"cold\":2"),
    )
    .unwrap();
    assert_eq!(telemetry_check(&[d]).0, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
