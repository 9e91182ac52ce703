//! A short run of every workload, untraced and traced, must pass its
//! output checks and print every metric `BENCHMARK.json` names, with its
//! unit and direction, then the JSON result as the last line.

use std::path::PathBuf;
use std::process::Command;

use wec_telemetry::json::{self, Json};

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one list of the manifest.
fn metrics(list: &str) -> Vec<(String, String, String)> {
    let m = manifest();
    let Some(Json::Arr(items)) = m.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|it| {
            let s = |k: &str| it.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let m = manifest();
    let Some(Json::Arr(items)) = m.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    items
        .iter()
        .map(|it| {
            it.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn short_run(workload: &str, trace: u8) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("short-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--work-dir"])
        .arg(&work)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let last = json::parse(lines.last().expect("output")).expect("last line is JSON");
    assert_eq!(
        last.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}:\n{stdout}"
    );
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
    let list = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let want = metrics(list);
    let Some(Json::Obj(got)) = last.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(got.len(), want.len(), "{workload}: metric count");
    for (name, unit, better) in &want {
        let m = last
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let line = format!("metric {name} = ");
        let printed = lines
            .iter()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(
            printed.contains(&format!(" {unit} ({better} is better)")),
            "{printed}"
        );
    }
    if trace == 0 {
        for (name, _, _) in &want {
            let v = last
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: {name} has no value"));
            assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
        }
    } else {
        assert!(stdout.contains("tracing overhead: "), "{stdout}");
        let spans = std::fs::read_to_string(work.join(format!("trace-{workload}-3.json")))
            .expect("span file written");
        json::parse(&spans).expect("span file is JSON");
    }
}

#[test]
fn manifest_lists_the_three_workloads() {
    assert_eq!(workloads(), ["sim-sweep", "replay-sweep", "serve-mix"]);
}

#[test]
fn sim_sweep_short_run() {
    short_run("sim-sweep", 0);
    short_run("sim-sweep", 1);
}

#[test]
fn replay_sweep_short_run() {
    short_run("replay-sweep", 0);
    short_run("replay-sweep", 1);
}

#[test]
fn serve_mix_short_run() {
    short_run("serve-mix", 0);
    short_run("serve-mix", 1);
}

/// Results stamped by different hosts are never compared.
#[test]
fn compare_refuses_results_from_another_host() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let result = |model: &str, p50: f64| {
        format!(
            "{{\"workload\": \"serve-mix\", \"trace\": 0, \"stamp\": {{\"cpu_count\": 2, \
             \"cpu_model\": \"{model}\", \"rustc\": \"rustc 1\"}}, \"result\": {{\"metrics\": \
             {{\"p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}}}"
        )
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("result file");
        path
    };
    let base = write("base.json", result("cpu A", 10.0));
    let same = write("same.json", result("cpu A", 10.0));
    let other = write("other.json", result("cpu B", 10.0));
    let compare = |head: &PathBuf| {
        Command::new("python3")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/run.py"))
            .arg("compare")
            .arg("--base")
            .arg(&base)
            .arg("--head")
            .arg(head)
            .output()
            .expect("python3 runs run.py")
    };
    let out = compare(&other);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{text}");
    assert!(text.starts_with("incomparable host"), "{text}");
    assert!(
        !text.contains("pass") && !text.contains("regression"),
        "{text}"
    );
    let text = String::from_utf8_lossy(&compare(&same).stdout).to_string();
    assert!(
        text.contains("serve-mix p50_ms: base 10 head 10 ms"),
        "{text}"
    );
    assert!(text.contains(": pass"), "{text}");
}
