//! Tiny-size smoke test of the benchmark command: both run kinds finish,
//! pass their own checks, and print a well-formed result line in which
//! every metric name matches `[A-Za-z0-9_.-]+` and carries a unit.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["mpcc-parallel", "churn-clos", "udp-paced"];

fn run(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--tiny",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    stdout
}

/// `(name, value, unit)` of every entry of the result line's `metrics`.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    let mut out = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")
            .unwrap_or_else(|| panic!("malformed entry {entry:?}"));
        let (value, unit) = rest
            .split_once(", \"unit\": \"")
            .unwrap_or_else(|| panic!("entry {name} has no unit"));
        out.push((
            name.to_string(),
            value
                .parse()
                .unwrap_or_else(|_| panic!("{name}: bad value {value}")),
            unit.trim_end_matches('"').to_string(),
        ));
    }
    out
}

fn check(stdout: &str, per_workload: usize) -> Vec<(String, f64, String)> {
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let ms = metrics(last);
    assert_eq!(ms.len(), per_workload * WORKLOADS.len(), "{last}");
    for (name, value, unit) in &ms {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(value.is_finite(), "{name} = {value}");
    }
    ms
}

#[test]
fn end_to_end_run_prints_every_metric_with_a_unit() {
    let stdout = run("0");
    let ms = check(&stdout, 5);
    for w in WORKLOADS {
        for m in [
            "setup_s",
            "peak_rss_mb",
            "wall_s",
            "cpu_ns_per_byte",
            "goodput_mbps",
        ] {
            let (_, v, _) = ms
                .iter()
                .find(|(n, _, _)| *n == format!("{w}.{m}"))
                .unwrap_or_else(|| panic!("{w}.{m} missing"));
            assert!(*v > 0.0, "{w}.{m} = {v}");
        }
    }
    assert!(stdout.starts_with("machine: {\"nproc\": "), "{stdout}");
}

#[test]
fn traced_run_prints_the_layer_split_and_its_checks() {
    let stdout = run("1");
    let ms = check(&stdout, 33);
    let value = |n: &str| ms.iter().find(|(m, _, _)| m == n).map(|x| x.1).unwrap();
    assert!(value("mpcc-parallel.mpcc.controller_calls") > 0.0);
    assert!(value("mpcc-parallel.telemetry.records") > 0.0);
    assert!(value("churn-clos.netsim.handoffs") > 0.0);
    assert!(value("udp-paced.udp.codec_ns_per_pkt") > 0.0);
    for w in WORKLOADS {
        assert!(value(&format!("{w}.trace.overhead")) > 0.0);
        assert!(value(&format!("{w}.trace.self_sum_err")) <= 0.01);
    }
    assert_eq!(stdout.matches("trace: self-time sum vs root").count(), 3);
}
