//! The benchmark's self-test: every workload on tiny inputs, untraced and
//! traced, printing every metric `BENCHMARK.json` names with its unit and
//! passing every output check.

#[test]
fn smoke_runs_every_workload_metric_and_check() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("smoke: every workload, metric and output check passed"),
        "{stdout}"
    );
}
