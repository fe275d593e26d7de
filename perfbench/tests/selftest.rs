//! Self-tests of the benchmark: the calibration kernel, normalization,
//! the order of the layer ladder, and seed reproducibility of whole runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use cftcg_perfbench::calib::{kernel, normalize, NOMINAL_MOPS, SETUP_ELASTICITY};
use cftcg_perfbench::run::WORKLOADS;

fn models() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("models")
}

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn calibration_kernel_is_deterministic() {
    assert_eq!(kernel(20_000), kernel(20_000));
    assert_ne!(kernel(20_000), kernel(20_001));
}

#[test]
fn normalization_is_the_identity_at_the_nominal_rate() {
    let loops = WORKLOADS.iter().map(|w| w.elasticity);
    for elasticity in loops.chain([SETUP_ELASTICITY]) {
        assert_eq!(normalize(1.25, NOMINAL_MOPS, elasticity), 1.25);
        // A slow host's seconds shrink, a fast host's stretch.
        assert!(normalize(1.0, NOMINAL_MOPS * 0.8, elasticity) < 1.0);
        assert!(normalize(1.0, NOMINAL_MOPS * 1.2, elasticity) > 1.0);
    }
}

/// The value text following `"key": ` in a JSON line (up to the next `,`
/// or `}`), enough to compare fields byte for byte.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + key.len() + 2..];
    let rest = rest.trim_start_matches([':', ' ', '{']).trim_start_matches("\"value\": ");
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

/// Runs the benchmark binary (its own process, so the environment check
/// sees one thread) and returns its metadata and result lines.
fn invoke(workload: &str, seed: &str, seconds: &str, trace: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cftcg-perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace])
        .arg("--models")
        .arg(models())
        .arg("--out")
        .arg(out_dir(workload))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().map(str::to_string);
    (lines.next().expect("metadata line"), lines.next().expect("result line"))
}

#[test]
fn layer_ladder_is_ordered_and_accounts_for_the_loop() {
    let (_, result) = invoke("rac_torc", "5", "4", "1");
    assert_eq!(field(&result, "failed"), "0", "{result}");
    let m = |name: &str| -> f64 { field(&result, name).parse().expect("a number") };
    assert!(m("codegen.engine_ticks_per_s") >= m("coverage.probe_ticks_per_s"));
    assert!(m("coverage.probe_ticks_per_s") >= m("coverage.alg1_ticks_per_s"));
    assert!(m("coverage.alg1_ticks_per_s") >= m("fuzz.loop_ticks_per_s"));
    assert!((0.0..=100.0).contains(&m("fuzz.residual_pct")));
    let shares: f64 = ["fuzz.engine_pct", "coverage.probe_pct", "coverage.alg1_pct"]
        .into_iter()
        .chain(["fuzz.mutate_pct", "fuzz.residual_pct"])
        .map(m)
        .sum();
    assert!((shares - 100.0).abs() < 1e-6, "shares sum to {shares}");
}

#[test]
fn same_seed_gives_identical_coverage_and_suites() {
    let (a, b) = (invoke("tcp_observed", "11", "2", "0"), invoke("tcp_observed", "11", "2", "0"));
    assert_eq!(field(&a.0, "suite_digest"), field(&b.0, "suite_digest"));
    for metric in ["decision_pct", "condition_pct", "mcdc_pct"] {
        assert_eq!(field(&a.1, metric), field(&b.1, metric), "{metric}");
    }
    assert_eq!(field(&a.1, "correct"), "true");
}
