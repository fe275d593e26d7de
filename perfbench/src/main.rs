//! `cftcg-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--models DIR] [--out DIR]`
//!
//! Prints a metadata line, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero,
//! without that line, when the run cannot be made.

use std::path::PathBuf;
use std::process::ExitCode;

use cftcg_perfbench::run::{run, Options, Report, WORKLOADS};

fn parse(args: &[String]) -> Result<Options, String> {
    let flag = |name: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).map(String::as_str)
    };
    let required = |name: &str| flag(name).ok_or(format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        required(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let name = required("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 600"));
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Options {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        models: PathBuf::from(flag("--models").unwrap_or("models")),
        out: PathBuf::from(flag("--out").unwrap_or(".bench_build/perfbench")),
    })
}

/// JSON string literal (the strings here are paths and names).
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render(report: &Report) -> Result<(String, String), String> {
    let meta: Vec<String> =
        report.meta.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let failures: Vec<String> = report.failures.iter().map(|f| quote(f)).collect();
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            m.value,
            quote(m.unit)
        ));
    }
    let head =
        format!("{{\"meta\": {{{}}}, \"failures\": [{}]}}", meta.join(", "), failures.join(", "));
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    );
    Ok((head, result))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|opts| run(&opts)).and_then(|r| render(&r));
    match outcome {
        Ok((head, result)) => {
            println!("{head}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cftcg-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
