//! One benchmark run: a workload's set-up measurement and its fuzzing
//! campaigns, timed on a calibrated [`Timeline`], checked, and reduced to
//! named metrics.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cftcg_codegen::{compile, replay_suite, CompiledModel, Engine, Executor, TestCase};
use cftcg_coverage::{CoverageReport, FullTracker};
use cftcg_fuzz::{FuzzConfig, FuzzOutcome, Fuzzer};
use cftcg_model::load_model;
use cftcg_telemetry::{SpanTrace, Telemetry};

use crate::calib::Timeline;
use crate::ladder::Ladder;
use crate::stats::{digest, median, splitmix64};

/// A named workload: which model the campaigns fuzz, and how.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Model file stem under the models directory.
    pub model: &'static str,
    /// Whether campaigns run with the observatory armed the way
    /// `cftcg fuzz --stats-jsonl --trace-events --plateau-window` arms it.
    pub observed: bool,
    /// Campaigns per untraced run (a quarter as many in the traced run).
    pub campaigns: usize,
    /// Executions per requested second: a campaign's budget is
    /// `seconds × execs_per_s / campaigns` executions, so a run measures
    /// for about `seconds` on the reference host while every campaign stays
    /// a fixed amount of work (and its coverage exact for a seed).
    pub execs_per_s: u64,
    /// Power of the calibration kernel's rate that this loop's speed
    /// follows: the log-log regression slope of raw loop rate on kernel
    /// rate over fixed- and varied-seed runs on the reference host
    /// (`README.md`).
    pub elasticity: f64,
}

/// The benchmark's workloads; why each was chosen is recorded in
/// `BENCHMARK.json`.
///
/// Coverage varies widely from seed to seed (TCP's decision coverage
/// spans 57–98%), so each run averages many campaigns: 64 of
/// about half a second on SolarPV and TCP. RAC's coverage takes longer to
/// settle and its input lengths, hence its execution rate, vary more by
/// seed while a campaign is young, so it runs 32 campaigns twice as long.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "solarpv_loop",
        model: "solarpv",
        observed: false,
        campaigns: 64,
        execs_per_s: 14_000,
        elasticity: 1.15,
    },
    Workload {
        name: "rac_torc",
        model: "rac",
        observed: false,
        campaigns: 32,
        execs_per_s: 4_000,
        elasticity: 0.95,
    },
    Workload {
        name: "tcp_observed",
        model: "tcp",
        observed: true,
        campaigns: 64,
        execs_per_s: 10_500,
        elasticity: 1.4,
    },
];

/// Timed slices per campaign. `Fuzzer::run_executions` returns a full
/// outcome snapshot, so slices are few and long enough that the snapshot
/// copy stays well under 1% of a slice.
const SLICES: u64 = 8;
/// Untimed set-ups before the timed ones (page cache, allocator, lazy
/// statics).
const SETUP_WARMUP: usize = 3;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Plateau-watch window of the observed workload, in executions.
const PLATEAU_WINDOW: u64 = 4_096;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// The run's seed; campaign seeds derive from it.
    pub seed: u64,
    /// Requested measuring time, seconds (sets the campaign budget).
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory holding the `.mdlx` models.
    pub models: PathBuf,
    /// Directory for the run's files (telemetry sink, trace output).
    pub out: PathBuf,
}

impl Options {
    /// Executions per campaign.
    pub fn budget(&self) -> u64 {
        let campaigns = self.workload.campaigns as u64;
        (self.seconds * self.workload.execs_per_s / campaigns).max(SLICES)
    }

    /// Seed of campaign `c`.
    pub fn campaign_seed(&self, c: usize) -> u64 {
        splitmix64(splitmix64(self.seed) ^ c as u64)
    }

    fn model_path(&self) -> PathBuf {
        self.models.join(format!("{}.mdlx", self.workload.model))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Correctness checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Run metadata: host, engine, budget, suite digest.
    pub meta: Vec<(&'static str, String)>,
}

/// Failed checks against checks attempted.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A campaign's fuzz configuration: the build's defaults with the seed,
/// plus the observatory when the workload is observed (its JSONL sink
/// goes to `sink`).
fn config(seed: u64, sink: Option<&Path>) -> Result<FuzzConfig, String> {
    let mut cfg = FuzzConfig { seed, ..FuzzConfig::default() };
    if let Some(path) = sink {
        let file = fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        cfg.telemetry = Some(Arc::new(Telemetry::new().with_jsonl(BufWriter::new(file))));
        cfg.span_trace = Some(SpanTrace::new());
        cfg.plateau_window = Some(PLATEAU_WINDOW);
    }
    Ok(cfg)
}

/// A fuzzing campaign run slice by slice on a timeline.
struct Campaign<'c> {
    /// Span name of its slices (`None`: timed but not traced).
    name: Option<&'static str>,
    fuzzer: Fuzzer<'c>,
    telemetry: Option<Arc<Telemetry>>,
    budget: u64,
    /// Timeline slice of each of its slices.
    slices: Vec<usize>,
    outcome: Option<FuzzOutcome>,
}

impl<'c> Campaign<'c> {
    fn new(
        name: Option<&'static str>,
        compiled: &'c CompiledModel,
        cfg: FuzzConfig,
        budget: u64,
    ) -> Self {
        let telemetry = cfg.telemetry.clone();
        let fuzzer = Fuzzer::new(compiled, cfg);
        Campaign { name, fuzzer, telemetry, budget, slices: Vec::new(), outcome: None }
    }

    /// Runs the next slice; `false` once the budget is spent.
    fn step(&mut self, tl: &mut Timeline) -> bool {
        let done = self.fuzzer.executions();
        if done >= self.budget {
            return false;
        }
        let n = self.budget.div_ceil(SLICES).min(self.budget - done);
        let (outcome, i) = tl.time(self.name, || self.fuzzer.run_executions(n));
        self.slices.push(i);
        self.outcome = Some(outcome);
        if let (true, Some(t)) = (done + n >= self.budget, &self.telemetry) {
            t.flush();
        }
        true
    }

    fn outcome(&self) -> &FuzzOutcome {
        self.outcome.as_ref().expect("campaign ran at least one slice")
    }

    /// What the end-to-end metrics need once the campaign is dropped.
    fn summary(&self) -> Summary {
        let outcome = self.outcome();
        Summary {
            executions: outcome.executions,
            iterations: outcome.iterations,
            slices: self.slices.clone(),
        }
    }
}

/// A finished campaign, reduced to what the end-to-end metrics need (runs
/// keep summaries, not fuzzers, so `peak_rss_mb` is one campaign's peak).
struct Summary {
    executions: u64,
    iterations: u64,
    /// Timeline slice of each of its slices.
    slices: Vec<usize>,
}

impl Summary {
    /// Seconds of all slices; `secs` gives a timeline slice's seconds
    /// (normalized or raw).
    fn secs(&self, secs: impl Fn(usize) -> f64) -> f64 {
        self.slices.iter().map(|&i| secs(i)).sum()
    }
}

/// Scores `suite` on `engine` the way [`replay_suite`] scores it on the
/// flat VM.
fn score_on(compiled: &CompiledModel, engine: Engine, suite: &[TestCase]) -> CoverageReport {
    let mut tracker = FullTracker::new(compiled.map());
    let mut exec = Executor::with_engine(compiled, engine);
    for case in suite {
        exec.run_case(case, &mut tracker);
    }
    CoverageReport::score(compiled.map(), &tracker)
}

/// The per-campaign output checks: replaying the suite reproduces the
/// branch count the loop reported, and the suite scores identically on
/// the flat VM and on the default engine. Returns the flat-VM scores.
fn check_campaign(
    checks: &mut Checks,
    compiled: &CompiledModel,
    engine: Engine,
    c: usize,
    outcome: &FuzzOutcome,
) -> CoverageReport {
    let flat = replay_suite(compiled, &outcome.suite);
    checks.check(flat.decision.covered == outcome.covered_branches, || {
        format!(
            "campaign {c}: replay covers {} branches, the loop reported {}",
            flat.decision.covered, outcome.covered_branches
        )
    });
    let native = score_on(compiled, engine, &outcome.suite);
    checks.check(native == flat, || {
        format!("campaign {c}: suite scores {native} on {engine}, {flat} on flat")
    });
    flat
}

/// A `/proc/self/status` field's leading number (Linux), or 0.
fn proc_status(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Loads and compiles the workload's model.
fn load(opts: &Options) -> Result<CompiledModel, String> {
    let path = opts.model_path();
    let xml = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let model = load_model(&xml).map_err(|e| format!("{}: {e}", path.display()))?;
    compile(&model).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the workload as `opts` asks.
pub fn run(opts: &Options) -> Result<Report, String> {
    fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut checks = Checks::default();
    let mut tl = Timeline::new(opts.trace, opts.workload.elasticity);
    let compiled = load(opts)?;
    let engine = FuzzConfig::default().resolved_engine();
    let ran = Executor::with_engine(&compiled, engine).engine();
    let mut meta = vec![
        ("workload", opts.workload.name.to_string()),
        ("seed", opts.seed.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("cores", cores().to_string()),
        ("engine", ran.name().to_string()),
        ("build_default_engine", Engine::best().name().to_string()),
        ("budget_execs", opts.budget().to_string()),
    ];
    let mut metrics = if opts.trace {
        traced(opts, &mut tl, &compiled, ran, &mut checks, &mut meta)?
    } else {
        untraced(opts, &mut tl, &compiled, ran, &mut checks, &mut meta)?
    };
    // The environment check: what ran is what the build measures by
    // default — no engine or worker override, the default engine really
    // engaged, one fuzzing thread and no more threads than cores.
    let threads = proc_status("Threads:");
    let overrides: Vec<&str> = ["CFTCG_ENGINE", "CFTCG_WORKERS"]
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    checks.check(
        overrides.is_empty() && engine == Engine::best() && ran == engine && threads <= cores() as u64,
        || {
            format!(
                "environment: overrides {overrides:?}, engine {ran} (build default {}), {threads} threads on {} cores",
                Engine::best(),
                cores()
            )
        },
    );
    let ref_mops = median(tl.rates());
    meta.push(("threads", threads.to_string()));
    meta.push(("ref_mops", ref_mops.to_string()));
    if opts.trace {
        metrics.push(Metric { name: "host.ref_mops", value: ref_mops, unit: "M/s" });
        if let Some(spans) = tl.spans() {
            let path = opts.out.join(format!("trace-{}.json", opts.workload.name));
            fs::write(&path, spans.to_chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            meta.push(("trace_file", path.display().to_string()));
        }
    }
    Ok(Report { metrics, attempted: checks.attempted, failures: checks.failures, meta })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run: set-up time, then the workload's campaigns back to
/// back; end-to-end metrics.
fn untraced(
    opts: &Options,
    tl: &mut Timeline,
    compiled: &CompiledModel,
    engine: Engine,
    checks: &mut Checks,
    meta: &mut Vec<(&'static str, String)>,
) -> Result<Vec<Metric>, String> {
    // One set-up: read the model file, load, compile, JIT-compile, and
    // build the fuzzer. The compiled model is returned so its teardown
    // stays outside the timed slice.
    let setup = || -> Result<CompiledModel, String> {
        let compiled = load(opts)?;
        compiled.jit_stats();
        std::hint::black_box(Fuzzer::new(&compiled, config(0, None)?));
        Ok(compiled)
    };
    for _ in 0..SETUP_WARMUP {
        setup()?;
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (result, i) = tl.time(Some("setup"), setup);
        result?;
        setups.push(i);
    }

    let sink = opts.out.join(format!("telemetry-{}.jsonl", opts.workload.name));
    let count = opts.workload.campaigns;
    let mut campaigns = Vec::with_capacity(count);
    let mut scores = Vec::with_capacity(count);
    let mut suites = Vec::new();
    for c in 0..count {
        let cfg = config(opts.campaign_seed(c), opts.workload.observed.then_some(sink.as_path()))?;
        let mut campaign = Campaign::new(Some("fuzz.run_executions"), compiled, cfg, opts.budget());
        while campaign.step(tl) {}
        scores.push(check_campaign(checks, compiled, engine, c, campaign.outcome()));
        suites.extend(campaign.outcome().suite.iter().map(|case| case.bytes.clone()));
        campaigns.push(campaign.summary());
    }
    let _ = fs::remove_file(&sink);

    let norm = |i| tl.norm(i);
    let raw = |i| tl.raw(i);
    let secs: f64 = campaigns.iter().map(|c| c.secs(norm)).sum();
    let raw_secs: f64 = campaigns.iter().map(|c| c.secs(raw)).sum();
    let execs: u64 = campaigns.iter().map(|c| c.executions).sum();
    let ticks: u64 = campaigns.iter().map(|c| c.iterations).sum();
    let mean =
        |f: fn(&CoverageReport) -> f64| scores.iter().map(f).sum::<f64>() / scores.len() as f64;
    meta.push(("suite_digest", format!("{:016x}", digest(suites.iter().map(Vec::as_slice)))));
    // The raw twins of the timed metrics, so the scaling can be checked.
    let raw_setup = median(&setups.iter().map(|&i| tl.raw(i)).collect::<Vec<_>>());
    meta.push(("raw_execs_per_s", (execs as f64 / raw_secs).to_string()));
    meta.push(("raw_ticks_per_s", (ticks as f64 / raw_secs).to_string()));
    meta.push(("raw_setup_s", raw_setup.to_string()));
    Ok(vec![
        Metric { name: "execs_per_s", value: execs as f64 / secs, unit: "1/s" },
        Metric { name: "ticks_per_s", value: ticks as f64 / secs, unit: "1/s" },
        Metric {
            name: "setup_s",
            value: median(&setups.iter().map(|&i| tl.norm_setup(i)).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric { name: "decision_pct", value: mean(|r| r.decision.percent()), unit: "%" },
        Metric { name: "condition_pct", value: mean(|r| r.condition.percent()), unit: "%" },
        Metric { name: "mcdc_pct", value: mean(|r| r.mcdc.percent()), unit: "%" },
        Metric { name: "peak_rss_mb", value: proc_status("VmHWM:") as f64 / 1024.0, unit: "MB" },
    ])
}

/// The traced run: each set-up step timed on its own, then a quarter as many
/// campaigns as the untraced run (its first seeds), each as paired twins —
/// a plain one and one with the workload's configuration — run in
/// alternating slices, then the layer ladder over the suite; per-layer
/// metrics.
fn traced(
    opts: &Options,
    tl: &mut Timeline,
    compiled: &CompiledModel,
    engine: Engine,
    checks: &mut Checks,
    meta: &mut Vec<(&'static str, String)>,
) -> Result<Vec<Metric>, String> {
    let path = opts.model_path();
    let xml = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut load_s, mut compile_s, mut jit_s, mut init_s) = (vec![], vec![], vec![], vec![]);
    tl.open("setup", None);
    for rep in 0..SETUP_WARMUP + SETUP_REPS / 2 {
        let (model, a) = tl.time(Some("model.load_model"), || load_model(&xml));
        let model = model.map_err(|e| format!("{}: {e}", path.display()))?;
        let (fresh, b) = tl.time(Some("codegen.compile"), || compile(&model));
        let fresh = fresh.map_err(|e| format!("{}: {e}", path.display()))?;
        let (_, c) = tl.time(Some("codegen.jit"), || fresh.jit_stats());
        let cfg = config(0, None)?;
        let (fuzzer, d) = tl.time(Some("fuzz.new"), || Fuzzer::new(&fresh, cfg));
        drop(fuzzer);
        if rep >= SETUP_WARMUP {
            load_s.push(a);
            compile_s.push(b);
            jit_s.push(c);
            init_s.push(d);
        }
    }
    tl.close();

    let sink = opts.out.join(format!("telemetry-{}.jsonl", opts.workload.name));
    let mut ladder = Ladder::default();
    let (mut plain_slices, mut twin_slices) = (Vec::new(), Vec::new());
    let (mut execs, mut ticks, mut committed, mut suite_cases) = (0u64, 0u64, 0u64, 0u64);
    // Executions each campaign needed to first reach the branch count it
    // ended with: time to coverage, at the loop's seconds per execution.
    // Per-layer rather than end-to-end: its spread between runs on
    // different seeds reached 27% even summed over 64 campaigns.
    let mut gain = 0u64;
    let campaigns = opts.workload.campaigns / 4;
    for c in 0..campaigns {
        let seed = opts.campaign_seed(c);
        tl.open("campaign", Some(c as u32));
        // The plain twin is timed but not traced: on the plain workloads
        // the twins differ only in the spans, on the observed one also in
        // the observatory.
        let mut plain = Campaign::new(None, compiled, config(seed, None)?, opts.budget());
        let observed = opts.workload.observed.then_some(sink.as_path());
        let cfg = config(seed, observed)?;
        let mut twin = Campaign::new(Some("fuzz.run_executions"), compiled, cfg, opts.budget());
        // Alternate which twin goes first so drift favours neither.
        for k in 0.. {
            let (first, second) =
                if k % 2 == 0 { (&mut plain, &mut twin) } else { (&mut twin, &mut plain) };
            let ran = first.step(tl);
            if !(second.step(tl) || ran) {
                break;
            }
        }
        let outcome = twin.outcome();
        checks.check(outcome.suite == plain.outcome().suite, || {
            format!("campaign {c}: the twins emitted different suites")
        });
        check_campaign(checks, compiled, engine, c, outcome);
        ladder.measure(tl, compiled, engine, &outcome.suite, seed);
        tl.close();
        plain_slices.extend(&plain.slices);
        twin_slices.extend(&twin.slices);
        execs += outcome.executions;
        ticks += outcome.iterations;
        committed += outcome.lineage.len() as u64;
        suite_cases += outcome.suite.len() as u64;
        gain += outcome.events.last().map_or(0, |e| e.executions);
    }
    let _ = fs::remove_file(&sink);

    let norm = |slices: &[usize]| slices.iter().map(|&i| tl.norm(i)).sum::<f64>();
    let med =
        |slices: &[usize]| median(&slices.iter().map(|&i| tl.norm_setup(i)).collect::<Vec<_>>());
    let (plain_s, twin_s) = (norm(&plain_slices), norm(&twin_slices));
    let raw_twin: f64 = twin_slices.iter().map(|&i| tl.raw(i)).sum();
    let loop_tps = ticks as f64 / twin_s;
    let ticks_per_exec = ticks as f64 / execs as f64;

    // The ladder's account of one loop tick, in nanoseconds.
    let loop_ns = 1e9 / loop_tps;
    let engine_ns = 1e9 / ladder.engine.rate(tl);
    let probe_ns = 1e9 / ladder.probe.rate(tl) - engine_ns;
    let alg1_ns = 1e9 / ladder.alg1.rate(tl) - 1e9 / ladder.probe.rate(tl);
    let child_ns = ladder.mutate.secs(tl) * 1e9 / ladder.children as f64;
    let mutate_ns = child_ns / ticks_per_exec;
    let pct = |ns: f64| 100.0 * ns / loop_ns;
    meta.push(("campaigns", campaigns.to_string()));
    Ok(vec![
        Metric { name: "model.load_s", value: med(&load_s), unit: "s" },
        Metric { name: "codegen.compile_s", value: med(&compile_s), unit: "s" },
        Metric { name: "codegen.jit_s", value: med(&jit_s), unit: "s" },
        Metric { name: "fuzz.init_s", value: med(&init_s), unit: "s" },
        Metric { name: "codegen.engine_ticks_per_s", value: ladder.engine.rate(tl), unit: "1/s" },
        Metric { name: "coverage.probe_ticks_per_s", value: ladder.probe.rate(tl), unit: "1/s" },
        Metric { name: "coverage.alg1_ticks_per_s", value: ladder.alg1.rate(tl), unit: "1/s" },
        Metric {
            name: "coverage.compares_per_tick",
            value: ladder.compares as f64 / ladder.compare_ticks as f64,
            unit: "count",
        },
        Metric { name: "coverage.replay_ticks_per_s", value: ladder.replay.rate(tl), unit: "1/s" },
        Metric {
            name: "fuzz.mutate_ns",
            value: ladder.mutate.secs(tl) * 1e9 / ladder.mutate.work as f64,
            unit: "ns",
        },
        Metric { name: "fuzz.loop_ticks_per_s", value: loop_tps, unit: "1/s" },
        Metric {
            name: "fuzz.time_to_cov_s",
            value: gain as f64 * twin_s / execs as f64,
            unit: "s",
        },
        Metric { name: "fuzz.engine_pct", value: pct(engine_ns), unit: "%" },
        Metric { name: "coverage.probe_pct", value: pct(probe_ns), unit: "%" },
        Metric { name: "coverage.alg1_pct", value: pct(alg1_ns), unit: "%" },
        Metric { name: "fuzz.mutate_pct", value: pct(mutate_ns), unit: "%" },
        Metric {
            name: "fuzz.residual_pct",
            value: pct(loop_ns - engine_ns - probe_ns - alg1_ns - mutate_ns),
            unit: "%",
        },
        Metric { name: "fuzz.ticks_per_exec", value: ticks_per_exec, unit: "count" },
        Metric {
            name: "fuzz.commit_pct",
            value: 100.0 * committed as f64 / execs as f64,
            unit: "%",
        },
        Metric {
            name: "fuzz.cov_execs",
            value: suite_cases as f64 / campaigns as f64,
            unit: "count",
        },
        Metric {
            name: "telemetry.overhead_pct",
            value: 100.0 * (twin_s / plain_s - 1.0),
            unit: "%",
        },
        Metric { name: "host.raw_execs_per_s", value: execs as f64 / raw_twin, unit: "1/s" },
    ])
}
