//! Artifact-level byte-identity of the tracing layer: a fuzz run with a
//! trace hook installed must serialize to the same `campaign.json` as a
//! bare run. Wall-clock fields (`t_s`, `elapsed_s`) legitimately differ
//! between any two runs and are normalized out before comparison;
//! everything else — cases, ids, lineage, hits, counters — is compared
//! byte for byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cftcg::codegen::compile;
use cftcg::fuzz::{FuzzConfig, Fuzzer, Generation, TraceHook};
use cftcg::pipeline::CampaignArtifact;

mod common;
use common::strip_wallclock;

#[test]
fn trace_hook_leaves_campaign_artifact_byte_identical() {
    let model = cftcg::benchmarks::by_name("TCP").expect("bundled benchmark");
    let compiled = compile(&model).expect("benchmark compiles");

    let run = |hook: Option<TraceHook>| {
        let config = FuzzConfig { seed: 42, trace_hook: hook, ..FuzzConfig::default() };
        let mut fuzzer = Fuzzer::new(&compiled, config);
        let generation: Generation = fuzzer.run_executions(3_000).into();
        CampaignArtifact::from_generation(model.name(), 42, 1, &generation, compiled.map())
            .to_json()
    };

    let bare = run(None);
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = fired.clone();
    let hooked = run(Some(TraceHook::new(move |_, _| {
        counter.fetch_add(1, Ordering::Relaxed);
    })));

    assert!(fired.load(Ordering::Relaxed) > 0, "the hook observed cases");
    assert_eq!(
        strip_wallclock(bare),
        strip_wallclock(hooked),
        "campaign artifacts must be byte-identical modulo wall-clock"
    );
}

#[test]
fn strip_wallclock_normalizes_only_time_fields() {
    let doc = "{\"t_s\":1.25,\"seed\":7,\n\"elapsed_s\":0.5}\n".to_string();
    assert_eq!(strip_wallclock(doc), "{\"t_s\":0,\"seed\":7,\n\"elapsed_s\":0}\n");
}
