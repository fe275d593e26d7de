//! Cross-commit pin of the fuzzing trajectory: a fixed-seed, fixed-budget
//! `workers = 1` campaign on SolarPV, TCP and RAC must serialize to a
//! `campaign.json` whose digest matches `tests/golden/campaign_digests.txt`.
//!
//! The byte-identity suites compare engines against each other at one
//! commit; this file compares a commit against its predecessors, so a
//! refactor of the fuzzing loop that shifts the RNG stream, reorders corpus
//! admission or changes what an execution records fails here even when
//! every engine still agrees with every other. Wall-clock fields (`t_s`,
//! `elapsed_s`) are zeroed before hashing; everything else is pinned.
//!
//! Re-bless only after an *intentional* change to the campaign itself:
//!
//! ```text
//! BLESS=1 cargo test --offline --test campaign_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cftcg::pipeline::CampaignArtifact;
use cftcg::Cftcg;

mod common;
use common::strip_wallclock;

const MODELS: [&str; 3] = ["SolarPV", "TCP", "RAC"];
const SEED: u64 = 1_234;
const EXECUTIONS: u64 = 2_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign_digests.txt")
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `name digest` line of one model's sequential campaign; the sharded loop
/// at one worker must produce the same bytes.
fn digest_line(name: &str) -> String {
    let model = cftcg::benchmarks::by_name(name).expect("bundled benchmark");
    let tool = Cftcg::new(&model).expect("benchmark compiles");
    let json = |generation| {
        let artifact = CampaignArtifact::from_generation(
            model.name(),
            SEED,
            1,
            &generation,
            tool.compiled().map(),
        );
        strip_wallclock(artifact.to_json())
    };
    let sequential = json(tool.generate_executions(EXECUTIONS, SEED));
    let sharded = json(tool.generate_parallel_executions(EXECUTIONS, SEED, 1));
    assert_eq!(sequential, sharded, "{name}: workers=1 must match the sequential loop");
    format!("{name} {:016x}", fnv1a64(sequential.as_bytes()))
}

#[test]
fn campaign_digests_match_golden() {
    let mut actual = String::new();
    for name in MODELS {
        writeln!(actual, "{}", digest_line(name)).expect("write to string");
    }

    let golden = golden_path();
    if std::env::var_os("BLESS").is_some() {
        fs::write(&golden, &actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {} (run with BLESS=1 to create): {e}", golden.display())
    });
    assert_eq!(
        actual,
        expected,
        "workers=1 campaign.json digests drifted from {}; the fuzzing trajectory changed \
         (re-bless with BLESS=1 only if that change is intended)",
        golden.display()
    );
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
