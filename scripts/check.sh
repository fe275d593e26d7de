#!/usr/bin/env sh
# Tier-1 gate: build, test, and format-check the whole workspace.
# Offline-safe: all dependencies are workspace-local (see vendor/).
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test --workspace --offline -q
cargo fmt --check
cargo clippy --workspace --offline --all-targets -- -D warnings

# Golden-file gates (also part of the workspace test run, invoked explicitly
# so a drift in the HTML campaign explorer, the campaign diff report, or the
# VCD waveform exporter fails loudly and names the fix): re-bless with
# `BLESS=1 cargo test --offline --test html_golden` (or --test vcd_golden,
# --test diff_html_golden) after an intentional rendering change.
# `campaign_golden` pins the workers=1 campaign.json digests of three
# fixed-seed campaigns across commits; re-bless it only when the fuzzing
# trajectory is meant to change.
cargo test --offline -q --test html_golden
cargo test --offline -q --test diff_html_golden
cargo test --offline -q --test vcd_golden
cargo test --offline -q --test cemit_golden
cargo test --offline -q --test campaign_golden
