//! Incremental container rebuilds: refresh a model by re-running the
//! grammar stage only for the shards whose input actually changed.
//!
//! ```sh
//! cargo run --release --example incremental_rebuild
//! ```
//!
//! Builds a base container (version 7: per-shard grammar provenance and
//! build-plan fingerprints, one shared value dictionary) with a measured
//! per-shard grammar
//! stage (`GrammarChoice::Auto`) and persisted plans, edits a handful
//! of rows, rebuilds with `compress_incremental` against the base, and
//! verifies the three claims the feature stands on:
//!
//! 1. only the shards whose plan fingerprint moved re-ran their
//!    grammar stage (pinned with `RebuildReport::grammar_builds`);
//! 2. the spliced container is **byte-identical** to a from-scratch
//!    build of the edited matrix — incrementality is invisible
//!    downstream;
//! 3. the result loads, keeps its persisted plans, and matches the
//!    dense oracle.
//!
//! The CLI spelling of the same flow is
//! `gcm compress new.txt new.gcms --grammar auto --base old.gcms`.
//! Every compressed build records the stage and the plan fingerprints,
//! so `--base` splices a default build (classic RePair, no `--grammar`)
//! the same way.

use mm_repair::prelude::*;

fn main() {
    // A model worth refreshing: 2 000 census-like rows, 4 row shards,
    // per-shard grammar choice, plans compiled at build time.
    let dense = Dataset::Census.generate(2000, 7);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let config = BuildConfig {
        backend: Backend::Compressed,
        encoding: EncodingChoice::Auto,
        shards: 4,
        grammar: Some(GrammarChoice::Auto),
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_artifacts(Pipeline::new().build(&csrv, &config));
    model.prewarm_with(1, &ServeOptions::planned());
    let base = model.to_bytes_with_plans();
    println!(
        "base: {} x {} -> {} bytes, grammar stages per shard: {}",
        dense.rows(),
        dense.cols(),
        base.len(),
        (0..model.num_shards())
            .map(|i| model.shard_meta(i).grammar.map_or("-", |g| g.name()))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The refresh: fill two empty cells in the last shard's rows with a
    // value the shared dictionary already holds. Reusing an interned
    // value (rather than introducing a new distinct one) matters: a new
    // value would rewrite the dictionary every shard's terminals index
    // and correctly invalidate all four fingerprints.
    let mut edited = Dataset::Census.generate(2000, 7);
    let reused = (0..edited.cols())
        .map(|c| edited.get(0, c))
        .find(|v| *v != 0.0)
        .expect("row 0 has a non-zero to reuse");
    let mut edits = 0;
    'fill: for r in 1995..2000 {
        for c in 0..edited.cols() {
            if edited.get(r, c) == 0.0 {
                edited.set(r, c, reused);
                edits += 1;
                if edits == 2 {
                    break 'fill;
                }
            }
        }
    }
    assert_eq!(edits, 2, "the last shard's rows have empty cells to fill");
    let edited_csrv = CsrvMatrix::from_dense(&edited).expect("csrv");

    // Claim 1: exactly the changed shards pay for grammar construction.
    let (incremental, report) =
        compress_incremental(&edited_csrv, &config, &base).expect("incremental rebuild");
    assert_eq!(report.full_reason, None, "splice path must engage");
    assert_eq!(report.spliced(), 3);
    assert_eq!(report.rebuilt(), 1);
    assert_eq!(report.shards[3], ShardProvenance::Rebuilt);
    println!(
        "rebuild: {} spliced, {} rebuilt ({} grammar builds — 2 per rebuilt shard under auto), provenance: {}",
        report.spliced(),
        report.rebuilt(),
        report.grammar_builds,
        report
            .shards
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
    // GrammarChoice::Auto builds both grammars for each rebuilt shard.
    assert_eq!(report.grammar_builds, 2 * report.rebuilt());

    // Claim 2: byte-identity with a from-scratch build of the edit.
    let fresh = ShardedModel::from_artifacts(Pipeline::new().build(&edited_csrv, &config));
    fresh.prewarm_with(1, &ServeOptions::planned());
    assert_eq!(
        incremental,
        fresh.to_bytes_with_plans(),
        "splicing must be invisible in the bytes"
    );
    println!(
        "bytes: incremental == from-scratch ({} bytes)",
        incremental.len()
    );

    // Claim 3: the spliced container serves correctly, plans intact.
    let loaded = ShardedModel::from_bytes(&incremental).expect("load");
    assert!(loaded.is_planned(), "plan policy inherited from the base");
    let x = vec![1.0; edited.cols()];
    let mut y = vec![0.0; edited.rows()];
    let mut y_ref = vec![0.0; edited.rows()];
    loaded.right_multiply_panel(1, &x, &mut y).expect("serve");
    edited.right_multiply(&x, &mut y_ref).expect("oracle");
    for (a, b) in y.iter().zip(&y_ref) {
        assert!((a - b).abs() < 1e-9);
    }
    println!(
        "served: {}-shard spliced container matches the dense oracle (planned: {})",
        loaded.num_shards(),
        loaded.is_planned()
    );
}
