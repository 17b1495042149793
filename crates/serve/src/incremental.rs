//! Incremental container rebuilds: `gcm compress --base OLD.gcms`.
//!
//! A version-7 or -8 container records, per compressed shard, the fingerprint
//! of the shard's **build plan**
//! ([`gcm_pipeline::ShardPlan::fingerprint`]): its input rows, the value
//! dictionary `V` its terminals index, the encoding and grammar
//! policies, and the reorder action — a global permutation's entries
//! included. That is everything the shard's bytes depend on, so
//! an incremental rebuild plans the new build (the shard split, and a
//! global permutation when one is asked for), fingerprints each shard
//! plan, and then:
//!
//! * **splices** every shard whose fingerprint matches the base — the
//!   encoded payload bytes and any persisted `GCMPLAN1` blobs are copied
//!   straight out of the base container through its [`ShardTable`] byte
//!   ranges, with no grammar decode, no re-encode, and no plan
//!   recompilation;
//! * **rebuilds** every other shard through the ordinary stage phases
//!   (reorder → grammar → encode, plus plan compilation when the base
//!   persists plans). The rebuilt shards' plans run as one pipeline
//!   execution, so several of them share the pool.
//!
//! Because the per-shard stages are deterministic and independent, and
//! a matching fingerprint means the same plan, the spliced container is
//! **byte-identical** to a from-scratch build of the same input under
//! the same configuration by construction — the tests pin this down for
//! every plan change, and [`RebuildReport::grammar_builds`] proves that
//! exactly the rebuilt shards paid for grammar construction. A plan
//! change rebuilds exactly the shards it touches: a new encoding, grammar
//! policy or reorder scope all of them; a one-row edit under a global
//! reorder the edited shard, or every shard when the edit moves the
//! permutation.
//!
//! The container stores `V` once, ahead of the dictionary-free shard
//! payloads, and every shard's terminals index into it. An edit that
//! only moves existing values around invalidates just the shards whose
//! rows changed; an edit that changes the dictionary (a new distinct
//! value, or a removed or reordered one) renumbers the terminals of
//! *every* shard, and the fingerprint, which covers `V`, invalidates
//! them all.
//!
//! The splice path needs a base whose fingerprints cover the plan and
//! the same backend and shard split; anything else falls back to a full
//! rebuild with the reason recorded in the returned [`RebuildReport`]
//! (never silently). Version-7 and -8 bases splice alike (the two differ
//! only in their checksum hash). Bases older than version 7 always fall
//! back: their fingerprints hash only the input rows and `V`.

use gcm_matrix::CsrvMatrix;
use gcm_pipeline::{BuildConfig, Plan};

use crate::container::{
    self, plan_kind, write_container, Header, Segment, SegmentBody, ServeError, ShardTable,
    VERSION_CHUNKED,
};
use crate::sharded::{ServeOptions, ShardedModel};

/// How one output shard of an incremental rebuild was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardProvenance {
    /// The plan fingerprint matched the base container: payload bytes
    /// and persisted plan blobs were spliced verbatim.
    Spliced,
    /// The shard's input or plan changed (or the base recorded no
    /// fingerprint for this shard): the full per-shard stage chain re-ran.
    Rebuilt,
}

impl ShardProvenance {
    /// Short display name (`spliced` / `rebuilt`).
    pub fn name(self) -> &'static str {
        match self {
            ShardProvenance::Spliced => "spliced",
            ShardProvenance::Rebuilt => "rebuilt",
        }
    }
}

/// What [`compress_incremental`] did, shard by shard.
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// Per-shard provenance, in row order.
    pub shards: Vec<ShardProvenance>,
    /// Why the splice path was abandoned for a full rebuild (`None`
    /// when splicing ran). The fallback is never silent: callers
    /// surface this to the user.
    pub full_reason: Option<String>,
    /// Grammars this rebuild constructed, summed over the rebuilt
    /// shards' [`ShardStats::grammar_builds`](gcm_pipeline::ShardStats)
    /// (0 when every shard was spliced).
    pub grammar_builds: usize,
}

impl RebuildReport {
    /// Number of shards spliced from the base container.
    pub fn spliced(&self) -> usize {
        self.shards
            .iter()
            .filter(|p| **p == ShardProvenance::Spliced)
            .count()
    }

    /// Number of shards rebuilt from their input rows.
    pub fn rebuilt(&self) -> usize {
        self.shards
            .iter()
            .filter(|p| **p == ShardProvenance::Rebuilt)
            .count()
    }
}

/// Rebuilds `csrv` against the base container bytes, splicing every
/// shard whose plan fingerprint is unchanged and re-running the stage
/// chain only for the rest. Whether the output carries a plan section
/// follows the *base* (an incremental rebuild never changes the plan
/// policy mid-flight). The result is byte-identical to the
/// corresponding full rebuild.
///
/// Falls back to a full rebuild — with the reason in the report — when
/// the base cannot support splicing: a base without fingerprints
/// (uncompressed, or older than version 5), one older than version 7
/// (whose fingerprints do not cover the plan), a changed backend, column
/// count or shard count.
///
/// # Errors
/// Fails if `base` is not a structurally valid container.
pub fn compress_incremental(
    csrv: &CsrvMatrix,
    config: &BuildConfig,
    base: &[u8],
) -> Result<(Vec<u8>, RebuildReport), ServeError> {
    let table = ShardTable::parse(base)?;
    let planned = plan_policy(&table);
    if let Some(reason) = splice_blocker(csrv, config, &table) {
        return Ok(full_rebuild(csrv, config, planned, Some(reason)));
    }
    let plan = Plan::new(csrv, config);
    let mut provenance = Vec::with_capacity(plan.shards.len());
    let mut changed = Vec::new();
    for (i, sp) in plan.shards.into_iter().enumerate() {
        if table.meta[i].fingerprint == Some(sp.fingerprint()) {
            provenance.push(ShardProvenance::Spliced);
        } else {
            provenance.push(ShardProvenance::Rebuilt);
            changed.push(sp);
        }
    }
    let (rebuilt, grammar_builds) = rebuild(
        Plan {
            shards: changed,
            ..plan
        },
        planned,
    );
    let mut rebuilt = rebuilt.iter().flat_map(ShardedModel::shard_slice);
    let segments: Vec<Segment> = provenance
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            ShardProvenance::Spliced => splice_segment(&table, base, i),
            ShardProvenance::Rebuilt => Segment::live(
                rebuilt.next().expect("one rebuilt shard per changed input"),
                true,
            ),
        })
        .collect();
    let header = Header {
        backend: config.backend,
        rows: csrv.rows(),
        cols: csrv.cols(),
        // A matching fingerprint vouches for `V`, so the spliced
        // payloads index this dictionary too.
        dictionary: csrv.values(),
    };
    let bytes = write_container(header, &segments);
    Ok((
        bytes,
        RebuildReport {
            shards: provenance,
            full_reason: None,
            grammar_builds,
        },
    ))
}

/// The base container's plan policy: `Some(opts)` when it persists
/// plans (f32 when any shard's plans are single-precision).
fn plan_policy(table: &ShardTable) -> Option<ServeOptions> {
    if table.plan_ranges.iter().all(Option::is_none) {
        return None;
    }
    Some(if table.plan_f32.iter().any(|&f| f) {
        ServeOptions::planned_f32()
    } else {
        ServeOptions::planned()
    })
}

/// Why this build cannot splice from this base (`None` = it can).
fn splice_blocker(csrv: &CsrvMatrix, config: &BuildConfig, table: &ShardTable) -> Option<String> {
    if table.meta.iter().all(|m| m.fingerprint.is_none()) {
        return Some(format!(
            "base container (version {}) records no fingerprints",
            table.version
        ));
    }
    if table.version < VERSION_CHUNKED {
        return Some(format!(
            "base container (version {}) fingerprints only the input rows, not the build plan",
            table.version
        ));
    }
    if table.backend != config.backend {
        return Some(format!(
            "backend changed ({} in base, {} requested)",
            table.backend.name(),
            config.backend.name()
        ));
    }
    if table.cols != csrv.cols() {
        return Some(format!(
            "column count changed ({} in base, {} now)",
            table.cols,
            csrv.cols()
        ));
    }
    let shards = config.shards.clamp(1, csrv.rows().max(1));
    if table.shard_ranges.len() != shards {
        return Some(format!(
            "shard count changed ({} in base, {} requested)",
            table.shard_ranges.len(),
            shards
        ));
    }
    None
}

/// Takes shard `i`'s on-disk pieces out of the base container without
/// decoding them.
fn splice_segment<'a>(table: &'a ShardTable, base: &'a [u8], i: usize) -> Segment<'a> {
    let plan = table.plan_ranges[i]
        .clone()
        .map(|r| (plan_kind(table.plan_f32[i]), &base[r]));
    Segment {
        meta: &table.meta[i],
        body: SegmentBody::Spliced {
            payload: &base[table.shard_ranges[i].clone()],
            plan,
        },
    }
}

/// Runs the changed shards' plans through one pipeline execution and
/// returns the built model (`None` when nothing changed) with the
/// number of grammars built. The stages are deterministic and see
/// exactly what they would see in a full rebuild (the full build's own
/// shard plans), so the shards serialise to the full rebuild's bytes.
fn rebuild(plan: Plan, planned: Option<ServeOptions>) -> (Option<ShardedModel>, usize) {
    if plan.shards.is_empty() {
        return (None, 0);
    }
    let artifacts = gcm_pipeline::global().execute(plan);
    let grammar_builds = artifacts
        .stats
        .shards
        .iter()
        .map(|s| s.grammar_builds)
        .sum();
    let model = ShardedModel::from_artifacts(artifacts);
    if let Some(opts) = planned {
        model.prewarm_with(1, &opts);
    }
    (Some(model), grammar_builds)
}

/// The non-splicing path: build everything, with the base's plan
/// policy, and report why.
fn full_rebuild(
    csrv: &CsrvMatrix,
    config: &BuildConfig,
    planned: Option<ServeOptions>,
    reason: Option<String>,
) -> (Vec<u8>, RebuildReport) {
    let artifacts = gcm_pipeline::global().build(csrv, config);
    let n = artifacts.shards.len();
    let grammar_builds = artifacts
        .stats
        .shards
        .iter()
        .map(|s| s.grammar_builds)
        .sum();
    let model = ShardedModel::from_artifacts(artifacts);
    let bytes = if let Some(opts) = planned {
        model.prewarm_with(1, &opts);
        container::to_bytes_with_plans(&model)
    } else {
        container::to_bytes(&model)
    };
    (
        bytes,
        RebuildReport {
            shards: vec![ShardProvenance::Rebuilt; n],
            full_reason: reason,
            grammar_builds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container;
    use gcm_matrix::DenseMatrix;
    use gcm_pipeline::{EncodingChoice, GrammarChoice, ReorderMode};

    fn sample(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = match ((r as u64 + salt) % 4, c % 3) {
                    (0, 0) => 1.5,
                    (1, 1) => 2.5,
                    (2, _) => 0.5,
                    (3, 2) => 7.25,
                    _ => 0.0,
                };
                m.set(r, c, v);
            }
        }
        m
    }

    fn grammar_config(shards: usize) -> BuildConfig {
        BuildConfig {
            grammar: Some(GrammarChoice::MrRePair),
            shards,
            ..BuildConfig::default()
        }
    }

    fn build_full(csrv: &CsrvMatrix, config: &BuildConfig, plans: bool) -> Vec<u8> {
        let model = ShardedModel::from_artifacts(gcm_pipeline::global().build(csrv, config));
        if plans {
            model.prewarm_with(1, &ServeOptions::planned());
            container::to_bytes_with_plans(&model)
        } else {
            container::to_bytes(&model)
        }
    }

    #[test]
    fn unchanged_input_splices_every_shard_and_matches_full_rebuild() {
        let dense = sample(48, 9, 0);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        // The default configuration (no grammar policy: classic RePair)
        // records fingerprints as well, so it splices too.
        let default = BuildConfig {
            shards: 4,
            ..BuildConfig::default()
        };
        for (config, plans) in [
            (grammar_config(4), false),
            (grammar_config(4), true),
            (default, false),
        ] {
            let base = build_full(&csrv, &config, plans);
            let (bytes, report) = compress_incremental(&csrv, &config, &base).unwrap();
            assert_eq!(
                report.grammar_builds, 0,
                "no grammar stage may run when nothing changed (plans={plans})"
            );
            assert_eq!(report.full_reason, None);
            assert_eq!(report.spliced(), 4);
            assert_eq!(report.rebuilt(), 0);
            assert_eq!(bytes, base, "splice-all must reproduce the base bytes");
        }
    }

    #[test]
    fn changed_shards_rebuild_exactly_and_output_matches_full_rebuild() {
        let dense = sample(48, 9, 0);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let config = grammar_config(4);
        for plans in [false, true] {
            let base = build_full(&csrv, &config, plans);
            // Perturb one row in shard 2 (rows 24..36 of the 4-way
            // split) with a value the dictionary already holds — a
            // *new* distinct value would rewrite the dictionary every
            // shard's terminals index, correctly invalidating all
            // fingerprints.
            let mut changed = sample(48, 9, 0);
            changed.set(30, 4, 7.25);
            let changed_csrv = CsrvMatrix::from_dense(&changed).unwrap();
            let (bytes, report) = compress_incremental(&changed_csrv, &config, &base).unwrap();
            // Compressed backend, fixed MR stage: one grammar build per
            // rebuilt shard, so the count pins "exactly k re-ran".
            assert_eq!(
                report.grammar_builds, 1,
                "exactly the one changed shard re-runs its grammar stage (plans={plans})"
            );
            assert_eq!(report.full_reason, None);
            assert_eq!(report.spliced(), 3);
            assert_eq!(
                report.shards[2],
                ShardProvenance::Rebuilt,
                "the perturbed row lives in shard 2"
            );
            let full = build_full(&changed_csrv, &config, plans);
            assert_eq!(
                bytes, full,
                "incremental output must be byte-identical to a full rebuild (plans={plans})"
            );
            // And it still loads and serves.
            let model = container::from_bytes(&bytes).unwrap();
            let x = vec![1.0; 9];
            let mut y = vec![0.0; 48];
            model.right_multiply_panel(1, &x, &mut y).unwrap();
            let mut y_ref = vec![0.0; 48];
            changed.right_multiply(&x, &mut y_ref).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn several_changed_shards_rebuild_in_one_run_and_match_full_rebuild() {
        let dense = sample(48, 9, 0);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let config = BuildConfig {
            grammar: Some(GrammarChoice::Auto),
            reorder: Some(ReorderMode::PerShard(
                gcm_reorder::ReorderAlgorithm::PathCover,
            )),
            ..grammar_config(4)
        };
        // Edits in shards 1 and 3 (rows 12..24 and 36..48), reusing
        // values the dictionary already holds.
        let mut changed = sample(48, 9, 0);
        changed.set(13, 4, 7.25);
        changed.set(40, 0, 2.5);
        let changed_csrv = CsrvMatrix::from_dense(&changed).unwrap();
        for plans in [false, true] {
            let base = build_full(&csrv, &config, plans);
            let (bytes, report) = compress_incremental(&changed_csrv, &config, &base).unwrap();
            assert_eq!(report.full_reason, None);
            assert_eq!(report.rebuilt(), 2);
            assert_eq!(
                report.shards,
                [
                    ShardProvenance::Spliced,
                    ShardProvenance::Rebuilt,
                    ShardProvenance::Spliced,
                    ShardProvenance::Rebuilt,
                ]
            );
            // Auto builds both grammar stages for each rebuilt shard.
            assert_eq!(report.grammar_builds, 4);
            assert_eq!(
                bytes,
                build_full(&changed_csrv, &config, plans),
                "incremental output must be byte-identical to a full rebuild (plans={plans})"
            );
        }
    }

    #[test]
    fn auto_grammar_and_per_shard_reorder_splice_too() {
        let dense = sample(40, 8, 3);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let config = BuildConfig {
            encoding: EncodingChoice::Auto,
            grammar: Some(GrammarChoice::Auto),
            shards: 4,
            reorder: Some(ReorderMode::PerShard(
                gcm_reorder::ReorderAlgorithm::PathCover,
            )),
            ..BuildConfig::default()
        };
        let base = build_full(&csrv, &config, false);
        let mut changed = sample(40, 8, 3);
        changed.set(5, 2, 2.5);
        let changed_csrv = CsrvMatrix::from_dense(&changed).unwrap();
        let (bytes, report) = compress_incremental(&changed_csrv, &config, &base).unwrap();
        assert_eq!(report.full_reason, None);
        assert_eq!(report.rebuilt(), 1);
        assert_eq!(report.shards[0], ShardProvenance::Rebuilt);
        assert_eq!(bytes, build_full(&changed_csrv, &config, false));
    }

    #[test]
    fn unusable_bases_fall_back_to_a_full_rebuild_with_a_reason() {
        let dense = sample(32, 8, 1);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let config = grammar_config(2);
        // An uncompressed base: no fingerprints to match against.
        let uncompressed = build_full(
            &csrv,
            &BuildConfig {
                backend: gcm_pipeline::Backend::Csrv,
                ..config
            },
            false,
        );
        let (bytes, report) = compress_incremental(&csrv, &config, &uncompressed).unwrap();
        assert_eq!(report.rebuilt(), 2);
        let reason = report.full_reason.expect("fallback must carry a reason");
        assert!(reason.contains("no fingerprints"), "{reason}");
        assert_eq!(bytes, build_full(&csrv, &config, false));
        // Shard-count change.
        let base = build_full(&csrv, &config, false);
        let (_, report) = compress_incremental(&csrv, &grammar_config(3), &base).unwrap();
        assert!(
            report.full_reason.expect("reason").contains("shard count"),
            "changed shard split must be reported"
        );
        // Backend change.
        let csrv_config = BuildConfig {
            backend: gcm_pipeline::Backend::Csrv,
            ..config
        };
        let (bytes, report) = compress_incremental(&csrv, &csrv_config, &base).unwrap();
        assert!(
            report
                .full_reason
                .expect("reason")
                .contains("backend changed"),
            "a changed backend must be reported"
        );
        assert_eq!(bytes, build_full(&csrv, &csrv_config, false));
        // A corrupt base is an error, not a silent full rebuild.
        assert!(compress_incremental(&csrv, &config, b"GCMSERV1junk").is_err());
    }

    /// Census rows (the `gcm gen census` generator), the matrix of the
    /// plan-change tests below.
    fn census(rows: usize) -> CsrvMatrix {
        CsrvMatrix::from_dense(&gcm_datagen::Dataset::Census.generate(rows, 42)).unwrap()
    }

    /// Every plan change rebuilds exactly the shards whose bytes it
    /// changes, and the output is the fresh build's bytes: the
    /// fingerprint covers the encoding and grammar policies and the
    /// reorder action, not just the input rows.
    #[test]
    fn every_plan_change_rebuilds_into_the_bytes_of_a_fresh_build() {
        let csrv = census(400);
        let pathcover = gcm_reorder::ReorderAlgorithm::PathCover;
        let default = BuildConfig {
            shards: 4,
            ..BuildConfig::default()
        };
        let per_shard = BuildConfig {
            reorder: Some(ReorderMode::PerShard(pathcover)),
            ..default
        };
        let global = BuildConfig {
            reorder: Some(ReorderMode::Global(pathcover)),
            ..default
        };
        let fixed = |enc| BuildConfig {
            encoding: EncodingChoice::Fixed(enc),
            ..default
        };
        let auto_encoding = BuildConfig {
            encoding: EncodingChoice::Auto,
            ..default
        };
        let auto_grammar = BuildConfig {
            grammar: Some(GrammarChoice::Auto),
            ..default
        };
        let mr = BuildConfig {
            grammar: Some(GrammarChoice::MrRePair),
            ..default
        };
        for (what, from, to) in [
            ("per-shard reorder -> none", per_shard, default),
            ("global -> per-shard reorder", global, per_shard),
            (
                "re_ans -> re_iv",
                fixed(gcm_core::Encoding::ReAns),
                fixed(gcm_core::Encoding::ReIv),
            ),
            ("auto encoding -> default", auto_encoding, default),
            ("auto grammar -> repair", auto_grammar, default),
            ("repair -> auto grammar", default, auto_grammar),
            ("auto grammar -> mr-repair", auto_grammar, mr),
        ] {
            for plans in [false, true] {
                let base = build_full(&csrv, &from, plans);
                let (bytes, report) = compress_incremental(&csrv, &to, &base).unwrap();
                assert_eq!(report.full_reason, None, "{what}");
                assert_eq!(report.rebuilt(), 4, "{what}: every shard's plan changed");
                assert_eq!(bytes, build_full(&csrv, &to, plans), "{what} plans={plans}");
            }
        }

        // A one-row edit under a global reorder that reuses interned
        // values (the last row takes the one before it): the edit keeps
        // the whole-matrix permutation here, so exactly the final shard
        // is rebuilt; a permutation that moved would rebuild them all.
        let mut dense = gcm_datagen::Dataset::Census.generate(400, 42);
        for c in 0..dense.cols() {
            dense.set(399, c, dense.get(398, c));
        }
        let edited = CsrvMatrix::from_dense(&dense).unwrap();
        assert_eq!(edited.values(), csrv.values(), "the edit keeps V");
        let same_order = Plan::new(&csrv, &global).shards[0].fingerprint()
            == Plan::new(&edited, &global).shards[0].fingerprint();
        for plans in [false, true] {
            let base = build_full(&csrv, &global, plans);
            let (bytes, report) = compress_incremental(&edited, &global, &base).unwrap();
            assert_eq!(report.full_reason, None);
            assert_eq!(report.rebuilt(), if same_order { 1 } else { 4 });
            assert_eq!(report.shards[3], ShardProvenance::Rebuilt);
            assert_eq!(bytes, build_full(&edited, &global, plans), "plans={plans}");
        }
    }
}
