//! Incremental container rebuilds: `gcm compress --base OLD.gcms`.
//!
//! A version-5 or -6 container records, per shard, the FNV-64 fingerprint of
//! the shard's build-time input rows ([`shard_fingerprint`]). An
//! incremental rebuild replays only the *planning* split on the new
//! matrix, fingerprints each shard's input slice, and then:
//!
//! * **splices** every unchanged shard — the encoded payload bytes and
//!   any persisted `GCMPLAN1` blobs are copied straight out of the base
//!   container through its [`ShardTable`] byte ranges, with no grammar
//!   decode, no re-encode, and no plan recompilation;
//! * **rebuilds** every changed shard through the ordinary stage
//!   phases (reorder → grammar → encode, plus plan compilation when the
//!   base persists plans). The changed shards' plans run as one
//!   pipeline execution, so several edited shards share the pool.
//!
//! Because the per-shard stages are deterministic and independent, the
//! spliced container is **byte-identical** to a from-scratch rebuild of
//! the same input under the same configuration — the tests pin this
//! down, and [`RebuildReport::grammar_builds`] proves that exactly the
//! changed shards paid for grammar construction.
//!
//! The splice path needs a base that actually carries fingerprints and
//! a configuration whose shards are independent; anything else falls
//! back to a full rebuild with the reason recorded in the returned
//! [`RebuildReport`] (never silently). In particular
//! [`ReorderMode::Global`] couples every shard to the whole-matrix
//! permutation, so a single changed row invalidates all shards.
//!
//! One cross-shard coupling is inherent to the format and handled by
//! the fingerprint itself: row shards share the whole-matrix **value
//! dictionary**, which a multi-shard (version 6) container stores once,
//! ahead of the dictionary-free shard payloads. Every shard's terminal
//! symbols index into it. An edit that only moves existing values
//! around invalidates just the shards whose rows changed; an edit that
//! changes the dictionary (a new distinct value, or a removed/reordered
//! one) renumbers the terminals of *every* shard, and the fingerprint —
//! which covers the shard's symbol stream *and* the shared dictionary —
//! correctly invalidates them all. A matching fingerprint therefore
//! also vouches for the dictionary, which is what lets a version-5 base
//! (one copy of `V` per payload) splice into a version-6 output: the
//! embedded copy is cut out of the payload bytes, with no decode.

use std::borrow::Cow;

use gcm_core::serial;
use gcm_matrix::CsrvMatrix;
use gcm_pipeline::{
    shard_fingerprint, BuildConfig, GrammarChoice, GrammarStage, Plan, ReorderMode,
};

use crate::container::{
    self, plan_kind, write_container, Header, Segment, SegmentBody, ServeError, ShardTable,
};
use crate::sharded::{ServeOptions, ShardedModel};

/// How one output shard of an incremental rebuild was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardProvenance {
    /// The input fingerprint matched the base container: payload bytes
    /// and persisted plan blobs were spliced verbatim.
    Spliced,
    /// The input changed (or the base recorded no fingerprint for this
    /// shard): the full per-shard stage chain re-ran.
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
/// shard whose input fingerprint is unchanged and re-running the stage
/// chain only for the rest. Whether the output carries a plan section
/// follows the *base* (an incremental rebuild never changes the plan
/// policy mid-flight). The result is byte-identical to the
/// corresponding full rebuild.
///
/// Falls back to a full rebuild — with the reason in the report — when
/// the base or the configuration cannot support splicing: a base
/// without fingerprints (pre-v5 or uncompressed), a changed backend, a
/// base shard built with another stage than a fixed `--grammar` asks
/// for, a global reorder, or a changed shard count.
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
        if table.fingerprints[i] == Some(shard_fingerprint(&sp.csrv)) {
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
    // The full build's writer stores the row shards' one dictionary once
    // whenever there are two or more of them (a version-6 container).
    let dictionary = (provenance.len() >= 2).then(|| csrv.values());
    let mut rebuilt = rebuilt.iter().flat_map(ShardedModel::shard_slice);
    let segments = provenance
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            ShardProvenance::Spliced => splice_segment(&table, base, i, dictionary),
            ShardProvenance::Rebuilt => Ok(Segment::live(
                rebuilt.next().expect("one rebuilt shard per changed input"),
                true,
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let header = Header {
        backend: config.backend,
        rows: csrv.rows(),
        cols: csrv.cols(),
        dictionary,
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
    if matches!(config.reorder, Some(ReorderMode::Global(_))) {
        return Some("global reorder couples every shard to the whole-matrix permutation".into());
    }
    if table.fingerprints.iter().all(Option::is_none) {
        return Some(format!(
            "base container (version {}) records no fingerprints",
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
    // A fixed stage must match every base shard's recorded one; `auto`
    // may have picked either.
    let stage = match config.grammar.unwrap_or(GrammarChoice::RePair) {
        GrammarChoice::RePair => Some(GrammarStage::RePair),
        GrammarChoice::MrRePair => Some(GrammarStage::MrRePair),
        GrammarChoice::Auto => None,
    };
    if let Some(stage) = stage {
        if let Some(base) = table.grammar_stages.iter().flatten().find(|&&s| s != stage) {
            return Some(format!(
                "grammar stage changed ({} in base, {} requested)",
                base.name(),
                stage.name()
            ));
        }
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
/// decoding them. With a shared `dictionary` (a version-6 output) the
/// payload must be dictionary-free: a version-6 base's already is, and a
/// version-5 base's embedded copy is cut out — after checking it is the
/// very dictionary the matching fingerprint vouches for.
fn splice_segment<'a>(
    table: &ShardTable,
    base: &'a [u8],
    i: usize,
    dictionary: Option<&[f64]>,
) -> Result<Segment<'a>, ServeError> {
    let mut payload = Cow::Borrowed(&base[table.shard_ranges[i].clone()]);
    if let (Some(dictionary), None) = (dictionary, &table.dictionary) {
        let (embedded, stripped) = serial::split_bundle_dictionary(&payload)
            .ok_or_else(|| ServeError::Corrupt(format!("base shard {i}: invalid bundle")))?;
        if embedded != dictionary {
            return Err(ServeError::Corrupt(format!(
                "base shard {i}: dictionary disagrees with its fingerprint"
            )));
        }
        payload = Cow::Owned(stripped);
    }
    let plan = table.plan_ranges[i]
        .clone()
        .map(|r| (plan_kind(table.plan_f32[i]), &base[r]));
    Ok(Segment {
        reorder: table.reorder_algos[i],
        grammar: table.grammar_stages[i],
        fingerprint: table.fingerprints[i],
        body: SegmentBody::Spliced { payload, plan },
    })
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
    use gcm_pipeline::{EncodingChoice, GrammarChoice};

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
            // *new* distinct value would rewrite the shared dictionary
            // every shard payload embeds, correctly invalidating all
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
        // A fixed grammar stage other than the base's: the default
        // (RePair) against an MR-RePair base.
        let base = build_full(&csrv, &config, false);
        let default = BuildConfig {
            shards: 2,
            ..BuildConfig::default()
        };
        let (bytes, report) = compress_incremental(&csrv, &default, &base).unwrap();
        let reason = report
            .full_reason
            .expect("a stage change must carry a reason");
        assert!(reason.contains("grammar stage changed"), "{reason}");
        assert_eq!(bytes, build_full(&csrv, &default, false));
        // Shard-count change.
        let (_, report) = compress_incremental(&csrv, &grammar_config(3), &base).unwrap();
        assert!(
            report.full_reason.expect("reason").contains("shard count"),
            "changed shard split must be reported"
        );
        // Global reorder couples shards.
        let global = BuildConfig {
            reorder: Some(ReorderMode::Global(
                gcm_reorder::ReorderAlgorithm::PathCover,
            )),
            ..config
        };
        let global_base = build_full(&csrv, &global, false);
        let (_, report) = compress_incremental(&csrv, &global, &global_base).unwrap();
        assert!(
            report
                .full_reason
                .expect("reason")
                .contains("global reorder"),
            "global reorder must refuse to splice"
        );
        // A corrupt base is an error, not a silent full rebuild.
        assert!(compress_incremental(&csrv, &config, b"GCMSERV1junk").is_err());
    }
}
