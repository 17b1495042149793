//! Incremental container rebuilds: `gcm compress --base OLD.gcms`.
//!
//! A version-5 container records, per shard, the FNV-64 fingerprint of
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
//! dictionary**, and every serialized shard payload embeds it. An edit
//! that only moves existing values around invalidates just the shards
//! whose rows changed; an edit that changes the dictionary (a new
//! distinct value, or a removed/reordered one) changes what *every*
//! payload embeds, and the fingerprint — which covers the shard's
//! symbol stream *and* the shared dictionary — correctly invalidates
//! them all.

use gcm_encodings::varint;
use gcm_matrix::CsrvMatrix;
use gcm_pipeline::{shard_fingerprint, BuildConfig, GrammarStage, Plan, ReorderMode};
use gcm_reorder::ReorderAlgorithm;

use crate::container::{
    self, fnv1a64, grammar_tag, plan_blobs, reorder_tag, shard_payload, ServeError, ShardTable,
    MAGIC, VERSION_GRAMMAR,
};
use crate::model::Backend;
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

/// The serialized pieces of one output shard, either spliced out of the
/// base container or freshly built.
struct Segment {
    reorder: Option<ReorderAlgorithm>,
    grammar: Option<GrammarStage>,
    fingerprint: Option<u64>,
    payload: Vec<u8>,
    /// `(kind, blobs)` for the plan section; `None` writes kind `0`.
    plan: Option<(u8, Vec<Vec<u8>>)>,
}

/// Rebuilds `csrv` against the base container bytes, splicing every
/// shard whose input fingerprint is unchanged and re-running the stage
/// chain only for the rest. Whether the output carries a plan section
/// follows the *base* (an incremental rebuild never changes the plan
/// policy mid-flight). The result is byte-identical to the
/// corresponding full rebuild.
///
/// Falls back to a full rebuild — with the reason in the report — when
/// the base or the configuration cannot support splicing: a pre-v5
/// base, a backend that records no fingerprints, no grammar-stage
/// policy, a global reorder, or a changed shard count.
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
    let (rebuilt, grammar_builds) = rebuild_segments(
        Plan {
            shards: changed,
            ..plan
        },
        planned,
    );
    let mut rebuilt = rebuilt.into_iter();
    let segments: Vec<Segment> = provenance
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            ShardProvenance::Spliced => splice_segment(&table, base, i),
            ShardProvenance::Rebuilt => rebuilt.next().expect("one segment per rebuilt shard"),
        })
        .collect();
    let bytes = assemble(config.backend, csrv.rows(), csrv.cols(), &segments);
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
    if table.plan_ranges.iter().all(Vec::is_empty) {
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
    if config.grammar.is_none() {
        return Some(
            "no grammar-stage policy (--grammar): fingerprints are only recorded under one".into(),
        );
    }
    if !matches!(config.backend, Backend::Compressed | Backend::Blocked) {
        return Some(format!(
            "backend {} records no fingerprints",
            config.backend.name()
        ));
    }
    if matches!(config.reorder, Some(ReorderMode::Global(_))) {
        return Some("global reorder couples every shard to the whole-matrix permutation".into());
    }
    if table.version < VERSION_GRAMMAR {
        return Some(format!(
            "base container is version {} and records no fingerprints",
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

/// Copies shard `i`'s on-disk pieces out of the base container without
/// decoding them.
fn splice_segment(table: &ShardTable, base: &[u8], i: usize) -> Segment {
    let plan = if table.plan_ranges[i].is_empty() {
        None
    } else {
        let kind = if table.plan_f32[i] { 2 } else { 1 };
        let blobs = table.plan_ranges[i]
            .iter()
            .map(|r| base[r.clone()].to_vec())
            .collect();
        Some((kind, blobs))
    };
    Segment {
        reorder: table.reorder_algos[i],
        grammar: table.grammar_stages[i],
        fingerprint: table.fingerprints[i],
        payload: base[table.shard_ranges[i].clone()].to_vec(),
        plan,
    }
}

/// Runs the changed shards' plans through one pipeline execution and
/// returns their segments in plan order, with the grammars built. The
/// stages are deterministic and see exactly what they would see in a
/// full rebuild (the full build's own shard plans), so the segment
/// bytes match the full rebuild's.
fn rebuild_segments(plan: Plan, planned: Option<ServeOptions>) -> (Vec<Segment>, usize) {
    if plan.shards.is_empty() {
        return (Vec::new(), 0);
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
    let segments = model
        .shard_slice()
        .iter()
        .map(|shard| Segment {
            reorder: shard.reorder,
            grammar: shard.grammar,
            fingerprint: shard.fingerprint,
            payload: shard_payload(&shard.model, shard.col_order.as_deref()),
            plan: shard.plan().map(plan_blobs),
        })
        .collect();
    (segments, grammar_builds)
}

/// Writes the version-5 container from per-shard segments — the same
/// byte layout `container::to_bytes` produces for a grammar-stage
/// build, pinned against it by the byte-identity tests.
fn assemble(backend: Backend, rows: usize, cols: usize, segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION_GRAMMAR);
    out.push(backend.tag());
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, cols as u64);
    varint::write_u64(&mut out, segments.len() as u64);
    for seg in segments {
        out.push(reorder_tag(seg.reorder));
        let tag = grammar_tag(seg.grammar);
        out.push(tag);
        if tag != 0 {
            out.extend_from_slice(&seg.fingerprint.unwrap_or(0).to_le_bytes());
        }
        varint::write_u64(&mut out, seg.payload.len() as u64);
        out.extend_from_slice(&seg.payload);
    }
    for seg in segments {
        match &seg.plan {
            None => out.push(0),
            Some((kind, blobs)) => {
                out.push(*kind);
                varint::write_u64(&mut out, blobs.len() as u64);
                for blob in blobs {
                    varint::write_u64(&mut out, blob.len() as u64);
                    out.extend_from_slice(blob);
                }
            }
        }
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
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
    use gcm_core::Encoding;
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
            backend: Backend::Compressed,
            encoding: EncodingChoice::Fixed(Encoding::ReAns),
            grammar: Some(GrammarChoice::MrRePair),
            shards,
            blocks: 2,
            reorder: None,
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
        let config = grammar_config(4);
        for plans in [false, true] {
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
            backend: Backend::Blocked,
            encoding: EncodingChoice::Auto,
            grammar: Some(GrammarChoice::Auto),
            shards: 4,
            blocks: 2,
            reorder: Some(ReorderMode::PerShard(
                gcm_reorder::ReorderAlgorithm::PathCover,
            )),
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
        // Pre-v5 base: no fingerprints to match against.
        let legacy = build_full(
            &csrv,
            &BuildConfig {
                grammar: None,
                ..config
            },
            false,
        );
        let (bytes, report) = compress_incremental(&csrv, &config, &legacy).unwrap();
        assert_eq!(report.rebuilt(), 2);
        let reason = report.full_reason.expect("fallback must carry a reason");
        assert!(reason.contains("version"), "{reason}");
        assert_eq!(bytes, build_full(&csrv, &config, false));
        // Shard-count change.
        let base = build_full(&csrv, &config, false);
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
