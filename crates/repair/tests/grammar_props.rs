//! Property-based tests of the RePair grammar invariants:
//!
//! * compression is lossless (`expand` reproduces the input exactly)
//!   under every configuration (rule caps, min pair counts, protected
//!   separators);
//! * every rule index is in bounds and references only earlier symbols,
//!   and protected separators never enter a rule;
//! * the `stats` accounting is exact: `grammar_size`, `expanded_len`,
//!   `max_symbol`, and the compression factor all match what the grammar
//!   actually contains — and the **byte accounting** matches the actual
//!   serialised container size (`stored_bytes` is exact for `re_32` and
//!   the GCMMAT1 container adds only bounded framing);
//! * the MR-RePair stage (`compress_mr`) obeys the same contract: the
//!   variable-arity grammar expands back to the input exactly under
//!   every configuration, every rule has arity ≥ 2 (exactly 2 under
//!   `compress`) and references only earlier symbols, and the `re_32` byte accounting of an MR-built
//!   [`gcm_core::CompressedMatrix`] — binary pairs + `RuleExt` tails —
//!   is exact down to the varint tail-length bytes.

use proptest::prelude::*;

use gcm_repair::stats::{empirical_entropy, grammar_stats};
use gcm_repair::{RePair, RePairConfig, Slp};

/// Symbol streams in CSRV shape: terminals `1..alpha` with separator `0`
/// sprinkled in (weight 1 in 4).
fn csrv_like_stream() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        prop_oneof![
            1 => Just(0u32),
            3 => 1u32..14,
        ],
        0..400,
    )
}

fn configs() -> impl Strategy<Value = RePairConfig> {
    (0usize..40, 2u32..5).prop_map(|(max_rules, min_count)| RePairConfig {
        max_rules: if max_rules == 0 {
            None
        } else {
            Some(max_rules)
        },
        min_count,
    })
}

/// The compressor that built a grammar, which fixes its rule arity.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// `compress`: every rule is a pair.
    RePair,
    /// `compress_mr`: every rule has at least two symbols.
    MrRePair,
}

fn check_structure(slp: &Slp, stage: Stage, protected: Option<u32>) -> Result<(), TestCaseError> {
    prop_assert!(
        slp.check_invariants().is_ok(),
        "{:?}",
        slp.check_invariants()
    );
    let first_nt = slp.first_nonterminal();
    for k in 0..slp.num_rules() {
        let rhs = slp.rule(k);
        match stage {
            Stage::RePair => prop_assert!(rhs.len() == 2, "RePair rule {} is not a pair", k),
            Stage::MrRePair => prop_assert!(rhs.len() >= 2, "rule {} has arity < 2", k),
        }
        let own = first_nt as u64 + k as u64;
        for &s in rhs {
            prop_assert!(
                (s as u64) < own,
                "rule {} references symbol {} >= its own id",
                k,
                s
            );
        }
    }
    if let Some(sep) = protected {
        prop_assert!(slp.rules_avoid_terminal(sep));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn expansion_is_the_identity_under_any_config(
        symbols in csrv_like_stream(),
        config in configs(),
    ) {
        let slp = RePair::with_config(config).compress(&symbols, 100, Some(0));
        prop_assert_eq!(slp.expand(), symbols.clone());
        check_structure(&slp, Stage::RePair, Some(0))?;
        if let Some(cap) = config.max_rules {
            prop_assert!(slp.num_rules() <= cap, "rule cap violated");
        }
        // expanded_len agrees with the materialised expansion.
        prop_assert_eq!(slp.expanded_len(), symbols.len());
    }

    #[test]
    fn unprotected_streams_roundtrip_too(
        symbols in proptest::collection::vec(0u32..25, 0..300),
    ) {
        let slp = RePair::new().compress(&symbols, 50, None);
        prop_assert_eq!(slp.expand(), symbols);
        check_structure(&slp, Stage::RePair, None)?;
    }

    #[test]
    fn stats_accounting_is_exact(symbols in csrv_like_stream()) {
        let slp = RePair::new().compress(&symbols, 100, Some(0));
        let st = grammar_stats(&slp);
        prop_assert_eq!(st.rules, slp.num_rules());
        prop_assert_eq!(st.sequence_len, slp.sequence().len());
        prop_assert_eq!(st.grammar_size, 2 * slp.num_rules() + slp.sequence().len());
        prop_assert_eq!(st.expanded_len, symbols.len());
        prop_assert_eq!(st.max_symbol, slp.max_symbol());
        if st.grammar_size > 0 {
            let expect = st.expanded_len as f64 / st.grammar_size as f64;
            prop_assert!((st.factor - expect).abs() < 1e-12);
        }
        // Entropy sanity: H_1 <= H_0, and both are finite.
        let h0 = empirical_entropy(&symbols, 0);
        let h1 = empirical_entropy(&symbols, 1);
        prop_assert!(h0.is_finite() && h1.is_finite());
        prop_assert!(h1 <= h0 + 1e-9);
    }

    /// The byte accounting must match what actually lands on disk: for
    /// `re_32`, `stored_bytes` is exactly `4·(2|R| + |C|) + 8·|V|`, and
    /// the GCMMAT1 container equals it plus only its small framing
    /// (magic, tag, dimension varints, length prefixes).
    #[test]
    fn stored_bytes_match_actual_serialised_size(
        (rows, cols) in (1usize..12, 1usize..8),
    ) {
        use gcm_core::{serial, CompressedMatrix, Encoding};
        use gcm_matrix::{CsrvMatrix, DenseMatrix};
        let mut dense = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * cols + c) % 3 != 0 {
                    dense.set(r, c, (((r + c) % 4) + 1) as f64);
                }
            }
        }
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let st = grammar_stats(
                &RePair::new().compress(csrv.symbols(), csrv.terminal_limit(), Some(0)),
            );
            if enc == Encoding::Re32 {
                // re_32 byte accounting must be exact.
                prop_assert_eq!(cm.stored_bytes(), 4 * st.grammar_size + 8 * cm.values().len());
            }
            let bytes = serial::to_bytes(&cm);
            prop_assert!(
                bytes.len() >= cm.stored_bytes(),
                "{}: container smaller than its accounted payload",
                enc.name()
            );
            prop_assert!(
                bytes.len() <= cm.stored_bytes() + 96,
                "{}: container framing exceeded 96 bytes ({} vs {})",
                enc.name(),
                bytes.len(),
                cm.stored_bytes()
            );
        }
    }

    #[test]
    fn mr_expansion_is_the_identity_under_any_config(
        symbols in csrv_like_stream(),
        config in configs(),
    ) {
        let mr = RePair::with_config(config).compress_mr(&symbols, 100, Some(0));
        prop_assert_eq!(mr.expand(), symbols.clone());
        check_structure(&mr, Stage::MrRePair, Some(0))?;
        prop_assert_eq!(mr.expanded_len(), symbols.len());
        if let Some(cap) = config.max_rules {
            prop_assert!(mr.num_rules() <= cap, "rule cap violated");
        }
    }

    #[test]
    fn mr_unprotected_streams_roundtrip_too(
        symbols in proptest::collection::vec(0u32..25, 0..300),
    ) {
        let mr = RePair::new().compress_mr(&symbols, 50, None);
        prop_assert_eq!(mr.expand(), symbols);
        check_structure(&mr, Stage::MrRePair, None)?;
    }

    /// MR byte accounting down to the last varint: a `re_32` matrix
    /// built from an MR grammar stores the binary pairs and sequence as
    /// raw u32, values as f64, and the tails in a `RuleExt` whose size
    /// is recomputed here **independently** from the grammar's rule
    /// arities.
    #[test]
    fn mr_stored_bytes_match_actual_serialised_size(
        (rows, cols) in (1usize..12, 1usize..8),
    ) {
        use gcm_core::{serial, CompressedMatrix, Encoding};
        use gcm_matrix::{CsrvMatrix, DenseMatrix};
        fn varint_len(mut v: u64) -> usize {
            let mut n = 1;
            while v >= 0x80 {
                v >>= 7;
                n += 1;
            }
            n
        }
        let mut dense = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * cols + c) % 3 != 0 {
                    dense.set(r, c, (((r + c) % 4) + 1) as f64);
                }
            }
        }
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let mr = RePair::new().compress_mr(csrv.symbols(), csrv.terminal_limit(), Some(0));
        let q = mr.num_rules();
        let wide: Vec<usize> = (0..q).filter(|&k| mr.rule(k).len() > 2).collect();
        let tail_total: usize = wide.iter().map(|&k| mr.rule(k).len() - 2).sum();
        let tail_len_bytes: usize = wide
            .iter()
            .map(|&k| varint_len((mr.rule(k).len() - 2) as u64))
            .sum();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::from_slp(&csrv, &mr, enc);
            prop_assert_eq!(cm.num_rules(), q);
            // Plan lowering turns each arity-p rule into p-1 chained
            // binary rules: q + total tail symbols, exactly.
            prop_assert_eq!(cm.lowered_rules(), q + tail_total);
            if enc == Encoding::Re32 {
                let ext_bytes = if wide.is_empty() {
                    0
                } else {
                    wide.len() * 4 + tail_len_bytes + tail_total * 4
                };
                prop_assert_eq!(
                    cm.stored_bytes(),
                    4 * (2 * q + mr.sequence().len()) + 8 * cm.values().len() + ext_bytes
                );
            }
            let bytes = serial::to_bytes(&cm);
            prop_assert!(
                bytes.len() >= cm.stored_bytes(),
                "{}: container smaller than its accounted payload",
                enc.name()
            );
            prop_assert!(
                bytes.len() <= cm.stored_bytes() + 96,
                "{}: container framing exceeded 96 bytes ({} vs {})",
                enc.name(),
                bytes.len(),
                cm.stored_bytes()
            );
        }
    }
}
