//! Grammar and sequence statistics: empirical entropy and grammar metrics.
//!
//! The paper's key theoretical claim is that RePair's output is bounded by
//! `|S|·H_k(S) + o(|S|·H_k(S))` bits. These helpers compute `H_0` and `H_k`
//! of a `u32` sequence so the benches can put measured sizes next to the
//! entropy bound (the `ablation` harness).

use gcm_encodings::fxhash::FxHashMap;

use crate::slp::Slp;

/// Order-0 empirical entropy of `seq` in bits per symbol.
pub fn empirical_entropy_order0(seq: &[u32]) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
    for &s in seq {
        *counts.entry(s).or_insert(0) += 1;
    }
    let n = seq.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Order-`k` empirical entropy of `seq` in bits per symbol.
///
/// `H_k` conditions each symbol on its `k` preceding symbols:
/// `H_k(S) = (1/n) Σ_w |S_w| H_0(S_w)` over all length-`k` contexts `w`.
/// `H_0 = H_k` for `k = 0`; `H_k` is non-increasing in `k`.
pub fn empirical_entropy(seq: &[u32], k: usize) -> f64 {
    if k == 0 {
        return empirical_entropy_order0(seq);
    }
    if seq.len() <= k {
        return 0.0;
    }
    // Group successor counts per context. Contexts are hashed to u64; for
    // the matrices in the paper (alphabets << 2^32, k <= 4) collisions are
    // practically impossible with a 64-bit mix, and the estimate is only
    // used for reporting.
    let mut contexts: FxHashMap<u64, FxHashMap<u32, u64>> = FxHashMap::default();
    let ctx_hash = |window: &[u32]| -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in window {
            h ^= s as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    };
    for i in k..seq.len() {
        let ctx = ctx_hash(&seq[i - k..i]);
        *contexts.entry(ctx).or_default().entry(seq[i]).or_insert(0) += 1;
    }
    let n = (seq.len() - k) as f64;
    let mut total_bits = 0.0;
    for succ in contexts.values() {
        let m: u64 = succ.values().sum();
        let mf = m as f64;
        let h0: f64 = succ
            .values()
            .map(|&c| {
                let p = c as f64 / mf;
                -p * p.log2()
            })
            .sum();
        total_bits += mf * h0;
    }
    total_bits / n
}

/// Summary statistics of a grammar, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrammarStats {
    /// Number of rules `|R|`.
    pub rules: usize,
    /// Length of the final string `|C|`.
    pub sequence_len: usize,
    /// Total rule right-hand-side length plus `|C|` (`2|R| + |C|` for
    /// RePair), the paper's grammar size.
    pub grammar_size: usize,
    /// Length of the expanded (original) sequence.
    pub expanded_len: usize,
    /// Largest symbol id (drives the `re_iv` bit width).
    pub max_symbol: u32,
    /// Compression factor `expanded_len / grammar_size`.
    pub factor: f64,
}

/// Computes [`GrammarStats`] for an SLP.
pub fn grammar_stats(slp: &Slp) -> GrammarStats {
    let expanded_len = slp.expanded_len();
    let grammar_size = slp.grammar_size();
    GrammarStats {
        rules: slp.num_rules(),
        sequence_len: slp.sequence().len(),
        grammar_size,
        expanded_len,
        max_symbol: slp.max_symbol(),
        factor: if grammar_size == 0 {
            1.0
        } else {
            expanded_len as f64 / grammar_size as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::RePair;

    #[test]
    fn h0_uniform_is_log_alphabet() {
        let seq: Vec<u32> = (0..1024).map(|i| i % 16).collect();
        let h = empirical_entropy_order0(&seq);
        assert!((h - 4.0).abs() < 1e-9);
    }

    #[test]
    fn h0_constant_is_zero() {
        let seq = vec![7u32; 100];
        assert_eq!(empirical_entropy_order0(&seq), 0.0);
    }

    #[test]
    fn hk_non_increasing_in_k() {
        let mut x = 1u64;
        let seq: Vec<u32> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 60) % 4) as u32
            })
            .collect();
        let h0 = empirical_entropy(&seq, 0);
        let h1 = empirical_entropy(&seq, 1);
        let h2 = empirical_entropy(&seq, 2);
        assert!(h1 <= h0 + 1e-9);
        assert!(h2 <= h1 + 1e-9);
    }

    #[test]
    fn deterministic_successor_has_zero_h1() {
        // abcabcabc...: given the previous symbol, the next is certain.
        let seq: Vec<u32> = (0..3000).map(|i| i % 3).collect();
        assert!(empirical_entropy(&seq, 1) < 1e-9);
        assert!(empirical_entropy_order0(&seq) > 1.5);
    }

    #[test]
    fn empty_and_short_sequences() {
        assert_eq!(empirical_entropy(&[], 0), 0.0);
        assert_eq!(empirical_entropy(&[1, 2], 5), 0.0);
    }

    #[test]
    fn grammar_stats_consistency() {
        let input: Vec<u32> = (0..256).map(|i| (i % 4) as u32).collect();
        let slp = RePair::new().compress(&input, 100, None);
        let st = grammar_stats(&slp);
        assert_eq!(st.expanded_len, 256);
        assert_eq!(st.grammar_size, 2 * st.rules + st.sequence_len);
        assert!(st.factor > 1.0);
    }

    #[test]
    fn repair_output_tracks_entropy_ordering() {
        // A low-H1 sequence should compress much better than a high-H1 one
        // of the same length and alphabet.
        let periodic: Vec<u32> = (0..4096).map(|i| i % 8).collect();
        let mut x = 99u64;
        let random: Vec<u32> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 59) % 8) as u32
            })
            .collect();
        let g_periodic = RePair::new().compress(&periodic, 100, None).grammar_size();
        let g_random = RePair::new().compress(&random, 100, None).grammar_size();
        assert!(
            g_periodic * 4 < g_random,
            "periodic {g_periodic} vs random {g_random}"
        );
    }
}
