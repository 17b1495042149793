//! Straight-line programs: the output of grammar compression.

use gcm_encodings::HeapSize;

/// A straight-line program over a `u32` terminal alphabet — the grammar
/// both RePair (every rule a pair) and MR-RePair (Furuya et al., 2019:
/// rules may be wider) produce.
///
/// * Terminals are the symbols `< first_nt`.
/// * Rule `k` defines nonterminal `first_nt + k` and rewrites to the
///   symbol run `rule_syms[rule_ptr[k]..rule_ptr[k+1]]` (length ≥ 2);
///   each symbol is a terminal or an *earlier* nonterminal, so a single
///   forward pass evaluates all rules (Thm 3.4).
/// * `sequence` is the final string `C`. With RePair it may freely mix
///   terminals and nonterminals (§4: "RePair's final string is usually
///   longer and may even include terminals").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slp {
    first_nt: u32,
    rule_ptr: Vec<u32>,
    rule_syms: Vec<u32>,
    sequence: Vec<u32>,
}

impl Slp {
    /// Assembles an SLP from CSR parts.
    ///
    /// # Panics
    /// Panics if `rule_ptr` is not a monotone CSR index starting at 0 and
    /// ending at `rule_syms.len()`, if any rule is shorter than 2
    /// symbols, if any rule references a symbol at or above its own id,
    /// or if ids overflow `u32`.
    pub fn new(first_nt: u32, rule_ptr: Vec<u32>, rule_syms: Vec<u32>, sequence: Vec<u32>) -> Self {
        assert!(!rule_ptr.is_empty(), "rule_ptr needs a leading 0");
        assert_eq!(rule_ptr[0], 0, "rule_ptr must start at 0");
        assert_eq!(
            *rule_ptr.last().unwrap() as usize,
            rule_syms.len(),
            "rule_ptr must end at rule_syms.len()"
        );
        let num_rules = rule_ptr.len() - 1;
        let limit = first_nt as u64 + num_rules as u64;
        assert!(limit <= u32::MAX as u64, "nonterminal ids overflow u32");
        for k in 0..num_rules {
            let (lo, hi) = (rule_ptr[k] as usize, rule_ptr[k + 1] as usize);
            assert!(hi >= lo + 2, "rule {k} has fewer than 2 symbols");
            let own = first_nt + k as u32;
            for &s in &rule_syms[lo..hi] {
                assert!(s < own, "rule {k} references a later symbol");
            }
        }
        for &s in &sequence {
            assert!(
                (s as u64) < limit,
                "sequence references undefined symbol {s}"
            );
        }
        Self {
            first_nt,
            rule_ptr,
            rule_syms,
            sequence,
        }
    }

    /// First nonterminal id (= exclusive upper bound of the terminals).
    #[inline]
    pub fn first_nonterminal(&self) -> u32 {
        self.first_nt
    }

    /// Number of rules `|R|`.
    #[inline]
    pub fn num_rules(&self) -> usize {
        self.rule_ptr.len() - 1
    }

    /// The right-hand side of rule `k` (length ≥ 2).
    #[inline]
    pub fn rule(&self, k: usize) -> &[u32] {
        &self.rule_syms[self.rule_ptr[k] as usize..self.rule_ptr[k + 1] as usize]
    }

    /// The CSR rule pointer (`num_rules + 1` entries).
    #[inline]
    pub fn rule_ptr(&self) -> &[u32] {
        &self.rule_ptr
    }

    /// The concatenated rule right-hand sides.
    #[inline]
    pub fn rule_syms(&self) -> &[u32] {
        &self.rule_syms
    }

    /// The final string `C`.
    #[inline]
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Largest symbol id in use.
    pub fn max_symbol(&self) -> u32 {
        if self.num_rules() == 0 {
            self.sequence.iter().copied().max().unwrap_or(0)
        } else {
            self.first_nt + self.num_rules() as u32 - 1
        }
    }

    /// The paper's grammar size measure: total length of rule right-hand
    /// sides plus the final string.
    pub fn grammar_size(&self) -> usize {
        self.rule_syms.len() + self.sequence.len()
    }

    /// Appends the expansion of `symbol` to `out` (iterative, stack-safe).
    pub fn expand_symbol_into(&self, symbol: u32, out: &mut Vec<u32>) {
        let mut stack = vec![symbol];
        while let Some(s) = stack.pop() {
            if s < self.first_nt {
                out.push(s);
            } else {
                let rhs = self.rule((s - self.first_nt) as usize);
                stack.extend(rhs.iter().rev());
            }
        }
    }

    /// Full expansion of the final string — the original input sequence.
    pub fn expand(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.expanded_len());
        for &s in &self.sequence {
            self.expand_symbol_into(s, &mut out);
        }
        out
    }

    /// Length of every nonterminal's expansion (forward DP).
    pub fn expansion_lengths(&self) -> Vec<u64> {
        let mut lens = Vec::with_capacity(self.num_rules());
        for k in 0..self.num_rules() {
            let total: u64 = self
                .rule(k)
                .iter()
                .map(|&s| {
                    if s < self.first_nt {
                        1
                    } else {
                        lens[(s - self.first_nt) as usize]
                    }
                })
                .sum();
            lens.push(total);
        }
        lens
    }

    /// Length of the full expansion without materialising it.
    pub fn expanded_len(&self) -> usize {
        let lens = self.expansion_lengths();
        self.sequence
            .iter()
            .map(|&s| {
                if s < self.first_nt {
                    1u64
                } else {
                    lens[(s - self.first_nt) as usize]
                }
            })
            .sum::<u64>() as usize
    }

    /// Checks structural invariants, returning a violation if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let limit = self.first_nt as u64 + self.num_rules() as u64;
        for k in 0..self.num_rules() {
            if self.rule(k).len() < 2 {
                return Err(format!("rule {k} shorter than 2 symbols"));
            }
            let own = self.first_nt as u64 + k as u64;
            for &s in self.rule(k) {
                if s as u64 >= own {
                    return Err(format!("rule {k} references symbol >= its own id"));
                }
            }
        }
        for &s in &self.sequence {
            if s as u64 >= limit {
                return Err(format!("sequence symbol {s} out of range"));
            }
        }
        Ok(())
    }

    /// Checks that no rule contains `forbidden` (§3's `$` protection).
    pub fn rules_avoid_terminal(&self, forbidden: u32) -> bool {
        self.rule_syms.iter().all(|&s| s != forbidden)
    }
}

impl HeapSize for Slp {
    fn heap_bytes(&self) -> usize {
        self.rule_ptr.heap_bytes() + self.rule_syms.heap_bytes() + self.sequence.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An SLP whose every rule is the pair `rules[k]`, as RePair builds.
    fn binary(first_nt: u32, rules: &[(u32, u32)], sequence: Vec<u32>) -> Slp {
        let rule_ptr = (0..=rules.len() as u32).map(|k| 2 * k).collect();
        let rule_syms = rules.iter().flat_map(|&(a, b)| [a, b]).collect();
        Slp::new(first_nt, rule_ptr, rule_syms, sequence)
    }

    /// The grammar of Figure 2 of the paper (0 = `$`; terminals are mapped
    /// to small ids for readability).
    ///
    /// Terminal key: `<3,3>`=1 `<5,4>`=2 `<1,1>`=3 `<4,2>`=4 `<3,1>`=5
    /// `<6,3>`=6 `<3,5>`=7 `<2,5>`=8 `<4,1>`=9 `<4,5>`=10.
    fn fig2() -> Slp {
        let first_nt = 11;
        // N1..N9 -> ids 11..19
        let rules = [
            (1, 2),   // N1 -> <3,3> <5,4>
            (3, 4),   // N2 -> <1,1> <4,2>
            (5, 11),  // N3 -> <3,1> N1
            (6, 7),   // N4 -> <6,3> <3,5>
            (12, 14), // N5 -> N2 N4
            (13, 8),  // N6 -> N3 <2,5>
            (12, 11), // N7 -> N2 N1
            (9, 14),  // N8 -> <4,1> N4
            (17, 10), // N9 -> N7 <4,5>
        ];
        let sequence = vec![15, 0, 16, 0, 17, 0, 18, 0, 13, 0, 19, 0];
        binary(first_nt, &rules, sequence)
    }

    #[test]
    fn fig2_expansion_matches_fig1() {
        let slp = fig2();
        // Expected S from Figure 1, in the same terminal key.
        let expected = vec![
            3, 4, 6, 7, 0, // row 1: <1,1><4,2><6,3><3,5> $
            5, 1, 2, 8, 0, // row 2: <3,1><3,3><5,4><2,5> $
            3, 4, 1, 2, 0, // row 3: <1,1><4,2><3,3><5,4> $
            9, 6, 7, 0, // row 4: <4,1><6,3><3,5> $
            5, 1, 2, 0, // row 5: <3,1><3,3><5,4> $
            3, 4, 1, 2, 10, 0, // row 6: <1,1><4,2><3,3><5,4><4,5> $
        ];
        assert_eq!(slp.expand(), expected);
        assert_eq!(slp.expanded_len(), expected.len());
    }

    #[test]
    fn fig2_stats() {
        let slp = fig2();
        assert_eq!(slp.num_rules(), 9);
        assert_eq!(slp.grammar_size(), 2 * 9 + 12);
        assert_eq!(slp.max_symbol(), 19);
        assert!(slp.rules_avoid_terminal(0));
        assert!(slp.check_invariants().is_ok());
    }

    #[test]
    fn expansion_lengths_forward_pass() {
        let slp = fig2();
        let lens = slp.expansion_lengths();
        assert_eq!(lens[0], 2); // N1
        assert_eq!(lens[4], 4); // N5 = N2 N4
        assert_eq!(lens[8], 5); // N9 = N7 <4,5>
    }

    #[test]
    fn expand_single_terminal() {
        let slp = binary(5, &[], vec![3, 1, 0]);
        assert_eq!(slp.expand(), vec![3, 1, 0]);
        let mut out = Vec::new();
        slp.expand_symbol_into(4, &mut out);
        assert_eq!(out, vec![4]);
    }

    #[test]
    #[should_panic(expected = "references a later symbol")]
    fn forward_reference_rejected() {
        // Rule 0 (id 10) references id 11 (rule 1): invalid.
        binary(10, &[(11, 0), (1, 2)], vec![10]);
    }

    #[test]
    #[should_panic(expected = "undefined symbol")]
    fn sequence_out_of_range_rejected() {
        binary(4, &[(0, 1)], vec![9]);
    }

    #[test]
    fn mr_slp_expands_variable_arity_rules() {
        // N0 = 1 2 3 4, N1 = N0 5 N0 : expansion nests wide rules.
        let mr = Slp::new(
            10,
            vec![0, 4, 7],
            vec![1, 2, 3, 4, 10, 5, 10],
            vec![11, 0, 11, 0],
        );
        assert_eq!(mr.num_rules(), 2);
        assert_eq!(mr.rule(0), &[1, 2, 3, 4]);
        assert_eq!(mr.rule(1), &[10, 5, 10]);
        assert_eq!(mr.grammar_size(), 7 + 4);
        assert_eq!(mr.max_symbol(), 11);
        let row = [1, 2, 3, 4, 5, 1, 2, 3, 4];
        let mut expected = Vec::new();
        expected.extend_from_slice(&row);
        expected.push(0);
        expected.extend_from_slice(&row);
        expected.push(0);
        assert_eq!(mr.expand(), expected);
        assert_eq!(mr.expanded_len(), expected.len());
        assert_eq!(mr.expansion_lengths(), vec![4, 9]);
        assert!(mr.check_invariants().is_ok());
        assert!(mr.rules_avoid_terminal(0));
    }

    #[test]
    #[should_panic(expected = "fewer than 2 symbols")]
    fn mr_slp_rejects_unary_rules() {
        Slp::new(4, vec![0, 1], vec![1], vec![4]);
    }

    #[test]
    #[should_panic(expected = "references a later symbol")]
    fn mr_slp_rejects_forward_references() {
        Slp::new(4, vec![0, 2, 4], vec![1, 5, 1, 2], vec![4]);
    }

    #[test]
    fn deep_grammar_expands_iteratively() {
        // A left-leaning chain 20k deep: recursive expansion would blow the
        // stack.
        let first_nt = 2;
        let mut rules = vec![(0u32, 1u32)];
        for k in 1..20_000u32 {
            rules.push((first_nt + k - 1, 1));
        }
        let seq = vec![first_nt + 19_999];
        let slp = binary(first_nt, &rules, seq);
        let expansion = slp.expand();
        assert_eq!(expansion.len(), 20_001);
        assert_eq!(expansion[0], 0);
        assert!(expansion[1..].iter().all(|&s| s == 1));
    }
}
