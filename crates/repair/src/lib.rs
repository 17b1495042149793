//! RePair grammar compression over `u32` sequences (§3–§4 of the paper).
//!
//! RePair (Larsson & Moffat, 2000) repeatedly replaces the most frequent
//! pair of adjacent symbols `AB` with a fresh nonterminal `N`, appending the
//! rule `N → AB`, until no pair occurs twice. The result is a straight-line
//! program ([`Slp`]): a set of rules plus a final string `C` whose
//! expansion reproduces the input exactly. Every RePair rule is a pair;
//! MR-RePair ([`RePair::compress_mr`], Furuya et al., 2019) returns the
//! same type with rules that may hold more than two symbols.
//!
//! Two properties matter for the paper:
//!
//! * **Protected separators.** The compressor never forms a rule containing
//!   the row separator `$`, so every nonterminal expands to a sequence of
//!   `⟨value, column⟩` pairs from a single row — the invariant both
//!   multiplication kernels rely on (§3).
//! * **Entropy bound.** RePair is an irreducible-grammar compressor, so its
//!   output is bounded by `|S|·H_k(S) + o(|S|·H_k(S))` bits (Ochoa &
//!   Navarro, 2019); [`stats::empirical_entropy`] lets the benches check the
//!   measured sizes against that bound.

pub mod compressor;
pub mod slp;
pub mod stats;

pub use compressor::{
    grammar_builds, AutoGrammars, GrammarContinuation, RePair, RePairConfig, RePairScratch,
};
pub use slp::Slp;
