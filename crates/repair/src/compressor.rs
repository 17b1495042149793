//! The RePair compressor (Larsson & Moffat, 2000), adapted per §3 so that a
//! protected separator symbol never enters a rule.
//!
//! Implementation notes (the classic linear-time machinery):
//!
//! * the working sequence keeps holes where right-hand symbols were
//!   consumed; maximal runs of holes store their two boundary positions in
//!   a `jump` array, so neighbour lookup is O(1);
//! * every *counted* occurrence of a pair is threaded into a doubly-linked
//!   list (`onext`/`oprev` indexed by the position of the pair's left
//!   symbol), with the list head and an exact count in the pair's record;
//! * pair records live in a slab behind a hash map, and the pairs that
//!   meet `min_count` sit in an addressable max-heap of slab ids ordered
//!   by `(count, packed key)`: every count change sifts its pair in place
//!   and each round takes the root — the same pair a lazy-deletion heap
//!   would pop, without its per-increment entries and stale requeues;
//! * self-overlapping runs (`AAAA`) are counted left-to-right without
//!   overlap, and every replacement re-validates the underlying symbols, so
//!   stale occurrences are skipped rather than corrupting the output. In
//!   rare self-overlap corner cases a rule may end up used once — harmless
//!   for correctness, negligible for compression.
//!
//! # One round loop, three constructions
//!
//! RePair, MR-RePair and the shared construction behind
//! [`RePair::compress_auto_with_scratch`] all drive the same round loop
//! (`Run::rounds`): take the best pair, replace every occurrence with a
//! fresh nonterminal, record the rule. MR-RePair adds one step per
//! round — while every occurrence of the fresh nonterminal is followed
//! (then: preceded) by one same symbol, absorb that symbol into the rule.
//!
//! Until that step first succeeds, MR-RePair *is* RePair: every rule so
//! far is a pair, so both number the next nonterminal alike, the queue
//! (fed the same counts) picks the same pair, and recording the
//! substitution positions leaves the state as plain replacement does.
//! So when the extension test (`count(X, c) == replaced`, right side
//! first, then left) first passes for rule `X`, the state just after
//! replacing `X`'s pair is exactly RePair's state after that round. The
//! shared construction runs RePair's rounds up to that point, clones the
//! state there, closes `X` as a pair on the clone (RePair's
//! continuation) and extends `X` on the original (MR-RePair's
//! continuation). Each continuation then finishes on its own and yields
//! the grammar its standalone compressor would. If the test never
//! passes, the shared rounds ran until no pair repeats often enough or
//! the rule cap binds; the state is cloned all the same, and both
//! continuations stop at once with the same rules.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicUsize, Ordering};

use gcm_encodings::fxhash::FxHashMap;

use crate::slp::Slp;

/// Process-wide count of grammar constructions (RePair or MR-RePair; the
/// shared construction of both counts two).
///
/// The incremental-rebuild path promises to re-run exactly the changed
/// shards' grammar stages; like `gcm_core::plan_compiles()`, this counter
/// lets tests assert that promise instead of trusting it.
static GRAMMAR_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// Number of grammar compressions performed by this process so far.
pub fn grammar_builds() -> usize {
    GRAMMAR_BUILDS.load(Ordering::Relaxed)
}

/// Marks a hole in the working sequence.
const EMPTY: u32 = u32::MAX;
/// Null link in the occurrence lists.
const NONE: u32 = u32::MAX;

/// Configuration for [`RePair`].
#[derive(Debug, Clone, Copy)]
pub struct RePairConfig {
    /// Stop after this many rules (`None` = until no pair repeats).
    pub max_rules: Option<usize>,
    /// Only replace pairs occurring at least this often (min 2).
    pub min_count: u32,
}

impl Default for RePairConfig {
    fn default() -> Self {
        Self {
            max_rules: None,
            min_count: 2,
        }
    }
}

/// The RePair grammar compressor.
#[derive(Debug, Clone, Default)]
pub struct RePair {
    config: RePairConfig,
}

/// Reusable working storage for [`RePair::compress_with_scratch`].
///
/// One compression allocates five length-`n` arrays, the pair queue (a
/// slab of pair records, its id map and free list, and a heap of slab
/// ids) and an occurrence buffer; a build pipeline compressing many
/// shards back to back (or many blocks inside one shard) would pay that
/// allocation churn per block and thrash the allocator from every pool
/// worker at once. A scratch arena keeps the buffers alive between
/// compressions: the first call grows them, later calls reuse the
/// capacity. A `Default`-fresh scratch is always valid, so the arena is
/// purely an optimisation.
#[derive(Debug, Default)]
pub struct RePairScratch {
    sym: Vec<u32>,
    jump: Vec<u32>,
    onext: Vec<u32>,
    oprev: Vec<u32>,
    in_list: Vec<bool>,
    queue: PairQueue,
    occ: Vec<u32>,
}

impl RePairScratch {
    /// An empty scratch arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently retained by the arena's buffers (diagnostic;
    /// lets tests assert that repeated compressions stop growing it).
    pub fn retained_bytes(&self) -> usize {
        self.sym.capacity() * 4
            + self.jump.capacity() * 4
            + self.onext.capacity() * 4
            + self.oprev.capacity() * 4
            + self.in_list.capacity()
            + self.queue.retained_bytes()
            + self.occ.capacity() * 4
    }
}

/// One pair's record in the [`PairQueue`] slab.
#[derive(Debug, Clone, Copy)]
struct PairRec {
    key: u64,
    count: u32,
    /// First position of the occurrence list (`NONE` when empty; 0 is a
    /// valid position).
    head: u32,
    /// Index in the heap, `NONE` while `count < min_count`.
    hpos: u32,
}

/// The pair table and its priority queue.
///
/// Records live in a slab addressed through `ids`, and freed slots are
/// reused through `free`. `heap` is an addressable binary max-heap of
/// slab ids ordered by `(count, key)` that holds exactly the live pairs
/// with `count >= min_count`; every count change sifts its pair in
/// place, so the root is always the largest live `(count, key)`.
#[derive(Debug, Clone, Default)]
struct PairQueue {
    slab: Vec<PairRec>,
    ids: FxHashMap<u64, u32>,
    free: Vec<u32>,
    heap: Vec<u32>,
    min_count: u32,
}

impl PairQueue {
    /// Empties the queue, keeping its capacity, for a compression that
    /// only replaces pairs occurring at least `min_count` (≥ 2) times.
    fn reset(&mut self, min_count: u32) {
        debug_assert!(min_count >= 2);
        self.slab.clear();
        self.ids.clear();
        self.free.clear();
        self.heap.clear();
        self.min_count = min_count;
    }

    fn retained_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<PairRec>()
            + self.ids.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.free.capacity() * 4
            + self.heap.capacity() * 4
    }

    /// Slab id of pair `key`, if it is live.
    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        self.ids.get(&key).copied()
    }

    /// Slab id of pair `key`, creating an empty record if it is not live.
    #[inline]
    fn get_or_insert(&mut self, key: u64) -> u32 {
        match self.ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let rec = PairRec {
                    key,
                    count: 0,
                    head: NONE,
                    hpos: NONE,
                };
                let id = match self.free.pop() {
                    Some(id) => {
                        self.slab[id as usize] = rec;
                        id
                    }
                    None => {
                        self.slab.push(rec);
                        (self.slab.len() - 1) as u32
                    }
                };
                *e.insert(id)
            }
        }
    }

    /// Counts one more occurrence of pair `id`.
    #[inline]
    fn increment(&mut self, id: u32) {
        let rec = &mut self.slab[id as usize];
        rec.count += 1;
        if rec.count == self.min_count {
            rec.hpos = self.heap.len() as u32;
            self.heap.push(id);
        }
        if rec.count >= self.min_count {
            self.sift_up(id);
        }
    }

    /// Counts one fewer occurrence of pair `id`, dropping the record once
    /// no occurrence is left.
    #[inline]
    fn decrement(&mut self, id: u32) {
        let rec = &mut self.slab[id as usize];
        debug_assert!(rec.count > 0);
        rec.count -= 1;
        let count = rec.count;
        if count == 0 {
            let key = rec.key;
            self.ids.remove(&key);
            self.free.push(id);
        } else if count + 1 == self.min_count {
            self.heap_remove(id);
        } else if count >= self.min_count {
            self.sift_down(id);
        }
    }

    /// Removes pair `key` from the table and the heap, returning its
    /// record (`None` if it is not live).
    fn detach(&mut self, key: u64) -> Option<PairRec> {
        let id = self.ids.remove(&key)?;
        let rec = self.slab[id as usize];
        if rec.hpos != NONE {
            self.heap_remove(id);
        }
        self.free.push(id);
        Some(rec)
    }

    /// Key of the largest live `(count, key)` with `count >= min_count`.
    #[inline]
    fn best(&self) -> Option<u64> {
        self.heap.first().map(|&id| self.slab[id as usize].key)
    }

    #[inline]
    fn prio(&self, id: u32) -> (u32, u64) {
        let rec = &self.slab[id as usize];
        (rec.count, rec.key)
    }

    #[inline]
    fn place(&mut self, pos: usize, id: u32) {
        self.heap[pos] = id;
        self.slab[id as usize].hpos = pos as u32;
    }

    fn heap_remove(&mut self, id: u32) {
        let pos = self.slab[id as usize].hpos as usize;
        self.slab[id as usize].hpos = NONE;
        let last = self.heap.pop().expect("pair is queued");
        if last != id {
            // The former last leaf may belong above or below `pos`.
            self.place(pos, last);
            self.sift_up(last);
            self.sift_down(last);
        }
    }

    /// Moves queued pair `id` up while it outranks its parent.
    fn sift_up(&mut self, id: u32) {
        let prio = self.prio(id);
        let mut pos = self.slab[id as usize].hpos as usize;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let pid = self.heap[parent];
            if self.prio(pid) > prio {
                break;
            }
            self.place(pos, pid);
            pos = parent;
        }
        self.place(pos, id);
    }

    /// Moves queued pair `id` down while a child outranks it.
    fn sift_down(&mut self, id: u32) {
        let prio = self.prio(id);
        let mut pos = self.slab[id as usize].hpos as usize;
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            let mut cprio = self.prio(self.heap[child]);
            if child + 1 < n {
                let rprio = self.prio(self.heap[child + 1]);
                if rprio > cprio {
                    child += 1;
                    cprio = rprio;
                }
            }
            if cprio < prio {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, id);
    }

    /// Asserts the queue's invariants: every record is filed under its
    /// own key, every live pair with `count >= min_count` sits in the heap
    /// exactly once at its `hpos` and no other pair does, the heap
    /// property holds, and no slab slot is leaked.
    #[cfg(test)]
    fn assert_invariants(&self) {
        let mut queued = 0;
        for (&key, &id) in &self.ids {
            let rec = &self.slab[id as usize];
            assert_eq!(rec.key, key, "record filed under a foreign key");
            assert!(rec.count > 0, "live pair without occurrences");
            if rec.count >= self.min_count {
                queued += 1;
                assert_eq!(self.heap.get(rec.hpos as usize), Some(&id), "bad hpos");
            } else {
                assert_eq!(rec.hpos, NONE, "pair below min_count is queued");
            }
        }
        assert_eq!(self.heap.len(), queued, "heap holds a pair twice");
        assert_eq!(
            self.ids.len() + self.free.len(),
            self.slab.len(),
            "slot leaked"
        );
        for (pos, &id) in self.heap.iter().enumerate().skip(1) {
            let parent = self.heap[(pos - 1) / 2];
            assert!(
                self.prio(parent) > self.prio(id),
                "heap order broken at {pos}"
            );
        }
    }
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// The working sequence and pair table of one construction. Cloning it
/// (the shared construction's fork) copies every buffer, the test-only
/// lazy-heap oracle included.
#[derive(Debug, Clone)]
struct State {
    sym: Vec<u32>,
    /// Boundary pointers of hole runs (valid only at run boundaries).
    jump: Vec<u32>,
    onext: Vec<u32>,
    oprev: Vec<u32>,
    in_list: Vec<bool>,
    pairs: PairQueue,
    /// Occurrence snapshot of the pair being replaced.
    occ: Vec<u32>,
    protected: Option<u32>,
    /// Oracle for the queue: the classic lazy-deletion max-heap, fed an
    /// entry on every count increase. Each round asserts that its pick
    /// equals the queue's.
    #[cfg(test)]
    shadow: std::collections::BinaryHeap<(u32, u64)>,
}

impl State {
    /// Builds the working state from `scratch`'s buffers (taking them out
    /// of the arena; [`State::finish`] hands them back). Buffer *contents*
    /// are fully reinitialised here, so reuse never leaks state between
    /// compressions.
    fn new_in(
        input: &[u32],
        protected: Option<u32>,
        min_count: u32,
        scratch: &mut RePairScratch,
    ) -> Self {
        let n = input.len();
        let mut sym = std::mem::take(&mut scratch.sym);
        sym.clear();
        sym.extend_from_slice(input);
        let mut jump = std::mem::take(&mut scratch.jump);
        jump.clear();
        jump.resize(n, 0);
        let mut onext = std::mem::take(&mut scratch.onext);
        onext.clear();
        onext.resize(n, NONE);
        let mut oprev = std::mem::take(&mut scratch.oprev);
        oprev.clear();
        oprev.resize(n, NONE);
        let mut in_list = std::mem::take(&mut scratch.in_list);
        in_list.clear();
        in_list.resize(n, false);
        let mut pairs = std::mem::take(&mut scratch.queue);
        pairs.reset(min_count);
        Self {
            sym,
            jump,
            onext,
            oprev,
            in_list,
            pairs,
            occ: std::mem::take(&mut scratch.occ),
            protected,
            #[cfg(test)]
            shadow: Default::default(),
        }
    }

    #[inline]
    fn is_protected(&self, s: u32) -> bool {
        Some(s) == self.protected
    }

    /// Occurrence count of pair `key` (0 if it is not live).
    #[inline]
    fn pair_count(&self, key: u64) -> u32 {
        self.pairs
            .get(key)
            .map_or(0, |id| self.pairs.slab[id as usize].count)
    }

    /// Next filled position after `i`, exploiting gap boundary pointers.
    #[inline]
    fn next_filled(&self, i: usize) -> Option<usize> {
        let j = i + 1;
        if j >= self.sym.len() {
            return None;
        }
        if self.sym[j] != EMPTY {
            return Some(j);
        }
        // `j` is the left boundary of its hole run (position `i` is filled).
        let end = self.jump[j] as usize;
        let k = end + 1;
        (k < self.sym.len()).then_some(k)
    }

    /// Previous filled position before `i`.
    #[inline]
    fn prev_filled(&self, i: usize) -> Option<usize> {
        if i == 0 {
            return None;
        }
        let j = i - 1;
        if self.sym[j] != EMPTY {
            return Some(j);
        }
        let start = self.jump[j] as usize;
        (start > 0).then(|| start - 1)
    }

    /// Turns position `j` into a hole, merging with adjacent hole runs.
    #[inline]
    fn clear_position(&mut self, j: usize) {
        debug_assert_ne!(self.sym[j], EMPTY);
        self.sym[j] = EMPTY;
        self.in_list[j] = false;
        let mut start = j;
        let mut end = j;
        if j > 0 && self.sym[j - 1] == EMPTY {
            start = self.jump[j - 1] as usize;
        }
        if j + 1 < self.sym.len() && self.sym[j + 1] == EMPTY {
            end = self.jump[j + 1] as usize;
        }
        self.jump[start] = end as u32;
        self.jump[end] = start as u32;
    }

    /// Links position `pos` as a counted occurrence of pair `(a, b)`.
    fn add_occurrence(&mut self, pos: usize, a: u32, b: u32) {
        debug_assert!(!self.is_protected(a) && !self.is_protected(b));
        let key = pack(a, b);
        let id = self.pairs.get_or_insert(key);
        let rec = &mut self.pairs.slab[id as usize];
        self.onext[pos] = rec.head;
        self.oprev[pos] = NONE;
        if rec.head != NONE {
            self.oprev[rec.head as usize] = pos as u32;
        }
        rec.head = pos as u32;
        self.in_list[pos] = true;
        self.pairs.increment(id);
        #[cfg(test)]
        {
            let count = self.pairs.slab[id as usize].count;
            if count >= 2 {
                self.shadow.push((count, key));
            }
        }
    }

    /// Unlinks the counted occurrence at `pos`, filed under pair `(a, b)`.
    ///
    /// Tolerates the pair record having been detached — then only the
    /// list links are fixed.
    fn remove_occurrence(&mut self, pos: usize, a: u32, b: u32) {
        debug_assert!(self.in_list[pos]);
        let prev = self.oprev[pos];
        let next = self.onext[pos];
        if prev != NONE {
            self.onext[prev as usize] = next;
        }
        if next != NONE {
            self.oprev[next as usize] = prev;
        }
        if let Some(id) = self.pairs.get(pack(a, b)) {
            let rec = &mut self.pairs.slab[id as usize];
            if rec.head == pos as u32 {
                rec.head = next;
            }
            self.pairs.decrement(id);
        }
        self.in_list[pos] = false;
        self.onext[pos] = NONE;
        self.oprev[pos] = NONE;
    }

    /// Initial non-overlapping pair count (left-to-right).
    fn count_initial_pairs(&mut self) {
        let n = self.sym.len();
        let mut i = 0usize;
        while i + 1 < n {
            let a = self.sym[i];
            let b = self.sym[i + 1];
            if !self.is_protected(a) && !self.is_protected(b) {
                self.add_occurrence(i, a, b);
                // Skip the overlapping middle of a run like AAA.
                if a == b && i + 2 < n && self.sym[i + 2] == a {
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Replaces every valid occurrence of `(a, b)` with `n_sym`,
    /// optionally recording the position of every substitution (where
    /// `n_sym` now sits) — the MR-RePair extension step needs those to
    /// probe the symbols neighbouring the fresh nonterminal. Recording
    /// never changes the state.
    ///
    /// Returns the number of replacements performed.
    fn replace_all_rec(
        &mut self,
        a: u32,
        b: u32,
        n_sym: u32,
        mut record: Option<&mut Vec<usize>>,
    ) -> usize {
        let Some(rec) = self.pairs.detach(pack(a, b)) else {
            return 0;
        };
        // Snapshot the occurrence list before any mutation: replacements
        // rewrite the link arrays (neighbour removals, re-additions), so a
        // live walk could be cut short or diverted into another pair's list.
        let mut occ = std::mem::take(&mut self.occ);
        occ.clear();
        let mut pos = rec.head;
        while pos != NONE {
            occ.push(pos);
            pos = self.onext[pos as usize];
        }
        let mut replaced = 0usize;
        for &i in &occ {
            let i = i as usize;
            // Re-validate against the live sequence: earlier replacements in
            // this very walk may have consumed this occurrence.
            if self.sym[i] != a {
                continue;
            }
            let Some(j) = self.next_filled(i) else {
                continue;
            };
            if self.sym[j] != b {
                continue;
            }
            if self.in_list[i] {
                // Unlink from whatever list the position currently sits in
                // (normally the remnants of the detached one;
                // `remove_occurrence` tolerates the missing record).
                self.remove_occurrence(i, a, b);
            }

            // Decrement the left-neighbour pair (sym[l], a) at l.
            let left = self.prev_filled(i);
            if let Some(l) = left {
                if self.in_list[l] {
                    let ls = self.sym[l];
                    self.remove_occurrence(l, ls, a);
                }
            }
            // Decrement the right-neighbour pair (b, sym[r]) at j.
            let right = self.next_filled(j);
            if let Some(r) = right {
                if self.in_list[j] {
                    let rs = self.sym[r];
                    self.remove_occurrence(j, b, rs);
                }
            }

            // Perform the substitution.
            self.sym[i] = n_sym;
            self.clear_position(j);
            replaced += 1;
            if let Some(rec) = record.as_deref_mut() {
                rec.push(i);
            }

            // New neighbour pairs around the fresh nonterminal.
            if let Some(l) = left {
                let ls = self.sym[l];
                if !self.is_protected(ls) {
                    self.add_occurrence(l, ls, n_sym);
                }
            }
            if let Some(r) = right {
                let rs = self.sym[r];
                if !self.is_protected(rs) {
                    self.add_occurrence(i, n_sym, rs);
                }
            }
        }
        self.occ = occ;
        replaced
    }

    /// The most frequent pair still meeting `min_count`, ties broken
    /// towards the larger packed key. The pair stays queued until
    /// [`replace_all_rec`](Self::replace_all_rec) detaches it.
    fn best(&mut self) -> Option<(u32, u32)> {
        let key = self.pairs.best();
        #[cfg(test)]
        {
            self.pairs.assert_invariants();
            assert_eq!(key, self.shadow_pop(), "queue and lazy heap disagree");
        }
        key.map(|key| ((key >> 32) as u32, key as u32))
    }

    /// The lazy heap's pick: pop entries, validate them against the live
    /// counts, and requeue stale (higher) ones at their true count.
    #[cfg(test)]
    fn shadow_pop(&mut self) -> Option<u64> {
        let min_count = self.pairs.min_count;
        while let Some((count, key)) = self.shadow.pop() {
            let live = self.pair_count(key);
            if live == count && count >= min_count {
                return Some(key);
            }
            if live >= min_count && live < count {
                self.shadow.push((live, key));
            }
        }
        None
    }

    /// Compacts the working sequence (dropping holes) and returns every
    /// buffer to `scratch` for the next compression, or frees them with
    /// `None` (a fork's clone never enters an arena).
    fn finish(mut self, scratch: Option<&mut RePairScratch>) -> Vec<u32> {
        let seq: Vec<u32> = self.sym.iter().copied().filter(|&s| s != EMPTY).collect();
        let Some(scratch) = scratch else {
            return seq;
        };
        scratch.sym = std::mem::take(&mut self.sym);
        scratch.jump = std::mem::take(&mut self.jump);
        scratch.onext = std::mem::take(&mut self.onext);
        scratch.oprev = std::mem::take(&mut self.oprev);
        scratch.in_list = std::mem::take(&mut self.in_list);
        scratch.queue = std::mem::take(&mut self.pairs);
        scratch.occ = std::mem::take(&mut self.occ);
        seq
    }
}

/// Which construction [`Run::rounds`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// RePair: every rule is the replaced pair.
    Pair,
    /// MR-RePair: every rule extends its pair to the maximal repeat.
    Mr,
    /// RePair and MR-RePair at once: RePair's rounds, stopping at the
    /// first rule MR-RePair would extend.
    Shared,
}

/// A symbol MR-RePair absorbs into the rule of a fresh nonterminal.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// It follows every occurrence of the nonterminal.
    Right(u32),
    /// It precedes every occurrence of the nonterminal.
    Left(u32),
}

/// One construction in progress: the working state and the rules built
/// so far, in [`Slp`]'s layout (a RePair rule is a two-symbol right
/// side).
#[derive(Debug, Clone)]
struct Run {
    st: State,
    first_nt: u32,
    max_rules: usize,
    rule_ptr: Vec<u32>,
    rule_syms: Vec<u32>,
    /// Where the current rule's nonterminal sits.
    positions: Vec<usize>,
    next_positions: Vec<usize>,
}

impl Run {
    /// Validates `input`, lays out the working state in `scratch`'s
    /// buffers and counts the initial pairs.
    fn new(
        config: &RePairConfig,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> Self {
        assert!(input.len() < u32::MAX as usize, "input too long");
        if let Some(&max) = input.iter().max() {
            assert!(max < first_nt, "input symbol {max} >= first_nt {first_nt}");
            assert!(max != EMPTY, "u32::MAX is reserved");
        }
        let min_count = config.min_count.max(2);
        let max_rules = config
            .max_rules
            .unwrap_or(usize::MAX)
            .min((u32::MAX - first_nt) as usize);
        let mut st = State::new_in(input, protected, min_count, scratch);
        st.count_initial_pairs();
        Self {
            st,
            first_nt,
            max_rules,
            rule_ptr: vec![0],
            rule_syms: Vec::new(),
            positions: Vec::new(),
            next_positions: Vec::new(),
        }
    }

    fn num_rules(&self) -> usize {
        self.rule_ptr.len() - 1
    }

    /// Closes the rule whose right side was pushed last.
    fn close_rule(&mut self) {
        self.rule_ptr.push(self.rule_syms.len() as u32);
    }

    /// The round loop, run until no pair repeats often enough or the
    /// rule cap binds. Under [`Mode::Shared`] it stops early at the first
    /// rule MR-RePair would extend and returns that rule's `(nonterminal,
    /// occurrence count)`, with the founding pair pushed but the rule
    /// still open; the other modes always return `None`.
    fn rounds(&mut self, mode: Mode) -> Option<(u32, usize)> {
        while self.num_rules() < self.max_rules {
            let Some((a, b)) = self.st.best() else {
                break;
            };
            let n_sym = self.first_nt + self.num_rules() as u32;
            self.positions.clear();
            let record = (mode != Mode::Pair).then_some(&mut self.positions);
            let replaced = self.st.replace_all_rec(a, b, n_sym, record);
            if replaced == 0 {
                // All occurrences turned out stale; no symbol references
                // n_sym, so simply do not record the rule.
                continue;
            }
            self.rule_syms.extend([a, b]);
            if mode != Mode::Pair && replaced >= 2 {
                if mode == Mode::Mr {
                    self.extend(n_sym, replaced);
                } else if self.extension(n_sym, replaced).is_some() {
                    return Some((n_sym, replaced));
                }
            }
            self.close_rule();
        }
        None
    }

    /// MR-RePair's next absorption for the rule of `n_sym`, which occurs
    /// `replaced` times: a symbol `c` that follows (checked first) or
    /// precedes every occurrence. Detected exactly via the pair table
    /// (`count(X, c) == replaced`); `c == n_sym` (runs of the
    /// nonterminal itself) is skipped, since those pairs self-overlap
    /// and are better left to a later ordinary rule.
    fn extension(&self, n_sym: u32, replaced: usize) -> Option<Side> {
        let st = &self.st;
        let p = self.positions[0];
        let absorbs = |c: u32, key: u64| {
            c != n_sym && !st.is_protected(c) && st.pair_count(key) as usize == replaced
        };
        let right = st.next_filled(p).map(|r| st.sym[r]);
        if let Some(c) = right.filter(|&c| absorbs(c, pack(n_sym, c))) {
            return Some(Side::Right(c));
        }
        let left = st.prev_filled(p).map(|l| st.sym[l]);
        left.filter(|&c| absorbs(c, pack(c, n_sym))).map(Side::Left)
    }

    /// Greedy maximal-repeat extension of the open rule of `n_sym`. Safe
    /// only because each step consumes *every* occurrence of the fresh
    /// nonterminal — otherwise occurrences would expand to different
    /// strings — so `replaced` stays the occurrence count throughout, and
    /// `X c → X` keeps the occurrence positions and counts consistent.
    fn extend(&mut self, n_sym: u32, replaced: usize) {
        let rhs_start = self.rule_ptr[self.num_rules()] as usize;
        while let Some(side) = self.extension(n_sym, replaced) {
            let (a, b) = match side {
                Side::Right(c) => (n_sym, c),
                Side::Left(c) => (c, n_sym),
            };
            self.next_positions.clear();
            let k = self
                .st
                .replace_all_rec(a, b, n_sym, Some(&mut self.next_positions));
            assert_eq!(k, replaced, "an extension must consume every occurrence");
            std::mem::swap(&mut self.positions, &mut self.next_positions);
            match side {
                Side::Right(c) => self.rule_syms.push(c),
                Side::Left(c) => self.rule_syms.insert(rhs_start, c),
            }
        }
    }

    /// The grammar; buffers go back to `scratch` if given, else are
    /// freed (see [`State::finish`]).
    fn into_slp(self, scratch: Option<&mut RePairScratch>) -> Slp {
        let seq = self.st.finish(scratch);
        Slp::new(self.first_nt, self.rule_ptr, self.rule_syms, seq)
    }
}

/// Both `auto` grammar candidates of one input, from the one shared
/// construction of [`RePair::compress_auto_with_scratch`]: one
/// continuation per grammar. The continuations own their state, so they
/// may finish on different threads.
#[derive(Debug)]
pub struct AutoGrammars {
    /// Rules built once for both grammars: every rule before the fork,
    /// or all of them when MR-RePair never extended a rule.
    pub shared_rules: usize,
    /// RePair's remaining rounds, on a clone of the shared state.
    pub repair: GrammarContinuation,
    /// MR-RePair's remaining rounds, on the shared state's original
    /// buffers (taken from the scratch the construction started with).
    pub mr: GrammarContinuation,
}

/// One grammar's rounds after the fork of the shared construction.
#[derive(Debug)]
pub struct GrammarContinuation {
    run: Box<Run>,
    mode: Mode,
}

impl GrammarContinuation {
    /// Runs the remaining rounds; the result equals the standalone
    /// compression ([`RePair::compress_with_scratch`] or
    /// [`RePair::compress_mr_with_scratch`]) of the same input. The
    /// working buffers go back to `scratch` if given, else are freed.
    pub fn finish(self, scratch: Option<&mut RePairScratch>) -> Slp {
        let mut run = self.run;
        run.rounds(self.mode);
        run.into_slp(scratch)
    }
}

impl RePair {
    /// A compressor with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A compressor with the given configuration.
    pub fn with_config(config: RePairConfig) -> Self {
        Self { config }
    }

    /// Compresses `input`, never forming rules that contain `protected`.
    /// Every rule of the result is a pair.
    ///
    /// `first_nt` must be strictly greater than every input symbol; fresh
    /// nonterminals are numbered `first_nt, first_nt + 1, …`.
    ///
    /// # Panics
    /// Panics if an input symbol is `>= first_nt`, if the input contains
    /// the reserved value `u32::MAX`, or if the input length exceeds
    /// `u32::MAX - 1`.
    pub fn compress(&self, input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        self.compress_with_scratch(input, first_nt, protected, &mut RePairScratch::default())
    }

    /// As [`compress`](Self::compress), drawing all working storage from
    /// `scratch` so repeated compressions (per-block builds, the staged
    /// pipeline's pool workers) reuse their buffers instead of
    /// reallocating. Output is identical to [`compress`](Self::compress)
    /// for any scratch state.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_with_scratch(
        &self,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> Slp {
        let mut run = Run::new(&self.config, input, first_nt, protected, scratch);
        GRAMMAR_BUILDS.fetch_add(1, Ordering::Relaxed);
        run.rounds(Mode::Pair);
        run.into_slp(Some(scratch))
    }

    /// MR-RePair compression (Furuya et al.): like
    /// [`compress`](Self::compress) but each fresh nonterminal greedily
    /// consumes the **maximal repeat** around its founding pair, so a
    /// rule's right-hand side may grow beyond two symbols and the grammar
    /// needs fewer rules overall.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_mr(&self, input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        self.compress_mr_with_scratch(input, first_nt, protected, &mut RePairScratch::default())
    }

    /// As [`compress_mr`](Self::compress_mr), drawing all working storage
    /// from `scratch` — the same arena
    /// [`compress_with_scratch`](Self::compress_with_scratch) uses, so a
    /// pipeline can interleave both stages over one set of buffers.
    ///
    /// The rounds are RePair's; after a pair `(a, b)` is replaced by `X`,
    /// the rule is extended while *every* occurrence of `X` is followed
    /// (or preceded) by one same symbol `c`, each step applied with the
    /// same replacement bookkeeping. That is precisely the
    /// maximal-repeat run of the founding pair.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_mr_with_scratch(
        &self,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> Slp {
        let mut run = Run::new(&self.config, input, first_nt, protected, scratch);
        GRAMMAR_BUILDS.fetch_add(1, Ordering::Relaxed);
        run.rounds(Mode::Mr);
        run.into_slp(Some(scratch))
    }

    /// Both grammars of `input` — RePair's and MR-RePair's — from one
    /// construction: the rounds the two share (every round before
    /// MR-RePair's first extension; see the module docs) run once, then
    /// the state is cloned and each construction continues on its own
    /// copy. The finished grammars equal
    /// [`compress_with_scratch`](Self::compress_with_scratch) and
    /// [`compress_mr_with_scratch`](Self::compress_mr_with_scratch) of
    /// the same input; [`grammar_builds`] counts two constructions.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_auto_with_scratch(
        &self,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> AutoGrammars {
        let mut run = Run::new(&self.config, input, first_nt, protected, scratch);
        GRAMMAR_BUILDS.fetch_add(2, Ordering::Relaxed);
        let fork = run.rounds(Mode::Shared);
        let shared_rules = run.num_rules();
        let mut repair = run.clone();
        // Without a fork the rounds stopped for good (no pair repeats
        // often enough, or the rule cap binds), so both continuations
        // stop at once too.
        if let Some((n_sym, replaced)) = fork {
            repair.close_rule();
            run.extend(n_sym, replaced);
            run.close_rule();
        }
        AutoGrammars {
            shared_rules,
            repair: GrammarContinuation {
                run: Box::new(repair),
                mode: Mode::Pair,
            },
            mr: GrammarContinuation {
                run: Box::new(run),
                mode: Mode::Mr,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        let slp = RePair::new().compress(input, first_nt, protected);
        assert_eq!(slp.expand(), input, "expansion must equal input");
        assert!(slp.check_invariants().is_ok());
        if let Some(p) = protected {
            assert!(
                slp.rules_avoid_terminal(p),
                "protected symbol leaked into a rule"
            );
        }
        slp
    }

    #[test]
    fn empty_input() {
        let slp = roundtrip(&[], 10, None);
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn single_symbol() {
        let slp = roundtrip(&[5], 10, None);
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn no_repeats_no_rules() {
        let slp = roundtrip(&[1, 2, 3, 4, 5], 10, None);
        assert_eq!(slp.num_rules(), 0);
        assert_eq!(slp.sequence(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn simple_repeat() {
        // "abab" -> N0=ab, C = N0 N0
        let slp = roundtrip(&[1, 2, 1, 2], 10, None);
        assert_eq!(slp.num_rules(), 1);
        assert_eq!(slp.rule(0), &[1, 2]);
        assert_eq!(slp.sequence(), &[10, 10]);
    }

    #[test]
    fn abracadabra_style() {
        // Classic: repeated phrase gets hierarchical rules.
        let input: Vec<u32> = [1, 2, 3, 1, 4, 1, 5, 1, 4, 1, 2, 3, 1, 4, 1, 5, 1, 4].to_vec();
        let slp = roundtrip(&input, 100, None);
        assert!(slp.num_rules() >= 2);
        assert!(slp.grammar_size() < input.len() + 2);
    }

    #[test]
    fn run_of_equal_symbols() {
        for len in [2usize, 3, 4, 5, 7, 8, 15, 16, 33, 100] {
            let input = vec![7u32; len];
            let slp = roundtrip(&input, 10, None);
            // log-depth hierarchy: grammar much smaller than the run.
            if len >= 8 {
                assert!(
                    slp.grammar_size() <= 4 * (usize::BITS - len.leading_zeros()) as usize,
                    "len {len}: size {}",
                    slp.grammar_size()
                );
            }
        }
    }

    #[test]
    fn alternating_overlap() {
        let input: Vec<u32> = (0..64).map(|i| (i % 2) as u32 + 1).collect();
        roundtrip(&input, 10, None);
    }

    #[test]
    fn protected_symbol_never_in_rules() {
        // Rows of repeated content separated by 0.
        let mut input = Vec::new();
        for _ in 0..50 {
            input.extend_from_slice(&[3, 4, 5, 6]);
            input.push(0);
        }
        let slp = roundtrip(&input, 10, Some(0));
        assert!(slp.num_rules() >= 2);
        // Every nonterminal expansion is separator-free.
        for k in 0..slp.num_rules() {
            let mut exp = Vec::new();
            slp.expand_symbol_into(10 + k as u32, &mut exp);
            assert!(!exp.contains(&0), "rule {k} expands across a separator");
        }
        // Sequence keeps exactly the 50 separators.
        assert_eq!(slp.sequence().iter().filter(|&&s| s == 0).count(), 50);
    }

    #[test]
    fn protected_adjacent_pairs_unaffected() {
        // Pairs straddling the separator must not be formed even when
        // they would be the most frequent.
        let mut input = Vec::new();
        for _ in 0..20 {
            input.push(1);
            input.push(0); // (1,0) and (0,1) are frequent but forbidden
        }
        let slp = roundtrip(&input, 5, Some(0));
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn repeated_rows_compress_to_single_nonterminals() {
        // 30 identical rows: RePair should reduce each row to one symbol.
        let row = [2u32, 3, 4, 5, 6, 7, 8, 9];
        let mut input = Vec::new();
        for _ in 0..30 {
            input.extend_from_slice(&row);
            input.push(0);
        }
        let slp = roundtrip(&input, 100, Some(0));
        // Final sequence should be close to 30 * (1 symbol + separator).
        assert!(
            slp.sequence().len() <= 30 * 2 + 2,
            "sequence len {}",
            slp.sequence().len()
        );
    }

    #[test]
    fn max_rules_cap_respected() {
        let input: Vec<u32> = (0..1000).map(|i| (i % 4) as u32 + 1).collect();
        let cfg = RePairConfig {
            max_rules: Some(3),
            min_count: 2,
        };
        let slp = RePair::with_config(cfg).compress(&input, 10, None);
        assert!(slp.num_rules() <= 3);
        assert_eq!(slp.expand(), input);
    }

    #[test]
    fn min_count_threshold() {
        // Pair (1,2) occurs twice; with min_count 3 nothing is replaced.
        let input = vec![1, 2, 9, 1, 2];
        let cfg = RePairConfig {
            max_rules: None,
            min_count: 3,
        };
        let slp = RePair::with_config(cfg).compress(&input, 10, None);
        assert_eq!(slp.num_rules(), 0);
        assert_eq!(slp.expand(), input);
    }

    #[test]
    #[should_panic(expected = ">= first_nt")]
    fn input_symbol_above_first_nt_rejected() {
        RePair::new().compress(&[5, 20], 10, None);
    }

    #[test]
    fn pseudorandom_roundtrip_small_alphabet() {
        let mut x = 0x12345678u64;
        let input: Vec<u32> = (0..5000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 8) as u32
            })
            .collect();
        let slp = roundtrip(&input, 100, None);
        assert!(slp.grammar_size() < input.len());
    }

    #[test]
    fn pseudorandom_roundtrip_with_separators() {
        let mut x = 0xDEADBEEFu64;
        let mut input = Vec::new();
        for _ in 0..400 {
            let row_len = (x >> 60) as usize % 6;
            for _ in 0..row_len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                input.push(((x >> 33) % 10 + 1) as u32);
            }
            input.push(0);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        roundtrip(&input, 100, Some(0));
    }

    #[test]
    fn highly_repetitive_reaches_log_size() {
        // (abcdefgh)^128: grammar should be O(log) of the input.
        let mut input = Vec::new();
        for _ in 0..128 {
            input.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        let slp = roundtrip(&input, 100, None);
        assert!(slp.grammar_size() <= 64, "size {}", slp.grammar_size());
    }

    #[test]
    fn adjacent_separators_ok() {
        // Empty rows: consecutive protected symbols.
        let input = vec![0, 0, 1, 2, 0, 1, 2, 0, 0];
        roundtrip(&input, 10, Some(0));
    }

    fn mr_roundtrip(input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        let mr = RePair::new().compress_mr(input, first_nt, protected);
        assert_eq!(mr.expand(), input, "MR expansion must equal input");
        assert!(mr.check_invariants().is_ok());
        if let Some(p) = protected {
            assert!(
                mr.rules_avoid_terminal(p),
                "protected symbol leaked into an MR rule"
            );
        }
        mr
    }

    #[test]
    fn mr_simple_repeat_matches_repair() {
        let mr = mr_roundtrip(&[1, 2, 1, 2], 10, None);
        assert_eq!(mr.num_rules(), 1);
        assert_eq!(mr.rule(0), &[1, 2]);
        assert_eq!(mr.sequence(), &[10, 10]);
    }

    #[test]
    fn mr_consumes_maximal_repeats_into_one_rule() {
        // (1 2 3 4)^2: RePair needs a chain of three rules; MR-RePair
        // extends the founding pair to the whole repeat.
        let input = [1u32, 2, 3, 4, 1, 2, 3, 4];
        let mr = mr_roundtrip(&input, 10, None);
        assert_eq!(mr.num_rules(), 1, "rules: {:?}", mr.rule_syms());
        assert_eq!(mr.rule(0), &[1, 2, 3, 4]);
        assert_eq!(mr.sequence(), &[10, 10]);
        let slp = RePair::new().compress(&input, 10, None);
        assert_eq!(slp.num_rules(), 3);
        // Three repeats leave a top-level (X, X) pair that may become one
        // extra binary rule — still strictly fewer rules than RePair.
        let input3 = [1u32, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4];
        let mr3 = mr_roundtrip(&input3, 10, None);
        let slp3 = RePair::new().compress(&input3, 10, None);
        assert!(mr3.num_rules() < slp3.num_rules());
        assert_eq!(mr3.rule(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn mr_never_needs_more_rules_on_repetitive_rows() {
        let row = [2u32, 3, 4, 5, 6, 7, 8, 9];
        let mut input = Vec::new();
        for _ in 0..30 {
            input.extend_from_slice(&row);
            input.push(0);
        }
        let mr = mr_roundtrip(&input, 100, Some(0));
        let slp = RePair::new().compress(&input, 100, Some(0));
        assert!(
            mr.num_rules() < slp.num_rules(),
            "MR {} vs RePair {}",
            mr.num_rules(),
            slp.num_rules()
        );
        // One wide rule covering the whole row, used once per row.
        assert!(mr.sequence().len() <= 30 * 2 + 2);
    }

    #[test]
    fn mr_protected_symbol_never_extends_across_rows() {
        let mut input = Vec::new();
        for _ in 0..40 {
            input.extend_from_slice(&[3, 4, 5, 6]);
            input.push(0);
        }
        let mr = mr_roundtrip(&input, 10, Some(0));
        assert_eq!(mr.sequence().iter().filter(|&&s| s == 0).count(), 40);
    }

    #[test]
    fn mr_runs_of_equal_symbols_roundtrip() {
        for len in [2usize, 3, 5, 8, 16, 33, 100] {
            mr_roundtrip(&vec![7u32; len], 10, None);
        }
    }

    #[test]
    fn mr_pseudorandom_roundtrip_with_separators() {
        let mut x = 0xFEED5EEDu64;
        let mut input = Vec::new();
        for _ in 0..400 {
            let row_len = (x >> 60) as usize % 6;
            for _ in 0..row_len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                input.push(((x >> 33) % 10 + 1) as u32);
            }
            input.push(0);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        mr_roundtrip(&input, 100, Some(0));
    }

    #[test]
    fn mr_respects_max_rules_and_min_count() {
        let input: Vec<u32> = (0..1000).map(|i| (i % 4) as u32 + 1).collect();
        let cfg = RePairConfig {
            max_rules: Some(2),
            min_count: 2,
        };
        let mr = RePair::with_config(cfg).compress_mr(&input, 10, None);
        assert!(mr.num_rules() <= 2);
        assert_eq!(mr.expand(), input);

        let sparse = vec![1, 2, 9, 1, 2];
        let cfg = RePairConfig {
            max_rules: None,
            min_count: 3,
        };
        let mr = RePair::with_config(cfg).compress_mr(&sparse, 10, None);
        assert_eq!(mr.num_rules(), 0);
        assert_eq!(mr.expand(), sparse);
    }

    #[test]
    fn mr_scratch_reuse_matches_fresh_compression() {
        let mut x = 0xABCDEFu64;
        let inputs: Vec<Vec<u32>> = (0..6)
            .map(|round| {
                (0..150 + round * 83)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) % 7) as u32
                    })
                    .collect()
            })
            .collect();
        let mut scratch = RePairScratch::new();
        for input in &inputs {
            let with_scratch =
                RePair::new().compress_mr_with_scratch(input, 100, Some(0), &mut scratch);
            let fresh = RePair::new().compress_mr(input, 100, Some(0));
            assert_eq!(with_scratch, fresh);
            assert_eq!(with_scratch.expand(), *input);
        }
        // The same arena still produces unchanged RePair output.
        let slp_scratch =
            RePair::new().compress_with_scratch(&inputs[0], 100, Some(0), &mut scratch);
        let slp_fresh = RePair::new().compress(&inputs[0], 100, Some(0));
        assert_eq!(slp_scratch, slp_fresh);
    }

    #[test]
    fn grammar_builds_counts_every_compression() {
        let before = grammar_builds();
        let _ = RePair::new().compress(&[1, 2, 1, 2], 10, None);
        let _ = RePair::new().compress_mr(&[1, 2, 1, 2], 10, None);
        assert!(grammar_builds() >= before + 2);
    }

    /// Inputs that stress the queue's tie-breaking and count changes:
    /// small alphabets, long self-overlapping runs (`AAAA…`) and
    /// separators.
    fn queue_stress_input() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(
            prop_oneof![
                1 => Just(vec![0u32]),
                4 => (1u32..4).prop_map(|s| vec![s]),
                1 => (1u32..4, 2usize..14).prop_map(|(s, len)| vec![s; len]),
            ],
            0..120,
        )
        .prop_map(|chunks| chunks.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In test builds every round of `compress` and `compress_mr`
        /// checks the queue's invariants and asserts that its pick equals
        /// the lazy-heap oracle's (see `State::best`).
        #[test]
        fn indexed_queue_picks_what_the_lazy_heap_picks(
            input in queue_stress_input(),
            min_count in 2u32..6,
            cap in 0usize..24,
            separator in any::<bool>(),
        ) {
            let config = RePairConfig {
                max_rules: (cap > 0).then_some(cap),
                min_count,
            };
            let protected = separator.then_some(0);
            let slp = RePair::with_config(config).compress(&input, 100, protected);
            prop_assert_eq!(slp.expand(), input.clone());
            let mr = RePair::with_config(config).compress_mr(&input, 100, protected);
            prop_assert_eq!(mr.expand(), input);
        }
    }

    /// Both grammars of the shared construction on `scratch`, plus its
    /// shared rule count and whether it forked (RePair went on past the
    /// shared rules).
    fn auto_grammars(
        config: RePairConfig,
        input: &[u32],
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> (Slp, Slp, usize, bool) {
        let auto =
            RePair::with_config(config).compress_auto_with_scratch(input, 100, protected, scratch);
        let slp = auto.repair.finish(None);
        let forked = slp.num_rules() > auto.shared_rules;
        (
            slp,
            auto.mr.finish(Some(scratch)),
            auto.shared_rules,
            forked,
        )
    }

    /// Asserts that the shared construction's grammars equal fresh
    /// standalone compressions (rules, `rule_ptr` / `rule_syms` and
    /// sequence) and that exactly the first `shared` rules coincide.
    /// Returns the fork's rule index, if it forked.
    fn check_auto(
        config: RePairConfig,
        input: &[u32],
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> Result<Option<usize>, TestCaseError> {
        let (slp, mr, shared, forked) = auto_grammars(config, input, protected, scratch);
        let fresh = RePair::with_config(config);
        prop_assert_eq!(&slp, &fresh.compress(input, 100, protected));
        prop_assert_eq!(&mr, &fresh.compress_mr(input, 100, protected));
        for k in 0..shared {
            prop_assert!(mr.rule(k) == slp.rule(k), "shared rule {} differs", k);
        }
        if forked {
            prop_assert!(mr.rule(shared).len() > 2, "the fork rule is extended");
            prop_assert!(mr.rule(shared).windows(2).any(|w| w == slp.rule(shared)));
        } else {
            prop_assert_eq!(mr.num_rules(), shared);
            prop_assert_eq!(mr.rule_syms().len(), 2 * shared);
        }
        Ok(forked.then_some(shared))
    }

    /// Repeated phrases over a small alphabet, between separators and
    /// noise symbols: maximal repeats longer than a pair, so MR-RePair
    /// extends (right and left) at varying depths.
    fn phrase_input() -> impl Strategy<Value = Vec<u32>> {
        let phrases = proptest::collection::vec(proptest::collection::vec(1u32..6, 2..7), 1..4);
        (phrases, proptest::collection::vec(0usize..6, 0..60)).prop_map(|(phrases, picks)| {
            let mut out = Vec::new();
            for p in picks {
                match phrases.get(p) {
                    Some(phrase) => out.extend_from_slice(phrase),
                    None if p == 5 => out.push(0),
                    None => out.push(p as u32 + 1),
                }
            }
            out
        })
    }

    #[test]
    fn shared_construction_forks_right_left_or_never() {
        let mut scratch = RePairScratch::new();
        let config = RePairConfig::default();
        // (4,3) founds the rule; 2 then 1 follow every occurrence.
        let right = [4u32, 3, 2, 1, 4, 3, 2, 1];
        // (3,4) founds the rule; 2 then 1 precede every occurrence.
        let left = [1u32, 2, 3, 4, 1, 2, 3, 4];
        for (input, rule) in [(right, [4, 3, 2, 1]), (left, [1, 2, 3, 4])] {
            let fork = check_auto(config, &input, None, &mut scratch).unwrap();
            assert_eq!(fork, Some(0));
            let (_, mr, _, _) = auto_grammars(config, &input, None, &mut scratch);
            assert_eq!(mr.rule(0), &rule);
        }
        // Runs of the fresh nonterminal itself never extend.
        for input in [vec![1u32, 2, 1, 2], vec![7; 16], vec![]] {
            assert_eq!(
                check_auto(config, &input, None, &mut scratch).unwrap(),
                None
            );
        }
        // Separators stop an extension: (1,2) never absorbs the `0`.
        let rows = [1u32, 2, 0, 1, 2, 0, 3];
        assert_eq!(
            check_auto(config, &rows, Some(0), &mut scratch).unwrap(),
            None
        );
        assert!(check_auto(config, &rows, None, &mut scratch)
            .unwrap()
            .is_some());
    }

    #[test]
    fn shared_construction_counts_both_candidates() {
        let before = grammar_builds();
        let _ = auto_grammars(
            RePairConfig::default(),
            &[1, 2, 1, 2],
            None,
            &mut RePairScratch::new(),
        );
        assert!(grammar_builds() >= before + 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shared construction's two grammars equal fresh standalone
        /// RePair and MR-RePair output, uncapped and under rule caps that
        /// bind before, at and after the fork rule, all through one
        /// reused scratch. (In test builds every round also checks the
        /// queue against the lazy-heap oracle, on both sides of the
        /// fork.)
        #[test]
        fn shared_construction_equals_standalone_compressions(
            input in prop_oneof![queue_stress_input(), phrase_input()],
            min_count in 2u32..4,
            separator in any::<bool>(),
        ) {
            let protected = separator.then_some(0);
            let mut scratch = RePairScratch::new();
            let uncapped = RePairConfig { max_rules: None, min_count };
            let k = match check_auto(uncapped, &input, protected, &mut scratch)? {
                Some(fork) => fork,
                None => RePair::with_config(uncapped).compress(&input, 100, protected).num_rules(),
            };
            for cap in [k.saturating_sub(1), k, k + 1, k + 2] {
                let config = RePairConfig { max_rules: Some(cap), min_count };
                let fork = check_auto(config, &input, protected, &mut scratch)?;
                prop_assert!(fork.is_none() || cap > k, "cap {} forked at {:?}", cap, fork);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_compression_and_stops_growing() {
        // Several different inputs through ONE scratch arena: every
        // grammar must equal the fresh-allocation compressor's output,
        // and after the largest input has been seen the arena must stop
        // growing.
        let mut x = 0xC0FFEEu64;
        let inputs: Vec<Vec<u32>> = (0..8)
            .map(|round| {
                (0..200 + round * 57)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) % 9) as u32
                    })
                    .collect()
            })
            .collect();
        let mut scratch = RePairScratch::new();
        for input in &inputs {
            let with_scratch =
                RePair::new().compress_with_scratch(input, 100, Some(0), &mut scratch);
            let fresh = RePair::new().compress(input, 100, Some(0));
            assert_eq!(with_scratch, fresh);
            assert_eq!(with_scratch.expand(), *input);
        }
        let plateau = scratch.retained_bytes();
        for input in &inputs {
            let _ = RePair::new().compress_with_scratch(input, 100, Some(0), &mut scratch);
        }
        assert_eq!(
            scratch.retained_bytes(),
            plateau,
            "arena must reuse capacity on repeat inputs"
        );
    }
}
