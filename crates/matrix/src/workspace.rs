//! Reusable multiplication scratch: the heart of the zero-allocation
//! serving loop.
//!
//! Every `*_into` method on [`MatVec`](crate::MatVec) draws its scratch
//! (the grammar `w` array, per-block partial vectors, batch panels) from a
//! [`Workspace`] instead of allocating. A workspace is a free list of
//! `f64` buffers: [`Workspace::take`] pops a buffer and resizes it to the
//! requested length, [`Workspace::put`] returns it. After the first call
//! of a steady-state loop the buffers have reached their final
//! capacities, so subsequent `take`/`put` cycles perform **no heap
//! allocation** — only an `O(len)` zero-fill, which the kernels pay
//! anyway.
//!
//! Reuse across differently-shaped matrices is safe by construction:
//! `take` always resizes to the exact requested length (growing the
//! allocation only when a larger matrix arrives), so a workspace can be
//! shared by matrices of any shapes, trading only the fill cost.
//!
//! ```
//! use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, Workspace};
//!
//! let m = CsrvMatrix::from_dense(&DenseMatrix::from_rows(&[
//!     &[1.0, 0.0, 2.0],
//!     &[0.0, 3.0, 0.0],
//! ]))
//! .unwrap();
//! let mut ws = Workspace::new();
//! let mut y = vec![0.0; 2];
//! // Steady-state loop: no allocation after the first iteration.
//! for _ in 0..100 {
//!     m.right_multiply_into(&[1.0, 2.0, 3.0], &mut y, &mut ws).unwrap();
//! }
//! assert_eq!(y, vec![7.0, 6.0]);
//! ```

/// A free list of reusable `f64` scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty workspace; buffers are created on first use.
    pub const fn new() -> Self {
        Self { free: Vec::new() }
    }

    /// Pops a buffer from the free list (or creates one) and resizes it to
    /// exactly `len`.
    ///
    /// **Contents are unspecified**: a newly grown region is zeroed, but a
    /// reused region keeps stale values from its previous use. Every
    /// kernel in the workspace fully initialises its scratch before
    /// reading it (the right kernels overwrite `w`, the left kernels
    /// `fill(0.0)` it), so `take` deliberately skips the redundant
    /// zero-fill — steady-state same-size reuse costs nothing at all.
    ///
    /// Steady state — a loop issuing the same `take`/`put` sequence every
    /// iteration — reuses the same buffers in LIFO order and never
    /// allocates once capacities have stabilised.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the free list for later reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    /// Pre-grows the free list so that any subsequent `take`/`put`
    /// sequence holding at most `count` buffers at once, each of at most
    /// `max_len` elements, performs **no heap allocation** — including
    /// on its very first iteration.
    ///
    /// Every parked buffer is **grown** to `max_len`, zero-filled, not
    /// only reserved: the fill faults its pages in, so the first request
    /// pays neither an allocation nor a page fault. A fresh buffer gets
    /// exactly `max_len` elements of capacity.
    ///
    /// The serve layer calls this when a model is loaded, so a freshly
    /// restarted server is allocation-free from the first request rather
    /// than from the second (the warm-up a cold `Workspace` otherwise
    /// needs).
    pub fn warm(&mut self, count: usize, max_len: usize) {
        while self.free.len() < count {
            self.free.push(Vec::new());
        }
        for buf in self.free.iter_mut() {
            if buf.len() < max_len {
                buf.reserve_exact(max_len - buf.len());
                buf.resize(max_len, 0.0);
            }
        }
    }

    /// Number of buffers currently parked in the free list.
    pub fn retained_buffers(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (bytes) parked in the free list — the workspace's
    /// contribution to a representation's working-space accounting.
    pub fn retained_bytes(&self) -> usize {
        self.free.iter().map(|b| b.capacity() * 8).sum()
    }

    /// Drops every retained buffer, releasing the memory.
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_exact_length() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(5);
        // Fresh buffers are zeroed (they grew from empty).
        assert_eq!(buf, vec![0.0; 5]);
        buf[0] = 3.5;
        ws.put(buf);
        // Reused buffers keep their length contract; contents are
        // unspecified (kernels fully initialise their scratch).
        let buf = ws.take(8);
        assert_eq!(buf.len(), 8);
        let buf2 = ws.take(3);
        assert_eq!(buf2.len(), 3);
    }

    #[test]
    fn steady_state_reuses_capacity() {
        let mut ws = Workspace::new();
        let buf = ws.take(100);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        ws.put(buf);
        for _ in 0..10 {
            let buf = ws.take(100);
            assert_eq!(buf.as_ptr(), ptr, "same allocation must be reused");
            assert_eq!(buf.capacity(), cap);
            ws.put(buf);
        }
    }

    #[test]
    fn shrinking_then_growing_does_not_lose_capacity() {
        let mut ws = Workspace::new();
        let buf = ws.take(64);
        let cap = buf.capacity();
        ws.put(buf);
        // A smaller matrix truncates without reallocating…
        let buf = ws.take(8);
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.capacity(), cap);
        ws.put(buf);
        // …and going back to the larger shape reuses the old capacity.
        let buf = ws.take(64);
        assert_eq!(buf.len(), 64);
        assert_eq!(buf.capacity(), cap);
        ws.put(buf);
    }

    #[test]
    fn warm_makes_first_take_sequence_allocation_free() {
        let mut ws = Workspace::new();
        ws.warm(3, 256);
        assert_eq!(ws.retained_buffers(), 3);
        assert_eq!(ws.retained_bytes(), 3 * 256 * 8);
        // Any take/put pattern within the warmed budget reuses the same
        // allocations (pointer-stable), even on the first iteration.
        let a = ws.take(256);
        let b = ws.take(100);
        let c = ws.take(1);
        let ptrs = [a.as_ptr(), b.as_ptr(), c.as_ptr()];
        let caps = [a.capacity(), b.capacity(), c.capacity()];
        ws.put(c);
        ws.put(b);
        ws.put(a);
        for _ in 0..4 {
            let a = ws.take(199);
            let b = ws.take(256);
            let c = ws.take(7);
            assert!(ptrs.contains(&a.as_ptr()));
            assert!(ptrs.contains(&b.as_ptr()));
            assert!(ptrs.contains(&c.as_ptr()));
            assert!(caps.contains(&a.capacity()));
            ws.put(a);
            ws.put(b);
            ws.put(c);
        }
        // Warming an already-warm workspace is idempotent.
        ws.warm(3, 128);
        assert_eq!(ws.retained_buffers(), 3);
    }

    #[test]
    fn accounting_and_clear() {
        let mut ws = Workspace::new();
        let a = ws.take(10);
        let b = ws.take(20);
        ws.put(a);
        ws.put(b);
        assert_eq!(ws.retained_buffers(), 2);
        assert!(ws.retained_bytes() >= 30 * 8);
        ws.clear();
        assert_eq!(ws.retained_buffers(), 0);
        assert_eq!(ws.retained_bytes(), 0);
    }
}
