//! The stage executor: a pool-parallel map built on the persistent
//! thread pool's allocation-free [`rayon::broadcast_indexed`].
//!
//! Both ends of the persist seam run through this one primitive: the
//! build pipeline maps shard plans to artifacts, and the container
//! loader maps shard byte ranges to decoded models. Neither spawns a
//! thread — workers are the pool's, claimed per index — which is what
//! lets the serve layer assert "no per-build thread spawns" with
//! [`rayon::threads_ever_spawned`].

use std::sync::Mutex;

/// Shared raw base pointer for disjoint per-index result slots.
struct SendPtr<T>(*mut T);
// SAFETY: only used to derive disjoint per-index writes; see `par_map`.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs `f(i)` for every `i in 0..n` on the persistent pool and returns
/// the results in index order. The calling thread participates, so the
/// map makes progress even when every worker is busy; with `n <= 1` —
/// or on a single-worker pool, where dispatch could only add contention
/// — it runs inline without touching the pool.
///
/// # Panics
/// If any `f(i)` panics, one payload is re-raised here after the
/// remaining indices complete (the pool survives).
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || rayon::current_num_threads() <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    rayon::broadcast_indexed(n, &|i| {
        let value = f(i);
        // SAFETY: every index writes only its own slot, the slots are
        // disjoint, and `out` outlives the broadcast (which blocks until
        // every index completed). The slot holds `None`, so the
        // overwrite drops nothing that aliases other tasks' state.
        unsafe { *base.0.add(i) = Some(value) };
    });
    out.into_iter()
        .map(|slot| slot.expect("broadcast filled every slot"))
        .collect()
}

/// Runs `a` and `b` concurrently on the persistent pool — a
/// [`par_map`] of two — and returns both results. Like `par_map`, it may
/// be called from inside another `par_map` task (the pool's publisher
/// helps drain the occupied broadcast slot instead of blocking).
pub(crate) fn join<A, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B)
where
    A: Send,
    B: Send,
{
    let a = Mutex::new(Some(a));
    let b = Mutex::new(Some(b));
    let mut out = par_map(2, |i| {
        if i == 0 {
            let f = a.lock().expect("join cell poisoned").take();
            (f.map(|f| f()), None)
        } else {
            let f = b.lock().expect("join cell poisoned").take();
            (None, f.map(|f| f()))
        }
    })
    .into_iter();
    let ra = out.next().and_then(|r| r.0);
    let rb = out.next().and_then(|r| r.1);
    (
        ra.expect("par_map ran index 0"),
        rb.expect("par_map ran index 1"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_every_index_in_order() {
        let out = par_map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn runs_each_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        let _ = par_map(hits.len(), |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn does_not_spawn_threads_once_pool_is_up() {
        let _ = par_map(4, |i| i); // spin up the global pool
        let spawned = rayon::threads_ever_spawned();
        for _ in 0..50 {
            let _ = par_map(8, |i| i * i);
        }
        assert_eq!(
            rayon::threads_ever_spawned(),
            spawned,
            "par_map must reuse pool workers"
        );
    }

    #[test]
    fn join_runs_both_sides_even_nested() {
        assert_eq!(join(|| 3, || "b"), (3, "b"));
        let out = par_map(3, |i| join(|| i, move || vec![i; i]));
        for (i, (a, b)) in out.into_iter().enumerate() {
            assert_eq!((a, b), (i, vec![i; i]));
        }
    }

    #[test]
    fn moves_non_trivial_results_back() {
        let out = par_map(9, |i| vec![i as u8; i]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i);
            assert!(v.iter().all(|&b| b == i as u8));
        }
    }
}
