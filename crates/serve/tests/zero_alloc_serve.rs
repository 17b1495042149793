//! Locks in the serve layer's headline guarantee: a steady-state serving
//! loop over a **sharded** model — multiple shards dispatched across the
//! persistent pool via the allocation-free broadcast — performs **zero
//! heap allocation**, and thanks to [`ShardedModel::prewarm`] that holds
//! from the *first request after loading the container*, not just after
//! a warm-up call.
//!
//! All checks live in one `#[test]` so no concurrent test perturbs the
//! process-wide allocation-op counter.

use gcm_bench::alloc;
use gcm_bench::TrackingAlloc;
use gcm_core::{
    conjugate_gradient_into, pagerank_into, power_iterations_into, Encoding, SolverWorkspace,
};
use gcm_matrix::DenseMatrix;
use gcm_serve::{Backend, BuildOptions, ServeOptions, ShardedModel};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn repetitive(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = match (r % 4, c % 3) {
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

fn assert_alloc_free(name: &str, iterations: usize, mut f: impl FnMut()) {
    let before = alloc::alloc_ops();
    for _ in 0..iterations {
        f();
    }
    let after = alloc::alloc_ops();
    assert_eq!(
        after - before,
        0,
        "{name}: {} allocation ops over {iterations} calls (must be 0)",
        after - before
    );
}

#[test]
fn sharded_serving_loop_is_allocation_free_from_the_first_request() {
    let dense = repetitive(120, 12);
    let (rows, cols) = (120usize, 12usize);
    let k = 4usize;

    // Request buffers a long-running server would own.
    let x = vec![1.0; cols];
    let mut y = vec![0.0; rows];
    let yv = vec![1.0; rows];
    let mut xo = vec![0.0; cols];
    let x_panel = vec![0.5; cols * k];
    let mut y_panel = vec![0.0; rows * k];
    let y_in_panel = vec![0.5; rows * k];
    let mut x_panel_out = vec![0.0; cols * k];

    // Every backend carries the full guarantee: each shard is one
    // matrix, and shards fan out through the allocation-free broadcast.
    // Both serve modes carry it too: streaming kernels, and the
    // compiled-plan kernels a plan-enabled prewarm switches dispatch to.
    // The single-shard planned case additionally routes through the
    // row-range-parallel right multiply (plan row index + the
    // allocation-free broadcast), which must stay allocation-free too.
    for (name, backend, encoding, shards, serve) in [
        (
            "sharded-compressed-re_iv",
            Backend::Compressed,
            Encoding::ReIv,
            3usize,
            ServeOptions::default(),
        ),
        (
            "sharded-compressed-re_ans",
            Backend::Compressed,
            Encoding::ReAns,
            3,
            ServeOptions::default(),
        ),
        (
            "sharded-csrv",
            Backend::Csrv,
            Encoding::ReAns,
            3,
            ServeOptions::default(),
        ),
        (
            "planned-compressed-re_iv",
            Backend::Compressed,
            Encoding::ReIv,
            3,
            ServeOptions::planned(),
        ),
        (
            "planned-compressed-re_ans",
            Backend::Compressed,
            Encoding::ReAns,
            3,
            ServeOptions::planned(),
        ),
        (
            "planned-row-parallel-re_32",
            Backend::Compressed,
            Encoding::Re32,
            1,
            ServeOptions::planned(),
        ),
    ] {
        let opts = BuildOptions {
            backend,
            encoding,
            shards,
            ..BuildOptions::default()
        };
        let built = ShardedModel::from_dense(&dense, &opts).unwrap();
        assert_eq!(built.num_shards(), shards, "{name}: shard count");

        // The restart story: serve from a container round-trip, prewarm,
        // and demand allocation-freedom from the very first request.
        let model = ShardedModel::from_bytes(&built.to_bytes()).expect("container round-trip");
        model.prewarm_with(k, &serve);
        assert_eq!(model.is_planned(), serve.plans, "{name}: plan state");
        if serve.plans {
            assert!(model.plan_heap_bytes() > 0, "{name}: plan memory reported");
        }

        assert_alloc_free(&format!("{name} first batched right"), 1, || {
            model
                .right_multiply_panel(k, &x_panel, &mut y_panel)
                .unwrap();
        });
        assert_alloc_free(&format!("{name} first batched left"), 1, || {
            model
                .left_multiply_panel(k, &y_in_panel, &mut x_panel_out)
                .unwrap();
        });

        // Steady state: a mixed single-vector / batched loop.
        assert_alloc_free(&format!("{name} steady state"), 16, || {
            model.right_multiply_panel(1, &x, &mut y).unwrap();
            model.left_multiply_panel(1, &yv, &mut xo).unwrap();
            model
                .right_multiply_panel(k, &x_panel, &mut y_panel)
                .unwrap();
            model
                .left_multiply_panel(k, &y_in_panel, &mut x_panel_out)
                .unwrap();
        });

        // Row-subset serving: the subset path — plan CSR row_ptr
        // slicing for planned shards, the workspace full-product
        // fallback and its staging panel otherwise — is allocation-free
        // from its first request too. The range crosses shard
        // boundaries so the per-shard clamp and offset arithmetic are
        // on the measured path.
        let sub = (rows / 4)..(rows - rows / 4);
        let mut y_sub = vec![0.0; sub.len() * k];
        assert_alloc_free(&format!("{name} first row subset"), 1, || {
            model
                .right_multiply_rows(sub.clone(), k, &x_panel, &mut y_sub)
                .unwrap();
        });
        assert_alloc_free(&format!("{name} row-subset steady state"), 16, || {
            model
                .right_multiply_rows(sub.clone(), k, &x_panel, &mut y_sub)
                .unwrap();
        });

        // Sparse-input serving: `right_multiply_sparse` — validation,
        // the kernel (scatter here; 3 of 12 columns is above the
        // density cutover), and the shard broadcast — is
        // allocation-free from the very first request, because the
        // prewarm's throwaway sparse pass sized the staging buffers.
        let x_nnz = [(1u32, 0.5), (5, 2.0), (11, -1.25)];
        let mut y_sparse = vec![0.0; rows];
        assert_alloc_free(&format!("{name} first sparse"), 1, || {
            model.right_multiply_sparse(&x_nnz, &mut y_sparse).unwrap();
        });
        assert_alloc_free(&format!("{name} sparse steady state"), 16, || {
            model.right_multiply_sparse(&x_nnz, &mut y_sparse).unwrap();
        });
    }

    // The activity-propagation sparse kernel specifically: on a planned
    // model wide enough that a few non-zeroes sit below the density
    // cutover, the lazy dependency index is built by the prewarm's
    // throwaway sparse pass, so even the first live request through the
    // activity walk stays off the heap — at every nnz up to the cutover
    // and across shard counts (1 exercises the single-shard fast path,
    // 3 the broadcast).
    let wide = repetitive(96, 60);
    for shards in [1usize, 3] {
        let built = ShardedModel::from_dense(
            &wide,
            &BuildOptions {
                backend: Backend::Compressed,
                encoding: Encoding::ReAns,
                shards,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let model = ShardedModel::from_bytes(&built.to_bytes()).expect("container round-trip");
        model.prewarm_with(1, &ServeOptions::planned());
        let mut y_sparse = vec![0.0; 96];
        for x_nnz in [
            &[(7u32, 1.5)][..],
            &[(3, 0.5), (40, -2.0)],
            &[(0, 1.0), (30, 1.0), (59, 1.0)],
        ] {
            assert_alloc_free(
                &format!("activity sparse s{shards} nnz={}", x_nnz.len()),
                8,
                || {
                    model.right_multiply_sparse(x_nnz, &mut y_sparse).unwrap();
                },
            );
        }
        // And the results are the real products.
        let mut x = vec![0.0; 60];
        for &(j, v) in &[(0u32, 1.0), (30, 1.0), (59, 1.0)] {
            x[j as usize] = v;
        }
        let mut y_ref = vec![0.0; 96];
        wide.right_multiply(&x, &mut y_ref).unwrap();
        for (a, b) in y_sparse.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9, "sparse s{shards}: {a} vs {b}");
        }
    }

    // The iterative solver drivers: after `SolverWorkspace::prepare`,
    // whole power-iteration, PageRank, and conjugate-gradient runs over
    // the sharded model perform zero heap allocation — the drivers own
    // no per-iteration state and the model's `MatVec` entry points
    // route through the panel paths proven flat above.
    let square = repetitive(60, 60);
    let solver_model = ShardedModel::from_dense(
        &square,
        &BuildOptions {
            backend: Backend::Compressed,
            encoding: Encoding::ReAns,
            shards: 3,
            ..BuildOptions::default()
        },
    )
    .unwrap();
    solver_model.prewarm_with(1, &ServeOptions::planned());
    let mut sws = SolverWorkspace::new();
    sws.prepare(&solver_model).unwrap();
    let mut xs = vec![1.0; 60];
    assert_alloc_free("power iteration loop", 1, || {
        power_iterations_into(&solver_model, &mut xs, 20, &mut sws).unwrap();
    });
    xs.fill(1.0 / 60.0);
    assert_alloc_free("pagerank loop", 1, || {
        pagerank_into(&solver_model, &mut xs, 0.85, 20, 0.0, &mut sws).unwrap();
    });
    xs.fill(0.0);
    let b_target = vec![1.0; 60];
    assert_alloc_free("conjugate gradient loop", 1, || {
        conjugate_gradient_into(&solver_model, &b_target, &mut xs, 20, 0.0, &mut sws).unwrap();
    });

    // The v4 persisted-plan container must load by *casting*: zero plan
    // compilations (the process-wide counter stays flat across load AND
    // the post-load prewarm) and no grammar-decode-sized allocation —
    // loading stays within a small multiple of the container itself.
    let built = ShardedModel::from_dense(
        &dense,
        &BuildOptions {
            backend: Backend::Compressed,
            encoding: Encoding::ReAns,
            shards: 3,
            ..BuildOptions::default()
        },
    )
    .unwrap();
    built.prewarm_with(k, &ServeOptions::planned());
    let bytes = built.to_bytes_with_plans();
    let compiles_before = gcm_core::plan_compiles();
    let live = alloc::reset_peak();
    let loaded = ShardedModel::from_bytes(&bytes).expect("v4 load");
    let grown = alloc::peak_bytes().saturating_sub(live);
    assert!(loaded.is_planned(), "persisted plans must arrive installed");
    loaded.prewarm_with(k, &ServeOptions::planned());
    assert_eq!(
        gcm_core::plan_compiles(),
        compiles_before,
        "v4 load + prewarm must cast persisted plans, never recompile"
    );
    assert!(
        grown < bytes.len() * 4 + (1 << 16),
        "v4 load allocated {grown} bytes for a {}-byte container — \
         that smells like a grammar decode on the load path",
        bytes.len()
    );

    // Cast-on-load, both precisions, sharded and row-parallel (1 shard):
    // prewarm runs no throwaway dense product, so the budgets it warms
    // must alone cover the very first request of every kind. Each kind
    // gets a fresh load, so each is measured as the first request.
    for serve in [ServeOptions::planned(), ServeOptions::planned_f32()] {
        for shards in [3usize, 1] {
            let built = ShardedModel::from_dense(
                &dense,
                &BuildOptions {
                    backend: Backend::Compressed,
                    encoding: Encoding::ReAns,
                    shards,
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            built.prewarm_with(k, &serve);
            let bytes = built.to_bytes_with_plans();
            let name = format!("cast-on-load f32={} s{shards}", serve.plan_f32);
            let fresh = || {
                let model = ShardedModel::from_bytes(&bytes).expect("v4 load");
                model.prewarm_with(k, &serve);
                assert_eq!(model.is_planned_f32(), serve.plan_f32, "{name}: precision");
                model
            };
            let model = fresh();
            assert_alloc_free(&format!("{name} first right k=1"), 1, || {
                model.right_multiply_panel(1, &x, &mut y).unwrap();
            });
            let model = fresh();
            assert_alloc_free(&format!("{name} first right k={k}"), 1, || {
                model
                    .right_multiply_panel(k, &x_panel, &mut y_panel)
                    .unwrap();
            });
            let model = fresh();
            assert_alloc_free(&format!("{name} first left k=1"), 1, || {
                model.left_multiply_panel(1, &yv, &mut xo).unwrap();
            });
            let model = fresh();
            assert_alloc_free(&format!("{name} first left k={k}"), 1, || {
                model
                    .left_multiply_panel(k, &y_in_panel, &mut x_panel_out)
                    .unwrap();
            });
            let model = fresh();
            let x_nnz = [(1u32, 0.5), (5, 2.0), (11, -1.25)];
            let mut y_sparse = vec![0.0; rows];
            assert_alloc_free(&format!("{name} first sparse"), 1, || {
                model.right_multiply_sparse(&x_nnz, &mut y_sparse).unwrap();
            });
            let model = fresh();
            let sub = (rows / 4)..(rows - rows / 4);
            let mut y_sub = vec![0.0; sub.len() * k];
            assert_alloc_free(&format!("{name} first rows"), 1, || {
                model
                    .right_multiply_rows(sub.clone(), k, &x_panel, &mut y_sub)
                    .unwrap();
            });
        }
    }

    // Sanity: the results the loop produced are the real products.
    let mut y_ref = vec![0.0; rows];
    dense.right_multiply(&x, &mut y_ref).unwrap();
    for (a, b) in y.iter().zip(&y_ref) {
        assert!((a - b).abs() < 1e-9);
    }
}
