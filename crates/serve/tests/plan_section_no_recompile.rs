//! Loading a container whose plans were persisted at build time casts
//! them back in: neither the load nor a later plan-enabled prewarm may
//! run a plan compile ([`gcm_core::plan_compiles`] stays flat), for
//! both plan backends, one and several shards, and both precisions.
//!
//! This file holds exactly one `#[test]` on purpose. The counter is
//! process-global, and tests of one binary run concurrently, so any
//! neighbouring test that compiles a plan would bump it between the
//! two reads. Cargo runs test binaries one at a time, which makes the
//! delta exact only when this binary runs nothing else.

use gcm_core::{plan_compiles, Encoding};
use gcm_matrix::DenseMatrix;
use gcm_serve::{Backend, BuildOptions, ServeOptions, ShardedModel};

#[test]
fn plan_section_loads_without_recompiling() {
    let mut dense = DenseMatrix::zeros(37, 8);
    for r in 0..37 {
        for c in 0..8 {
            if (r + c) % 3 != 0 {
                dense.set(r, c, (((r * 2 + c) % 6) + 1) as f64 * 0.5);
            }
        }
    }
    for backend in [Backend::Compressed, Backend::Blocked] {
        for shards in [1usize, 3] {
            for serve in [ServeOptions::planned(), ServeOptions::planned_f32()] {
                let opts = BuildOptions {
                    backend,
                    shards,
                    blocks: 2,
                    encoding: Encoding::ReIv,
                    ..BuildOptions::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                model.prewarm_with(2, &serve);
                let bytes = model.to_bytes_with_plans();
                let what = format!("{} s={shards} f32={}", backend.name(), serve.plan_f32);

                // Loading must cast the plans back in, not compile.
                let before = plan_compiles();
                let back = ShardedModel::from_bytes(&bytes).expect("v4 roundtrip");
                assert_eq!(plan_compiles(), before, "{what}: load must not compile");
                assert!(back.is_planned(), "{what}");

                // A plan-enabled prewarm on the loaded model is a
                // validation pass: it must reuse the installed plans,
                // not rebuild them.
                let before = plan_compiles();
                back.prewarm_with(2, &serve);
                assert_eq!(
                    plan_compiles(),
                    before,
                    "{what}: prewarm after v4 load must not compile"
                );
            }
        }
    }
}
