//! Named model persistence and in-memory serving registry.
//!
//! [`ModelStore`] is the on-disk side: a directory of
//! `<name>.gcms` containers with atomic writes. [`Registry`] is the
//! serving side: a name → [`ShardedModel`] cache that loads from the
//! store on first use and prewarms each model so steady-state requests
//! hit warm shards. Both are what a long-running `gcm serve` process
//! (the batched TCP front-end in [`crate::server`]) holds onto.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use crate::container::ServeError;
use crate::sharded::{ServeOptions, ShardedModel};

/// File extension of model containers.
pub const MODEL_EXT: &str = "gcms";

fn validate_name(name: &str) -> Result<(), ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(ServeError::BadName(format!(
            "{name:?} (allowed: ascii alphanumerics plus . _ -, not starting with '.')"
        )))
    }
}

/// A directory of named model containers.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the container for `name`.
    ///
    /// # Errors
    /// Fails on invalid names (path traversal is rejected wholesale).
    pub fn path(&self, name: &str) -> Result<PathBuf, ServeError> {
        validate_name(name)?;
        Ok(self.dir.join(format!("{name}.{MODEL_EXT}")))
    }

    /// Persists `model` under `name`, returning the container path.
    ///
    /// # Errors
    /// Fails on invalid names or filesystem errors.
    pub fn save(&self, name: &str, model: &ShardedModel) -> Result<PathBuf, ServeError> {
        let path = self.path(name)?;
        model.save(&path)?;
        Ok(path)
    }

    /// Loads the model stored under `name`.
    ///
    /// # Errors
    /// Fails if the name is invalid, missing, or the container corrupt.
    pub fn load(&self, name: &str) -> Result<ShardedModel, ServeError> {
        ShardedModel::load(&self.path(name)?)
    }

    /// Whether a container exists for `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.path(name).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Names of every stored model, sorted.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn list(&self) -> Result<Vec<String>, ServeError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(MODEL_EXT) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if validate_name(stem).is_ok() {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Deletes the container for `name`.
    ///
    /// # Errors
    /// Fails on invalid names or filesystem errors.
    pub fn remove(&self, name: &str) -> Result<(), ServeError> {
        std::fs::remove_file(self.path(name)?)?;
        Ok(())
    }
}

/// In-memory registry of loaded models over a [`ModelStore`].
///
/// `get` loads (and prewarms) a model on first use and then serves the
/// cached `Arc` — the amortise-compression-across-restarts path the
/// serve layer exists for. Both steps run through the staged pipeline
/// machinery: the container loader decodes shards concurrently via the
/// `ShardTable` on the persistent pool, and prewarm warms shard
/// workspaces the same way, so a cold `get` of a many-shard model costs
/// one pool-parallel pass, not a serial walk.
#[derive(Debug)]
pub struct Registry {
    store: ModelStore,
    /// Batch width models are prewarmed for on load.
    prewarm_width: usize,
    /// Serving options applied to every load (plan compilation).
    serve_options: ServeOptions,
    cache: RwLock<HashMap<String, Arc<ShardedModel>>>,
    /// Single-flight gates: one per name currently being loaded, so N
    /// concurrent first requests decode the container once (the fleet
    /// restart thundering-herd path).
    inflight: Mutex<HashMap<String, Arc<LoadGate>>>,
    /// Containers actually decoded from disk (not cache hits) — lets
    /// tests pin the single-flight guarantee.
    loads: AtomicUsize,
}

/// A gate concurrent loaders of the same name rendezvous on: the
/// loader that created it does the work; the rest wait for `done`.
#[derive(Debug, Default)]
struct LoadGate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl LoadGate {
    fn wait(&self) {
        let mut done = self.done.lock().expect("load gate poisoned");
        while !*done {
            done = self.cv.wait(done).expect("load gate poisoned");
        }
    }

    fn complete(&self) {
        *self.done.lock().expect("load gate poisoned") = true;
        self.cv.notify_all();
    }
}

/// Removes and completes the leader's gate on scope exit — including a
/// panicking load — so followers always wake. The leader caches the
/// model *before* this runs, keeping the cache-then-uncork ordering the
/// double-check in [`Registry::get`] relies on.
struct GateGuard<'a> {
    registry: &'a Registry,
    name: &'a str,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let gate = self
            .registry
            .inflight
            .lock()
            .expect("registry inflight poisoned")
            .remove(self.name);
        if let Some(gate) = gate {
            gate.complete();
        }
    }
}

impl Registry {
    /// A registry over `store`, prewarming loaded models for batch width
    /// `prewarm_width` (clamped to at least 1) under default
    /// [`ServeOptions`].
    pub fn new(store: ModelStore, prewarm_width: usize) -> Self {
        Self::with_options(store, prewarm_width, ServeOptions::default())
    }

    /// A registry that prewarms every loaded model under `options` —
    /// e.g. [`ServeOptions::planned`] to compile kernel plans on load,
    /// paying the plan memory once per model for faster steady-state
    /// multiplies.
    pub fn with_options(store: ModelStore, prewarm_width: usize, options: ServeOptions) -> Self {
        Self {
            store,
            prewarm_width: prewarm_width.max(1),
            serve_options: options,
            cache: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            loads: AtomicUsize::new(0),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The serving options applied on load.
    pub fn serve_options(&self) -> ServeOptions {
        self.serve_options
    }

    /// Persists `model` under `name` and caches it (prewarmed).
    ///
    /// # Errors
    /// Fails on invalid names or filesystem errors.
    pub fn publish(
        &self,
        name: &str,
        model: ShardedModel,
    ) -> Result<Arc<ShardedModel>, ServeError> {
        self.store.save(name, &model)?;
        model.prewarm_with(self.prewarm_width, &self.serve_options);
        let arc = Arc::new(model);
        self.cache
            .write()
            .expect("registry cache poisoned")
            .insert(name.to_string(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Returns the cached model for `name`, loading and prewarming it
    /// from the store on first use.
    ///
    /// Concurrent first requests for the same name are **single-flight**:
    /// one caller decodes and prewarms the container, the rest block on
    /// its gate and then take the cached `Arc` — a fleet restart's worth
    /// of simultaneous cold requests costs one load, not N.
    ///
    /// # Errors
    /// Fails if the model is missing or its container corrupt. A failed
    /// load is not cached: waiters (and later callers) retry it.
    pub fn get(&self, name: &str) -> Result<Arc<ShardedModel>, ServeError> {
        loop {
            if let Some(model) = self
                .cache
                .read()
                .expect("registry cache poisoned")
                .get(name)
            {
                return Ok(Arc::clone(model));
            }
            // Join the in-progress load, or become its leader.
            let gate = {
                let mut inflight = self.inflight.lock().expect("registry inflight poisoned");
                // The previous leader caches before dropping its gate,
                // so a second cache check here closes the window where
                // we would reload a model that just finished.
                if let Some(model) = self
                    .cache
                    .read()
                    .expect("registry cache poisoned")
                    .get(name)
                {
                    return Ok(Arc::clone(model));
                }
                match inflight.get(name) {
                    Some(gate) => Some(Arc::clone(gate)),
                    None => {
                        inflight.insert(name.to_string(), Arc::new(LoadGate::default()));
                        None
                    }
                }
            };
            if let Some(gate) = gate {
                // Follower: wait, then re-check the cache (the leader
                // may have failed — in that case we retry the load).
                gate.wait();
                continue;
            }
            // Leader: the guard completes the gate even on panic, so
            // followers never hang.
            let _guard = GateGuard {
                registry: self,
                name,
            };
            let model = self.store.load(name)?;
            model.prewarm_with(self.prewarm_width, &self.serve_options);
            self.loads.fetch_add(1, Ordering::Relaxed);
            let arc = Arc::new(model);
            self.cache
                .write()
                .expect("registry cache poisoned")
                .insert(name.to_string(), Arc::clone(&arc));
            return Ok(arc);
        }
    }

    /// How many containers `get` has actually decoded from disk (cache
    /// hits and waiters on another caller's load do not count).
    pub fn loads_performed(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Drops the cached entry for `name` (the container stays on disk).
    /// Returns whether an entry was cached.
    pub fn evict(&self, name: &str) -> bool {
        self.cache
            .write()
            .expect("registry cache poisoned")
            .remove(name)
            .is_some()
    }

    /// Names currently cached, sorted.
    pub fn loaded(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .cache
            .read()
            .expect("registry cache poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;
    use gcm_pipeline::BuildConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gcm-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_model(shards: usize) -> ShardedModel {
        let mut m = DenseMatrix::zeros(20, 5);
        for r in 0..20 {
            for c in 0..5 {
                if (r + c) % 2 == 0 {
                    m.set(r, c, (c + 1) as f64);
                }
            }
        }
        ShardedModel::from_dense(
            &m,
            &BuildConfig {
                shards,
                ..BuildConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn store_save_list_load_remove() {
        let dir = tmp_dir("store");
        let store = ModelStore::open(&dir).unwrap();
        assert_eq!(store.list().unwrap(), Vec::<String>::new());
        store.save("alpha", &sample_model(2)).unwrap();
        store.save("beta.v2", &sample_model(1)).unwrap();
        assert_eq!(store.list().unwrap(), vec!["alpha", "beta.v2"]);
        assert!(store.contains("alpha"));
        let back = store.load("alpha").unwrap();
        assert_eq!(back.num_shards(), 2);
        store.remove("alpha").unwrap();
        assert!(!store.contains("alpha"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Concurrent saves of one name each write their own temp file, so
    /// none truncates another's before its rename: every save succeeds,
    /// the final file loads, and no temp file is left behind.
    #[test]
    fn concurrent_saves_of_one_name_all_succeed() {
        let dir = tmp_dir("concurrent-save");
        let store = ModelStore::open(&dir).unwrap();
        let model = sample_model(2);
        let failures = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        if store.save("m", &model).is_err() {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(failures.into_inner(), 0, "every save must succeed");
        assert_eq!(store.load("m").unwrap().to_bytes(), model.to_bytes());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "temp files left"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_rejects_traversal_names() {
        let dir = tmp_dir("names");
        let store = ModelStore::open(&dir).unwrap();
        for bad in ["", "../evil", "a/b", ".hidden", "nul\0byte", "sp ace"] {
            assert!(store.path(bad).is_err(), "{bad:?} must be rejected");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_caches_across_gets() {
        let dir = tmp_dir("registry");
        let store = ModelStore::open(&dir).unwrap();
        let registry = Registry::new(store, 4);
        registry.publish("m", sample_model(3)).unwrap();
        let a = registry.get("m").unwrap();
        let b = registry.get("m").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second get must hit the cache");
        assert_eq!(registry.loaded(), vec!["m"]);
        assert!(registry.evict("m"));
        assert!(!registry.evict("m"));
        // Still loadable from disk after eviction.
        let c = registry.get("m").unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(registry.get("missing").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_first_gets_decode_the_container_once() {
        let dir = tmp_dir("single-flight");
        let store = ModelStore::open(&dir).unwrap();
        let registry = Arc::new(Registry::new(store, 4));
        registry.store().save("m", &sample_model(3)).unwrap();
        assert_eq!(registry.loads_performed(), 0);

        let threads = 8;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    registry.get("m").unwrap()
                })
            })
            .collect();
        let models: Vec<Arc<ShardedModel>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(
            registry.loads_performed(),
            1,
            "single-flight: 8 racing gets must decode the container once"
        );
        for model in &models {
            assert!(
                Arc::ptr_eq(model, &models[0]),
                "every caller must receive the same cached instance"
            );
        }
        // A failing load is not cached: waiters retry, and the counter
        // only moves on success.
        assert!(registry.get("missing").is_err());
        assert_eq!(registry.loads_performed(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn planned_registry_prewarms_plans_on_load() {
        let dir = tmp_dir("planned");
        let store = ModelStore::open(&dir).unwrap();
        let registry = Registry::with_options(store, 4, ServeOptions::planned());
        assert!(registry.serve_options().plans);
        let published = registry.publish("m", sample_model(2)).unwrap();
        assert!(published.is_planned(), "publish must prewarm with plans");
        registry.evict("m");
        // A fresh load from disk compiles plans too.
        let loaded = registry.get("m").unwrap();
        assert!(loaded.is_planned());
        assert!(loaded.plan_heap_bytes() > 0);
        let mut y = vec![0.0; loaded.rows()];
        loaded.right_multiply_panel(1, &[1.0; 5], &mut y).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
