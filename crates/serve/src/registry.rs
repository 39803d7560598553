//! Versioned model registry with atomic hot-swap.
//!
//! The registry owns the path of the on-disk model artifact and the
//! currently serving [`DeployedScorer`], wrapped in an `Arc` behind a
//! mutex (the std-only stand-in for an `ArcSwap`). Connection readers
//! [`current`](ModelRegistry::current) an `Arc` clone once per batch, so
//! a [`reload`](ModelRegistry::reload) swapping the pointer between
//! batches never mixes weights mid-batch: in-flight batches finish on
//! the version they started with.
//!
//! A reload loads and validates the candidate **before** taking the
//! swap lock — a corrupt or dimension-incompatible artifact leaves the
//! previous model serving and only bumps the failure counter.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cnd_core::deploy::DeployedScorer;
use cnd_metrics::threshold::quantile_threshold;

use crate::ServeError;

/// One immutable model version.
#[derive(Debug)]
pub struct VersionedModel {
    /// 1-based version, bumped on every successful hot swap.
    pub version: u32,
    /// The frozen scorer.
    pub scorer: DeployedScorer,
    /// Alert threshold τ calibrated from this version's served scores;
    /// set once, so a hot swap recalibrates for the new weights.
    tau: OnceLock<f64>,
    /// Scores gathered toward `tau` while its window is still open.
    calibration: Mutex<Vec<f64>>,
}

impl VersionedModel {
    fn new(version: u32, scorer: DeployedScorer) -> Self {
        VersionedModel {
            version,
            scorer,
            tau: OnceLock::new(),
            calibration: Mutex::new(Vec::new()),
        }
    }

    /// This version's label-free alert threshold: the `quantile` of the
    /// first `window` scores it serves, from every connection at once.
    /// `scores` (a batch just served) join the window while it is open;
    /// until it fills the answer is `None`.
    pub(crate) fn calibrate(&self, scores: &[f64], window: usize, quantile: f64) -> Option<f64> {
        if let Some(&tau) = self.tau.get() {
            return Some(tau);
        }
        let mut samples = self.calibration.lock().unwrap_or_else(|e| e.into_inner());
        if self.tau.get().is_none() {
            samples.extend_from_slice(scores);
            if samples.len() >= window {
                if let Ok(tau) = quantile_threshold(&samples, quantile) {
                    let _ = self.tau.set(tau);
                }
                *samples = Vec::new();
            }
        }
        self.tau.get().copied()
    }
}

/// The serving-side model store: current version plus reload counters.
#[derive(Debug)]
pub struct ModelRegistry {
    path: PathBuf,
    current: Mutex<Arc<VersionedModel>>,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

impl ModelRegistry {
    /// Loads version 1 from `path`.
    ///
    /// # Errors
    ///
    /// Propagates artifact I/O and parse failures as [`ServeError`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let path = path.into();
        let scorer = DeployedScorer::load_from_path(&path)?;
        Ok(ModelRegistry {
            path,
            current: Mutex::new(Arc::new(VersionedModel::new(1, scorer))),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
        })
    }

    /// The artifact path reloads read from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The currently serving model (cheap `Arc` clone).
    pub fn current(&self) -> Arc<VersionedModel> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Currently serving version number.
    pub fn version(&self) -> u32 {
        self.current().version
    }

    /// Successful / failed reload counts since start.
    pub fn reload_counts(&self) -> (u64, u64) {
        (
            self.reloads.load(Ordering::Relaxed),
            self.reload_failures.load(Ordering::Relaxed),
        )
    }

    /// Re-reads the artifact, validates it against the serving model's
    /// feature dimensionality, and atomically swaps it in. Returns the
    /// new version number.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for unreadable/corrupt artifacts and
    /// [`ServeError::DimMismatch`] when the candidate expects a
    /// different feature width; either way the previous model keeps
    /// serving and the failure counter is bumped.
    pub fn reload(&self) -> Result<u32, ServeError> {
        let started = std::time::Instant::now();
        let outcome = self.try_load_candidate();
        match outcome {
            Ok(scorer) => {
                let mut cur = self.current.lock().unwrap_or_else(|e| e.into_inner());
                let version = cur.version + 1;
                *cur = Arc::new(VersionedModel::new(version, scorer));
                drop(cur);
                self.reloads.fetch_add(1, Ordering::Relaxed);
                cnd_obs::counter_add_volatile("serve.reload.count", 1);
                // Reloads are rare (control plane), so recording the
                // swap latency directly is fine — no ring needed.
                cnd_obs::hdr_record_volatile(
                    "serve.reload.us",
                    started.elapsed().as_micros() as u64,
                );
                cnd_obs::flight::record(
                    "registry",
                    "reload",
                    None,
                    &format!("artifact reloaded as v{version}"),
                );
                Ok(version)
            }
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                cnd_obs::counter_add_volatile("serve.reload_fail.count", 1);
                cnd_obs::flight::record(
                    "registry",
                    "reload_refused",
                    None,
                    &format!("artifact refused, previous model keeps serving: {e}"),
                );
                Err(e)
            }
        }
    }

    fn try_load_candidate(&self) -> Result<DeployedScorer, ServeError> {
        let candidate = DeployedScorer::load_from_path(&self.path)?;
        let expected = self.current().scorer.n_features();
        if candidate.n_features() != expected {
            return Err(ServeError::DimMismatch {
                expected,
                got: candidate.n_features(),
            });
        }
        Ok(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{trained_scorer, TempArtifact};

    #[test]
    fn open_reload_bumps_version_and_counters() {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("registry_reload", &scorer);
        let reg = ModelRegistry::open(artifact.path()).expect("opens");
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.reload().expect("reload succeeds"), 2);
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.reload_counts(), (1, 0));
    }

    #[test]
    fn failed_reload_keeps_previous_model() {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("registry_failed_reload", &scorer);
        let reg = ModelRegistry::open(artifact.path()).expect("opens");
        std::fs::write(artifact.path(), "not a scorer").unwrap();
        assert!(reg.reload().is_err());
        assert_eq!(reg.version(), 1, "old model still serving");
        assert_eq!(reg.reload_counts(), (0, 1));
        // A good artifact recovers.
        scorer.save_to_path(artifact.path()).unwrap();
        assert!(reg.reload().is_ok());
        assert_eq!(reg.version(), 2);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("registry_dim", &scorer);
        let reg = ModelRegistry::open(artifact.path()).expect("opens");
        let other = crate::test_support::trained_scorer_with_dim(4, 8);
        other.save_to_path(artifact.path()).unwrap();
        match reg.reload() {
            Err(ServeError::DimMismatch { expected, got }) => {
                assert_eq!(expected, scorer.n_features());
                assert_eq!(got, 8);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(reg.version(), 1);
    }
}
