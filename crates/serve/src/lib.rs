//! # cnd-serve — online scoring for deployed CND-IDS models
//!
//! The serving tier of the CND-IDS reproduction: a std-only TCP server
//! that loads a frozen [`cnd_core::deploy::DeployedScorer`] and answers
//! flow-feature scoring requests over a small versioned binary wire
//! protocol ([`protocol`]).
//!
//! Four properties make it more than a socket wrapper:
//!
//! 1. **Inline batching** ([`server`]): each connection's reader scores
//!    every complete frame it already has buffered as one `Matrix`, so
//!    a pipelining client's point lookups ride the cache-blocked
//!    batched kernels instead of n×(1-row) GEMV calls, with no queue
//!    and no timer. Scores are bit-identical either way — the blocked
//!    matmul's accumulation order per output element does not depend
//!    on batch composition.
//! 2. **Hot swap** ([`registry`]): a versioned model registry swaps in
//!    a freshly validated scorer between batches; in-flight batches
//!    finish on the version they started with and every score reply
//!    names the version that produced it.
//! 3. **Admission control**: score rows in flight across all
//!    connections are bounded; past the cap requests are shed with an
//!    explicit `Overloaded` reply rather than held in unbounded memory.
//!    Shed/accept counters (added once per round) and the batch-size
//!    histogram land in `cnd-obs` and are scrapeable via the existing
//!    `CND_OBS_LISTEN` Prometheus endpoint.
//! 4. **Lifecycle telemetry** ([`telemetry`]): every request's life is
//!    split into parse / queue-wait / batch-form / score / write
//!    stages; each reader records its round under one hub lock into
//!    HDR latency histograms, shed attribution, and multi-window SLO
//!    burn-rate gauges.
//!
//! Client-side, [`ServeClient`] speaks the protocol for tests and the
//! CLI, and [`loadgen`] drives open-loop load and reports achieved
//! flows/s plus latency percentiles.
//!
//! ## Quickstart
//!
//! ```no_run
//! use cnd_serve::{Server, ServeConfig, ServeClient};
//!
//! let server = Server::start("model.txt", "127.0.0.1:0", ServeConfig::default())?;
//! let mut client = ServeClient::connect(server.local_addr())?;
//! let reply = client.score(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])?;
//! println!("{reply:?}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;

use cnd_core::CoreError;

pub mod client;
pub mod continual;
pub mod loadgen;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod telemetry;

pub use client::{ClientError, ConnectRetry, ServeClient};
pub use continual::{
    ContinualConfig, ContinualController, MirrorSample, ShadowReport, TrafficMirror, ValidationSet,
};
pub use loadgen::{run_loadgen, LoadGenConfig, LoadReport};
pub use protocol::{Reply, Request, ServerInfo, Verdict};
pub use registry::{ModelRegistry, VersionedModel};
pub use server::{ServeConfig, ServeStats, Server};
pub use telemetry::{RoundRecord, TelemetryHub, TelemetrySnapshot};

/// Errors from starting or operating the scoring server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// The model artifact could not be loaded or parsed.
    Model(CoreError),
    /// A reload candidate expects a different feature width than the
    /// serving model; swapping it in would invalidate every admitted
    /// request, so the reload is refused.
    DimMismatch {
        /// Feature width of the currently serving model.
        expected: usize,
        /// Feature width the candidate artifact declares.
        got: usize,
    },
    /// A [`ServeConfig`] field is out of range.
    InvalidConfig {
        /// Which field.
        name: &'static str,
        /// The constraint it violated.
        constraint: &'static str,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Model(e) => write!(f, "model load failed: {e}"),
            ServeError::DimMismatch { expected, got } => write!(
                f,
                "reload rejected: serving model expects {expected} features, candidate has {got}"
            ),
            ServeError::InvalidConfig { name, constraint } => {
                write!(f, "invalid config: `{name}` {constraint}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures: tiny trained scorers and RAII temp artifacts.

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    use cnd_core::deploy::DeployedScorer;
    use cnd_core::{CndIds, CndIdsConfig};
    use cnd_linalg::Matrix;

    /// Trains a tiny CND-IDS model on synthetic flows and freezes it.
    /// Different seeds give different weights with the same feature
    /// width, which is exactly what hot-swap tests need.
    pub fn trained_scorer(seed: u64) -> DeployedScorer {
        trained_scorer_with_dim(seed, 6)
    }

    /// As [`trained_scorer`] but with a chosen feature width.
    pub fn trained_scorer_with_dim(seed: u64, d: usize) -> DeployedScorer {
        let normal = |i: usize, j: usize| ((i * 7 + j * 3 + seed as usize) % 13) as f64 * 0.1;
        let n_c = Matrix::from_fn(50, d, normal);
        let train = Matrix::from_fn(300, d, |i, j| {
            if i < 240 {
                normal(i + 100, j)
            } else {
                normal(i + 100, j) + 2.5
            }
        });
        let mut model = CndIds::new(CndIdsConfig::fast(seed), &n_c).expect("model builds");
        model.train_experience(&train).expect("model trains");
        DeployedScorer::from_model(&model).expect("model freezes")
    }

    /// A uniquely named model artifact in the temp dir, deleted on drop.
    pub struct TempArtifact {
        path: PathBuf,
    }

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    impl TempArtifact {
        /// Saves `scorer` to a fresh temp path tagged with `tag`.
        pub fn new(tag: &str, scorer: &DeployedScorer) -> TempArtifact {
            let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("cnd_serve_{tag}_{}_{n}.txt", std::process::id()));
            scorer.save_to_path(&path).expect("artifact saves");
            TempArtifact { path }
        }

        /// The artifact path.
        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempArtifact {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
