//! Model persistence: freeze a trained [`CndIds`] into a
//! [`DeployedScorer`] that can be saved, shipped, and loaded on a
//! monitoring host without any training machinery.
//!
//! Deployment needs exactly three fitted components — the input scaler,
//! the encoder, and the PCA novelty detector — so only those are
//! serialized, in a small versioned line-oriented text format (the
//! workspace intentionally has no serialization-format dependency).
//! The decoder, optimizer state, past-model snapshots and RNG are
//! training-time state and are not persisted; to continue training,
//! keep the original [`CndIds`] value.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use cnd_linalg::{Matrix, MatrixRef};
use cnd_ml::pca::Pca;
use cnd_ml::{MlError, StandardScaler};
use cnd_nn::{Activation, Layer, Linear, PackedSequential, Sequential};

use crate::{CndIds, CoreError};

/// Magic first line of the persistence format.
const MAGIC: &str = "CND-IDS-SCORER v1";

/// Upper bound on any single declared dimension (features, components,
/// layer fan). Real IDS feature spaces are a few hundred wide; the cap
/// only exists so a corrupted or hostile header cannot make the loader
/// allocate absurd buffers.
const MAX_DIM: usize = 1 << 20;

/// Upper bound on declared encoder layers.
const MAX_LAYERS: usize = 256;

/// Upper bound on a declared weight-matrix element count.
const MAX_ELEMENTS: usize = 1 << 26;

/// A frozen, inference-only CND-IDS model.
///
/// Its weights never change, so every encoder weight and the PCA
/// components are packed for the GEMM once, when the scorer is built
/// ([`from_model`](Self::from_model), [`load`](Self::load)), and every
/// batch reuses them.
///
/// # Example
///
/// ```no_run
/// use cnd_core::deploy::DeployedScorer;
/// use cnd_core::{CndIds, CndIdsConfig};
/// # fn get_trained_model() -> CndIds { unimplemented!() }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model: CndIds = get_trained_model();
/// let scorer = DeployedScorer::from_model(&model)?;
/// let mut buf = Vec::new();
/// scorer.save(&mut buf)?;
/// let restored = DeployedScorer::load(&mut buf.as_slice())?;
/// # let _ = restored;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeployedScorer {
    scaler: StandardScaler,
    /// The encoder as trained, kept for [`save`](Self::save).
    encoder: Sequential,
    /// `encoder` packed once; the scoring path runs this.
    packed: PackedSequential,
    pca: Pca,
}

impl DeployedScorer {
    /// Freezes a trained model into a scorer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] when the model has not finished
    /// at least one training experience.
    pub fn from_model(model: &CndIds) -> Result<Self, CoreError> {
        let pca = model.pca().ok_or(CoreError::NotTrained)?.clone();
        Self::assemble(
            model.scaler().clone(),
            model.feature_extractor().encoder().clone(),
            pca,
        )
    }

    /// The one constructor: checks that the widths chain from the
    /// scaler through the encoder into the PCA, then packs the encoder.
    fn assemble(scaler: StandardScaler, encoder: Sequential, pca: Pca) -> Result<Self, CoreError> {
        let mut width = scaler.mean().len();
        for lin in encoder.linear_layers() {
            if lin.fan_in() != width {
                return Err(parse_err("inconsistent encoder layer widths"));
            }
            width = lin.fan_out();
        }
        if pca.n_features() != width {
            return Err(parse_err("pca width does not match the encoder output"));
        }
        Ok(DeployedScorer {
            packed: PackedSequential::new(&encoder),
            scaler,
            encoder,
            pca,
        })
    }

    /// Anomaly scores for a batch; higher means more anomalous.
    /// Bit-identical to [`CndIds::anomaly_scores`] on the frozen state.
    ///
    /// The batch is split into one contiguous row block per
    /// [`cnd_parallel::current`] pool thread (batches under
    /// 128 rows stay on the caller).
    /// Each block runs scaler → encoder → PCA-FRE end to end, tile by
    /// tile, reusing three scratch buffers, and writes its rows' scores.
    /// Every row goes through the same serial operations whatever block
    /// it lands in, so scores are bit-identical at every pool size.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch unless `x` has
    /// [`n_features`](Self::n_features) columns.
    pub fn anomaly_scores(&self, x: &Matrix) -> Result<Vec<f64>, CoreError> {
        let d = self.n_features();
        if x.cols() != d {
            return Err(MlError::DimensionMismatch {
                fitted: d,
                given: x.cols(),
            }
            .into());
        }
        let latent = self.pca.n_features();
        let mut scores = vec![0.0; x.rows()];
        cnd_parallel::current().par_row_blocks(
            &mut scores,
            x.rows(),
            |r, out, (a, h, b): &mut (Vec<f64>, Vec<f64>, Vec<f64>)| {
                let rows = r.len();
                self.scaler
                    .transform_rows_into(x.view().rows_view(r.start, r.end), a)
                    .expect("dimension checked");
                self.packed
                    .forward_rows(MatrixRef::from_slice(rows, d, a), h, b);
                // The scaled input and the spare layer buffer are free
                // again: they become the PCA scratch.
                self.pca
                    .fre_rows_into(MatrixRef::from_slice(rows, latent, h), a, b, out)
                    .expect("widths checked when the scorer was built");
            },
        );
        Ok(scores)
    }

    /// Input feature dimensionality the scorer expects.
    pub fn n_features(&self) -> usize {
        self.scaler.mean().len()
    }

    /// Serializes the scorer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "scaler {}", self.scaler.mean().len())?;
        write_floats(&mut w, self.scaler.mean())?;
        write_floats(&mut w, self.scaler.std())?;
        writeln!(w, "encoder {}", self.encoder.layers().len())?;
        for layer in self.encoder.layers() {
            match layer {
                Layer::Linear(lin) => {
                    writeln!(w, "linear {} {}", lin.fan_in(), lin.fan_out())?;
                    write_floats(&mut w, lin.weights().as_slice())?;
                    write_floats(&mut w, lin.bias())?;
                }
                Layer::Activation { act, .. } => {
                    writeln!(w, "act {}", act_name(*act))?;
                }
            }
        }
        writeln!(
            w,
            "pca {} {}",
            self.pca.n_features(),
            self.pca.n_components()
        )?;
        write_floats(&mut w, self.pca.mean())?;
        write_floats(&mut w, self.pca.components().as_slice())?;
        write_floats(&mut w, self.pca.explained_variance())?;
        Ok(())
    }

    /// Saves the scorer to `path` atomically: the artifact is written
    /// to a sibling `*.tmp` file through a buffered writer and then
    /// renamed into place, so a concurrent reader (e.g. a `--watch`
    /// reloader) can never observe a half-written model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write_result = (|| {
            let file = std::fs::File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            self.save(&mut w)?;
            w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write_result {
            let _ = std::fs::remove_file(&tmp);
            return Err(CoreError::Io(e));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CoreError::Io(e)
        })
    }

    /// Loads a scorer from `path` through a buffered reader.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the file cannot be opened and
    /// [`CoreError::CorruptModel`] for malformed contents (see
    /// [`load`](Self::load)).
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let file = std::fs::File::open(path.as_ref()).map_err(CoreError::Io)?;
        Self::load(BufReader::new(file))
    }

    /// Deserializes a scorer.
    ///
    /// Designed to survive hostile input: truncated files, garbage
    /// numeric fields, a wrong magic line, non-finite parameters, and
    /// headers declaring implausible dimensions all return a typed
    /// [`CoreError::CorruptModel`] — never a panic, and never an
    /// allocation proportional to an attacker-declared size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptModel`] for malformed input (I/O
    /// failures are reported the same way, as a corrupt artifact).
    pub fn load<R: BufRead>(r: R) -> Result<Self, CoreError> {
        let mut lines = r.lines();
        let mut next = || -> Result<String, CoreError> {
            lines
                .next()
                .ok_or(parse_err("unexpected end of file"))?
                .map_err(|_| parse_err("read failure"))
        };
        if next()? != MAGIC {
            return Err(parse_err("bad magic line"));
        }

        // Scaler.
        let header = next()?;
        let d: usize = field(&header, "scaler", 1)?;
        check_dim(d)?;
        let mean = read_floats(&next()?, d)?;
        let std = read_floats(&next()?, d)?;
        let scaler = StandardScaler::from_parts(mean, std)
            .map_err(|_| parse_err("inconsistent scaler parameters"))?;

        // Encoder.
        let header = next()?;
        let n_layers: usize = field(&header, "encoder", 1)?;
        if n_layers > MAX_LAYERS {
            return Err(parse_err("implausible encoder layer count"));
        }
        let mut encoder = Sequential::new();
        for _ in 0..n_layers {
            let line = next()?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.first().copied() {
                Some("linear") => {
                    let fan_in: usize = field(&line, "linear", 1)?;
                    let fan_out: usize = field(&line, "linear", 2)?;
                    check_dim(fan_in)?;
                    check_dim(fan_out)?;
                    if fan_in.saturating_mul(fan_out) > MAX_ELEMENTS {
                        return Err(parse_err("implausible weight matrix size"));
                    }
                    let w = read_floats(&next()?, fan_in * fan_out)?;
                    let b = read_floats(&next()?, fan_out)?;
                    let weights = Matrix::from_vec(fan_in, fan_out, w)
                        .map_err(|_| parse_err("inconsistent weight matrix"))?;
                    encoder.push_layer(Linear::from_parts(weights, b));
                }
                Some("act") => {
                    let name = parts.get(1).copied().unwrap_or("");
                    encoder.push_activation(act_from_name(name)?);
                }
                _ => return Err(parse_err("unknown layer kind")),
            }
        }

        // PCA.
        let header = next()?;
        let features: usize = field(&header, "pca", 1)?;
        let components_n: usize = field(&header, "pca", 2)?;
        check_dim(features)?;
        check_dim(components_n)?;
        if features.saturating_mul(components_n) > MAX_ELEMENTS {
            return Err(parse_err("implausible component matrix size"));
        }
        let mean = read_floats(&next()?, features)?;
        let comp = read_floats(&next()?, features * components_n)?;
        let variance = read_floats(&next()?, components_n)?;
        let components = Matrix::from_vec(features, components_n, comp)
            .map_err(|_| parse_err("inconsistent component matrix"))?;
        let pca = Pca::from_parts(mean, components, variance)
            .map_err(|_| parse_err("inconsistent pca parameters"))?;

        Self::assemble(scaler, encoder, pca)
    }
}

fn parse_err(reason: &'static str) -> CoreError {
    CoreError::CorruptModel { reason }
}

fn check_dim(d: usize) -> Result<(), CoreError> {
    if d == 0 {
        return Err(parse_err("zero dimension declared"));
    }
    if d > MAX_DIM {
        return Err(parse_err("implausible dimension declared"));
    }
    Ok(())
}

fn act_name(a: Activation) -> &'static str {
    match a {
        Activation::Relu => "relu",
        Activation::LeakyRelu(_) => "leaky_relu",
        Activation::Tanh => "tanh",
        Activation::Sigmoid => "sigmoid",
        Activation::Identity => "identity",
        _ => "identity",
    }
}

fn act_from_name(name: &str) -> Result<Activation, CoreError> {
    match name {
        "relu" => Ok(Activation::Relu),
        "leaky_relu" => Ok(Activation::LeakyRelu(0.01)),
        "tanh" => Ok(Activation::Tanh),
        "sigmoid" => Ok(Activation::Sigmoid),
        "identity" => Ok(Activation::Identity),
        _ => Err(parse_err("unknown activation")),
    }
}

fn write_floats<W: Write>(w: &mut W, vals: &[f64]) -> std::io::Result<()> {
    let mut line = String::with_capacity(vals.len() * 20);
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        // 17 significant digits round-trips f64 exactly.
        line.push_str(&format!("{v:.17e}"));
    }
    writeln!(w, "{line}")
}

fn read_floats(line: &str, expect: usize) -> Result<Vec<f64>, CoreError> {
    let vals: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse).collect();
    let vals = vals.map_err(|_| parse_err("malformed float"))?;
    if vals.len() != expect {
        return Err(parse_err("wrong number of values"));
    }
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(parse_err("non-finite parameter value"));
    }
    Ok(vals)
}

fn field<T: std::str::FromStr>(line: &str, tag: &str, idx: usize) -> Result<T, CoreError> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.first() != Some(&tag) {
        return Err(parse_err("unexpected section header"));
    }
    parts
        .get(idx)
        .ok_or(parse_err("missing header field"))?
        .parse()
        .map_err(|_| parse_err("malformed header field"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CndIdsConfig;

    fn trained_model() -> (CndIds, Matrix) {
        let d = 6;
        let normal = |i: usize, j: usize| ((i * 7 + j * 3) % 13) as f64 * 0.1;
        let n_c = Matrix::from_fn(50, d, normal);
        let train = Matrix::from_fn(300, d, |i, j| {
            if i < 240 {
                normal(i + 100, j)
            } else {
                normal(i + 100, j) + 2.5
            }
        });
        let mut model = CndIds::new(CndIdsConfig::fast(3), &n_c).expect("builds");
        model.train_experience(&train).expect("trains");
        let test = Matrix::from_fn(40, d, |i, j| {
            if i < 25 {
                normal(i + 900, j)
            } else {
                normal(i + 900, j) + 2.5
            }
        });
        (model, test)
    }

    #[test]
    fn frozen_scorer_matches_live_model() {
        let (model, test) = trained_model();
        let scorer = DeployedScorer::from_model(&model).unwrap();
        let live = model.anomaly_scores(&test).unwrap();
        let frozen = scorer.anomaly_scores(&test).unwrap();
        for (a, b) in live.iter().zip(&frozen) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(scorer.n_features(), 6);
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let (model, test) = trained_model();
        let scorer = DeployedScorer::from_model(&model).unwrap();
        let mut buf = Vec::new();
        scorer.save(&mut buf).unwrap();
        let restored = DeployedScorer::load(buf.as_slice()).unwrap();
        let a = scorer.anomaly_scores(&test).unwrap();
        let b = restored.anomaly_scores(&test).unwrap();
        assert_eq!(a, b, "17-digit float round trip must be exact");
    }

    #[test]
    fn path_round_trip_is_exact_and_leaves_no_tmp_file() {
        let (model, test) = trained_model();
        let scorer = DeployedScorer::from_model(&model).unwrap();
        let path = std::env::temp_dir().join(format!("cnd_deploy_path_{}.txt", std::process::id()));
        scorer.save_to_path(&path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "tmp staging file must be renamed away"
        );
        let restored = DeployedScorer::load_from_path(&path).unwrap();
        assert_eq!(
            scorer.anomaly_scores(&test).unwrap(),
            restored.anomaly_scores(&test).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_from_missing_path_is_io_error() {
        let missing = std::env::temp_dir().join("cnd_deploy_definitely_missing.txt");
        match DeployedScorer::load_from_path(&missing) {
            Err(CoreError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn untrained_model_cannot_be_frozen() {
        let n_c = Matrix::from_fn(30, 4, |i, j| (i + j) as f64);
        let model = CndIds::new(CndIdsConfig::fast(0), &n_c).unwrap();
        assert!(matches!(
            DeployedScorer::from_model(&model),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(DeployedScorer::load("not a scorer".as_bytes()).is_err());
        assert!(DeployedScorer::load("CND-IDS-SCORER v1\nbogus 3".as_bytes()).is_err());
        let (model, _) = trained_model();
        let scorer = DeployedScorer::from_model(&model).unwrap();
        let mut buf = Vec::new();
        scorer.save(&mut buf).unwrap();
        // Truncate: must fail, not panic.
        let truncated = &buf[..buf.len() / 2];
        assert!(DeployedScorer::load(truncated).is_err());
    }

    #[test]
    fn rejects_hostile_headers() {
        // Oversized dims must be rejected before any allocation.
        let huge = format!("{MAGIC}\nscaler {}\n", usize::MAX);
        assert!(matches!(
            DeployedScorer::load(huge.as_bytes()),
            Err(CoreError::CorruptModel { .. })
        ));
        let layers = format!("{MAGIC}\nscaler 1\n0.0\n1.0\nencoder 100000\n");
        assert!(DeployedScorer::load(layers.as_bytes()).is_err());
        // Non-finite parameters are data corruption, not a model.
        let nan = format!("{MAGIC}\nscaler 2\n0.0 NaN\n1.0 1.0\n");
        assert!(matches!(
            DeployedScorer::load(nan.as_bytes()),
            Err(CoreError::CorruptModel { .. })
        ));
    }

    #[test]
    fn rejects_widths_that_do_not_chain() {
        // Every section parses, but the encoder expects 3 inputs from a
        // 2-feature scaler: a typed error at load, not a panic at score.
        let encoder = "encoder 1\nlinear 3 1\n1 1 1\n0\n";
        let pca = "pca 1 1\n0\n1\n1\n";
        let bad = format!("{MAGIC}\nscaler 2\n0 0\n1 1\n{encoder}{pca}");
        assert!(matches!(
            DeployedScorer::load(bad.as_bytes()),
            Err(CoreError::CorruptModel { .. })
        ));
        let good = format!("{MAGIC}\nscaler 3\n0 0 0\n1 1 1\n{encoder}{pca}");
        let scorer = DeployedScorer::load(good.as_bytes()).expect("widths chain");
        let pca_2 = "pca 2 1\n0 0\n1 0\n1\n";
        let bad = format!("{MAGIC}\nscaler 3\n0 0 0\n1 1 1\n{encoder}{pca_2}");
        assert!(DeployedScorer::load(bad.as_bytes()).is_err());
        assert!(scorer.anomaly_scores(&Matrix::zeros(2, 2)).is_err());
        assert_eq!(
            scorer.anomaly_scores(&Matrix::zeros(2, 3)).unwrap(),
            [0.0, 0.0]
        );
    }

    /// One serialized trained scorer, built once and shared across
    /// property cases (training per case would dominate the runtime).
    fn serialized() -> &'static [u8] {
        use std::sync::OnceLock;
        static BUF: OnceLock<Vec<u8>> = OnceLock::new();
        BUF.get_or_init(|| {
            let (model, _) = trained_model();
            let scorer = DeployedScorer::from_model(&model).unwrap();
            let mut buf = Vec::new();
            scorer.save(&mut buf).unwrap();
            buf
        })
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The `{:.17e}` float encoding round-trips every value
            /// bit-exactly through a save/load cycle.
            #[test]
            fn float_lines_round_trip_exactly(
                vals in prop::collection::vec(-1e12f64..1e12, 1..64)
            ) {
                let mut line = Vec::new();
                write_floats(&mut line, &vals).unwrap();
                let text = std::str::from_utf8(&line).unwrap();
                let parsed = read_floats(text, vals.len()).unwrap();
                prop_assert_eq!(parsed, vals);
            }

            /// Loading an arbitrarily truncated artifact must never
            /// panic; failures are the typed `CorruptModel` error. (A
            /// cut that only drops the trailing newline, or lands inside
            /// the digits of the final value, can still parse — the text
            /// format carries no checksum — so `Ok` is tolerated as long
            /// as the result is structurally sound.)
            #[test]
            fn truncated_artifacts_error_not_panic(cut in 0usize..1 << 16) {
                let buf = serialized();
                let cut = cut % buf.len();
                match DeployedScorer::load(&buf[..cut]) {
                    Ok(s) => prop_assert_eq!(s.n_features(), 6),
                    Err(CoreError::CorruptModel { .. }) => {}
                    Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                }
            }

            /// Single-byte corruption anywhere in the artifact must
            /// never panic, and any error is the typed variant.
            #[test]
            fn corrupted_artifacts_never_panic(
                (pos, byte) in (0usize..1 << 16, 0usize..256)
            ) {
                let mut buf = serialized().to_vec();
                let pos = pos % buf.len();
                buf[pos] = byte as u8;
                match DeployedScorer::load(buf.as_slice()) {
                    Ok(s) => prop_assert_eq!(s.n_features(), 6),
                    Err(CoreError::CorruptModel { .. }) => {}
                    Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                }
            }
        }
    }
}
