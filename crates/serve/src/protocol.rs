//! The `cnd-serve` wire protocol: a small versioned length-prefixed
//! binary framing for flow-feature scoring over TCP.
//!
//! # Frame layout (all integers little-endian)
//!
//! Request (client → server):
//!
//! ```text
//! magic    4 bytes  b"CNDS"
//! version  u8       PROTOCOL_VERSION (1)
//! type     u8       1 = Score, 2 = Reload, 3 = Info
//! id       u64      caller-chosen correlation id, echoed in the reply
//! payload           Score: dim u32, then dim × f64 feature values
//!                   Reload/Info: empty
//! ```
//!
//! Reply (server → client):
//!
//! ```text
//! magic    4 bytes  b"CNDR"
//! version  u8       PROTOCOL_VERSION (1)
//! status   u8       0 = Score, 1 = BadRequest, 2 = Overloaded,
//!                   3 = ReloadOk, 4 = ReloadFailed, 5 = Info
//! id       u64      echoed request id (0 when the id never parsed)
//! payload           Score: model_version u32, score f64, verdict u8
//!                   BadRequest/ReloadFailed: len u16, then len UTF-8 bytes
//!                   ReloadOk: model_version u32
//!                   Info: model_version u32, n_features u32, then
//!                         accepted/shed/scored/reloads/bad_frames as u64
//!                   Overloaded: empty
//! ```
//!
//! # Hardening
//!
//! Decoding is hardened the same way as `cnd_core::deploy`'s artifact
//! loader: a declared feature count above [`MAX_WIRE_DIM`] is rejected
//! *before* any allocation, non-finite feature values are a typed
//! malformed-frame error, and truncated or garbled frames can never
//! panic. Errors carry a recoverability verdict — [`FrameError::Malformed`]
//! means the payload was fully consumed and the connection is still in
//! sync (the server replies and keeps serving), while
//! [`FrameError::Fatal`] means framing is lost (bad magic, unknown type,
//! truncation) and the connection must be closed after a best-effort
//! error reply.

use std::io::{self, Read, Write};

/// First four bytes of every request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"CNDS";
/// First four bytes of every reply frame.
pub const REPLY_MAGIC: [u8; 4] = *b"CNDR";
/// Current protocol version; bumped on any incompatible frame change.
pub const PROTOCOL_VERSION: u8 = 1;
/// Upper bound on a declared feature count. Real IDS feature spaces are
/// a few hundred wide; the cap (matching `deploy.rs`'s `MAX_DIM`) only
/// exists so a hostile header cannot demand an absurd allocation.
pub const MAX_WIRE_DIM: usize = 1 << 20;
/// Error-message payloads are truncated to this many bytes.
pub const MAX_ERROR_LEN: usize = 512;

/// Request message types.
const TYPE_SCORE: u8 = 1;
const TYPE_RELOAD: u8 = 2;
const TYPE_INFO: u8 = 3;

/// Reply status codes.
const STATUS_SCORE: u8 = 0;
const STATUS_BAD_REQUEST: u8 = 1;
const STATUS_OVERLOADED: u8 = 2;
const STATUS_RELOAD_OK: u8 = 3;
const STATUS_RELOAD_FAILED: u8 = 4;
const STATUS_INFO: u8 = 5;

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score one flow-feature vector.
    Score {
        /// Correlation id echoed in the reply.
        id: u64,
        /// Flow features (finite, length-checked against the model).
        features: Vec<f64>,
    },
    /// Ask the server to reload its model artifact from disk.
    Reload {
        /// Correlation id echoed in the reply.
        id: u64,
    },
    /// Ask for the server's model/counter snapshot.
    Info {
        /// Correlation id echoed in the reply.
        id: u64,
    },
}

impl Request {
    /// The correlation id carried by the frame.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Score { id, .. } | Request::Reload { id } | Request::Info { id } => id,
        }
    }
}

/// The threshold verdict attached to a score reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Score at or below the Best-F/quantile threshold.
    Normal,
    /// Score above the threshold: raise an alert.
    Alert,
    /// No threshold available yet (calibration window still filling).
    Uncalibrated,
}

impl Verdict {
    fn to_byte(self) -> u8 {
        match self {
            Verdict::Normal => 0,
            Verdict::Alert => 1,
            Verdict::Uncalibrated => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Verdict> {
        match b {
            0 => Some(Verdict::Normal),
            1 => Some(Verdict::Alert),
            2 => Some(Verdict::Uncalibrated),
            _ => None,
        }
    }
}

/// Snapshot of server state carried by an [`Reply::Info`] frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerInfo {
    /// Currently serving model version (1-based, bumped on hot swap).
    pub model_version: u32,
    /// Feature dimensionality the model expects.
    pub n_features: u32,
    /// Score requests admitted for scoring.
    pub accepted: u64,
    /// Requests shed with an `Overloaded` reply.
    pub shed: u64,
    /// Flows scored (replies sent with a score).
    pub scored: u64,
    /// Successful model hot swaps since start.
    pub reloads: u64,
    /// Malformed frames rejected.
    pub bad_frames: u64,
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A scored flow.
    Score {
        /// Echoed request id.
        id: u64,
        /// Model version that produced the score.
        model_version: u32,
        /// Novelty score (higher = more anomalous).
        score: f64,
        /// Threshold verdict.
        verdict: Verdict,
    },
    /// The request was malformed or semantically invalid.
    BadRequest {
        /// Echoed request id (0 when the id never parsed).
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The server's in-flight bound was reached; the request was shed
    /// unscored.
    Overloaded {
        /// Echoed request id.
        id: u64,
    },
    /// A reload request succeeded.
    ReloadOk {
        /// Echoed request id.
        id: u64,
        /// The new model version now serving.
        model_version: u32,
    },
    /// A reload request failed; the previous model keeps serving.
    ReloadFailed {
        /// Echoed request id.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Server snapshot.
    Info {
        /// Echoed request id.
        id: u64,
        /// The snapshot.
        info: ServerInfo,
    },
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The frame was structurally complete but semantically invalid
    /// (zero/NaN features, zero dim). The stream is still in sync:
    /// reply with `BadRequest` and keep serving the connection.
    Malformed {
        /// Request id, when it parsed before the defect.
        id: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// Framing is unrecoverable (bad magic/version, unknown type,
    /// truncation, transport error): best-effort reply, then close.
    Fatal {
        /// Request id, when it parsed before the defect.
        id: u64,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Malformed { reason, .. } => write!(f, "malformed frame: {reason}"),
            FrameError::Fatal { reason, .. } => write!(f, "unrecoverable frame: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn fatal(id: u64, reason: &'static str) -> FrameError {
    FrameError::Fatal { id, reason }
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], id: u64) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => fatal(id, "truncated frame"),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => fatal(id, "timed out mid-frame"),
        _ => fatal(id, "transport read failure"),
    })
}

fn read_u8(r: &mut impl Read, id: u64) -> Result<u8, FrameError> {
    let mut b = [0u8; 1];
    read_exact_or(r, &mut b, id)?;
    Ok(b[0])
}

fn read_u16(r: &mut impl Read, id: u64) -> Result<u16, FrameError> {
    let mut b = [0u8; 2];
    read_exact_or(r, &mut b, id)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read, id: u64) -> Result<u32, FrameError> {
    let mut b = [0u8; 4];
    read_exact_or(r, &mut b, id)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read, id: u64) -> Result<u64, FrameError> {
    let mut b = [0u8; 8];
    read_exact_or(r, &mut b, id)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read, id: u64) -> Result<f64, FrameError> {
    let mut b = [0u8; 8];
    read_exact_or(r, &mut b, id)?;
    Ok(f64::from_le_bytes(b))
}

/// Byte length of a score frame's fixed part: magic, version, type,
/// id, and the `dim` field.
const SCORE_HEADER_LEN: usize = 18;
/// Byte length of a Reload/Info frame (and of every frame up to its id).
const ID_HEADER_LEN: usize = 14;

/// How many bytes [`read_request`] consumes to decode the frame at the
/// start of `buf`, or `None` when `buf` holds only a prefix and the
/// decoder would need more bytes to reach an outcome.
///
/// The outcome may be an error: a bad magic is decided after 4 bytes,
/// a bad version after 5, an unknown type after the id, and a zero or
/// oversized `dim` after the header. A server that decodes only frames
/// this check calls complete never blocks on its socket mid-batch.
pub(crate) fn frame_len(buf: &[u8]) -> Option<usize> {
    let decided_at = |n: usize| (buf.len() >= n).then_some(n);
    if buf.get(..4)? != REQUEST_MAGIC {
        return decided_at(4);
    }
    if *buf.get(4)? != PROTOCOL_VERSION {
        return decided_at(5);
    }
    if *buf.get(5)? != TYPE_SCORE {
        return decided_at(ID_HEADER_LEN);
    }
    let dim =
        u32::from_le_bytes(buf.get(ID_HEADER_LEN..SCORE_HEADER_LEN)?.try_into().ok()?) as usize;
    if dim == 0 || dim > MAX_WIRE_DIM {
        return decided_at(SCORE_HEADER_LEN);
    }
    decided_at(SCORE_HEADER_LEN + dim * 8)
}

/// Reads one full request frame (blocking). A clean end of stream
/// before the first byte is [`FrameError::Closed`]; one inside the
/// frame is a fatal truncation.
pub fn read_request(r: &mut impl Read) -> Result<Request, FrameError> {
    let mut magic = [0u8; 4];
    match r.read(&mut magic[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(_) => return Err(fatal(0, "transport read failure")),
    }
    read_exact_or(r, &mut magic[1..], 0)?;
    if magic != REQUEST_MAGIC {
        return Err(fatal(0, "bad request magic"));
    }
    let version = read_u8(r, 0)?;
    if version != PROTOCOL_VERSION {
        return Err(fatal(0, "unsupported protocol version"));
    }
    let msg_type = read_u8(r, 0)?;
    let id = read_u64(r, 0)?;
    match msg_type {
        TYPE_SCORE => {
            let dim = read_u32(r, id)? as usize;
            if dim == 0 {
                return Err(FrameError::Malformed {
                    id,
                    reason: "zero feature dimension",
                });
            }
            if dim > MAX_WIRE_DIM {
                // Refusing to even read the payload loses sync: fatal.
                return Err(fatal(id, "implausible feature dimension"));
            }
            let mut raw = vec![0u8; dim * 8];
            read_exact_or(r, &mut raw, id)?;
            let features: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                .collect();
            if features.iter().any(|v| !v.is_finite()) {
                return Err(FrameError::Malformed {
                    id,
                    reason: "non-finite feature value",
                });
            }
            Ok(Request::Score { id, features })
        }
        TYPE_RELOAD => Ok(Request::Reload { id }),
        TYPE_INFO => Ok(Request::Info { id }),
        _ => Err(fatal(id, "unknown request type")),
    }
}

/// Serializes a request frame into `w` as a single write.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&REQUEST_MAGIC);
    buf.push(PROTOCOL_VERSION);
    match req {
        Request::Score { id, features } => {
            buf.push(TYPE_SCORE);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&(features.len() as u32).to_le_bytes());
            for v in features {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Reload { id } => {
            buf.push(TYPE_RELOAD);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        Request::Info { id } => {
            buf.push(TYPE_INFO);
            buf.extend_from_slice(&id.to_le_bytes());
        }
    }
    w.write_all(&buf)
}

/// Truncates an error message to [`MAX_ERROR_LEN`] bytes on a char
/// boundary.
fn truncate_msg(msg: &str) -> &str {
    if msg.len() <= MAX_ERROR_LEN {
        return msg;
    }
    let mut end = MAX_ERROR_LEN;
    while !msg.is_char_boundary(end) {
        end -= 1;
    }
    &msg[..end]
}

/// Serializes a reply frame into `w` as a single write.
pub fn write_reply(w: &mut impl Write, reply: &Reply) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&REPLY_MAGIC);
    buf.push(PROTOCOL_VERSION);
    match reply {
        Reply::Score {
            id,
            model_version,
            score,
            verdict,
        } => {
            buf.push(STATUS_SCORE);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&model_version.to_le_bytes());
            buf.extend_from_slice(&score.to_le_bytes());
            buf.push(verdict.to_byte());
        }
        Reply::BadRequest { id, reason } | Reply::ReloadFailed { id, reason } => {
            buf.push(if matches!(reply, Reply::BadRequest { .. }) {
                STATUS_BAD_REQUEST
            } else {
                STATUS_RELOAD_FAILED
            });
            buf.extend_from_slice(&id.to_le_bytes());
            let msg = truncate_msg(reason);
            buf.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            buf.extend_from_slice(msg.as_bytes());
        }
        Reply::Overloaded { id } => {
            buf.push(STATUS_OVERLOADED);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        Reply::ReloadOk { id, model_version } => {
            buf.push(STATUS_RELOAD_OK);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&model_version.to_le_bytes());
        }
        Reply::Info { id, info } => {
            buf.push(STATUS_INFO);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&info.model_version.to_le_bytes());
            buf.extend_from_slice(&info.n_features.to_le_bytes());
            for v in [
                info.accepted,
                info.shed,
                info.scored,
                info.reloads,
                info.bad_frames,
            ] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    w.write_all(&buf)
}

/// Reads one reply frame (client side, blocking).
pub fn read_reply(r: &mut impl Read) -> Result<Reply, FrameError> {
    let mut magic = [0u8; 4];
    match r.read(&mut magic[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            return Err(fatal(0, "timed out waiting for reply"))
        }
        Err(_) => return Err(fatal(0, "transport read failure")),
    }
    read_exact_or(r, &mut magic[1..], 0)?;
    if magic != REPLY_MAGIC {
        return Err(fatal(0, "bad reply magic"));
    }
    let version = read_u8(r, 0)?;
    if version != PROTOCOL_VERSION {
        return Err(fatal(0, "unsupported protocol version"));
    }
    let status = read_u8(r, 0)?;
    let id = read_u64(r, 0)?;
    match status {
        STATUS_SCORE => {
            let model_version = read_u32(r, id)?;
            let score = read_f64(r, id)?;
            let verdict = Verdict::from_byte(read_u8(r, id)?)
                .ok_or_else(|| fatal(id, "unknown verdict byte"))?;
            Ok(Reply::Score {
                id,
                model_version,
                score,
                verdict,
            })
        }
        STATUS_BAD_REQUEST | STATUS_RELOAD_FAILED => {
            let len = read_u16(r, id)? as usize;
            if len > MAX_ERROR_LEN {
                return Err(fatal(id, "implausible error-message length"));
            }
            let mut raw = vec![0u8; len];
            read_exact_or(r, &mut raw, id)?;
            let reason = String::from_utf8_lossy(&raw).into_owned();
            if status == STATUS_BAD_REQUEST {
                Ok(Reply::BadRequest { id, reason })
            } else {
                Ok(Reply::ReloadFailed { id, reason })
            }
        }
        STATUS_OVERLOADED => Ok(Reply::Overloaded { id }),
        STATUS_RELOAD_OK => {
            let model_version = read_u32(r, id)?;
            Ok(Reply::ReloadOk { id, model_version })
        }
        STATUS_INFO => {
            let model_version = read_u32(r, id)?;
            let n_features = read_u32(r, id)?;
            let mut vals = [0u64; 5];
            for v in &mut vals {
                *v = read_u64(r, id)?;
            }
            Ok(Reply::Info {
                id,
                info: ServerInfo {
                    model_version,
                    n_features,
                    accepted: vals[0],
                    shed: vals[1],
                    scored: vals[2],
                    reloads: vals[3],
                    bad_frames: vals[4],
                },
            })
        }
        _ => Err(fatal(id, "unknown reply status")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut buf.as_slice()).expect("round trip")
    }

    fn round_trip_reply(rep: Reply) -> Reply {
        let mut buf = Vec::new();
        write_reply(&mut buf, &rep).unwrap();
        read_reply(&mut buf.as_slice()).expect("round trip")
    }

    #[test]
    fn request_frames_round_trip() {
        let score = Request::Score {
            id: 42,
            features: vec![0.0, -1.5, 3.25e10],
        };
        assert_eq!(round_trip_request(score.clone()), score);
        assert_eq!(
            round_trip_request(Request::Reload { id: 7 }),
            Request::Reload { id: 7 }
        );
        assert_eq!(
            round_trip_request(Request::Info { id: 9 }),
            Request::Info { id: 9 }
        );
    }

    #[test]
    fn reply_frames_round_trip() {
        for rep in [
            Reply::Score {
                id: 1,
                model_version: 3,
                score: 0.125,
                verdict: Verdict::Alert,
            },
            Reply::BadRequest {
                id: 2,
                reason: "nope".into(),
            },
            Reply::Overloaded { id: 3 },
            Reply::ReloadOk {
                id: 4,
                model_version: 5,
            },
            Reply::ReloadFailed {
                id: 5,
                reason: "corrupt model artifact".into(),
            },
            Reply::Info {
                id: 6,
                info: ServerInfo {
                    model_version: 2,
                    n_features: 41,
                    accepted: 10,
                    shed: 1,
                    scored: 9,
                    reloads: 1,
                    bad_frames: 0,
                },
            },
        ] {
            assert_eq!(round_trip_reply(rep.clone()), rep);
        }
    }

    #[test]
    fn scores_round_trip_bit_exactly() {
        let vals = [0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, -1e308];
        for v in vals {
            let rep = Reply::Score {
                id: 0,
                model_version: 1,
                score: v,
                verdict: Verdict::Normal,
            };
            match round_trip_reply(rep) {
                Reply::Score { score, .. } => assert_eq!(score.to_bits(), v.to_bits()),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Score {
                id: 1,
                features: vec![1.0],
            },
        )
        .unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(FrameError::Fatal { .. })
        ));
    }

    #[test]
    fn wrong_version_is_fatal() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Info { id: 1 }).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(FrameError::Fatal { .. })
        ));
    }

    #[test]
    fn oversized_dim_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(1); // Score
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        match read_request(&mut buf.as_slice()) {
            Err(FrameError::Fatal { id, reason }) => {
                assert_eq!(id, 7);
                assert!(reason.contains("implausible"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn zero_dim_is_recoverable() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(1);
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(FrameError::Malformed { id: 3, .. })
        ));
    }

    #[test]
    fn nan_feature_is_recoverable() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Score {
                id: 11,
                features: vec![1.0, f64::NAN],
            },
        )
        .unwrap();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(FrameError::Malformed { id: 11, .. })
        ));
    }

    #[test]
    fn truncation_is_fatal_never_panics() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Score {
                id: 1,
                features: vec![1.0, 2.0, 3.0],
            },
        )
        .unwrap();
        for cut in 1..buf.len() {
            match read_request(&mut &buf[..cut]) {
                Err(FrameError::Fatal { .. }) | Err(FrameError::Closed) => {}
                other => panic!("cut {cut}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn long_error_messages_truncate_on_char_boundary() {
        let reason = "é".repeat(MAX_ERROR_LEN); // 2 bytes per char
        let rep = round_trip_reply(Reply::BadRequest { id: 1, reason });
        match rep {
            Reply::BadRequest { reason, .. } => {
                assert!(reason.len() <= MAX_ERROR_LEN);
                assert!(!reason.is_empty());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One request frame of the given kind: 0 valid Score, 1 Reload,
        /// 2 Info, 3 zero-dim Score, 4 Score declaring more than
        /// `MAX_WIRE_DIM` features, 5 a valid Score with bytes
        /// overwritten from `noise`, 6 `noise` itself.
        fn wire_frame(kind: usize, dim: usize, id: u64, big: u64, noise: &[u8]) -> Vec<u8> {
            let header = |dim: u32| {
                let mut f = REQUEST_MAGIC.to_vec();
                f.extend_from_slice(&[PROTOCOL_VERSION, TYPE_SCORE]);
                f.extend_from_slice(&id.to_le_bytes());
                f.extend_from_slice(&dim.to_le_bytes());
                f
            };
            let score = || {
                let features = (0..dim).map(|j| (id ^ j as u64) as f64 * 1e-3).collect();
                let mut f = Vec::new();
                write_request(&mut f, &Request::Score { id, features }).unwrap();
                f
            };
            match kind {
                0 => score(),
                1 | 2 => {
                    let mut f = Vec::new();
                    let req = if kind == 1 {
                        Request::Reload { id }
                    } else {
                        Request::Info { id }
                    };
                    write_request(&mut f, &req).unwrap();
                    f
                }
                3 => header(0),
                4 => {
                    let over = u64::from(u32::MAX) - MAX_WIRE_DIM as u64;
                    header((MAX_WIRE_DIM as u64 + 1 + big % over) as u32)
                }
                5 => {
                    let mut f = score();
                    for pair in noise.chunks_exact(2) {
                        let at = pair[0] as usize % f.len();
                        f[at] = pair[1];
                    }
                    f
                }
                _ => noise.to_vec(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Finite feature vectors survive the wire bit-exactly.
            #[test]
            fn features_round_trip_bit_exactly(
                id in 0u64..=u64::MAX,
                features in prop::collection::vec(-1e300f64..1e300, 1..128),
            ) {
                let req = Request::Score { id, features: features.clone() };
                match round_trip_request(req) {
                    Request::Score { id: rid, features: out } => {
                        prop_assert_eq!(rid, id);
                        prop_assert_eq!(out.len(), features.len());
                        for (a, b) in out.iter().zip(&features) {
                            prop_assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                    other => prop_assert!(false, "unexpected request {:?}", other),
                }
            }

            /// Arbitrary byte soup fed to the request decoder never
            /// panics; every outcome is a typed result.
            #[test]
            fn garbage_never_panics(bytes in prop::collection::vec(0u8..=u8::MAX, 0..256)) {
                let _ = read_request(&mut bytes.as_slice());
                let _ = read_reply(&mut bytes.as_slice());
            }

            /// `frame_len` calls a buffer complete only when the decoder
            /// can reach its outcome from those bytes alone, and then
            /// names exactly the bytes the decoder consumes. Every prefix
            /// of every frame kind is tried, with trailing bytes of a
            /// following frame behind it.
            #[test]
            fn frame_len_never_calls_a_prefix_complete(
                (kind, dim, id, big) in (0usize..7, 1usize..12, 0u64..=u64::MAX, 0u64..=u64::MAX),
                noise in prop::collection::vec(0u8..=u8::MAX, 0..24),
                tail in prop::collection::vec(0u8..=u8::MAX, 0..24),
            ) {
                let mut buf = wire_frame(kind, dim, id, big, &noise);
                let frame_end = buf.len();
                buf.extend_from_slice(&tail);
                for cut in 0..=buf.len() {
                    let prefix = &buf[..cut];
                    let mut rest = prefix;
                    let outcome = read_request(&mut rest);
                    let consumed = cut - rest.len();
                    let truncated = matches!(
                        outcome,
                        Err(FrameError::Closed) | Err(FrameError::Fatal { reason: "truncated frame", .. })
                    );
                    match frame_len(prefix) {
                        Some(n) => {
                            prop_assert!(!truncated, "cut {}: complete but decoder wants more", cut);
                            prop_assert_eq!(n, consumed, "cut {}", cut);
                        }
                        None => prop_assert!(truncated, "cut {}: incomplete but decoder finished: {:?}", cut, outcome),
                    }
                }
                // An ungarbled frame is always complete at its own end.
                if kind < 5 {
                    prop_assert!(frame_len(&buf[..frame_end]).is_some());
                }
            }
        }
    }
}
