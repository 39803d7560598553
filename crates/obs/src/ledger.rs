//! Append-only model provenance ledger.
//!
//! Every disposition the continual-learning control plane takes — a validated
//! swap, a shadow-gate rejection, a refused artifact, a trainer failure, a
//! probation verdict, a rollback — is recorded as one immutable entry. Entries
//! are keyed by the *cycle id* minted when a drift verdict armed the retrain,
//! so the full detect→retrain→validate→swap→probation→rollback chain for any
//! model version can be reconstructed after the fact.
//!
//! The ledger is persisted as JSONL with a content-hash chain: each entry
//! hashes its own canonical body together with the hash of the previous entry
//! (FNV-1a 64-bit, hand-rolled so the chain is stable across toolchains).
//! Any edit, reorder, or truncation-then-append of the file breaks
//! verification. Truncation of the *tail* alone is detectable whenever the
//! caller knows the expected entry count or compares against a trusted head
//! hash; `verify` always reports the final chain hash for that purpose.
//!
//! Schema (one JSON object per line, meta first):
//!
//! ```text
//! {"ev":"meta","stream":"ledger","version":1}
//! {"ev":"ledger","seq":0,"cycle":1,"kind":"swapped","t_us":...,
//!  "version":2,"parent":1,
//!  "drift":{"psi":...,"sym_kl":...,"window":64},
//!  "samples":{"train":512,"mirror_seen":600,"mirror_dropped":0,"poisoned":0},
//!  "shadow":{"live_f1":...,"cand_f1":...,"live_pr_auc":...,"cand_pr_auc":...,"tau":...},
//!  "detail":"...","prev_hash":"<16 hex>","hash":"<16 hex>"}
//! ```
//!
//! `drift`, `samples`, and `shadow` are optional per kind: a `trainer_failed`
//! entry has no shadow report, a `probation_passed` entry no sample counts.

use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as IoWrite;
use std::path::{Path, PathBuf};

use crate::json::{escape_json, parse_json, write_f64, Json, ObsError};

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json(s, &mut out);
    out
}

/// Ledger stream schema version.
pub const LEDGER_VERSION: u64 = 1;

/// Seed for the hash chain: FNV-1a 64-bit offset basis. The genesis entry
/// chains from this constant instead of a previous hash.
pub const GENESIS_HASH: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte string. Stable across platforms and Rust
/// versions, unlike `DefaultHasher` (randomly keyed SipHash).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = GENESIS_HASH;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What the control plane did at the end of (or during) a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Candidate passed the shadow gate and was swapped in (probation begins).
    Swapped,
    /// Candidate failed the shadow gate; never swapped.
    ShadowRejected,
    /// Candidate artifact was refused at reload time (corrupt / dim mismatch).
    SwapRefused,
    /// Trainer thread failed (panic, error, or non-finite loss).
    TrainerFailed,
    /// Candidate survived probation and became the new stable model.
    ProbationPassed,
    /// Candidate was rolled back to last-known-good during probation.
    RolledBack,
}

impl Disposition {
    /// Stable string form used in the JSONL `kind` field.
    pub fn as_str(&self) -> &'static str {
        match self {
            Disposition::Swapped => "swapped",
            Disposition::ShadowRejected => "shadow_rejected",
            Disposition::SwapRefused => "swap_refused",
            Disposition::TrainerFailed => "trainer_failed",
            Disposition::ProbationPassed => "probation_passed",
            Disposition::RolledBack => "rolled_back",
        }
    }

    /// Inverse of [`Disposition::as_str`].
    pub fn parse(s: &str) -> Option<Disposition> {
        Some(match s {
            "swapped" => Disposition::Swapped,
            "shadow_rejected" => Disposition::ShadowRejected,
            "swap_refused" => Disposition::SwapRefused,
            "trainer_failed" => Disposition::TrainerFailed,
            "probation_passed" => Disposition::ProbationPassed,
            "rolled_back" => Disposition::RolledBack,
            _ => return None,
        })
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The drift verdict that armed the cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftProvenance {
    /// Population stability index at detection.
    pub psi: f64,
    /// Symmetric KL divergence at detection.
    pub sym_kl: f64,
    /// Drift-window size (samples per comparison window).
    pub window: u64,
}

/// Training-data provenance: how many samples trained the candidate and what
/// the mirror / poisoning filter saw while they were collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleProvenance {
    /// Samples the candidate was trained on.
    pub train: u64,
    /// Total flows the traffic mirror observed.
    pub mirror_seen: u64,
    /// Flows the mirror dropped (buffer full).
    pub mirror_dropped: u64,
    /// Samples rejected by the poisoning filter.
    pub poisoned: u64,
}

/// Shadow-gate outcome for the candidate vs the live model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowProvenance {
    /// Live model best-F1 on the validation split.
    pub live_f1: f64,
    /// Candidate best-F1 on the validation split.
    pub cand_f1: f64,
    /// Live model PR-AUC.
    pub live_pr_auc: f64,
    /// Candidate PR-AUC.
    pub cand_pr_auc: f64,
    /// Probation alert threshold (score quantile) chosen for the candidate.
    pub tau: f64,
}

/// Caller-supplied portion of a ledger entry; `Ledger::append` assigns the
/// sequence number, timestamp, and hash chain.
#[derive(Debug, Clone)]
pub struct EntryDraft {
    /// Cycle id minted when the drift verdict armed the retrain.
    pub cycle: u64,
    /// What the control plane did.
    pub kind: Disposition,
    /// Candidate model version this entry concerns (0 when none was minted).
    pub version: u64,
    /// Model version that was serving when the cycle armed.
    pub parent: u64,
    /// Drift verdict that armed the cycle, when known.
    pub drift: Option<DriftProvenance>,
    /// Training-data provenance, when a candidate was trained.
    pub samples: Option<SampleProvenance>,
    /// Shadow-gate outcome, when the candidate was evaluated.
    pub shadow: Option<ShadowProvenance>,
    /// Free-form human-readable context (reason strings, alert rates).
    pub detail: String,
}

/// One immutable, hash-chained ledger record.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Zero-based position in the ledger (strictly increasing).
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch at append time.
    pub t_us: u64,
    /// Cycle id this entry belongs to.
    pub cycle: u64,
    /// What the control plane did.
    pub kind: Disposition,
    /// Candidate model version (0 when none was minted).
    pub version: u64,
    /// Model version serving when the cycle armed.
    pub parent: u64,
    /// Drift verdict that armed the cycle, when known.
    pub drift: Option<DriftProvenance>,
    /// Training-data provenance, when a candidate was trained.
    pub samples: Option<SampleProvenance>,
    /// Shadow-gate outcome, when the candidate was evaluated.
    pub shadow: Option<ShadowProvenance>,
    /// Free-form human-readable context.
    pub detail: String,
    /// Hash of the previous entry ([`GENESIS_HASH`] for the first).
    pub prev_hash: u64,
    /// FNV-1a 64 over this entry's canonical body (which includes
    /// `prev_hash`, chaining the records).
    pub hash: u64,
}

impl LedgerEntry {
    /// Canonical body string the hash covers: everything except `hash` itself.
    /// This is also exactly the JSONL line minus the trailing `,"hash":"..."}`,
    /// so a verifier can recompute it from parsed fields.
    fn canonical_body(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"ev\":\"ledger\",\"seq\":{},\"t_us\":{},\"cycle\":{},\"kind\":\"{}\",\"version\":{},\"parent\":{}",
            self.seq, self.t_us, self.cycle, self.kind, self.version, self.parent
        ));
        if let Some(d) = &self.drift {
            s.push_str(",\"drift\":{\"psi\":");
            write_f64(d.psi, &mut s);
            s.push_str(",\"sym_kl\":");
            write_f64(d.sym_kl, &mut s);
            s.push_str(&format!(",\"window\":{}}}", d.window));
        }
        if let Some(sm) = &self.samples {
            s.push_str(&format!(
                ",\"samples\":{{\"train\":{},\"mirror_seen\":{},\"mirror_dropped\":{},\"poisoned\":{}}}",
                sm.train, sm.mirror_seen, sm.mirror_dropped, sm.poisoned
            ));
        }
        if let Some(sh) = &self.shadow {
            s.push_str(",\"shadow\":{\"live_f1\":");
            write_f64(sh.live_f1, &mut s);
            s.push_str(",\"cand_f1\":");
            write_f64(sh.cand_f1, &mut s);
            s.push_str(",\"live_pr_auc\":");
            write_f64(sh.live_pr_auc, &mut s);
            s.push_str(",\"cand_pr_auc\":");
            write_f64(sh.cand_pr_auc, &mut s);
            s.push_str(",\"tau\":");
            write_f64(sh.tau, &mut s);
            s.push('}');
        }
        s.push_str(&format!(
            ",\"detail\":\"{}\",\"prev_hash\":\"{:016x}\"",
            esc(&self.detail),
            self.prev_hash
        ));
        s
    }

    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = self.canonical_body();
        s.push_str(&format!(",\"hash\":\"{:016x}\"}}", self.hash));
        s
    }

    fn compute_hash(&self) -> u64 {
        fnv1a64(self.canonical_body().as_bytes())
    }
}

/// Append-only in-memory ledger with optional JSONL persistence.
///
/// When a path is attached, every appended entry is flushed to the file
/// immediately (meta line written on attach), so a crash mid-run leaves a
/// verifiable prefix on disk.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
    path: Option<PathBuf>,
}

impl Ledger {
    /// An empty in-memory ledger with no persistence path.
    pub fn new() -> Self {
        Ledger {
            entries: Vec::new(),
            path: None,
        }
    }

    /// Attach a persistence path. Truncates any existing file and writes the
    /// meta line plus all entries recorded so far.
    pub fn attach_path(&mut self, path: &Path) -> std::io::Result<()> {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        writeln!(f, "{}", Self::meta_line())?;
        for e in &self.entries {
            writeln!(f, "{}", e.to_json_line())?;
        }
        f.flush()?;
        self.path = Some(path.to_path_buf());
        Ok(())
    }

    fn meta_line() -> String {
        format!("{{\"ev\":\"meta\",\"stream\":\"ledger\",\"version\":{LEDGER_VERSION}}}")
    }

    /// Append a draft: assigns seq, timestamp, and hash chain, persists if a
    /// path is attached, and returns the sealed entry.
    pub fn append(&mut self, draft: EntryDraft) -> &LedgerEntry {
        let prev_hash = self.entries.last().map(|e| e.hash).unwrap_or(GENESIS_HASH);
        let mut entry = LedgerEntry {
            seq: self.entries.len() as u64,
            t_us: wall_us(),
            cycle: draft.cycle,
            kind: draft.kind,
            version: draft.version,
            parent: draft.parent,
            drift: draft.drift,
            samples: draft.samples,
            shadow: draft.shadow,
            detail: draft.detail,
            prev_hash,
            hash: 0,
        };
        entry.hash = entry.compute_hash();
        if let Some(p) = &self.path {
            // Best-effort append; the in-memory ledger stays authoritative.
            if let Ok(mut f) = OpenOptions::new().append(true).open(p) {
                let _ = writeln!(f, "{}", entry.to_json_line());
            }
        }
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// All entries in append order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of entries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries belonging to one cycle, in append order.
    pub fn cycle_entries(&self, cycle: u64) -> Vec<&LedgerEntry> {
        self.entries.iter().filter(|e| e.cycle == cycle).collect()
    }

    /// Hash of the newest entry (the chain head), or `GENESIS_HASH` if empty.
    pub fn head_hash(&self) -> u64 {
        self.entries.last().map(|e| e.hash).unwrap_or(GENESIS_HASH)
    }

    /// Serialize the whole ledger (meta line + entries) to JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = Self::meta_line();
        out.push('\n');
        for e in &self.entries {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn req_u64(obj: &Json, key: &str, line: usize) -> Result<u64, ObsError> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| ObsError::at(line, format!("missing or non-integer \"{key}\"")))
}

fn req_f64(obj: &Json, key: &str, line: usize) -> Result<f64, ObsError> {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| ObsError::at(line, format!("missing or non-numeric \"{key}\"")))
}

fn req_str<'a>(obj: &'a Json, key: &str, line: usize) -> Result<&'a str, ObsError> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ObsError::at(line, format!("missing or non-string \"{key}\"")))
}

fn parse_hash(s: &str, line: usize, key: &str) -> Result<u64, ObsError> {
    if s.len() != 16 {
        return Err(ObsError::at(
            line,
            format!("\"{key}\" must be 16 hex chars, got {s:?}"),
        ));
    }
    u64::from_str_radix(s, 16)
        .map_err(|_| ObsError::at(line, format!("\"{key}\" is not hex: {s:?}")))
}

/// Parse + schema-validate + hash-chain-verify a JSONL ledger stream.
///
/// Errors describe the first violation: schema problems, sequence gaps,
/// broken chain links, or a hash that does not match its entry body
/// (i.e. tampering). Returns the reconstructed entries on success.
pub fn verify(text: &str) -> Result<Vec<LedgerEntry>, ObsError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, meta_line) = lines
        .next()
        .ok_or_else(|| ObsError::new("empty ledger stream"))?;
    let meta =
        parse_json(meta_line).map_err(|e| ObsError::new(format!("meta line: {}", e.message)))?;
    if meta.get("ev").and_then(|v| v.as_str()) != Some("meta") {
        return Err(ObsError::new("first line must be a meta event"));
    }
    if meta.get("stream").and_then(|v| v.as_str()) != Some("ledger") {
        return Err(ObsError::new(
            "meta line is not a ledger stream (missing \"stream\":\"ledger\")",
        ));
    }
    match meta.get("version").and_then(|v| v.as_u64()) {
        Some(LEDGER_VERSION) => {}
        Some(v) => return Err(ObsError::new(format!("unsupported ledger version {v}"))),
        None => return Err(ObsError::new("meta line missing version")),
    }

    let mut entries: Vec<LedgerEntry> = Vec::new();
    let mut prev_hash = GENESIS_HASH;
    for (idx, raw) in lines {
        let line = idx + 1;
        let obj = parse_json(raw).map_err(|e| ObsError::at(line, e.message))?;
        if obj.get("ev").and_then(|v| v.as_str()) != Some("ledger") {
            return Err(ObsError::at(line, "expected \"ev\":\"ledger\""));
        }
        let seq = req_u64(&obj, "seq", line)?;
        if seq != entries.len() as u64 {
            return Err(ObsError::at(
                line,
                format!("sequence gap: expected seq {} got {seq}", entries.len()),
            ));
        }
        let kind_s = req_str(&obj, "kind", line)?;
        let kind = Disposition::parse(kind_s)
            .ok_or_else(|| ObsError::at(line, format!("unknown disposition {kind_s:?}")))?;
        let drift = match obj.get("drift") {
            None => None,
            Some(d) => Some(DriftProvenance {
                psi: req_f64(d, "psi", line)?,
                sym_kl: req_f64(d, "sym_kl", line)?,
                window: req_u64(d, "window", line)?,
            }),
        };
        let samples = match obj.get("samples") {
            None => None,
            Some(s) => Some(SampleProvenance {
                train: req_u64(s, "train", line)?,
                mirror_seen: req_u64(s, "mirror_seen", line)?,
                mirror_dropped: req_u64(s, "mirror_dropped", line)?,
                poisoned: req_u64(s, "poisoned", line)?,
            }),
        };
        let shadow = match obj.get("shadow") {
            None => None,
            Some(s) => Some(ShadowProvenance {
                live_f1: req_f64(s, "live_f1", line)?,
                cand_f1: req_f64(s, "cand_f1", line)?,
                live_pr_auc: req_f64(s, "live_pr_auc", line)?,
                cand_pr_auc: req_f64(s, "cand_pr_auc", line)?,
                tau: req_f64(s, "tau", line)?,
            }),
        };
        // Per-kind required provenance: swaps and shadow verdicts must carry
        // the evidence they were decided on.
        match kind {
            Disposition::Swapped if drift.is_none() || samples.is_none() || shadow.is_none() => {
                return Err(ObsError::at(
                    line,
                    "\"swapped\" entry requires drift, samples, and shadow provenance",
                ));
            }
            Disposition::ShadowRejected if shadow.is_none() => {
                return Err(ObsError::at(
                    line,
                    "\"shadow_rejected\" entry requires shadow provenance",
                ));
            }
            _ => {}
        }
        let entry = LedgerEntry {
            seq,
            t_us: req_u64(&obj, "t_us", line)?,
            cycle: req_u64(&obj, "cycle", line)?,
            kind,
            version: req_u64(&obj, "version", line)?,
            parent: req_u64(&obj, "parent", line)?,
            drift,
            samples,
            shadow,
            detail: req_str(&obj, "detail", line)?.to_string(),
            prev_hash: parse_hash(req_str(&obj, "prev_hash", line)?, line, "prev_hash")?,
            hash: parse_hash(req_str(&obj, "hash", line)?, line, "hash")?,
        };
        if entry.prev_hash != prev_hash {
            return Err(ObsError::at(
                line,
                format!(
                    "broken hash chain: prev_hash {:016x} does not match prior entry hash {prev_hash:016x}",
                    entry.prev_hash
                ),
            ));
        }
        let expect = entry.compute_hash();
        if entry.hash != expect {
            return Err(ObsError::at(
                line,
                format!(
                    "entry hash {:016x} does not match body hash {expect:016x} (tampered?)",
                    entry.hash
                ),
            ));
        }
        prev_hash = entry.hash;
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(cycle: u64, kind: Disposition, version: u64) -> EntryDraft {
        EntryDraft {
            cycle,
            kind,
            version,
            parent: 1,
            drift: Some(DriftProvenance {
                psi: 0.31,
                sym_kl: 0.74,
                window: 64,
            }),
            samples: Some(SampleProvenance {
                train: 512,
                mirror_seen: 600,
                mirror_dropped: 3,
                poisoned: 2,
            }),
            shadow: Some(ShadowProvenance {
                live_f1: 0.91,
                cand_f1: 0.93,
                live_pr_auc: 0.95,
                cand_pr_auc: 0.96,
                tau: 1.25,
            }),
            detail: "swap \"quoted\" detail".into(),
        }
    }

    #[test]
    fn round_trip_verifies() {
        let mut l = Ledger::new();
        l.append(draft(1, Disposition::Swapped, 2));
        l.append(EntryDraft {
            shadow: None,
            samples: None,
            ..draft(1, Disposition::RolledBack, 2)
        });
        l.append(EntryDraft {
            drift: None,
            samples: None,
            ..draft(2, Disposition::ShadowRejected, 0)
        });
        let text = l.to_jsonl();
        let entries = verify(&text).expect("chain verifies");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].kind, Disposition::Swapped);
        assert_eq!(entries[0].prev_hash, GENESIS_HASH);
        assert_eq!(entries[1].prev_hash, entries[0].hash);
        assert_eq!(entries[2].cycle, 2);
        assert_eq!(entries[2].detail, "swap \"quoted\" detail");
        assert_eq!(l.head_hash(), entries[2].hash);
    }

    #[test]
    fn tampered_field_breaks_verification() {
        let mut l = Ledger::new();
        l.append(draft(1, Disposition::Swapped, 2));
        let text = l.to_jsonl().replace("\"version\":2", "\"version\":7");
        let err = verify(&text).unwrap_err();
        assert_eq!(err.line, Some(2), "got: {err}");
        assert!(
            err.message.contains("does not match body hash"),
            "got: {err}"
        );
    }

    #[test]
    fn reordered_entries_break_chain() {
        let mut l = Ledger::new();
        l.append(draft(1, Disposition::Swapped, 2));
        l.append(EntryDraft {
            shadow: None,
            samples: None,
            ..draft(1, Disposition::RolledBack, 2)
        });
        let text = l.to_jsonl();
        let mut lines: Vec<&str> = text.lines().map(|l| l.trim()).collect();
        lines.swap(1, 2);
        let err = verify(&lines.join("\n")).unwrap_err();
        assert!(
            err.message.contains("sequence gap") || err.message.contains("broken hash chain"),
            "got: {err}"
        );
    }

    #[test]
    fn truncated_head_is_detected() {
        let mut l = Ledger::new();
        l.append(draft(1, Disposition::Swapped, 2));
        l.append(EntryDraft {
            shadow: None,
            samples: None,
            ..draft(1, Disposition::RolledBack, 2)
        });
        // Drop the first entry but keep the meta line: chain no longer starts
        // at the genesis hash.
        let full = l.to_jsonl();
        let lines: Vec<&str> = full.lines().collect();
        let text = format!("{}\n{}", lines[0], lines[2]);
        let err = verify(&text).unwrap_err();
        assert_eq!(
            err,
            ObsError::at(2, "sequence gap: expected seq 0 got 1"),
            "got: {err}"
        );
    }

    #[test]
    fn swapped_requires_full_provenance() {
        let mut l = Ledger::new();
        l.append(EntryDraft {
            shadow: None,
            ..draft(1, Disposition::Swapped, 2)
        });
        let err = verify(&l.to_jsonl()).unwrap_err();
        assert_eq!(err.line, Some(2), "got: {err}");
        assert!(
            err.message.contains("requires drift, samples, and shadow"),
            "got: {err}"
        );
    }

    #[test]
    fn persists_and_reloads_from_disk() {
        let dir = std::env::temp_dir().join(format!("cnd_ledger_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let mut l = Ledger::new();
        l.append(draft(1, Disposition::Swapped, 2));
        l.attach_path(&path).unwrap();
        l.append(EntryDraft {
            shadow: None,
            samples: None,
            ..draft(1, Disposition::RolledBack, 2)
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = verify(&text).expect("on-disk ledger verifies");
        assert_eq!(entries.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned vectors: the chain must not change across toolchains.
        assert_eq!(fnv1a64(b""), GENESIS_HASH);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
