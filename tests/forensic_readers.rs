//! No-panic properties of the forensic readers, which parse bytes from
//! disk after a fault: `ledger::verify` (the hash-chained provenance
//! ledger), `flight::validate_flight` (crash dumps), and the JSONL trace
//! readers (`trace::validate_jsonl` and the phase, latency and timeline
//! reports behind `observe`).
//!
//! Arbitrary text, a valid stream cut inside a line, and a valid stream
//! with one byte flipped must each come back as a typed `Err`, never a
//! panic. Two mutations can legitimately still parse, so for them the
//! property is only "no panic": a cut on a line boundary leaves a
//! shorter valid stream, and a flight dump carries no checksum, so a
//! flipped byte in an event's text is still a well-formed dump. A
//! ledger entry's body is covered by its hash, so any flipped body byte
//! must fail verification. A trace has no checksum either, and its
//! reports skip lines they do not read, so for the trace readers every
//! mutation is held to "no panic" (and a mid-line cut to `Err` from the
//! validator).

use std::sync::OnceLock;

use cnd_ids::core::streaming::{ContinualEvent, Trigger};
use cnd_ids::obs;
use cnd_ids::obs::flight;
use cnd_ids::obs::hdr::HdrHistogram;
use cnd_ids::obs::ledger::{
    verify, Disposition, DriftProvenance, EntryDraft, Ledger, SampleProvenance, ShadowProvenance,
};
use proptest::prelude::*;

fn valid_ledger() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut ledger = Ledger::new();
        ledger.append(EntryDraft {
            cycle: 1,
            kind: Disposition::Swapped,
            version: 2,
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
            detail: "shadow gate passed".into(),
        });
        ledger.append(EntryDraft {
            cycle: 1,
            kind: Disposition::RolledBack,
            version: 2,
            parent: 1,
            drift: None,
            samples: None,
            shadow: None,
            detail: "probation alert rate 0.812; restored v3".into(),
        });
        ledger.to_jsonl()
    })
}

fn valid_dump() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        flight::record(
            "continual",
            "retrain_spawning",
            Some(1),
            "attempt 1, 64 samples",
        );
        flight::record(
            "resilience",
            "watchdog_rollback",
            None,
            "attempt 2 rolled back",
        );
        flight::dump("watchdog rollback: training diverged")
    })
}

/// A valid deterministic trace holding a span, an `hdr` metric, and the
/// `cevent` lines of both continual hosts: a `stream` retrain and a
/// `serve` drift-to-rollback cycle.
fn valid_trace() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let _session = obs::Session::deterministic();
        let shadow = ShadowProvenance {
            live_f1: 0.91,
            cand_f1: 0.93,
            live_pr_auc: 0.95,
            cand_pr_auc: 0.96,
            tau: 1.25,
        };
        let events = [
            ContinualEvent::RetrainStarted {
                cycle: 1,
                trigger: Trigger::BufferFull,
                samples: 2000,
                attempt: 1,
            },
            ContinualEvent::DriftDetected {
                cycle: 2,
                drift: DriftProvenance {
                    psi: 0.31,
                    sym_kl: 0.74,
                    window: 64,
                },
            },
            ContinualEvent::Swapped {
                cycle: 2,
                samples: 512,
                version: 2,
                shadow,
            },
            ContinualEvent::RolledBack {
                cycle: 2,
                from_version: 2,
                restored_version: 3,
                alert_rate: 0.812,
            },
        ];
        {
            let _span = obs::span!("stream.retrain", samples = 2000);
            for e in &events {
                obs::continual_event(e.cycle(), e.kind().as_str(), &e.to_string());
            }
        }
        let mut latency = HdrHistogram::new();
        for us in [3, 40, 500, 6000] {
            latency.record(us);
        }
        obs::hdr_merge("serve.stage.total.us", &latency);
        obs::snapshot_jsonl()
    })
}

#[test]
fn the_trace_fixture_holds_both_hosts_cycles() {
    let timeline = obs::timeline_report(valid_trace()).expect("timeline parses");
    let kinds = |cycle| -> Vec<String> {
        let chain = timeline.chain(cycle).expect("cycle present");
        chain.stages.iter().map(|s| s.kind.clone()).collect()
    };
    assert_eq!(kinds(1), ["retrain_started"]);
    assert_eq!(kinds(2), ["drift_detected", "swapped", "rolled_back"]);
    assert_eq!(obs::latency_report(valid_trace()).unwrap().rows.len(), 1);
}

/// Runs every trace reader on `text`; a panic fails the property.
/// Returns whether the validator accepted it.
fn read_trace(text: &str) -> bool {
    let _ = obs::phase_report(text);
    let _ = obs::latency_report(text);
    let _ = obs::timeline_report(text);
    obs::trace::validate_jsonl(text).is_ok()
}

/// Byte ranges of each entry's body: from the start of an entry line to
/// its `"prev_hash"` field (the hash fields are parsed as numbers, so a
/// flipped hex letter's case can still name the same hash).
fn body_ranges(text: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if let Some(end) = line.find(",\"prev_hash\"") {
            ranges.push((at, at + end));
        }
        at += line.len();
    }
    ranges
}

/// `text` with the byte at `index` XORed with `mask` (1..=127 keeps it
/// ASCII, so the result is still a `str`).
fn flip(text: &str, index: usize, mask: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    bytes[index] ^= mask;
    String::from_utf8(bytes).expect("ascii stays utf-8")
}

/// Arbitrary text: JSON punctuation and the readers' own keywords (so
/// cases get past the first parse), then arbitrary code points.
fn text() -> impl Strategy<Value = String> {
    let token = prop::sample::select(vec![
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\n",
        " ",
        "0",
        "-1",
        "1e999",
        "\"ev\"",
        "\"meta\"",
        "\"stream\"",
        "\"ledger\"",
        "\"flight\"",
        "\"version\"",
        "null",
        "\u{e9}",
    ]);
    (
        prop::collection::vec(token, 0..40),
        prop::collection::vec(0u32..0x11_0000, 0..40),
    )
        .prop_map(|(tokens, code_points)| {
            let mut text = tokens.concat();
            text.extend(code_points.into_iter().filter_map(char::from_u32));
            text
        })
}

/// `true` when cutting `text` at `cut` leaves a partial last line.
fn cuts_mid_line(text: &str, cut: usize) -> bool {
    cut > 0 && text.as_bytes()[cut - 1] != b'\n' && text.as_bytes()[cut] != b'\n'
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_verify_rejects_arbitrary_text(text in text()) {
        prop_assert!(verify(&text).is_err());
    }

    #[test]
    fn ledger_verify_rejects_mid_line_truncation(cut in 0usize..1 << 30) {
        let text = valid_ledger();
        prop_assert!(text.is_ascii());
        let cut = cut % text.len();
        let result = verify(&text[..cut]);
        if cuts_mid_line(text, cut) {
            prop_assert!(result.is_err(), "cut at {} verified", cut);
        }
    }

    #[test]
    fn ledger_verify_rejects_flipped_body_bytes(
        pick in 0usize..1 << 30,
        anywhere in 0usize..1 << 30,
        mask in 1u8..128,
    ) {
        let text = valid_ledger();
        // Any byte: no panic.
        let _ = verify(&flip(text, anywhere % text.len(), mask));
        // A byte of an entry body: the hash chain catches it.
        let ranges = body_ranges(text);
        let body_len: usize = ranges.iter().map(|(lo, hi)| hi - lo).sum();
        let mut offset = pick % body_len;
        let index = ranges
            .iter()
            .find_map(|&(lo, hi)| {
                if offset < hi - lo {
                    Some(lo + offset)
                } else {
                    offset -= hi - lo;
                    None
                }
            })
            .expect("offset lies in a body");
        prop_assert!(verify(&flip(text, index, mask)).is_err(), "flip at {} verified", index);
    }

    #[test]
    fn flight_validate_rejects_arbitrary_text(text in text()) {
        prop_assert!(flight::validate_flight(&text).is_err());
    }

    #[test]
    fn flight_validate_rejects_mid_line_truncation(cut in 0usize..1 << 30) {
        let text = valid_dump();
        prop_assert!(text.is_ascii());
        let cut = cut % text.len();
        let result = flight::validate_flight(&text[..cut]);
        if cuts_mid_line(text, cut) {
            prop_assert!(result.is_err(), "cut at {} validated", cut);
        }
    }

    #[test]
    fn trace_readers_never_panic_on_arbitrary_text(text in text()) {
        read_trace(&text);
    }

    #[test]
    fn trace_readers_reject_mid_line_truncation(cut in 0usize..1 << 30) {
        let text = valid_trace();
        prop_assert!(text.is_ascii());
        let cut = cut % text.len();
        prop_assert!(read_trace(text), "the uncut trace validates");
        let validated = read_trace(&text[..cut]);
        if cuts_mid_line(text, cut) {
            prop_assert!(!validated, "cut at {} validated", cut);
        }
    }

    #[test]
    fn trace_readers_never_panic_on_a_flipped_byte(
        index in 0usize..1 << 30,
        mask in 1u8..128,
    ) {
        let text = valid_trace();
        read_trace(&flip(text, index % text.len(), mask));
    }

    #[test]
    fn flight_validate_never_panics_on_a_flipped_byte(
        index in 0usize..1 << 30,
        mask in 1u8..128,
    ) {
        let text = valid_dump();
        let _ = flight::validate_flight(&flip(text, index % text.len(), mask));
    }
}
