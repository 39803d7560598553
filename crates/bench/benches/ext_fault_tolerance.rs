//! **Extension:** detection quality under injected input corruption.
//!
//! The resilience layer (`cnd_core::resilience`) claims that the input
//! guard + training watchdog keep the streaming pipeline's detection
//! quality intact when a fraction of incoming flows is corrupted
//! (NaN/Inf fields, huge magnitudes, truncated records). This bench
//! quantifies the claim on the X-IIoTID replica: the same seeded stream
//! is replayed at increasing corruption rates through the fault-tolerant
//! pipeline, and pooled Best-F F1 is compared against the fault-free
//! run.
//!
//! Shape check: at 5% corruption the relative F1 degradation must stay
//! under 10%, with zero panics and every reported score finite.

use cnd_bench::{banner, row, standard_split, BENCH_SEED};
use cnd_core::resilience::{ResilientConfig, ResilientStreamingCndIds, ScriptedFaults};
use cnd_core::runner::evaluate_resilient_streaming;
use cnd_core::streaming::{EventKind, Mode, StreamingConfig};
use cnd_core::{CndIds, CndIdsConfig};
use cnd_datasets::DatasetProfile;

fn main() {
    banner(
        "Extension — streaming F1 under injected input corruption",
        "resilience layer: quarantine + watchdog keep quality under faults",
    );
    let (_, split) = standard_split(DatasetProfile::XIiotId);

    let config = ResilientConfig {
        streaming: StreamingConfig {
            max_buffer: 1_500,
            bootstrap_batch: 600,
            min_batch: 200,
            drift_window: 100,
        },
        ..ResilientConfig::default()
    };

    let widths = [8, 10, 10, 12, 9, 8, 10];
    println!(
        "{}",
        row(
            &[
                "rate".into(),
                "F1".into(),
                "ΔF1 rel".into(),
                "quarantined".into(),
                "trained".into(),
                "failed".into(),
                "mode".into(),
            ],
            &widths
        )
    );

    let mut baseline_f1 = None;
    let mut f1_at_5pct = None;
    for rate in [0.0, 0.01, 0.05, 0.10] {
        let model =
            CndIds::new(CndIdsConfig::fast(BENCH_SEED), &split.clean_normal).expect("model builds");
        let mut stream = ResilientStreamingCndIds::new(model, config).expect("valid config");
        if rate > 0.0 {
            stream.set_fault_injector(Box::new(
                ScriptedFaults::new(BENCH_SEED).with_corruption_rate(rate),
            ));
        }
        let out = evaluate_resilient_streaming(&mut stream, &split, 256)
            .expect("streaming run completes");
        let rel_drop = match baseline_f1 {
            None => {
                baseline_f1 = Some(out.pooled_f1);
                0.0
            }
            Some(base) => (base - out.pooled_f1) / base.max(1e-12),
        };
        if rate == 0.05 {
            f1_at_5pct = Some((out.pooled_f1, rel_drop));
        }
        println!(
            "{}",
            row(
                &[
                    format!("{:.0}%", rate * 100.0),
                    format!("{:.3}", out.pooled_f1),
                    format!("{:+.1}%", rel_drop * 100.0),
                    format!("{}", out.status.quarantine.total()),
                    format!("{}", out.status.count(EventKind::Trained)),
                    format!("{}", out.status.count(EventKind::TrainerFailed)),
                    format!("{}", out.status.mode),
                ],
                &widths
            )
        );
        assert!(out.pooled_f1.is_finite(), "pooled F1 must be finite");
        assert_eq!(
            out.status.mode,
            Mode::Normal,
            "input corruption alone must not degrade"
        );
        if rate > 0.0 {
            assert!(
                out.status.quarantine.total() > 0,
                "corruption at rate {rate} must be quarantined"
            );
        }
    }

    let base = baseline_f1.expect("fault-free run executed");
    let (f1_5, drop_5) = f1_at_5pct.expect("5% run executed");
    println!(
        "\nfault-free F1 = {base:.3}; at 5% corruption F1 = {f1_5:.3} \
         (relative degradation {:.1}%)",
        drop_5 * 100.0
    );
    assert!(
        drop_5 < 0.10,
        "5% corruption must degrade pooled F1 by < 10% relative (got {:.1}%)",
        drop_5 * 100.0
    );
    println!("shape check passed: quarantine absorbs corruption; detection quality holds.");
}
