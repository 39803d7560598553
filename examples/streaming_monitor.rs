//! Online monitoring with automatic experience detection.
//!
//! The paper assumes experience boundaries are known; a live deployment
//! must *discover* them. This example feeds the X-IIoTID replica to
//! [`ResilientStreamingCndIds`] in small batches, as a collector would.
//! Its continual core trains the first experience once enough flows
//! arrive, then retrains when a window of the model's scores drifts
//! (PSI / symmetric KL) or the replay buffer fills.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```

use cnd_ids::core::resilience::{ResilientConfig, ResilientStreamingCndIds};
use cnd_ids::core::streaming::{ContinualEvent, StreamingConfig, Trigger};
use cnd_ids::core::{CndIds, CndIdsConfig};
use cnd_ids::datasets::{continual, DatasetProfile, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 13;
    let profile = DatasetProfile::XIiotId;
    let data = profile.generate(&GeneratorConfig::standard(seed))?;
    let split = continual::prepare(&data, profile.default_experiences(), 0.7, seed)?;

    let model = CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal)?;
    let config = ResilientConfig {
        streaming: StreamingConfig {
            max_buffer: 6_000,
            bootstrap_batch: 1_500,
            min_batch: 300,
            drift_window: 150,
        },
        ..ResilientConfig::default()
    };
    let mut stream = ResilientStreamingCndIds::new(model, config)?;

    println!("Feeding the continual stream in batches of 100 flows ...\n");
    let batch_size = 100;
    let mut batches = 0;
    let mut experiences = 0;
    for (i, e) in split.experiences.iter().enumerate() {
        println!("-- upstream experience E{i} begins (hidden from the model) --");
        let n = e.train_x.rows();
        let mut at = 0;
        while at < n {
            let end = (at + batch_size).min(n);
            let batch = e.train_x.slice_rows(at, end)?;
            for event in stream.push_flows(&batch)? {
                let ContinualEvent::Trained {
                    samples,
                    trigger,
                    stats,
                    ..
                } = event
                else {
                    continue;
                };
                experiences += 1;
                let cause = match trigger {
                    Trigger::DriftDetected => "drift detected",
                    Trigger::BufferFull => "buffer full",
                    Trigger::Manual => "manual flush",
                };
                println!(
                    "   [batch {batches:>4}] trained experience #{experiences} on {samples} flows ({cause}; K={}, pseudo-anomalous {:.0}%)",
                    stats.k_selected,
                    100.0 * stats.pseudo_anomalous_fraction,
                );
            }
            at = end;
            batches += 1;
        }
    }
    if stream.buffered() > 0 {
        for event in stream.flush()? {
            if let ContinualEvent::Trained { samples, .. } = event {
                experiences += 1;
                println!("   [final flush] trained experience #{experiences} on {samples} flows");
            }
        }
    }

    println!("\n{batches} batches consumed, {experiences} experiences self-triggered.");
    println!(
        "Model now at {} training experiences; scoring the last test set:",
        stream.model().experiences_trained()
    );
    let last = split.experiences.last().expect("non-empty");
    let scores = stream.anomaly_scores(&last.test_x)?;
    let sel = cnd_ids::metrics::threshold::best_f1_threshold(&scores, &last.test_y)?;
    println!("F1 on the final (zero-day) experience: {:.3}", sel.f1);
    Ok(())
}
