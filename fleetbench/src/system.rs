//! The system under test: the quantised engine trained on the Lite
//! cohort, and the fleets that serve it. Everything here but the
//! rendering of the training ECG is what `setup_s` times.

use crate::inputs::map_on_two_threads;
use crate::workload::{Workload, FS, WINDOW_S};
use ecg_features::extract::{feature_names, BatchExtractScratch, WindowExtractor};
use ecg_features::FeatureMatrix;
use ecg_sim::dataset::{DatasetSpec, Scale};
use ecg_sim::session::SessionRecording;
use seizure_core::alarm::AlarmConfig;
use seizure_core::clock::TickConfig;
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::fleet::{FleetConfig, FleetScheduler, OverloadPolicy, Watermarks};
use seizure_core::stream::{SharedEngine, StreamConfig};
use seizure_core::trained::FloatPipeline;
use seizure_core::CoreError;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the Lite training cohort.
pub const TRAIN_SEED: u64 = 42;

/// Alarm stage of every fleet: one seizure vote in two windows.
pub fn alarm_config() -> AlarmConfig {
    AlarmConfig::k_of_n(1, 2)
}

/// Lite window geometry: 180 s non-overlapping windows at 128 Hz.
pub fn stream_config() -> StreamConfig {
    StreamConfig::non_overlapping(FS, WINDOW_S).expect("Lite geometry is valid")
}

/// Renders the ECG of the Lite training cohort. Input synthesis, not
/// set-up: it runs before the set-up timer.
pub fn training_records() -> Vec<SessionRecording> {
    let spec = DatasetSpec::new(Scale::Lite, TRAIN_SEED);
    map_on_two_threads(&spec.sessions, |s| s.synthesize())
}

/// The labelled feature matrix of rendered sessions cut into `window_s`
/// windows: the assembly half of
/// `seizure_core::assemble::build_feature_matrix` (window labels,
/// lane-batched `extract_batch_into`, `push_row`; failed windows are
/// dropped), without its ECG synthesis.
pub fn training_matrix(records: &[SessionRecording], window_s: f64) -> FeatureMatrix {
    let mut m = FeatureMatrix {
        feature_names: feature_names(),
        ..Default::default()
    };
    let mut scratch = BatchExtractScratch::default();
    for rec in records {
        let labels = rec.window_labels(window_s);
        let windows: Vec<&[f64]> = labels.iter().map(|l| rec.window_samples(l)).collect();
        WindowExtractor::new(rec.fs).extract_batch_into(&windows, &mut scratch, |j, r| {
            if let Ok(row) = r {
                let y = if labels[j].is_seizure { 1 } else { -1 };
                m.push_row(row, y, rec.session_index, rec.patient_id);
            }
        });
    }
    m
}

/// The engine and the two fleets of one run, every patient admitted.
pub struct System {
    /// The quantised engine every session shares.
    pub engine: SharedEngine,
    /// Unbounded fleet of the saturation phase.
    pub saturation: FleetScheduler,
    /// Fleet of the paced phase, behind the watermark gate.
    pub paced: FleetScheduler,
}

impl System {
    /// Trains the engine on the rendered Lite training cohort
    /// ([`training_matrix`], `FloatPipeline::fit`,
    /// `QuantizedEngine::from_pipeline` at the paper's bit widths), builds
    /// both fleets and admits `patients` to each.
    ///
    /// # Errors
    ///
    /// Returns the first error the system reports.
    pub fn build(
        w: &Workload,
        workers: usize,
        patients: &[u32],
        training: &[SessionRecording],
    ) -> Result<System, CoreError> {
        let matrix = training_matrix(training, WINDOW_S);
        let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default())?;
        let engine: SharedEngine = Arc::new(QuantizedEngine::from_pipeline(
            &pipeline,
            BitConfig::paper_choice(),
        )?);
        let unbounded = FleetConfig {
            alarms: Some(alarm_config()),
            workers: Some(workers),
            tick: Some(TickConfig::wall(w.cadence_ms * 1_000_000)),
            ..FleetConfig::unbounded(stream_config())
        };
        let gated = FleetConfig {
            max_pending_rows: w.watermark_high,
            overload: OverloadPolicy::Watermark(Watermarks {
                low: w.watermark_low,
                high: w.watermark_high,
            }),
            ..unbounded
        };
        let mut saturation = FleetScheduler::new(Arc::clone(&engine), unbounded)?;
        let mut paced = FleetScheduler::new(Arc::clone(&engine), gated)?;
        for &p in patients {
            saturation.admit(u64::from(p))?;
            paced.admit(u64::from(p))?;
        }
        Ok(System {
            engine,
            saturation,
            paced,
        })
    }

    /// Builds the system `reps` times and keeps the last; returns it with
    /// the wall time of every build (s).
    ///
    /// # Errors
    ///
    /// Returns the first error the system reports.
    pub fn build_timed(
        w: &Workload,
        workers: usize,
        patients: &[u32],
        training: &[SessionRecording],
        reps: usize,
    ) -> Result<(System, Vec<f64>), CoreError> {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let t = Instant::now();
            let sys = System::build(w, workers, patients, training)?;
            times.push(t.elapsed().as_secs_f64());
            last = Some(sys);
        }
        Ok((last.expect("at least one build"), times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_matrix_matches_build_feature_matrix() {
        let spec = DatasetSpec::new(Scale::Tiny, 3);
        let records: Vec<SessionRecording> = spec.sessions.iter().map(|s| s.synthesize()).collect();
        assert_eq!(
            training_matrix(&records, spec.scale.window_s()),
            seizure_core::assemble::build_feature_matrix(&spec)
        );
    }
}
