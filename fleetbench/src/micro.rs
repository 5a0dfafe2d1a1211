//! Micro timings of single layers on the windows the workload streams:
//! extraction (one window, and lane-batched), its DSP stages, and panel
//! classification. They are compared with the in-situ figures the fleet
//! reports during the traced run.

use crate::inputs::Pool;
use crate::workload::FS;
use biodsp::ar::burg;
use biodsp::filter::{FiltFiltScratch, SosCascade};
use biodsp::psd::welch;
use biodsp::qrs::{DetectScratch, PanTompkins, QrsDetection};
use biodsp::window::WindowKind;
use ecg_features::ar_feats::AR_ORDER;
use ecg_features::edr::{extract_edr, EdrSeries};
use ecg_features::extract::{BatchExtractScratch, ExtractScratch, WindowExtractor};
use seizure_core::fleet::FLUSH_PANEL_ROWS;
use seizure_core::stream::SharedEngine;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Windows of the pool the micro timings run on.
pub const MICRO_WINDOWS: usize = 32;

/// Micro timings, per window or per row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// `WindowExtractor::extract_into` (µs per window).
    pub extract_us: f64,
    /// `WindowExtractor::extract_batch_into` in groups of 8 (µs per window).
    pub extract_batch_us: f64,
    /// Zero-phase band-pass of the QRS detector (µs per window).
    pub filtfilt_us: f64,
    /// Whole QRS detection (µs per window).
    pub qrs_detect_us: f64,
    /// Welch PSD of the EDR series (µs per window).
    pub welch_us: f64,
    /// Burg AR fit of the EDR series (µs per window).
    pub ar_us: f64,
    /// `decision_rows_into` on full panels (ns per row).
    pub classify_ns_per_row: f64,
}

/// Median over repeated passes of `pass` (each handling `items` items)
/// of the time per item, in ns; passes repeat for about `budget`.
fn per_item_ns(items: usize, budget: Duration, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    pass(); // warm caches and scratch buffers
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 1_000) {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    crate::report::median_f64(&mut samples)
}

/// Welch segment length the PSD features use for an EDR series of `n`
/// samples (mirrors `ecg_features::psd_feats`).
fn edr_nperseg(n: usize) -> usize {
    n.next_power_of_two()
        .min(256)
        .min(n.next_power_of_two() / 2)
        .max(16)
}

/// Runs every micro timing, each for about `budget`.
pub fn run(
    pool: &Pool,
    rows: &[Option<Vec<f64>>],
    engine: &SharedEngine,
    budget: Duration,
) -> Micro {
    let windows: Vec<&[f64]> = (0..MICRO_WINDOWS.min(pool.windows))
        .map(|w| pool.window(w))
        .collect();
    let n = windows.len();
    let extractor = WindowExtractor::new(FS);
    let mut m = Micro::default();

    let mut scratch = ExtractScratch::default();
    let mut row = Vec::new();
    m.extract_us = per_item_ns(n, budget, || {
        for w in &windows {
            black_box(extractor.extract_into(w, &mut scratch, &mut row).is_ok());
        }
    }) / 1e3;

    let mut batch = BatchExtractScratch::default();
    m.extract_batch_us = per_item_ns(n, budget, || {
        for group in windows.chunks(8) {
            extractor.extract_batch_into(group, &mut batch, |_, r| {
                black_box(r.is_ok());
            });
        }
    }) / 1e3;

    let detector = PanTompkins::default();
    let bandpass =
        SosCascade::butterworth_bandpass(detector.band_lo_hz, detector.band_hi_hz, FS, 1)
            .expect("detector band is valid");
    let mut ff = FiltFiltScratch::default();
    let mut filtered = Vec::new();
    m.filtfilt_us = per_item_ns(n, budget, || {
        for w in &windows {
            bandpass.filtfilt_into(w, &mut ff, &mut filtered);
            black_box(&filtered);
        }
    }) / 1e3;

    let mut det_scratch = DetectScratch::default();
    let mut det = QrsDetection::default();
    m.qrs_detect_us = per_item_ns(n, budget, || {
        for w in &windows {
            black_box(
                detector
                    .detect_into(w, FS, &mut det_scratch, &mut det)
                    .is_ok(),
            );
        }
    }) / 1e3;

    // EDR series of every window whose detection succeeds.
    let edrs: Vec<EdrSeries> = windows
        .iter()
        .filter_map(|w| {
            detector
                .detect_into(w, FS, &mut det_scratch, &mut det)
                .ok()?;
            extract_edr(&det).ok()
        })
        .collect();
    m.welch_us = per_item_ns(edrs.len(), budget, || {
        for e in &edrs {
            let nperseg = edr_nperseg(e.samples.len());
            black_box(welch(&e.samples, e.fs, nperseg, 0.5, WindowKind::Hann).is_ok());
        }
    }) / 1e3;
    m.ar_us = per_item_ns(edrs.len(), budget, || {
        for e in &edrs {
            black_box(burg(&e.samples, AR_ORDER).is_ok());
        }
    }) / 1e3;

    let present: Vec<&[f64]> = rows.iter().flatten().map(Vec::as_slice).collect();
    if !present.is_empty() {
        let panel: Vec<&[f64]> = present
            .iter()
            .copied()
            .cycle()
            .take(FLUSH_PANEL_ROWS)
            .collect();
        let mut values = Vec::with_capacity(FLUSH_PANEL_ROWS);
        m.classify_ns_per_row = per_item_ns(FLUSH_PANEL_ROWS, budget, || {
            values.clear();
            engine.decision_rows_into(&panel, &mut values);
            black_box(&values);
        });
    }
    m
}
