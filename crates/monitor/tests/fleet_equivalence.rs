//! Fleet-vs-solo equivalence on a real `Tiny` cohort — the fleet
//! subsystem's acceptance property:
//!
//! For a cohort of patients multiplexed through one [`FleetScheduler`]
//! (chunks ingested in **arbitrary patient interleavings**, flushes
//! interspersed at arbitrary points, decisions batched across patients
//! through `decision_batch`), every patient's decision stream is
//! **bit-identical** (f64 bit patterns) to replaying that patient alone
//! through a solo [`StreamingSession`] — for both the float pipeline
//! and the quantised engine, under fixed round-robin and deterministic
//! xorshift-random interleavings, with the alarm stage enabled under
//! **both** [`DroppedPolicy`] variants (each stream is prefixed with a
//! flat window so a real dropped window exercises the policies), and at
//! **every flush executor count** — serial (`workers = Some(1)`), a
//! fleet-owned two-executor pool (`Some(2)`), and the machine-default
//! global pool (`None`). The staged flush pipeline (sharded extraction →
//! parallel panel fan-out → ordered route-back) must be invisible in the
//! results; only wall-clock may change. A worker panic during the panel
//! stage must surface on the flushing caller, and the fleet's pool must
//! survive for subsequent flushes. A second cohort splices artefact
//! windows (NaN bursts, flatline, clipping, 1e6 spikes) between clean
//! ones and bulk-syncs several windows per chunk, pinning that a failed
//! window leaves nothing behind in the executor-shared extraction
//! buffers.

use epilepsy_monitor::fleet::FleetMonitor;
use epilepsy_monitor::prelude::*;
use seizure_core::alarm::{truth_events, AlarmEvent, DroppedPolicy, TruthEvent};
use seizure_core::stream::{SharedEngine, StreamingSession, WindowDecision};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(|| DatasetSpec::new(Scale::Tiny, 42))
}

fn pipeline() -> &'static FloatPipeline {
    static PIPE: OnceLock<FloatPipeline> = OnceLock::new();
    PIPE.get_or_init(|| {
        let matrix = build_feature_matrix(spec());
        FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit on Tiny cohort")
    })
}

/// Cohort streams: every session's ECG, prefixed with one flat window so
/// window 0 is a guaranteed extraction drop (the dropped policies then
/// have something to disagree on).
fn streams() -> &'static Vec<Vec<f64>> {
    static STREAMS: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        spec()
            .sessions
            .iter()
            .take(4)
            .map(|s| {
                let rec = s.synthesize();
                let mut ecg = vec![0.0; 5120]; // one flat 40 s window
                ecg.extend_from_slice(&rec.ecg);
                ecg
            })
            .collect()
    })
}

fn engines() -> Vec<(&'static str, SharedEngine)> {
    let p = pipeline();
    let quantized =
        QuantizedEngine::from_pipeline(p, BitConfig::paper_choice()).expect("quantized engine");
    vec![
        ("float", Arc::new(p.clone()) as SharedEngine),
        ("quantized", Arc::new(quantized) as SharedEngine),
    ]
}

/// xorshift64* driver (deterministic).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Solo reference: each patient alone through a `StreamingSession` with
/// the same alarm stage; returns per-patient (decisions, alarms).
fn solo_reference(
    engine: &SharedEngine,
    cfg: StreamConfig,
    alarm_cfg: Option<AlarmConfig>,
    cohort: &[Vec<f64>],
) -> Vec<(Vec<WindowDecision>, Vec<AlarmEvent>)> {
    cohort
        .iter()
        .map(|samples| {
            let mut session = match alarm_cfg {
                Some(a) => StreamingSession::with_alarms(Arc::clone(engine), cfg, a).unwrap(),
                None => StreamingSession::new(Arc::clone(engine), cfg).unwrap(),
            };
            let decisions = session.push_samples(samples);
            let alarms = session.take_alarms();
            (decisions, alarms)
        })
        .collect()
}

fn assert_patient_matches(
    label: &str,
    patient: usize,
    fleet_decisions: &[WindowDecision],
    fleet_alarms: &[AlarmEvent],
    reference: &(Vec<WindowDecision>, Vec<AlarmEvent>),
) {
    let (ref_decisions, ref_alarms) = reference;
    assert_eq!(
        fleet_decisions.len(),
        ref_decisions.len(),
        "{label}: patient {patient} window count"
    );
    assert!(!ref_decisions.is_empty(), "{label}: degenerate reference");
    for (a, b) in fleet_decisions.iter().zip(ref_decisions.iter()) {
        assert_eq!(a.window_index, b.window_index, "{label}: p{patient}");
        assert_eq!(a.start_sample, b.start_sample, "{label}: p{patient}");
        assert_eq!(
            a.decision.map(f64::to_bits),
            b.decision.map(f64::to_bits),
            "{label}: patient {patient} window {} must be bit-identical",
            a.window_index
        );
        assert_eq!(a.is_seizure, b.is_seizure, "{label}: p{patient}");
    }
    assert_eq!(
        fleet_alarms, ref_alarms,
        "{label}: patient {patient} alarm stream"
    );
}

/// The flush executor counts every equivalence property is checked
/// under: serial, a fleet-owned two-executor pool, the machine-default
/// global pool.
const WORKER_COUNTS: [Option<usize>; 3] = [Some(1), Some(2), None];

/// Drives one fleet over the cohort with a chunk/flush schedule, then
/// checks every patient against the solo reference.
#[allow(clippy::too_many_arguments)] // a test-harness driver: label + config + three schedule closures
fn check_fleet(
    label: &str,
    engine: &SharedEngine,
    cfg: StreamConfig,
    alarm_cfg: Option<AlarmConfig>,
    workers: Option<usize>,
    cohort: &[Vec<f64>],
    mut next_pick: impl FnMut(usize) -> usize,
    mut next_len: impl FnMut() -> usize,
    mut flush_now: impl FnMut() -> bool,
) {
    let fleet_cfg = FleetConfig {
        alarms: alarm_cfg,
        workers,
        ..FleetConfig::unbounded(cfg)
    };
    let mut fleet = FleetScheduler::new(Arc::clone(engine), fleet_cfg).unwrap();
    for p in 0..cohort.len() {
        fleet.admit(p as u64).unwrap();
    }
    let mut cursors = vec![0usize; cohort.len()];
    let mut decisions: Vec<Vec<WindowDecision>> = vec![Vec::new(); cohort.len()];
    let mut alarms: Vec<Vec<AlarmEvent>> = vec![Vec::new(); cohort.len()];
    let collect = |flush: seizure_core::fleet::FleetFlush,
                   decisions: &mut Vec<Vec<WindowDecision>>,
                   alarms: &mut Vec<Vec<AlarmEvent>>| {
        for d in flush.decisions {
            decisions[d.patient as usize].push(d.decision);
        }
        for (p, a) in flush.alarms {
            alarms[p as usize].push(a);
        }
    };
    let mut live: Vec<usize> = (0..cohort.len()).collect();
    while !live.is_empty() {
        let pick = live[next_pick(live.len()) % live.len()];
        let cur = cursors[pick];
        let len = next_len().clamp(1, cohort[pick].len() - cur);
        fleet
            .ingest(pick as u64, &cohort[pick][cur..cur + len])
            .unwrap();
        cursors[pick] += len;
        if cursors[pick] == cohort[pick].len() {
            live.retain(|&p| p != pick);
        }
        if flush_now() {
            collect(fleet.flush(), &mut decisions, &mut alarms);
        }
    }
    collect(fleet.flush(), &mut decisions, &mut alarms);
    assert_eq!(fleet.stats().pending_windows, 0);

    let reference = solo_reference(engine, cfg, alarm_cfg, cohort);
    for (p, r) in reference.iter().enumerate() {
        assert_patient_matches(label, p, &decisions[p], &alarms[p], r);
    }
    // The flat prefix really produced a dropped window per patient.
    for (p, (d, _)) in reference.iter().enumerate() {
        assert!(
            d.iter().any(|w| w.decision.is_none()),
            "patient {p} should have a dropped window"
        );
    }
}

#[test]
fn fleet_is_bit_identical_to_solo_streaming_for_both_engines() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let cohort = streams();
    for (name, engine) in &engines() {
        for workers in WORKER_COUNTS {
            // Fixed schedule: strict round-robin, one-second chunks,
            // flush after every 7th ingest.
            let mut rr = 0usize;
            let mut tick = 0usize;
            check_fleet(
                &format!("{name}/round-robin/workers-{workers:?}"),
                engine,
                cfg,
                None,
                workers,
                cohort,
                move |_n| {
                    rr += 1;
                    rr - 1
                },
                || 128,
                move || {
                    tick += 1;
                    tick.is_multiple_of(7)
                },
            );
            // Whole-stream pushes, single final flush (the batch
            // extreme — every session extracts in one shard pass).
            let mut rr2 = 0usize;
            check_fleet(
                &format!("{name}/one-shot/workers-{workers:?}"),
                engine,
                cfg,
                None,
                workers,
                cohort,
                move |_n| {
                    rr2 += 1;
                    rr2 - 1
                },
                || usize::MAX,
                || false,
            );
        }
    }
}

#[test]
fn fleet_alarms_match_solo_for_both_engines_and_both_dropped_policies() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let cohort = streams();
    for (name, engine) in &engines() {
        for (policy_name, policy) in [
            ("vote", DroppedPolicy::VoteNonSeizure),
            ("skip", DroppedPolicy::Skip),
        ] {
            let alarm_cfg = AlarmConfig {
                k: 2,
                n: 3,
                refractory_windows: 2,
                dropped: policy,
            };
            // Deterministic random interleavings: random patient picks,
            // random chunk sizes straddling window boundaries, random
            // flush points — each round at a different executor count,
            // so the worker matrix rides the same xorshift schedules.
            for round in 0..2u64 {
                for workers in WORKER_COUNTS {
                    let mut pick_rng = XorShift(0x00C0_FFEE ^ (round << 8) ^ name.len() as u64);
                    let mut len_rng = XorShift(0xD15E_A5E5 ^ round);
                    let mut flush_rng = XorShift(0x0BAD_F00D ^ (round << 16));
                    check_fleet(
                        &format!("{name}/{policy_name}/xorshift-{round}/workers-{workers:?}"),
                        engine,
                        cfg,
                        Some(alarm_cfg),
                        workers,
                        cohort,
                        move |n| pick_rng.next() as usize % n.max(1),
                        move || 1 + (len_rng.next() as usize) % (2 * cfg.window_len),
                        move || flush_rng.next().is_multiple_of(3),
                    );
                }
            }
        }
    }
}

/// The cohort with artefact windows spliced between clean ones: each
/// patient gets a NaN burst, a lead-off flatline, clipping and 1e6
/// spikes, every kind at a different window per patient, so a bulk
/// multi-window flush mixes failed and clean windows of different
/// patients on every executor.
fn artefact_streams(window_len: usize) -> Vec<Vec<f64>> {
    streams()
        .iter()
        .enumerate()
        .map(|(p, clean)| {
            let mut ecg = clean.clone();
            let windows = ecg.len() / window_len;
            assert!(
                windows >= 6,
                "patient {p}: stream too short for the artefacts"
            );
            for kind in 0..4usize {
                // Windows 1.. (0 is the flat prefix), patient-rotated.
                let w = 1 + (kind * 2 + p) % (windows - 1);
                let win = &mut ecg[w * window_len..(w + 1) * window_len];
                let peak = win.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                match kind {
                    // NaN burst: a quarter of a second mid-window.
                    0 => win[window_len / 2..][..32].fill(f64::NAN),
                    // Lead-off: the electrode reads one flat value.
                    1 => win.fill(win[0]),
                    // Clipping at a fifth of the window's peak.
                    2 => win
                        .iter_mut()
                        .for_each(|v| *v = v.clamp(-0.2 * peak, 0.2 * peak)),
                    // Isolated 1e6 spikes every ~4 s.
                    _ => win.iter_mut().step_by(509).for_each(|v| *v = 1e6),
                }
            }
            ecg
        })
        .collect()
}

#[test]
fn fleet_artefact_bulk_syncs_are_bit_identical_to_solo_sessions() {
    // Executors now share extraction scratch and window staging across
    // patients: a window that fails mid-extraction (non-finite samples,
    // no beats) must leave nothing behind for the next patient's window
    // on the same executor. Bulk syncs of 2–6 windows plus a partial
    // window take the lane-batched path with ragged remainders.
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let cohort = artefact_streams(cfg.window_len);
    let alarm_cfg = AlarmConfig::k_of_n(1, 2);
    for (name, engine) in &engines() {
        for workers in WORKER_COUNTS {
            let mut pick_rng = XorShift(0xA47E_FAC7 ^ name.len() as u64);
            let mut len_rng = XorShift(0x5EED_B0B5);
            let mut flush_rng = XorShift(0xF1A7_11E5);
            check_fleet(
                &format!("{name}/artefacts/workers-{workers:?}"),
                engine,
                cfg,
                Some(alarm_cfg),
                workers,
                &cohort,
                move |n| pick_rng.next() as usize % n.max(1),
                move || {
                    let whole = 2 + (len_rng.next() as usize) % 5;
                    whole * cfg.window_len + (len_rng.next() as usize) % cfg.window_len
                },
                move || flush_rng.next().is_multiple_of(2),
            );
        }
    }
    // The artefacts really cost windows beyond the flat prefix.
    let e: SharedEngine = Arc::new(pipeline().clone());
    let dropped: usize = solo_reference(&e, cfg, None, &cohort)
        .iter()
        .map(|(d, _)| d.iter().filter(|w| w.decision.is_none()).count())
        .sum();
    assert!(
        dropped >= 2 * cohort.len(),
        "artefact windows should drop: {dropped} dropped"
    );
}

#[test]
fn fleet_monitor_facade_reports_cohort_events_and_restarts_bit_identically() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let alarm_cfg = AlarmConfig::k_of_n(1, 2);
    let fleet_cfg = FleetConfig {
        alarms: Some(alarm_cfg),
        ..FleetConfig::unbounded(cfg)
    };
    let p = pipeline();

    // A live fleet and one restarted from persisted pipeline text must
    // produce bit-identical decision streams (float and quantised).
    let text = p.to_text();
    let bits = BitConfig::paper_choice();
    let pairs: Vec<(FleetMonitor, FleetMonitor)> = vec![
        (
            FleetMonitor::from_float_pipeline(p.clone(), fleet_cfg).unwrap(),
            FleetMonitor::from_saved_pipeline(&text, None, fleet_cfg).unwrap(),
        ),
        (
            FleetMonitor::from_quantized(p, bits, fleet_cfg).unwrap(),
            FleetMonitor::from_saved_pipeline(&text, Some(bits), fleet_cfg).unwrap(),
        ),
    ];
    let sessions: Vec<_> = spec.sessions.iter().take(3).collect();
    for (mut live, mut restored) in pairs {
        assert_eq!(live.engine_info(), restored.engine_info());
        for (id, s) in sessions.iter().enumerate() {
            live.admit(id as u64).unwrap();
            restored.admit(id as u64).unwrap();
            let rec = s.synthesize();
            live.ingest(id as u64, &rec.ecg).unwrap();
            restored.ingest(id as u64, &rec.ecg).unwrap();
        }
        let a = live.flush();
        let b = restored.flush();
        assert_eq!(a.rows_classified, b.rows_classified);
        assert_eq!(a.decisions.len(), b.decisions.len());
        for (x, y) in a.decisions.iter().zip(b.decisions.iter()) {
            assert_eq!(x.patient, y.patient);
            assert_eq!(x.decision.window_index, y.decision.window_index);
            assert_eq!(
                x.decision.decision.map(f64::to_bits),
                y.decision.decision.map(f64::to_bits),
                "restart must be bit-identical"
            );
        }
        assert_eq!(a.alarms, b.alarms);
    }

    // Cohort report: pooled event metrics against ground truth, plus the
    // wall-clock pooled throughput the merged stream stats cannot give.
    let mut fleet = FleetMonitor::from_float_pipeline(p.clone(), fleet_cfg).unwrap();
    let mut truth: BTreeMap<u64, Vec<TruthEvent>> = BTreeMap::new();
    for (id, s) in sessions.iter().enumerate() {
        fleet.admit(id as u64).unwrap();
        let rec = s.synthesize();
        fleet.ingest(id as u64, &rec.ecg).unwrap();
        truth.insert(id as u64, truth_events(&rec.seizures));
    }
    let flush = fleet.flush();
    assert!(!flush.decisions.is_empty());
    let report = fleet.cohort_report(Some(&truth)).unwrap();
    let events = report.events.as_ref().expect("ground truth supplied");
    let n_truth: usize = truth.values().map(Vec::len).sum();
    assert_eq!(events.n_events, n_truth);
    assert!(events.monitored_s > 0.0);
    assert_eq!(
        report.total_alarms(),
        report.stream.alarms as usize,
        "collected alarms agree with session counters"
    );
    assert!(report.stats.wall_windows_per_sec() > 0.0);
    assert_eq!(report.stream.windows, flush.decisions.len() as u64);
    // Unknown patient in the truth map is rejected.
    truth.insert(999, Vec::new());
    assert!(fleet.cohort_report(Some(&truth)).is_err());
    // Without truth there are no event metrics.
    assert!(fleet.cohort_report(None).unwrap().events.is_none());

    // Facade lifecycle: restart clears collected alarms; remove hands
    // back the session accounting plus the alarms collected across
    // flushes.
    fleet.restart(0).unwrap();
    assert!(fleet.patient_alarms(0).is_empty());
    let collected1 = fleet.patient_alarms(1).to_vec();
    let (removed, alarms1) = fleet.remove(1).unwrap();
    assert!(removed.stats.windows > 0);
    assert_eq!(removed.discarded_windows, 0, "everything was flushed");
    assert_eq!(alarms1, collected1);
    assert!(fleet.remove(1).is_err());
    assert!(fleet.patient_alarms(1).is_empty());
}

#[test]
fn worker_panic_in_the_panel_stage_surfaces_and_the_pool_survives() {
    use epilepsy_monitor::features::N_FEATURES;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Decision = Σ row — except a marker row (first feature ≥ 900)
    /// panics, standing in for an engine bug tripping on one window
    /// inside the parallel panel fan-out.
    struct TrapEngine;

    impl svm::ClassifierEngine for TrapEngine {
        fn decision(&self, row: &[f64]) -> f64 {
            assert!(row[0] < 900.0, "trap row reached the kernel");
            row.iter().sum()
        }
        fn n_features(&self) -> usize {
            N_FEATURES
        }
        fn info(&self) -> svm::EngineInfo {
            svm::EngineInfo {
                kind: "trap-test",
                n_support_vectors: 1,
                n_features: N_FEATURES,
                d_bits: None,
                a_bits: None,
            }
        }
    }

    let row = |v: f64| {
        let mut r = vec![0.0; N_FEATURES];
        r[0] = v;
        r
    };
    let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
    let mut fleet = FleetScheduler::new(
        Arc::new(TrapEngine) as SharedEngine,
        seizure_core::fleet::FleetConfig {
            workers: Some(2), // a fleet-owned pool: one worker + caller
            ..seizure_core::fleet::FleetConfig::unbounded(cfg)
        },
    )
    .unwrap();
    for p in 0..3u64 {
        fleet.admit(p).unwrap();
    }
    // 600 rows round-robin → three panels, so the parallel fan-out
    // branch really engages; patient 1 carries the trap row.
    for i in 0..600usize {
        let p = (i % 3) as u64;
        let v = if p == 1 && i / 3 == 57 {
            901.0
        } else {
            i as f64
        };
        fleet.ingest_row(p, Some(&row(v))).unwrap();
    }
    // The worker's panic must surface on the flushing caller…
    let panicked = catch_unwind(AssertUnwindSafe(|| fleet.flush()));
    assert!(panicked.is_err(), "panel-stage panic must propagate");
    // …without corrupting the fleet: the panic unwound before the
    // route-back stage, so every queue is intact. Restarting the
    // poisoned patient clears the trap row, and the fleet's own pool
    // survives to serve the next flush.
    let restarted = fleet.restart(1).unwrap();
    assert_eq!(restarted.discarded_windows, 200);
    let flush = fleet.flush();
    assert_eq!(flush.rows_classified, 400);
    assert_eq!(flush.decisions.len(), 400);
    for d in &flush.decisions {
        assert_ne!(d.patient, 1);
        assert!(d.decision.decision.is_some());
    }
    // The pool keeps serving fresh work, including the restarted slot.
    fleet.ingest_row(1, Some(&row(5.0))).unwrap();
    let flush = fleet.flush();
    assert_eq!(flush.decisions.len(), 1);
    assert_eq!(flush.decisions[0].decision.decision, Some(5.0));
    assert_eq!(fleet.stats().pending_windows, 0);
}

#[test]
fn row_ingest_cohort_report_has_monitored_time() {
    // Regression: a fleet fed exclusively through ingest_row (on-device
    // extraction) passes no samples through the server, but the cohort
    // report must still derive monitored time — from the stride-spaced
    // span of decided windows — so FA/24h stays meaningful.
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let fleet_cfg = FleetConfig {
        alarms: Some(AlarmConfig::k_of_n(1, 1)),
        ..FleetConfig::unbounded(cfg)
    };
    let mut fleet = FleetMonitor::from_float_pipeline(pipeline().clone(), fleet_cfg).unwrap();
    fleet.admit(0).unwrap();
    let row = vec![0.0; epilepsy_monitor::features::N_FEATURES];
    for _ in 0..6 {
        fleet.ingest_row(0, Some(&row)).unwrap();
    }
    fleet.flush();
    assert_eq!(fleet.patient_stats(0).unwrap().samples_in, 0);
    // No true seizures: every alarm the constant rows raise is false.
    let truth: BTreeMap<u64, Vec<TruthEvent>> = [(0u64, Vec::new())].into();
    let report = fleet.cohort_report(Some(&truth)).unwrap();
    let events = report.events.expect("ground truth supplied");
    let expected_s = 6.0 * cfg.stride as f64 / cfg.fs;
    assert!((events.monitored_s - expected_s).abs() < 1e-9);
    assert!(
        events.false_alarms_per_24h().is_some(),
        "FA/24h must be reportable on the row-ingest path"
    );
}
