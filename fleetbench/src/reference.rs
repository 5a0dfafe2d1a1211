//! The correctness gate: a reference decision for every pool window and
//! a checker that compares every fleet decision and alarm to it,
//! bit for bit, by (patient, `window_index`).
//!
//! Raw workloads take the reference from one solo [`StreamingSession`]
//! fed the whole pool; row workloads from `decision_rows_into` on the row
//! pool. A patient's stream is the pool read from a seeded window,
//! cut at window boundaries, and with non-overlapping windows each
//! window's decision depends on its own samples only (the streaming
//! batch-equivalence contract), so a patient's reference decisions are
//! the pool's, read from the same window. Alarms are replayed per
//! patient through a fresh [`AlarmStateMachine`], restarted wherever the
//! patient churned.

use crate::inputs::{stream_truth, Op, Pool};
use crate::workload::{FS, WINDOW_LEN, WINDOW_S};
use seizure_core::alarm::{
    decision_is_seizure, score_events, AlarmConfig, AlarmEvent, AlarmStateMachine, EventMetrics,
    EventScoring, TruthEvent,
};
use seizure_core::fleet::FleetFlush;
use seizure_core::stream::{SharedEngine, StreamConfig, StreamingSession};
use seizure_core::CoreError;

/// Reference decision of every pool window (`None` = dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Indexed by pool window.
    pub decisions: Vec<Option<f64>>,
}

impl Reference {
    /// One solo streaming session over the whole pool, one window per push.
    pub fn from_stream(engine: &SharedEngine, pool: &Pool) -> Result<Reference, CoreError> {
        let cfg = StreamConfig::non_overlapping(FS, WINDOW_S)?;
        let mut session = StreamingSession::new(SharedEngine::clone(engine), cfg)?;
        let mut out = Vec::new();
        let mut decisions = Vec::with_capacity(pool.windows);
        for w in 0..pool.windows {
            session.push_samples_into(pool.window(w), &mut out);
            assert_eq!(out.len(), 1, "one window per pushed window");
            decisions.push(out[0].decision);
        }
        Ok(Reference { decisions })
    }

    /// `decision_rows_into` over every row the pool extracted.
    pub fn from_rows(engine: &SharedEngine, rows: &[Option<Vec<f64>>]) -> Reference {
        let present: Vec<&[f64]> = rows.iter().flatten().map(Vec::as_slice).collect();
        let mut values = Vec::with_capacity(present.len());
        engine.decision_rows_into(&present, &mut values);
        let mut it = values.into_iter();
        let decisions = rows
            .iter()
            .map(|r| r.as_ref().map(|_| it.next().expect("one value per row")))
            .collect();
        Reference { decisions }
    }
}

/// Reference state of one patient's current stream.
#[derive(Debug, Clone)]
struct Epoch {
    start_window: u32,
    next_index: u64,
    alarm: AlarmStateMachine,
    /// Fleet alarms raised inside the deterministic prefix.
    alarms: Vec<AlarmEvent>,
}

/// Compares fleet output to the reference as it arrives, and scores the
/// deterministic prefix (undecided windows, event metrics).
#[derive(Debug)]
pub struct Checker {
    reference: Reference,
    pool_events: Vec<TruthEvent>,
    alarm_cfg: AlarmConfig,
    scoring: EventScoring,
    epochs: Vec<Option<Epoch>>,
    expected_alarms: Vec<(u64, AlarmEvent)>,
    frozen: bool,
    /// Event metrics of the deterministic prefix, once frozen.
    pub events: EventMetrics,
    /// Windows decided inside the deterministic prefix.
    pub prefix_decided: u64,
    /// ...of which decided as dropped (`decision: None`).
    pub prefix_undecided: u64,
    /// Decisions compared.
    pub checked: u64,
    /// Decisions or alarm lists that differed from the reference.
    pub mismatches: u64,
    /// The first difference, for the report.
    pub first_mismatch: Option<String>,
}

impl Checker {
    /// A checker over `reference` with every `(patient, start_window)`
    /// stream open.
    pub fn new(
        reference: Reference,
        pool: &Pool,
        alarm_cfg: AlarmConfig,
        streams: &[(u32, u32)],
    ) -> Checker {
        let mut c = Checker {
            reference,
            pool_events: pool.events.clone(),
            alarm_cfg,
            scoring: EventScoring::for_windows(FS, WINDOW_LEN),
            epochs: Vec::new(),
            expected_alarms: Vec::new(),
            frozen: false,
            events: EventMetrics::default(),
            prefix_decided: 0,
            prefix_undecided: 0,
            checked: 0,
            mismatches: 0,
            first_mismatch: None,
        };
        for &(p, start) in streams {
            c.open(p, start);
        }
        c
    }

    /// Whether every decision and alarm so far matched.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }

    /// Applies the lifecycle operations of a burst (run it before checking
    /// the tick that follows them: a churned patient has nothing pending).
    pub fn on_ops(&mut self, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Admit {
                    patient,
                    start_window,
                }
                | Op::Restart {
                    patient,
                    start_window,
                } => {
                    self.close(patient);
                    self.open(patient, start_window);
                }
                Op::Remove { patient } => self.close(patient),
                Op::Chunk { .. } | Op::Row { .. } => {}
            }
        }
    }

    /// Checks one tick's decisions and alarms.
    pub fn check(&mut self, out: &FleetFlush) {
        self.expected_alarms.clear();
        for d in &out.decisions {
            self.checked += 1;
            let n_pool = self.reference.decisions.len() as u64;
            let Some(e) = self
                .epochs
                .get_mut(d.patient as usize)
                .and_then(Option::as_mut)
            else {
                self.mismatch(format!(
                    "decision for patient {} that has no stream",
                    d.patient
                ));
                continue;
            };
            let idx = e.next_index;
            e.next_index += 1;
            let pool_w = (u64::from(e.start_window) + idx) % n_pool;
            let want = self.reference.decisions[pool_w as usize];
            let got = d.decision;
            if let Some(a) = e.alarm.on_decision(idx, idx * WINDOW_LEN as u64, want) {
                self.expected_alarms.push((d.patient, a));
            }
            let same_value = match (got.decision, want) {
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                (None, None) => true,
                _ => false,
            };
            let want_seizure = matches!(want, Some(v) if decision_is_seizure(v));
            if !same_value
                || got.window_index != idx
                || got.start_sample != idx * WINDOW_LEN as u64
                || got.is_seizure != want_seizure
            {
                self.mismatch(format!(
                    "patient {} window {idx} (pool window {pool_w}): fleet {:?} at index {}, \
                     reference {want:?}",
                    d.patient, got.decision, got.window_index
                ));
            }
            if !self.frozen {
                self.prefix_decided += 1;
                self.prefix_undecided += u64::from(got.decision.is_none());
            }
        }
        if self.expected_alarms != out.alarms {
            let msg = format!(
                "alarms differ: fleet {:?}, reference {:?}",
                out.alarms, self.expected_alarms
            );
            self.mismatch(msg);
        }
        if !self.frozen {
            for &(p, a) in &out.alarms {
                if let Some(e) = self.epochs.get_mut(p as usize).and_then(Option::as_mut) {
                    e.alarms.push(a);
                }
            }
        }
    }

    /// Ends the deterministic prefix: scores every open stream as it
    /// stands and stops accumulating.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        for p in 0..self.epochs.len() {
            if let Some(e) = self.epochs[p].take() {
                self.score(&e);
                self.epochs[p] = Some(e);
            }
        }
        self.frozen = true;
    }

    /// Checks that each open stream has had exactly `windows(patient)`
    /// windows decided — no window lost or invented.
    pub fn check_counts(&mut self, windows: impl Fn(u32) -> u64) {
        for p in 0..self.epochs.len() {
            let Some(decided) = self.epochs[p].as_ref().map(|e| e.next_index) else {
                continue;
            };
            let offered = windows(p as u32);
            if decided != offered {
                self.mismatch(format!(
                    "patient {p}: {offered} windows offered, {decided} decided"
                ));
            }
        }
    }

    fn open(&mut self, patient: u32, start_window: u32) {
        let p = patient as usize;
        if self.epochs.len() <= p {
            self.epochs.resize(p + 1, None);
        }
        self.epochs[p] = Some(Epoch {
            start_window,
            next_index: 0,
            alarm: AlarmStateMachine::new(self.alarm_cfg).expect("validated alarm config"),
            alarms: Vec::new(),
        });
    }

    fn close(&mut self, patient: u32) {
        if let Some(e) = self.epochs.get_mut(patient as usize).and_then(Option::take) {
            if !self.frozen {
                self.score(&e);
            }
        }
    }

    fn score(&mut self, e: &Epoch) {
        if e.next_index == 0 {
            return;
        }
        let truth = stream_truth(
            &self.pool_events,
            self.reference.decisions.len(),
            e.start_window,
            e.next_index,
        );
        let monitored_s = e.next_index as f64 * WINDOW_S;
        self.events
            .merge(&score_events(&e.alarms, &truth, monitored_s, &self.scoring));
    }

    fn mismatch(&mut self, msg: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seizure_core::fleet::FleetDecision;
    use seizure_core::stream::WindowDecision;

    /// Four pool windows: seizure, calm, dropped, seizure.
    fn checker() -> Checker {
        let reference = Reference {
            decisions: vec![Some(2.5), Some(-1.0), None, Some(0.5)],
        };
        let pool = Pool {
            samples: Vec::new(),
            windows: 4,
            events: Vec::new(),
        };
        // Patient 0 starts at pool window 1, patient 1 at pool window 3.
        Checker::new(
            reference,
            &pool,
            AlarmConfig::k_of_n(1, 2),
            &[(0, 1), (1, 3)],
        )
    }

    fn decision(patient: u64, window_index: u64, decision: Option<f64>) -> FleetDecision {
        FleetDecision {
            patient,
            decision: WindowDecision {
                window_index,
                start_sample: window_index * WINDOW_LEN as u64,
                decision,
                is_seizure: matches!(decision, Some(v) if decision_is_seizure(v)),
                latency_ns: 0,
            },
        }
    }

    /// What a correct fleet returns for the first two windows of both
    /// patients (patient 1 wraps from pool window 3 to 0).
    fn correct_flush() -> FleetFlush {
        let alarm = |window_index: u64, votes| AlarmEvent {
            alarm_index: 0,
            window_index,
            start_sample: window_index * WINDOW_LEN as u64,
            votes,
        };
        FleetFlush {
            decisions: vec![
                decision(0, 0, Some(-1.0)),
                decision(0, 1, None),
                decision(1, 0, Some(0.5)),
                decision(1, 1, Some(2.5)),
            ],
            alarms: vec![(1, alarm(0, 1))],
            ..FleetFlush::default()
        }
    }

    #[test]
    fn a_correct_fleet_passes() {
        let mut c = checker();
        c.check(&correct_flush());
        assert!(c.passed(), "{:?}", c.first_mismatch);
        assert_eq!((c.checked, c.prefix_decided, c.prefix_undecided), (4, 4, 1));
        c.check_counts(|_| 2);
        assert!(c.passed(), "{:?}", c.first_mismatch);
    }

    #[test]
    fn a_perturbed_decision_fails_the_gate() {
        let mut c = checker();
        let mut out = correct_flush();
        // One ULP off is a different decision.
        let v = out.decisions[3].decision.decision.expect("present");
        out.decisions[3].decision.decision = Some(f64::from_bits(v.to_bits() + 1));
        c.check(&out);
        assert!(!c.passed());
        assert_eq!(c.mismatches, 1);
        assert!(c
            .first_mismatch
            .as_deref()
            .is_some_and(|m| m.contains("patient 1 window 1")));
    }

    #[test]
    fn a_dropped_decision_a_missing_alarm_or_a_lost_window_fails_the_gate() {
        let mut c = checker();
        let mut out = correct_flush();
        out.decisions[2].decision.decision = None;
        c.check(&out);
        assert!(!c.passed());

        let mut c = checker();
        let mut out = correct_flush();
        out.alarms.clear();
        c.check(&out);
        assert!(!c.passed());

        let mut c = checker();
        c.check(&correct_flush());
        c.check_counts(|p| if p == 0 { 3 } else { 2 });
        assert!(!c.passed());
    }

    #[test]
    fn churn_restarts_the_reference_stream() {
        let mut c = checker();
        c.check(&correct_flush());
        // Patient 0 restarts at pool window 0: its next window is index 0
        // again, with a fresh alarm machine.
        c.on_ops(&[Op::Restart {
            patient: 0,
            start_window: 0,
        }]);
        let alarm = AlarmEvent {
            alarm_index: 0,
            window_index: 0,
            start_sample: 0,
            votes: 1,
        };
        let out = FleetFlush {
            decisions: vec![decision(0, 0, Some(2.5))],
            alarms: vec![(0, alarm)],
            ..FleetFlush::default()
        };
        c.check(&out);
        assert!(c.passed(), "{:?}", c.first_mismatch);
        c.on_ops(&[Op::Remove { patient: 0 }]);
        c.check(&FleetFlush {
            decisions: vec![decision(0, 1, Some(-1.0))],
            ..FleetFlush::default()
        });
        assert!(!c.passed(), "a removed patient has no stream");
    }
}
