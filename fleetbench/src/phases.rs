//! The two measured phases: a closed-loop saturation phase and an
//! open-loop paced phase. Both drive a fleet through its public API only.

use crate::inputs::{Op, Plan};
use crate::reference::Checker;
use crate::trace::{window_id, Name, Tracer, NO_WINDOW};
use crate::workload::WINDOW_LEN;
use seizure_core::fleet::{FleetFlush, FleetScheduler};
use std::collections::VecDeque;
use std::time::Instant;

/// What the operations index into.
#[derive(Debug, Clone, Copy)]
pub struct Inputs<'a> {
    /// The sample pool.
    pub samples: &'a [f64],
    /// The pre-extracted row pool.
    pub rows: &'a [Option<Vec<f64>>],
}

/// Operations attempted and failed. An operation is one window offered
/// (an `ingest` or `ingest_row` call that completes `k` windows is `k`
/// operations, one that completes none is none) or one control call
/// (`tick_into`, `admit`, `remove`, `restart`). A call that returns `Err`
/// is one failed operation, and the paced phase adds every window the
/// gate shed, so shedding moves the ratio window for window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// Windows offered plus control calls, plus ingest calls that failed.
    pub attempted: u64,
    /// Calls that returned `Err`, plus shed windows.
    pub failed: u64,
}

impl Calls {
    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one applied operation did.
#[derive(Debug, Clone, Copy, Default)]
struct Applied {
    /// Windows the call completed (by geometry).
    completed: u64,
    /// Pending windows a churn call discarded.
    discarded: u64,
    /// Call duration (traced runs only).
    ns: u64,
}

/// Windows waiting for their decision, per patient, in window order:
/// when each became due (or arrived) and its running window number.
#[derive(Debug, Default)]
struct InFlight {
    queues: Vec<VecDeque<(u64, u64)>>,
    seq: Vec<u64>,
    len: u64,
}

impl InFlight {
    /// Id of the next window `patient` completes.
    fn next_id(&self, patient: u32) -> u64 {
        window_id(
            patient,
            self.seq.get(patient as usize).copied().unwrap_or(0),
        )
    }

    fn push(&mut self, patient: u32, at_ns: u64, windows: u64) {
        let p = patient as usize;
        if self.queues.len() <= p {
            self.queues.resize_with(p + 1, VecDeque::new);
            self.seq.resize(p + 1, 0);
        }
        for _ in 0..windows {
            self.queues[p].push_back((at_ns, self.seq[p]));
            self.seq[p] += 1;
        }
        self.len += windows;
    }

    fn pop(&mut self, patient: u64) -> Option<(u64, u64)> {
        let got = self.queues.get_mut(patient as usize)?.pop_front();
        self.len -= u64::from(got.is_some());
        got
    }

    fn discard(&mut self, patient: u32, windows: u64) {
        for _ in 0..windows {
            self.pop(u64::from(patient));
        }
    }
}

/// Applies one operation through the fleet's public API. An ingest span
/// that completes a window carries `window`, the id of that window.
fn apply(
    fleet: &mut FleetScheduler,
    op: Op,
    inputs: Inputs<'_>,
    calls: &mut Calls,
    tr: &mut Tracer,
    window: u64,
) -> Applied {
    let mut a = Applied::default();
    let ok = match op {
        Op::Chunk {
            patient,
            start,
            len,
        } => {
            tr.enter(Name::Ingest);
            let chunk = &inputs.samples[start as usize..(start + len) as usize];
            let r = fleet.ingest(u64::from(patient), chunk);
            a.completed = r.as_ref().map_or(0, |&k| k as u64);
            a.ns = tr.exit(if a.completed > 0 { window } else { NO_WINDOW });
            r.is_ok()
        }
        Op::Row { patient, window: w } => {
            tr.enter(Name::IngestRow);
            let r = fleet.ingest_row(u64::from(patient), inputs.rows[w as usize].as_deref());
            a.completed = u64::from(r.is_ok());
            a.ns = tr.exit(window);
            r.is_ok()
        }
        Op::Admit { patient, .. } => {
            tr.enter(Name::Admit);
            let r = fleet.admit(u64::from(patient));
            a.ns = tr.exit(NO_WINDOW);
            r.is_ok()
        }
        Op::Remove { patient } => {
            tr.enter(Name::Remove);
            let r = fleet.remove(u64::from(patient));
            a.discarded = r.as_ref().map_or(0, |r| r.discarded_windows as u64);
            a.ns = tr.exit(NO_WINDOW);
            r.is_ok()
        }
        Op::Restart { patient, .. } => {
            tr.enter(Name::Restart);
            let r = fleet.restart(u64::from(patient));
            a.discarded = r.as_ref().map_or(0, |r| r.discarded_windows as u64);
            a.ns = tr.exit(NO_WINDOW);
            r.is_ok()
        }
    };
    // A successful ingest is as many operations as the windows it
    // completed; any other call, or a failed one, is one.
    calls.attempted += match op {
        Op::Chunk { .. } | Op::Row { .. } if ok => a.completed,
        _ => 1,
    };
    calls.failed += u64::from(!ok);
    a
}

/// Applies untimed warm-up operations and runs one tick, which also
/// brings the fleet's tick schedule up to the present.
pub fn warm_up(fleet: &mut FleetScheduler, ops: &[Op], inputs: Inputs<'_>) -> FleetFlush {
    let mut calls = Calls::default();
    let mut tr = Tracer::new(false);
    for &op in ops {
        apply(fleet, op, inputs, &mut calls, &mut tr, NO_WINDOW);
    }
    assert_eq!(calls.failed, 0, "warm-up operations are valid");
    let mut out = FleetFlush::default();
    fleet
        .tick_into(&mut out)
        .expect("fleet has a serving clock");
    out
}

/// Id of the first window `op` would complete.
fn op_window(inflight: &InFlight, op: Op) -> u64 {
    match op {
        Op::Chunk { patient, .. } | Op::Row { patient, .. } => inflight.next_id(patient),
        _ => NO_WINDOW,
    }
}

/// Call durations of a traced phase, by call.
#[derive(Debug, Default)]
pub struct CallTimes {
    /// `ingest` / `ingest_row` durations (ns).
    pub ingest: Vec<u64>,
    /// `tick_into` durations (ns).
    pub tick: Vec<u64>,
    /// Windows each tick decided.
    pub per_tick: Vec<u64>,
    /// `admit` durations (ns).
    pub admit: Vec<u64>,
    /// `remove` durations (ns).
    pub remove: Vec<u64>,
    /// `restart` durations (ns).
    pub restart: Vec<u64>,
}

impl CallTimes {
    fn record(&mut self, op: Op, ns: u64) {
        match op {
            Op::Chunk { .. } | Op::Row { .. } => self.ingest.push(ns),
            Op::Admit { .. } => self.admit.push(ns),
            Op::Remove { .. } => self.remove.push(ns),
            Op::Restart { .. } => self.restart.push(ns),
        }
    }
}

/// Result of a saturation phase.
#[derive(Debug, Default)]
pub struct Saturation {
    /// Windows decided.
    pub windows: u64,
    /// Windows decided as dropped.
    pub dropped: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Bursts run.
    pub bursts: u64,
    /// Wall time of the bursts: operations plus the tick after them.
    pub timed_ns: u64,
    /// Call timings (traced runs only).
    pub calls: CallTimes,
}

impl Saturation {
    /// Windows decided per second of burst time, over the whole phase.
    pub fn windows_per_s(&self) -> f64 {
        self.windows as f64 * 1e9 / self.timed_ns.max(1) as f64
    }
}

/// Closed loop: each burst of the plan is offered as soon as the previous
/// tick returns, with unbounded admission, until at least `det_bursts`
/// bursts and `budget_ns` of burst time have passed. Every tick's output
/// is checked against the reference outside the timed region; the
/// checker freezes its deterministic prefix after `det_bursts` bursts.
#[allow(clippy::too_many_arguments)]
pub fn saturation(
    fleet: &mut FleetScheduler,
    plan: &mut Plan,
    inputs: Inputs<'_>,
    checker: &mut Checker,
    tr: &mut Tracer,
    calls: &mut Calls,
    budget_ns: u64,
    det_bursts: u64,
) -> Saturation {
    let mut s = Saturation::default();
    let mut ops = Vec::new();
    let mut out = FleetFlush::default();
    let mut inflight = InFlight::default();
    let traced = tr.is_on();
    if det_bursts == 0 {
        checker.freeze();
    }
    tr.enter(Name::Phase);
    while s.bursts < det_bursts || s.timed_ns < budget_ns {
        ops.clear();
        plan.next_burst(&mut ops);
        checker.on_ops(&ops);
        let t0 = Instant::now();
        tr.enter(Name::Burst);
        for &op in &ops {
            let id = if traced {
                op_window(&inflight, op)
            } else {
                NO_WINDOW
            };
            let a = apply(fleet, op, inputs, calls, tr, id);
            if traced {
                s.calls.record(op, a.ns);
                if let Op::Chunk { patient, .. } | Op::Row { patient, .. } = op {
                    inflight.push(patient, tr.now_ns(), a.completed);
                }
            }
        }
        let tick = tr.enter(Name::Tick);
        let r = fleet.tick_into(&mut out);
        let tick_ns = tr.exit(NO_WINDOW);
        tr.exit(NO_WINDOW);
        let burst_ns = t0.elapsed().as_nanos() as u64;
        s.timed_ns += burst_ns;

        calls.attempted += 1;
        calls.failed += u64::from(r.is_err());
        s.windows += out.decisions.len() as u64;
        s.dropped += out
            .decisions
            .iter()
            .filter(|d| d.decision.decision.is_none())
            .count() as u64;
        s.alarms += out.alarms.len() as u64;
        checker.check(&out);
        if traced {
            s.calls.tick.push(tick_ns);
            s.calls.per_tick.push(out.decisions.len() as u64);
            let end = tr.now_ns();
            for d in &out.decisions {
                if let Some((at, seq)) = inflight.pop(d.patient) {
                    tr.window(tick, at, end, window_id(d.patient as u32, seq));
                }
            }
        }
        s.bursts += 1;
        if s.bursts == det_bursts {
            checker.freeze();
        }
    }
    tr.exit(NO_WINDOW);
    s
}

/// Result of a paced phase.
#[derive(Debug, Default)]
pub struct Paced {
    /// Windows offered (completed by an ingest), less those a churn call
    /// discarded before they were decided.
    pub offered: u64,
    /// Windows decided.
    pub decided: u64,
    /// Windows discarded by churn calls.
    pub discarded: u64,
    /// Windows decided later than the latency limit.
    pub late: u64,
    /// Windows the admission gate shed.
    pub shed: u64,
    /// Windows still undecided when the phase gave up draining.
    pub unfinished: u64,
    /// Decisions for windows that were never offered (a fleet bug).
    pub unexpected: u64,
    /// Due-to-decision latency of every decided window (ns).
    pub latencies: Vec<u64>,
    /// Windows offered per second of the phase's offering span.
    pub offered_per_s: f64,
    /// Generator lag per operation: issue time minus due time (traced
    /// runs only, ns).
    pub lag: Vec<u64>,
    /// Ticks run.
    pub ticks: u64,
    /// Ticks that overran their deadline.
    pub deadlines_missed: u64,
    /// Worst overrun past a tick deadline (ns).
    pub worst_overrun_ns: u64,
    /// Flush work of each tick (ns).
    pub tick_work: Vec<u64>,
    /// Most rows pending before any tick (traced runs only).
    pub pending_rows_max: u64,
    /// Most windows pending before any tick (traced runs only).
    pub pending_windows_max: u64,
}

/// Paced latency over every decided window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median (ns).
    pub p50_ns: u64,
    /// Highest percentile with ten windows beyond it (ns).
    pub tail_ns: u64,
    /// That percentile (100 means the maximum, under 11 windows).
    pub tail_percentile: u32,
    /// Windows decided.
    pub samples: usize,
}

impl Paced {
    /// Median and tail of the due-to-decision latency of every decided
    /// window of the phase.
    pub fn latency(&self) -> LatencySummary {
        let mut v = self.latencies.clone();
        let (p50_ns, tail_ns, tail_percentile) = crate::report::median_and_tail(&mut v);
        LatencySummary {
            p50_ns,
            tail_ns,
            tail_percentile,
            samples: v.len(),
        }
    }

    /// Windows that missed the limit, were shed or never decided, over
    /// windows offered. A shed window decided late counts once per
    /// reason; the ratio is capped at 1.
    pub fn slo_miss_ratio(&self) -> f64 {
        let missed = self.late + self.shed + self.unfinished;
        (missed as f64 / self.offered.max(1) as f64).min(1.0)
    }
}

/// The paced phase gives up this long after its last operation was due;
/// what it has not offered or decided by then counts as undecided.
const OVERRUN_LIMIT_NS: u64 = 5_000_000_000;

/// Open loop: operation `i` is due when the schedule has offered its
/// last sample at `rate` windows per second, whatever the fleet is doing.
/// Ticks run on the fleet's own cadence behind its admission gate. A
/// window's latency runs from when the operation completing it was due
/// to the return of the tick that decided it, so a stall is charged to
/// every window due during it.
pub fn paced(
    fleet: &mut FleetScheduler,
    ops: &[Op],
    inputs: Inputs<'_>,
    rate: f64,
    limit_ns: u64,
    tr: &mut Tracer,
    calls: &mut Calls,
) -> Paced {
    let mut s = Paced::default();
    let mut out = FleetFlush::default();
    let mut inflight = InFlight::default();
    let traced = tr.is_on();
    let clock = |f: &FleetScheduler| f.clock_now_ns().expect("paced fleet has a serving clock");
    let ns_per_sample = 1e9 / (rate * WINDOW_LEN as f64);
    // Converts fleet-clock readings to tracer time for window spans.
    let to_tracer = tr.now_ns() as i128 - clock(fleet) as i128;
    let shed0 = fleet.stats().shed_windows;
    let t0 = clock(fleet) + 1_000_000;
    let due_of = |cum: u64| t0 + (cum as f64 * ns_per_sample) as u64;
    let give_up = due_of(ops.iter().map(Op::cost_samples).sum()) + OVERRUN_LIMIT_NS;
    let mut i = 0;
    let mut cum = ops.first().map_or(0, Op::cost_samples);
    let mut last_issue = t0;
    tr.enter(Name::Phase);
    loop {
        let now = clock(fleet);
        while i < ops.len() && due_of(cum) <= now {
            let due = due_of(cum);
            let op = ops[i];
            let id = if traced {
                op_window(&inflight, op)
            } else {
                NO_WINDOW
            };
            let a = apply(fleet, op, inputs, calls, tr, id);
            match op {
                Op::Chunk { patient, .. } | Op::Row { patient, .. } => {
                    inflight.push(patient, due, a.completed);
                    s.offered += a.completed;
                }
                Op::Remove { patient } | Op::Restart { patient, .. } => {
                    inflight.discard(patient, a.discarded);
                    s.offered -= a.discarded;
                    s.discarded += a.discarded;
                }
                Op::Admit { .. } => {}
            }
            if traced {
                s.lag.push(now.saturating_sub(due));
            }
            last_issue = now;
            i += 1;
            cum += ops.get(i).map_or(0, Op::cost_samples);
            // A fleet far behind can take long over one batch of due
            // operations (the gate sheds while they queue); look up.
            if i.is_multiple_of(1024) && clock(fleet) > give_up {
                break;
            }
        }
        let offering = i < ops.len();
        if !offering && inflight.len == 0 {
            break;
        }
        if now > give_up {
            let left = ops[i..].iter().map(Op::cost_samples).sum::<u64>() / WINDOW_LEN as u64;
            s.offered += left;
            s.unfinished = inflight.len + left;
            // Settle what is pending so the fleet starts the next phase clean.
            calls.attempted += 1;
            calls.failed += u64::from(fleet.tick_into(&mut out).is_err());
            break;
        }
        let next_tick = fleet
            .next_tick_ns()
            .expect("paced fleet has a serving clock");
        if now >= next_tick {
            if traced {
                let st = fleet.stats();
                s.pending_rows_max = s.pending_rows_max.max(st.pending_rows as u64);
                s.pending_windows_max = s.pending_windows_max.max(st.pending_windows as u64);
            }
            let tick = tr.enter(Name::Tick);
            let r = fleet.tick_into(&mut out);
            tr.exit(NO_WINDOW);
            let end = clock(fleet);
            calls.attempted += 1;
            calls.failed += u64::from(r.is_err());
            if let Ok(o) = r {
                s.ticks += 1;
                s.tick_work.push(o.work_ns);
                if !o.met {
                    s.deadlines_missed += 1;
                    s.worst_overrun_ns = s.worst_overrun_ns.max(o.slack_ns.unsigned_abs());
                }
            }
            for d in &out.decisions {
                let Some((due, seq)) = inflight.pop(d.patient) else {
                    s.unexpected += 1;
                    continue;
                };
                let lat = end.saturating_sub(due);
                s.latencies.push(lat);
                s.late += u64::from(lat > limit_ns);
                s.decided += 1;
                if traced {
                    let at = (due as i128 + to_tracer) as u64;
                    let to = (end as i128 + to_tracer) as u64;
                    tr.window(tick, at, to, window_id(d.patient as u32, seq));
                }
            }
            continue;
        }
        let target = if offering {
            due_of(cum).min(next_tick)
        } else {
            next_tick
        };
        if target > now + 200_000 {
            std::thread::sleep(std::time::Duration::from_nanos(target - now - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
    tr.exit(NO_WINDOW);
    s.shed = fleet.stats().shed_windows - shed0;
    calls.failed += s.shed;
    let span_ns = last_issue.saturating_sub(t0).max(1);
    s.offered_per_s = (s.offered + s.discarded) as f64 * 1e9 / span_ns as f64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{alarm_config, stream_config};
    use seizure_core::clock::TickConfig;
    use seizure_core::fleet::{FleetConfig, OverloadPolicy, Watermarks};
    use seizure_core::stream::SharedEngine;
    use std::sync::Arc;
    use svm::{ClassifierEngine, EngineInfo};

    /// A stand-in engine: the first feature is the decision.
    struct FirstFeature;

    impl ClassifierEngine for FirstFeature {
        fn decision(&self, row: &[f64]) -> f64 {
            row[0]
        }
        fn n_features(&self) -> usize {
            1
        }
        fn info(&self) -> EngineInfo {
            EngineInfo {
                kind: "first-feature",
                n_support_vectors: 1,
                n_features: 1,
                d_bits: None,
                a_bits: None,
            }
        }
    }

    fn fleet(overload: OverloadPolicy, max_pending_rows: usize) -> FleetScheduler {
        let engine: SharedEngine = Arc::new(FirstFeature);
        let cfg = FleetConfig {
            alarms: Some(alarm_config()),
            max_pending_rows,
            overload,
            workers: Some(1),
            tick: Some(TickConfig::wall(1_000_000)),
            ..FleetConfig::unbounded(stream_config())
        };
        let mut f = FleetScheduler::new(engine, cfg).expect("fleet");
        for p in 0..4 {
            f.admit(p).expect("admit");
        }
        f
    }

    #[test]
    fn an_err_counts_as_a_failed_operation() {
        let mut f = fleet(OverloadPolicy::Reject, usize::MAX);
        let rows = vec![Some(vec![0.5; ecg_features::N_FEATURES])];
        let samples = vec![0.0; 128];
        let inputs = Inputs {
            samples: &samples,
            rows: &rows,
        };
        let mut calls = Calls::default();
        let mut tr = Tracer::new(false);
        let mut op = |op| apply(&mut f, op, inputs, &mut calls, &mut tr, NO_WINDOW);
        op(Op::Row {
            patient: 0,
            window: 0,
        });
        // A chunk that completes no window is no operation.
        op(Op::Chunk {
            patient: 2,
            start: 0,
            len: 128,
        });
        // Patient 9 was never admitted; patient 1 is already admitted.
        op(Op::Row {
            patient: 9,
            window: 0,
        });
        op(Op::Admit {
            patient: 1,
            start_window: 0,
        });
        assert_eq!(
            calls,
            Calls {
                attempted: 3,
                failed: 2
            }
        );
        assert!((calls.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_shed_window_counts_as_failed_and_missed() {
        // A gate that sheds above 2 pending rows, offered 40 rows at once.
        let mut f = fleet(OverloadPolicy::Watermark(Watermarks { low: 1, high: 2 }), 2);
        let rows = vec![Some(vec![0.5; ecg_features::N_FEATURES])];
        let inputs = Inputs {
            samples: &[],
            rows: &rows,
        };
        let ops: Vec<Op> = (0..40)
            .map(|k| Op::Row {
                patient: k % 4,
                window: 0,
            })
            .collect();
        let mut calls = Calls::default();
        let mut tr = Tracer::new(false);
        // 1e9 windows/s: every row is due at once.
        let s = paced(&mut f, &ops, inputs, 1e9, u64::MAX, &mut tr, &mut calls);
        assert_eq!(s.offered, 40);
        assert_eq!(s.decided, 40);
        assert!(s.shed > 0, "the gate shed nothing");
        assert_eq!(s.late, 0);
        assert_eq!(calls.failed, s.shed, "every shed window is a failure");
        assert_eq!(calls.attempted, 40 + s.ticks);
        assert!((s.slo_miss_ratio() - s.shed as f64 / 40.0).abs() < 1e-12);
    }
}
