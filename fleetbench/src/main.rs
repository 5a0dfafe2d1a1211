//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): times set-up, runs a saturation phase and a
//! paced phase for half of `--seconds` each, and prints the end-to-end
//! metrics. Traced (`--trace 1`): runs each phase once untraced and once
//! traced for a quarter of `--seconds` each, adds micro timings, writes
//! the spans out and prints the per-layer metrics. Either way the last
//! line of standard output is the JSON result, and the exit code is
//! non-zero when any checked decision was wrong.

#![forbid(unsafe_code)]

use fleetbench::inputs::{
    Plan, Pool, ADVERSE_SHARE, ARTEFACT_SEED, POOL_SESSIONS, POOL_WINDOWS_PER_SESSION,
};
use fleetbench::micro;
use fleetbench::phases::{paced, saturation, warm_up, Calls, Inputs, Paced, Saturation};
use fleetbench::reference::{Checker, Reference};
use fleetbench::report::{
    fingerprint, median_and_tail, median_f64, metric, peak_rss_mib, result_line, Metric,
    END_TO_END, PER_LAYER,
};
use fleetbench::system::{alarm_config, stream_config, training_records, System};
use fleetbench::trace::Tracer;
use fleetbench::workload::{by_name, Kind, Workload, WORKLOADS};
use seizure_core::fleet::FleetStats;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Budget of each micro timing in the traced run.
const MICRO_BUDGET: Duration = Duration::from_millis(150);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(by_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("not a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything one run measured, for the metric tables.
struct Run {
    setup_s: f64,
    setup_times: Vec<f64>,
    sat: Saturation,
    sat_traced: Option<(Saturation, FleetStats, FleetStats)>,
    paced: Paced,
    paced_traced: Option<(Paced, FleetStats)>,
    micro: Option<micro::Micro>,
    executors: usize,
    macs: f64,
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(2);
    let rate = w.paced_rate;
    let phase_ns = args.seconds * 1_000_000_000 / if args.trace { 4 } else { 2 };
    let print = |s: &str| eprintln!("fleetbench[{} seed {}]: {s}", w.name, args.seed);

    // Inputs: all ECG, artefacts, rows and the schedule, before any timer.
    print("synthesising inputs");
    let mut pool = Pool::synthesize(POOL_SESSIONS, POOL_WINDOWS_PER_SESSION);
    if w.kind == Kind::RawAdverse {
        pool.inject_artefacts(ARTEFACT_SEED, ADVERSE_SHARE);
    }
    let rows = pool.rows();
    let inputs = Inputs {
        samples: &pool.samples,
        rows: &rows,
    };
    let mut plan = Plan::new(w, args.seed, pool.windows);
    let streams = plan.initial_streams();
    let ids: Vec<u32> = streams.iter().map(|&(p, _)| p).collect();
    let training = training_records();

    // Set-up: the system's own, timed.
    print("setting up");
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (system, mut setup_times) = System::build_timed(w, workers, &ids, &training, reps)
        .map_err(|e| format!("set-up failed: {e}"))?;
    drop(training);
    let setup_s = median_f64(&mut setup_times);
    let System {
        engine,
        saturation: mut sat_fleet,
        paced: mut paced_fleet,
    } = system;

    // Reference, outside timing.
    let reference = match w.kind {
        Kind::RowsFanin => Reference::from_rows(&engine, &rows),
        Kind::RawLive | Kind::RawAdverse => {
            Reference::from_stream(&engine, &pool).map_err(|e| format!("reference failed: {e}"))?
        }
    };
    let mut checker = Checker::new(reference, &pool, alarm_config(), &streams);
    let micro = args.trace.then(|| {
        print("micro timings");
        micro::run(&pool, &rows, &engine, MICRO_BUDGET)
    });

    // Saturation phase.
    let mut calls = Calls::default();
    let mut tr = Tracer::new(false);
    let mut warm = Vec::new();
    plan.warmup(&mut warm);
    checker.check(&warm_up(&mut sat_fleet, &warm, inputs));
    let det_bursts = if args.trace { 0 } else { w.det_bursts as u64 };
    print("saturation phase");
    let sat = saturation(
        &mut sat_fleet,
        &mut plan,
        inputs,
        &mut checker,
        &mut tr,
        &mut calls,
        phase_ns,
        det_bursts,
    );
    let sat_traced = args.trace.then(|| {
        print("traced saturation phase");
        let before = sat_fleet.stats();
        tr.set_on(true);
        let s = saturation(
            &mut sat_fleet,
            &mut plan,
            inputs,
            &mut checker,
            &mut tr,
            &mut calls,
            phase_ns,
            0,
        );
        tr.set_on(false);
        (s, before, sat_fleet.stats())
    });
    let geometry = stream_config();
    checker.check_counts(|p| match w.kind {
        Kind::RowsFanin => plan.fed(p),
        Kind::RawLive | Kind::RawAdverse => geometry.windows_in(plan.fed(p)),
    });
    let executors = sat_fleet.flush_executors();
    drop(sat_fleet);

    // Paced phase, on the gated fleet with the schedule replayed from the
    // start.
    let mut plan = Plan::new(w, args.seed, pool.windows);
    let mut warm = Vec::new();
    plan.warmup(&mut warm);
    warm_up(&mut paced_fleet, &warm, inputs);
    let limit_ns = w.slo_limit_ms * 1_000_000;
    let phase_windows = rate * phase_ns as f64 / 1e9;
    let paced_traced = args.trace.then(|| {
        print("traced paced phase");
        let ops = plan.paced_ops(phase_windows);
        tr.set_on(true);
        let p = paced(
            &mut paced_fleet,
            &ops,
            inputs,
            rate,
            limit_ns,
            &mut tr,
            &mut calls,
        );
        tr.set_on(false);
        (p, paced_fleet.stats())
    });
    print("paced phase");
    let ops = plan.paced_ops(phase_windows);
    let paced_run = paced(
        &mut paced_fleet,
        &ops,
        inputs,
        rate,
        limit_ns,
        &mut tr,
        &mut calls,
    );
    drop(ops);

    let correct = checker.passed()
        && paced_run.unexpected == 0
        && paced_traced.as_ref().is_none_or(|(p, _)| p.unexpected == 0);
    if let Some(m) = &checker.first_mismatch {
        eprintln!(
            "fleetbench: WRONG OUTPUT ({} mismatches); first: {m}",
            checker.mismatches
        );
    }
    print(&format!(
        "checked {} decisions against the reference: {}",
        checker.checked,
        if correct { "all equal" } else { "MISMATCH" }
    ));

    let run = Run {
        setup_s,
        setup_times,
        sat,
        sat_traced,
        paced: paced_run,
        paced_traced,
        micro,
        executors,
        macs: {
            let info = engine.info();
            (info.n_support_vectors * info.n_features) as f64
        },
    };
    println!(
        "fingerprint {}",
        fingerprint(w.name, args.seed, args.seconds, args.trace, workers)
    );
    let metrics = if args.trace {
        eprint!("{}", tr.self_time_table());
        let path = trace_path(w.name, args.seed);
        let header = format!(
            "fleetbench spans: {} seed {} (1 in {} ingest and window spans stored)",
            w.name,
            args.seed,
            fleetbench::trace::SAMPLE_EVERY
        );
        match tr.write(&path, &header) {
            Ok(()) => print(&format!("spans written to {}", path.display())),
            Err(e) => print(&format!("could not write spans to {}: {e}", path.display())),
        }
        per_layer(&run)
    } else {
        end_to_end(&run, &checker, &calls, w, rate)
    };
    for m in &metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(correct, calls.attempted, calls.failed, &metrics)
    );
    Ok(correct)
}

/// Where the traced run writes its spans: under the build directory.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("fleetbench/target"), Into::into);
    dir.join("fleetbench-trace")
        .join(format!("{workload}-seed{seed}.tsv"))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The end-to-end metrics, with the human table of the ten named ones.
fn end_to_end(run: &Run, checker: &Checker, calls: &Calls, w: &Workload, rate: f64) -> Vec<Metric> {
    let lat = run.paced.latency();
    let (p50, tail) = (ms(lat.p50_ns), ms(lat.tail_ns));
    let slo_miss = run.paced.slo_miss_ratio();
    let failed = calls.failed_ratio();
    let undecided = checker.prefix_undecided as f64 / checker.prefix_decided.max(1) as f64;
    let se = checker.events.event_sensitivity().unwrap_or(0.0);
    let fa = checker.events.false_alarms_per_24h().unwrap_or(0.0);
    let rss = peak_rss_mib();
    let m = |name: &str, v: f64| metric(&END_TO_END, name, v);
    println!(
        "end-to-end, {} ({} patients, paced at {rate} windows/s, limit {} ms):",
        w.name, w.patients, w.slo_limit_ms
    );
    let setups: Vec<String> = run.setup_times.iter().map(|t| format!("{t:.3}")).collect();
    let rows = [
        (
            "setup_s",
            run.setup_s,
            "s",
            format!("median of set-ups [{}] s", setups.join(", ")),
        ),
        (
            "windows_per_s",
            run.sat.windows_per_s(),
            "windows/s",
            format!(
                "{} windows in {:.3} s of saturation",
                run.sat.windows,
                run.sat.timed_ns as f64 / 1e9
            ),
        ),
        (
            "latency_p50_ms",
            p50,
            "ms",
            format!("of {} paced windows", lat.samples),
        ),
        (
            "latency_p99_ms",
            tail,
            "ms",
            format!("p{} of {} paced windows", lat.tail_percentile, lat.samples),
        ),
        (
            "slo_miss_ratio",
            slo_miss,
            "ratio",
            format!(
                "{} late, {} shed, {} undecided of {} offered",
                run.paced.late, run.paced.shed, run.paced.unfinished, run.paced.offered
            ),
        ),
        (
            "failed_ratio",
            failed,
            "ratio",
            format!("{} of {} operations", calls.failed, calls.attempted),
        ),
        (
            "undecided_ratio",
            undecided,
            "ratio",
            format!(
                "{} of {} prefix windows",
                checker.prefix_undecided, checker.prefix_decided
            ),
        ),
        (
            "event_sensitivity",
            se,
            "ratio",
            format!(
                "{} of {} seizures",
                checker.events.detected, checker.events.n_events
            ),
        ),
        (
            "false_alarms_per_24h",
            fa,
            "1/24h",
            format!(
                "{} over {:.1} h",
                checker.events.false_alarms,
                checker.events.monitored_s / 3600.0
            ),
        ),
        ("peak_rss_mib", rss, "MiB", "VmHWM".to_string()),
    ];
    for (name, v, unit, note) in &rows {
        println!("  {name:<22} {v:>14.6} {unit:<10} {note}");
    }
    vec![
        m("setup_s", run.setup_s),
        m("windows_per_s", run.sat.windows_per_s()),
        m("latency_p50_ms", p50),
        m("latency_p99_ms", tail),
        m("slo_met_ratio", 1.0 - slo_miss),
        m("ok_ratio", 1.0 - failed),
        m("decided_ratio", 1.0 - undecided),
        m("event_sensitivity", se),
        m("false_alarms_per_24h", fa),
        m("peak_rss_mib", rss),
    ]
}

fn p50_of(v: &[u64]) -> u64 {
    let mut v = v.to_vec();
    median_and_tail(&mut v).0
}

fn tail_of(v: &[u64]) -> u64 {
    let mut v = v.to_vec();
    median_and_tail(&mut v).1
}

/// The per-layer metrics of the traced run.
fn per_layer(run: &Run) -> Vec<Metric> {
    let (sat, before, after) = run.sat_traced.as_ref().expect("traced run");
    let (pt, paced_stats) = run.paced_traced.as_ref().expect("traced run");
    let micro = run.micro.expect("traced run");
    let m = |name: &str, v: f64| metric(&PER_LAYER, name, v);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let windows = (after.windows_decided - before.windows_decided) as f64;
    let rows = (after.rows_classified - before.rows_classified) as f64;
    let extract_ns = (after.extract_ns - before.extract_ns) as f64;
    let classify_ns = (after.classify_ns - before.classify_ns) as f64;
    let exec = run.executors as f64;
    let tick_ns: f64 = sat.calls.tick.iter().sum::<u64>() as f64;
    let ingest_ns: f64 = sat.calls.ingest.iter().sum::<u64>() as f64;
    // Tick wall time not covered by kernel time. Extraction time is summed
    // over the executors that ran it in parallel; classification time is
    // already wall time.
    let route_ns = (tick_ns - extract_ns / exec - classify_ns).max(0.0);
    let extract_in_situ_us = ratio(extract_ns, windows) / 1e3;
    let classify_in_situ_ns = ratio(classify_ns, rows);

    let pt_lat = pt.latency();
    let un_p50 = run.paced.latency().p50_ns;
    let decision_p99 = paced_stats.decision_latency.p99_ns();

    vec![
        m("loadgen.lag_p99_ms", ms(tail_of(&pt.lag))),
        m("loadgen.offered_per_s", pt.offered_per_s),
        m("fleet.ingest_calls", sat.calls.ingest.len() as f64),
        m("fleet.ingest_ns_p50", p50_of(&sat.calls.ingest) as f64),
        m("fleet.ingest_ns_p99", tail_of(&sat.calls.ingest) as f64),
        m(
            "fleet.ingest_busy_share",
            ratio(ingest_ns, sat.timed_ns as f64),
        ),
        m("fleet.tick_calls", sat.calls.tick.len() as f64),
        m("fleet.tick_ms_p50", ms(p50_of(&sat.calls.tick))),
        m("fleet.tick_ms_p99", ms(tail_of(&sat.calls.tick))),
        m("fleet.tick_busy_share", ratio(tick_ns, sat.timed_ns as f64)),
        m(
            "fleet.windows_per_tick_p50",
            p50_of(&sat.calls.per_tick) as f64,
        ),
        m("fleet.route_ns_per_window", ratio(route_ns, windows)),
        m(
            "fleet.extract_share",
            ratio(extract_ns, extract_ns + classify_ns + route_ns),
        ),
        m("fleet.pending_rows_max", pt.pending_rows_max as f64),
        m("fleet.pending_windows_max", pt.pending_windows_max as f64),
        m("fleet.shed_windows", pt.shed as f64),
        m("fleet.shed_ratio", ratio(pt.shed as f64, pt.offered as f64)),
        m("fleet.admit_us_p50", p50_of(&sat.calls.admit) as f64 / 1e3),
        m(
            "fleet.remove_us_p50",
            p50_of(&sat.calls.remove) as f64 / 1e3,
        ),
        m(
            "fleet.restart_us_p50",
            p50_of(&sat.calls.restart) as f64 / 1e3,
        ),
        m(
            "clock.deadline_miss_ratio",
            ratio(pt.deadlines_missed as f64, pt.ticks as f64),
        ),
        m("clock.worst_overrun_ms", ms(pt.worst_overrun_ns)),
        m("clock.tick_work_p99_ms", ms(tail_of(&pt.tick_work))),
        m("clock.decision_latency_p99_ms", ms(decision_p99)),
        m(
            "clock.omission_gap_ms",
            ms(pt_lat.tail_ns) - ms(decision_p99),
        ),
        m("parallel.executors", exec),
        m(
            "parallel.efficiency",
            ratio(extract_ns + classify_ns, tick_ns * exec),
        ),
        m("features.extract_us_per_window", extract_in_situ_us),
        m("features.extract_us_micro", micro.extract_us),
        m(
            "features.extract_micro_ratio",
            ratio(micro.extract_us, extract_in_situ_us),
        ),
        m(
            "features.extract_batch_us_per_window_micro",
            micro.extract_batch_us,
        ),
        m("features.dropped_windows", sat.dropped as f64),
        m("dsp.filtfilt_us", micro.filtfilt_us),
        m("dsp.qrs_detect_us", micro.qrs_detect_us),
        m("dsp.welch_us", micro.welch_us),
        m("dsp.ar_us", micro.ar_us),
        m("engine.classify_ns_per_row", classify_in_situ_ns),
        m(
            "engine.classify_ns_per_row_micro",
            micro.classify_ns_per_row,
        ),
        m(
            "engine.classify_micro_ratio",
            ratio(micro.classify_ns_per_row, classify_in_situ_ns),
        ),
        m("engine.rows_classified", rows),
        m("engine.macs_per_decision", run.macs),
        m("alarm.alarms_raised", sat.alarms as f64),
        m("trace.windows_per_s_untraced", run.sat.windows_per_s()),
        m("trace.windows_per_s_traced", sat.windows_per_s()),
        m(
            "trace.windows_per_s_ratio",
            ratio(sat.windows_per_s(), run.sat.windows_per_s()),
        ),
        m("trace.latency_p50_ms_untraced", ms(un_p50)),
        m("trace.latency_p50_ms_traced", ms(pt_lat.p50_ns)),
        m(
            "trace.latency_p50_ratio",
            ratio(pt_lat.p50_ns as f64, un_p50 as f64),
        ),
    ]
}
