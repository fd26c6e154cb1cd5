//! PARFAIT performance benchmark: one workload per process.
//!
//! ```text
//! parfait-perfbench --workload <fleet-mig|mps-llama|faults-reconfig>
//!                   --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! A run repeats whole rounds of the workload (set-up, open-loop
//! arrivals until the world is quiet, output checks) until `--seconds`
//! of host time have passed, at least one round. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs each round
//! twice, untraced and traced, checks that both simulate the same thing
//! bit for bit, and prints the per-layer metrics. The last line of
//! standard output is one JSON object. A failed check prints its name on
//! standard error, a result with `"correct": false` and no metrics on
//! standard output, and exits with code 1.

mod alloc;
mod checks;
mod counters;
mod drive;
mod hist;
mod workload;

use hist::median;
use std::process::ExitCode;
use std::time::Instant;
use workload::{prepare, Kind};

/// Default seed; `README.md` names a second one on which every check
/// also passes.
const DEFAULT_SEED: u64 = 1;
/// Set-ups timed per run for the `setup_s` median: at least
/// `MIN_SETUPS`, and more while they add up to less than
/// `SETUP_BUDGET_S`, so a set-up of a few milliseconds is timed many
/// times.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;
const MAX_SETUPS: usize = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!(
                    "unknown workload {v:?}; known: {}",
                    workload::ALL.map(Kind::name).join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One finished round.
struct Round {
    prepared: workload::Prepared,
    outcome: drive::Outcome,
    sim: checks::SimMetrics,
    fingerprint: Vec<u64>,
}

/// Requests offered and requests that did not end as they should, over
/// every round of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Set up, drive and check one round.
fn round(
    kind: Kind,
    seed: u64,
    spans: Option<&mut drive::Spans>,
    tally: &mut Tally,
) -> Result<Round, checks::Failure> {
    let mut prepared = prepare(kind, seed);
    if !workload::all_idle(&prepared.world) {
        return Err(checks::Failure {
            check: "warm-fleet",
            detail: "a worker was not idle after boot and warm-up".into(),
        });
    }
    let outcome = drive::run(&mut prepared, spans);
    let sim = checks::sim_metrics(&prepared, &outcome);
    tally.attempted += outcome.measured.len() as u64;
    tally.failed += sim.failed;
    checks::check(&prepared, &outcome)?;
    let fingerprint = counters::fingerprint(&prepared, &outcome);
    Ok(Round {
        prepared,
        outcome,
        sim,
        fingerprint,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn run(args: &Args, tally: &mut Tally) -> Result<(), checks::Failure> {
    let started = Instant::now();
    let mut reference: Option<(Vec<u64>, checks::SimMetrics)> = None;
    // Every round of one seed, traced or not, must simulate exactly the
    // same thing.
    let mut same_as_first = |r: &Round| -> Result<(), checks::Failure> {
        match &reference {
            None => {
                reference = Some((r.fingerprint.clone(), r.sim));
                Ok(())
            }
            Some((fp, _)) if *fp == r.fingerprint => Ok(()),
            Some(_) => Err(checks::Failure {
                check: "deterministic-rounds",
                detail: "a round of the same seed simulated a different run \
                         (traced and untraced rounds included)"
                    .into(),
            }),
        }
    };
    if !args.trace {
        let mut setups = Vec::new();
        let mut rates = Vec::new();
        // Read after the first round: later rounds reuse freed memory to a
        // varying degree, which would make the figure depend on how many
        // rounds fit into `--seconds`.
        let mut peak_rss = None;
        while rates.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            let r = round(args.kind, args.seed, None, tally)?;
            same_as_first(&r)?;
            setups.push(r.prepared.setup.total());
            rates.push(r.outcome.measured.len() as f64 / r.outcome.loop_s);
            peak_rss.get_or_insert_with(peak_rss_mb);
            eprintln!(
                "round {}: {:.0} tasks/s, loop {:.3} s, setup {:.3} s, \
                 unloaded {:.3} s, limit {:.3} s, p50 {:.3} s, p99 {:.3} s, end {:.1} s",
                rates.len(),
                rates.last().copied().unwrap_or(0.0),
                r.outcome.loop_s,
                r.prepared.setup.total(),
                r.prepared.unloaded_s,
                r.prepared.limit_s,
                r.sim.p50_turnaround_s,
                r.sim.p99_turnaround_s,
                r.prepared.eng.now().as_secs_f64()
            );
        }
        while setups.len() < MIN_SETUPS
            || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
        {
            setups.push(prepare(args.kind, args.seed).setup.total());
        }
        let (_, sim) = reference.expect("at least one round");
        print_result(
            true,
            tally,
            &[
                ("tasks_per_s", median(&rates), "tasks/s"),
                ("setup_s", median(&setups), "s"),
                ("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
                ("sim_p50_turnaround_s", sim.p50_turnaround_s, "sim_s"),
                ("sim_p99_turnaround_s", sim.p99_turnaround_s, "sim_s"),
                (
                    "sim_slo_met_per_gpu_s",
                    sim.slo_met_per_gpu_s,
                    "tasks/sim_gpu_s",
                ),
            ],
        );
        return Ok(());
    }
    // Traced: untraced and traced rounds in pairs.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        // Hold one round's world at a time.
        drop(last.take());
        let r = round(args.kind, args.seed, None, tally)?;
        same_as_first(&r)?;
        plain.push(r.outcome.loop_s);
        drop(r);
        let mut spans = drive::Spans::new();
        let r = round(args.kind, args.seed, Some(&mut spans), tally)?;
        same_as_first(&r)?;
        traced.push(r.outcome.loop_s);
        last = Some((r, spans));
    }
    let (r, spans) = last.expect("at least one traced round");
    let ratio = median(&traced) / median(&plain);
    let metrics = counters::per_layer(
        &r.prepared,
        &r.outcome,
        &spans,
        r.sim.queue_wait_p99_s,
        ratio,
    );
    print_result(true, tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    match run(&args, &mut tally) {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("CHECK FAILED: {}: {}", f.check, f.detail);
            print_result(false, &tally, &[]);
            ExitCode::from(1)
        }
    }
}
