//! The open-loop load generator.
//!
//! It advances the engine with `Engine::run_until` to each
//! arrival or disturbance time and then calls the public entry point
//! (`submit`, `inject_fault`, `begin_resize_mps`,
//! `begin_reconfigure_mig`). It schedules nothing on the engine itself.
//! After the last point it runs the engine until no event is left.
//!
//! The traced variant makes the same calls in the same order but steps
//! the engine one event at a time, reading the host clock around each
//! step and each public call. Both variants must leave bit-identical
//! simulated state; the caller checks that.

use crate::counters::{losses, Probations};
use crate::hist::Hist;
use crate::workload::{
    infeasible_request, pool_gpus, request, Disturbance, Point, Prepared, FAULT_MIG_WORKERS,
    STRAGGLER_FACTOR, STRAGGLER_S,
};
use parfait_core::reconfig::workers_on_gpu;
use parfait_core::{begin_reconfigure_mig, begin_resize_mps};
use parfait_faas::chaos::{OracleProbe, Violation};
use parfait_faas::{inject_fault, resume_sampling, submit, FaasWorld, FaultKind, InjectOutcome};
use parfait_faas::{AcceleratorSpec, TaskId, WorkerState};
use parfait_simcore::{Engine, SimDuration, SimTime};
use std::time::Instant;

/// Host-time spans of the traced run.
pub struct Spans {
    /// One sample per engine step.
    pub step: Hist,
    /// Sum of every step's duration, in ns.
    pub step_total_ns: u64,
    pub submit: Hist,
    pub inject: Hist,
    pub reconfig_begin: Hist,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            step: Hist::new(),
            step_total_ns: 0,
            submit: Hist::new(),
            inject: Hist::new(),
            reconfig_begin: Hist::new(),
        }
    }
}

/// What one disturbance did.
#[derive(Debug, Clone)]
pub struct Applied {
    pub at: SimTime,
    pub what: Disturbance,
    /// Target GPU (or the GPU of the target worker).
    pub gpu: Option<u32>,
    /// False when refused (no eligible target or the entry point said no).
    pub landed: bool,
    /// A GPU the disturbance could have hit was left out because it was
    /// in fail-slow probation.
    pub steered: bool,
    /// Workers with a live GPU context on the target GPU just before.
    pub residents_before: u64,
    /// `RecoveryStats::workers_lost` and `quarantines` deltas across the
    /// injection call.
    pub lost: u64,
    pub quarantined: u64,
}

/// The result of driving one prepared workload to quiescence.
pub struct Outcome {
    pub loop_s: f64,
    /// Task ids of the measured requests, in arrival order.
    pub measured: Vec<TaskId>,
    /// The measured requests sent with an unattainable deadline.
    pub infeasible: Vec<TaskId>,
    pub applied: Vec<Applied>,
    /// Oracle violations (faults-reconfig only).
    pub violations: Vec<Violation>,
    /// Engine and allocator readings at the start of the loop, for
    /// deltas.
    pub start: crate::counters::Snapshot,
    pub end: crate::counters::Snapshot,
}

/// Drive `p` to quiescence. With `spans`, every step and call is timed.
pub fn run(p: &mut Prepared, mut spans: Option<&mut Spans>) -> Outcome {
    let kind = p.kind;
    let unloaded = p.unloaded_s;
    let sampling = p.world.config.monitoring_period.is_some();
    let timeline = std::mem::take(&mut p.timeline);
    let mut measured = Vec::with_capacity(p.requests);
    let mut infeasible = Vec::new();
    let mut applied = Vec::new();
    let mut probe = OracleProbe::new();
    let mut probations = Probations::default();
    let start = crate::counters::snapshot(&p.world, &p.eng);
    let t0 = Instant::now();
    for &(at, point) in &timeline {
        match spans.as_deref_mut() {
            None => p.eng.run_until(&mut p.world, at),
            Some(s) => {
                step_until(&mut p.world, &mut p.eng, at, s);
                // Nothing is due by `at` now; this only moves the clock.
                p.eng.run_until(&mut p.world, at);
            }
        }
        match point {
            Point::Arrival(pool) | Point::Infeasible(pool) => {
                let label = &p.pools[pool as usize];
                let call = match point {
                    Point::Infeasible(_) => infeasible_request(label, unloaded),
                    _ => request(kind, label, unloaded),
                };
                let id = match spans.as_deref_mut() {
                    None => submit(&mut p.world, &mut p.eng, call),
                    Some(s) => {
                        let t = Instant::now();
                        let id = submit(&mut p.world, &mut p.eng, call);
                        s.submit.record(t.elapsed().as_nanos() as u64);
                        id
                    }
                };
                measured.push(id);
                if let Point::Infeasible(_) = point {
                    infeasible.push(id);
                }
                if sampling {
                    resume_sampling(&mut p.world, &mut p.eng);
                }
            }
            Point::Disturb(what, pool) => {
                let a = disturb(p, at, what, pool, &mut probations, spans.as_deref_mut());
                applied.push(a);
                probe.sample(&p.world, at);
            }
        }
    }
    match spans {
        None => p.eng.run(&mut p.world),
        Some(s) => step_until(&mut p.world, &mut p.eng, SimTime::MAX, s),
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let end = crate::counters::snapshot(&p.world, &p.eng);
    let violations = if kind == crate::workload::Kind::FaultsReconfig {
        probe.sample(&p.world, p.eng.now());
        probe.finish(&p.world)
    } else {
        Vec::new()
    };
    Outcome {
        loop_s,
        measured,
        infeasible,
        applied,
        violations,
        start,
        end,
    }
}

/// Step every event due at or before `deadline`, timing each step.
fn step_until(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    deadline: SimTime,
    s: &mut Spans,
) {
    while let Some(t) = eng.peek_time() {
        if t > deadline {
            break;
        }
        let c = Instant::now();
        eng.step(world);
        let ns = c.elapsed().as_nanos() as u64;
        s.step.record(ns);
        s.step_total_ns += ns;
    }
}

/// Workers bound to `gpu` with a live context.
fn residents(world: &FaasWorld, gpu: u32) -> u64 {
    world
        .workers
        .iter()
        .filter(|w| {
            w.gpu.map(|(g, _)| g.0) == Some(gpu)
                && !matches!(w.state, WorkerState::Dead | WorkerState::Crashed)
        })
        .count() as u64
}

/// Pick a worker of `pool` with a live context on one of `gpus`, from
/// the seeded target stream.
fn pick_worker(p: &mut Prepared, pool: u32, gpus: &[u32]) -> Option<usize> {
    let cands: Vec<usize> = p
        .world
        .workers
        .iter()
        .filter(|w| w.executor == pool as usize)
        .filter(|w| !matches!(w.state, WorkerState::Dead | WorkerState::Crashed))
        .filter(|w| w.gpu.is_some_and(|(g, _)| gpus.contains(&g.0)))
        .map(|w| w.id)
        .collect();
    if cands.is_empty() {
        return None;
    }
    Some(cands[p.target_rng.below(cands.len() as u64) as usize])
}

/// One of `gpus`, from the seeded target stream.
fn pick_gpu(p: &mut Prepared, gpus: &[u32]) -> Option<u32> {
    if gpus.is_empty() {
        return None;
    }
    Some(gpus[p.target_rng.below(gpus.len() as u64) as usize])
}

/// MPS shares for a resize of `victims`: skewed toward the first
/// tenant when the GPU is at equal shares, back to equal otherwise, so
/// repeated resizes of one GPU keep changing it.
fn resize_shares(world: &FaasWorld, victims: &[usize]) -> Vec<u32> {
    let n = victims.len().max(1) as u32;
    let equal = 100 / n;
    let skewed = victims.iter().any(|&w| {
        matches!(world.workers[w].accel, Some(AcceleratorSpec::GpuPercentage(_, pct)) if pct != equal)
    });
    if skewed || n < 2 {
        vec![equal; n as usize]
    } else {
        let rest = 15;
        let mut v = vec![rest; n as usize];
        v[0] = 100 - rest * (n - 1);
        v
    }
}

fn disturb(
    p: &mut Prepared,
    at: SimTime,
    what: Disturbance,
    pool: u32,
    probations: &mut Probations,
    spans: Option<&mut Spans>,
) -> Applied {
    let mut a = Applied {
        at,
        what,
        gpu: None,
        landed: false,
        steered: false,
        residents_before: 0,
        lost: 0,
        quarantined: 0,
    };
    // Target selection draws from the seeded stream; the drawn target is
    // a pure function of the seed and the simulated state.
    enum Call {
        Fault(FaultKind),
        Resize(u32, Vec<u32>),
        Reslice(u32, usize),
    }
    let mps = pool_gpus(pool, true);
    let mig = pool_gpus(pool, false);
    let both = [mps[0], mps[1], mig[0], mig[1]];
    let family: &[u32] = match what {
        Disturbance::MigClientFault | Disturbance::ReconfigMig => &mig,
        Disturbance::MpsClientFault | Disturbance::ResizeMps => &mps,
        _ => &both,
    };
    // Disturbances leave out devices in fail-slow probation: a worker
    // crash or a staged reconfiguration landing on one can strand the
    // probation without a verdict (see README). Each such case counts as
    // steered.
    let skip = probations.update(&p.world);
    let gpus: Vec<u32> = family
        .iter()
        .copied()
        .filter(|g| !skip.contains(g))
        .collect();
    a.steered = gpus.len() < family.len();
    let fault = |kind: Option<FaultKind>| kind.map(Call::Fault);
    let call = match what {
        Disturbance::WorkerCrash => {
            fault(pick_worker(p, pool, &gpus).map(|w| FaultKind::WorkerCrash { worker: w }))
        }
        Disturbance::Zombie => {
            fault(pick_worker(p, pool, &gpus).map(|w| FaultKind::ZombieWorker { worker: w }))
        }
        Disturbance::MigClientFault | Disturbance::MpsClientFault => {
            fault(pick_worker(p, pool, &gpus).map(|w| FaultKind::GpuClientFault { worker: w }))
        }
        Disturbance::Straggler => fault(pick_gpu(p, &gpus).map(|gpu| FaultKind::Straggler {
            gpu,
            factor: STRAGGLER_FACTOR,
            duration: SimDuration::from_secs(STRAGGLER_S),
        })),
        Disturbance::ResizeMps => pick_gpu(p, &gpus).map(|g| {
            let victims = workers_on_gpu(&p.world, g);
            Call::Resize(g, resize_shares(&p.world, &victims))
        }),
        Disturbance::ReconfigMig => pick_gpu(p, &gpus).map(|g| Call::Reslice(g, FAULT_MIG_WORKERS)),
    };
    let Some(call) = call else {
        return a;
    };
    let gpu = match &call {
        Call::Fault(FaultKind::Straggler { gpu, .. }) => Some(*gpu),
        Call::Fault(
            FaultKind::WorkerCrash { worker }
            | FaultKind::ZombieWorker { worker }
            | FaultKind::GpuClientFault { worker },
        ) => p.world.workers[*worker].gpu.map(|(g, _)| g.0),
        Call::Fault(_) => None,
        Call::Resize(g, _) | Call::Reslice(g, _) => Some(*g),
    };
    a.gpu = gpu;
    a.residents_before = gpu.map_or(0, |g| residents(&p.world, g));
    let (lost0, q0) = losses(&p.world);
    let c = Instant::now();
    let (landed, is_fault) = match call {
        Call::Fault(kind) => (
            inject_fault(&mut p.world, &mut p.eng, &kind) == InjectOutcome::Applied,
            true,
        ),
        Call::Resize(g, shares) => (
            begin_resize_mps(&mut p.world, &mut p.eng, g, shares).is_ok(),
            false,
        ),
        Call::Reslice(g, k) => (
            begin_reconfigure_mig(&mut p.world, &mut p.eng, g, k).is_ok(),
            false,
        ),
    };
    let ns = c.elapsed().as_nanos() as u64;
    if let Some(s) = spans {
        if is_fault {
            s.inject.record(ns);
        } else {
            s.reconfig_begin.record(ns);
        }
    }
    let (lost1, q1) = losses(&p.world);
    a.landed = landed;
    a.lost = lost1 - lost0;
    a.quarantined = q1 - q0;
    a
}
