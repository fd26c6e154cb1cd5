//! The three workloads: platform shape, arrival stream, disturbance
//! schedule and set-up (plan, arrivals, world, boot and warm-up).
//!
//! Everything here is a pure function of the workload and the seed,
//! except the host times recorded in [`SetupTimes`].

use parfait_core::{apply_plan, plan, Strategy};
use parfait_faas::app::bodies::KernelSeq;
use parfait_faas::{
    boot, submit, AcceleratorSpec, AppCall, CheckpointPolicy, Config, ExecutorConfig, FaasWorld,
    FailSlowConfig, OverloadConfig, TaskBody, WorkerState,
};
use parfait_gpu::host::GpuFleet;
use parfait_gpu::{GpuSpec, KernelDesc};
use parfait_simcore::{streams, Engine, SimDuration, SimRng, SimTime};
use parfait_workloads::llm::{CompletionBody, LlmSpec};
use parfait_workloads::trace::{self, FleetShape};
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FleetMig,
    MpsLlama,
    FaultsReconfig,
}

pub const ALL: [Kind; 3] = [Kind::FleetMig, Kind::MpsLlama, Kind::FaultsReconfig];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetMig => "fleet-mig",
            Kind::MpsLlama => "mps-llama",
            Kind::FaultsReconfig => "faults-reconfig",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }
}

// ---- fleet-mig -------------------------------------------------------

/// GPUs of the `fleet-mig` fleet.
pub const FLEET_GPUS: u32 = 1000;
/// MIG instances (= workers) per GPU.
pub const FLEET_WORKERS_PER_GPU: usize = 4;
/// Executor pools the fleet is sharded into, round-robin by GPU.
pub const FLEET_POOLS: usize = 64;
/// Requests per round.
pub const FLEET_REQUESTS: usize = 1_000_000;
/// One request: a single 0.4 SM·s kernel capped at 8 SMs, which every
/// MIG profile runs at exactly 8 SMs, so 50 ms.
pub const FLEET_KERNEL_SM_S: f64 = 0.4;
pub const FLEET_KERNEL_SMS: u32 = 8;
pub const FLEET_SERVICE_S: f64 = FLEET_KERNEL_SM_S / FLEET_KERNEL_SMS as f64;
/// Offered base load as a share of fleet capacity.
const FLEET_UTILIZATION: f64 = 0.6;
/// Turnaround limit of a `fleet-mig` request (ten service times).
pub const FLEET_LIMIT_S: f64 = 0.5;

// ---- mps-llama -------------------------------------------------------

/// GPUs of the `mps-llama` fleet, four MPS workers at 25% each (§5.2).
pub const LLAMA_GPUS: u32 = 100;
pub const LLAMA_WORKERS_PER_GPU: usize = 4;
/// One executor pool per four-GPU host.
pub const LLAMA_GPUS_PER_POOL: u32 = 4;
/// Requests per round.
pub const LLAMA_REQUESTS: usize = 60_000;
/// Offered load as a share of the capacity implied by the unloaded
/// service time.
const LLAMA_UTILIZATION: f64 = 0.8;
/// Turnaround limit, in unloaded service times.
pub const LLAMA_LIMIT_FACTOR: f64 = 1.5;

// ---- faults-reconfig -------------------------------------------------

/// GPUs of the `faults-reconfig` fleet: the first half MPS (4 workers
/// at 25%), the second half MIG (2 equal instances).
pub const FAULT_GPUS: u32 = 32;
pub const FAULT_MPS_WORKERS: usize = 4;
pub const FAULT_MIG_WORKERS: usize = 2;
/// Executor pools; pool `p` holds MPS GPUs `2p, 2p+1` and MIG GPUs
/// `16+2p, 16+2p+1`.
pub const FAULT_POOLS: u32 = 8;
/// Requests per round.
pub const FAULT_REQUESTS: usize = 40_000;
const FAULT_UTILIZATION: f64 = 0.6;
/// Sim-time gap between two disturbances.
pub const FAULT_GAP_S: f64 = 45.0;
/// First disturbance, after the first arrival.
const FAULT_FIRST_S: f64 = 20.0;
/// Deadline attached to every request for the deadline admission
/// screen: generous, so the screen only refuses work that a collapsed
/// pool could not serve.
pub const FAULT_DEADLINE_S: f64 = 120.0;
/// Every `INFEASIBLE_EVERY`-th request (the first, the 101st, ...)
/// carries a deadline of half its own service estimate, which the
/// deadline admission screen must refuse whatever the queue holds.
pub const INFEASIBLE_EVERY: usize = 100;
/// Straggler episodes: half speed for 20 s.
pub const STRAGGLER_FACTOR: f64 = 0.5;
pub const STRAGGLER_S: u64 = 20;

/// The seven disturbance kinds, applied in this order, round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disturbance {
    WorkerCrash,
    MigClientFault,
    Straggler,
    Zombie,
    ResizeMps,
    MpsClientFault,
    ReconfigMig,
}

pub const DISTURBANCES: [Disturbance; 7] = [
    Disturbance::WorkerCrash,
    Disturbance::MigClientFault,
    Disturbance::Straggler,
    Disturbance::Zombie,
    Disturbance::ResizeMps,
    Disturbance::MpsClientFault,
    Disturbance::ReconfigMig,
];

/// One point of the open-loop timeline.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    /// A request for this executor pool.
    Arrival(u32),
    /// A request for this executor pool whose deadline is shorter than
    /// its service estimate (`faults-reconfig` only).
    Infeasible(u32),
    /// A disturbance aimed at one executor pool; the target inside the
    /// pool is drawn when it fires.
    Disturb(Disturbance, u32),
}

/// Host seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Plan and apply the partitioning, build the executor configs.
    pub plan_s: f64,
    /// Generate the arrival stream (and, for the LLaMa workloads, the
    /// unloaded-service probe that sets its rate).
    pub arrivals_s: f64,
    /// `FaasWorld::new`.
    pub world_new_s: f64,
    /// `boot`, cold starts and the warm-up round.
    pub boot_warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.plan_s + self.arrivals_s + self.world_new_s + self.boot_warmup_s
    }
}

/// A workload ready to run: a warm world plus its timeline.
pub struct Prepared {
    pub kind: Kind,
    pub world: FaasWorld,
    pub eng: Engine<FaasWorld>,
    /// Sorted by time; arrivals before disturbances at equal times.
    pub timeline: Vec<(SimTime, Point)>,
    /// Requests in the timeline.
    pub requests: usize,
    /// GPUs in the fleet.
    pub gpus: u32,
    /// Executor labels, by pool.
    pub pools: Vec<String>,
    /// Turnaround limit of the SLO metric, in sim seconds.
    pub limit_s: f64,
    /// Unloaded service time of one request (sim seconds).
    pub unloaded_s: f64,
    /// Seeded stream drawing disturbance targets.
    pub target_rng: SimRng,
    pub setup: SetupTimes,
}

/// The LLaMa2-7B fp16 model the LLaMa workloads serve.
pub fn llama() -> LlmSpec {
    LlmSpec::llama2_7b(2)
}

/// One paper-shaped chat completion (`CompletionBody::paper_request`).
fn llama_body() -> Box<dyn TaskBody> {
    Box::new(CompletionBody::paper_request(llama(), GpuSpec::a100_80gb()))
}

fn fleet_body() -> Box<dyn TaskBody> {
    Box::new(KernelSeq::new(
        vec![KernelDesc::new(
            "fleet",
            FLEET_KERNEL_SM_S,
            FLEET_KERNEL_SMS,
            FLEET_KERNEL_SMS,
            0.0,
        )],
        SimDuration::ZERO,
    ))
}

/// The app call for one request of `kind` routed to `pool`.
pub fn request(kind: Kind, pool: &str, unloaded_s: f64) -> AppCall {
    match kind {
        Kind::FleetMig => AppCall::new("fleet", pool, |_| fleet_body()),
        Kind::MpsLlama => AppCall::new("llama", pool, |_| llama_body()),
        Kind::FaultsReconfig => AppCall::new("llama", pool, |_| llama_body())
            .with_deadline(SimDuration::from_secs_f64(FAULT_DEADLINE_S))
            .with_est_service(SimDuration::from_secs_f64(unloaded_s)),
    }
}

/// A `faults-reconfig` request that cannot meet its deadline even on an
/// idle worker.
pub fn infeasible_request(pool: &str, unloaded_s: f64) -> AppCall {
    AppCall::new("llama", pool, |_| llama_body())
        .with_deadline(SimDuration::from_secs_f64(unloaded_s / 2.0))
        .with_est_service(SimDuration::from_secs_f64(unloaded_s))
}

/// Plan `gpus` GPUs with `strategy` and `k` workers each, appending the
/// resolved specs to the pool each GPU belongs to.
fn plan_into(
    fleet: &mut GpuFleet,
    pools: &mut [Vec<AcceleratorSpec>],
    gpus: std::ops::Range<u32>,
    k: usize,
    strategy: &Strategy,
    pool_of: impl Fn(u32) -> usize,
) {
    let spec = GpuSpec::a100_80gb();
    for g in gpus {
        let id = fleet.add(spec.clone());
        assert_eq!(id.0, g, "GPUs are added in index order");
        let p = plan(&spec, g, k, strategy).expect("valid partition plan");
        let specs = apply_plan(fleet, &p).expect("plan applies to a fresh GPU");
        pools[pool_of(g)].extend(specs);
    }
}

/// Build the fleet and the executor configuration of `kind`.
fn platform(kind: Kind) -> (GpuFleet, Config, u32) {
    let mut fleet = GpuFleet::new();
    let (gpus, n_pools) = match kind {
        Kind::FleetMig => (FLEET_GPUS, FLEET_POOLS as u32),
        Kind::MpsLlama => (LLAMA_GPUS, LLAMA_GPUS / LLAMA_GPUS_PER_POOL),
        Kind::FaultsReconfig => (FAULT_GPUS, FAULT_POOLS),
    };
    let mut pools: Vec<Vec<AcceleratorSpec>> = vec![Vec::new(); n_pools as usize];
    match kind {
        Kind::FleetMig => plan_into(
            &mut fleet,
            &mut pools,
            0..gpus,
            FLEET_WORKERS_PER_GPU,
            &Strategy::MigEqual,
            |g| g as usize % FLEET_POOLS,
        ),
        Kind::MpsLlama => plan_into(
            &mut fleet,
            &mut pools,
            0..gpus,
            LLAMA_WORKERS_PER_GPU,
            &Strategy::MpsEqual,
            |g| (g / LLAMA_GPUS_PER_POOL) as usize,
        ),
        Kind::FaultsReconfig => {
            let half = gpus / 2;
            plan_into(
                &mut fleet,
                &mut pools,
                0..half,
                FAULT_MPS_WORKERS,
                &Strategy::MpsEqual,
                |g| (g / 2) as usize,
            );
            plan_into(
                &mut fleet,
                &mut pools,
                half..gpus,
                FAULT_MIG_WORKERS,
                &Strategy::MigEqual,
                |g| ((g - half) / 2) as usize,
            );
        }
    }
    let executors = pools
        .into_iter()
        .enumerate()
        .map(|(i, specs)| ExecutorConfig::gpu(pool_label(i), specs))
        .collect();
    let mut config = Config::new(executors);
    let workers: usize = config.executors.iter().map(|e| e.max_workers).sum();
    // One node-wide processor-sharing pool serves every worker's host
    // steps; give each worker a core so host time is not the bottleneck.
    config.node_cores = workers;
    match kind {
        Kind::FleetMig | Kind::MpsLlama => {
            config.monitoring_period = None;
        }
        Kind::FaultsReconfig => {
            config.retries = 3;
            config.checkpoint = CheckpointPolicy::every(SimDuration::from_secs(2));
            config.overload = OverloadConfig {
                deadline_admission: true,
                // Hedging is left out: with it on, some seeds fail
                // requests for reasons in the program (see README).
                hedge: None,
                ..OverloadConfig::default()
            };
            config.recovery.progress_timeout = Some(SimDuration::from_secs(10));
            config.recovery.fail_slow = Some(FailSlowConfig::default());
        }
    }
    (fleet, config, gpus)
}

pub fn pool_label(i: usize) -> String {
    format!("pool{i}")
}

/// Unloaded service time of one LLaMa request on a worker of a GPU
/// planned with `strategy` into `k` workers: a one-GPU world, warmed by
/// one request per worker, then serving one request alone.
pub fn unloaded_service_s(strategy: &Strategy, k: usize) -> f64 {
    let mut fleet = GpuFleet::new();
    let mut pools = vec![Vec::new()];
    plan_into(&mut fleet, &mut pools, 0..1, k, strategy, |_| 0);
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        pool_label(0),
        pools.pop().expect("one pool"),
    )]);
    config.monitoring_period = None;
    config.node_cores = k;
    let mut world = FaasWorld::new(config, fleet, 0);
    let mut eng = Engine::new();
    boot(&mut world, &mut eng);
    eng.run(&mut world);
    for _ in 0..k {
        submit(&mut world, &mut eng, request(Kind::MpsLlama, "pool0", 0.0));
    }
    eng.run(&mut world);
    let id = submit(&mut world, &mut eng, request(Kind::MpsLlama, "pool0", 0.0));
    eng.run(&mut world);
    let t = world.dfk.task(id);
    let started = t.started.expect("probe request started");
    let finished = t.finished.expect("probe request finished");
    finished.duration_since(started).as_secs_f64()
}

/// `n` Poisson arrival offsets at `rate`, in seconds.
fn poisson_points(rng: &mut SimRng, rate: f64, n: usize) -> Vec<f64> {
    trace::poisson(rng, rate, n)
        .arrivals
        .iter()
        .map(|t| t.as_secs_f64())
        .collect()
}

/// Set up one round of `kind` for `seed`: plan, arrivals, world, boot
/// and warm-up. Returns the warm world and its timeline.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    let t = Instant::now();
    let (fleet, config, gpus) = platform(kind);
    let pools: Vec<String> = config.executors.iter().map(|e| e.label.clone()).collect();
    let workers: usize = config.executors.iter().map(|e| e.max_workers).sum();
    let plan_s = t.elapsed().as_secs_f64();

    // Arrivals: offsets from the start of the measured phase.
    let t = Instant::now();
    let root = SimRng::new(seed);
    // `span_s` is the expected (not the realized) arrival span: requests
    // over the offered rate.
    let (offsets, unloaded_s, limit_s, span_s): (Vec<f64>, f64, f64, f64) = match kind {
        Kind::FleetMig => {
            let shape = FleetShape {
                base_rate: FLEET_UTILIZATION * workers as f64 / FLEET_SERVICE_S,
                diurnal_amplitude: 0.3,
                day: SimDuration::from_secs(20),
                phase: 0.0,
                flash_every: SimDuration::from_secs(7),
                flash_len: SimDuration::from_secs(1),
                flash_factor: 1.6,
            };
            let mut rng = root.split(streams::FLEET_ARRIVALS);
            let tr = trace::fleet(&mut rng, &shape, FLEET_REQUESTS);
            let offs = tr.arrivals.iter().map(|a| a.as_secs_f64()).collect();
            let span = FLEET_REQUESTS as f64 / shape.base_rate;
            (offs, FLEET_SERVICE_S, FLEET_LIMIT_S, span)
        }
        Kind::MpsLlama => {
            let s = unloaded_service_s(&Strategy::MpsEqual, LLAMA_WORKERS_PER_GPU);
            let rate = LLAMA_UTILIZATION * workers as f64 / s;
            let mut rng = root.split(streams::ARRIVAL_TRACE);
            let offs = poisson_points(&mut rng, rate, LLAMA_REQUESTS);
            (
                offs,
                s,
                LLAMA_LIMIT_FACTOR * s,
                LLAMA_REQUESTS as f64 / rate,
            )
        }
        Kind::FaultsReconfig => {
            let s_mps = unloaded_service_s(&Strategy::MpsEqual, FAULT_MPS_WORKERS);
            let s_mig = unloaded_service_s(&Strategy::MigEqual, FAULT_MIG_WORKERS);
            let half = (FAULT_GPUS / 2) as f64;
            let capacity =
                half * FAULT_MPS_WORKERS as f64 / s_mps + half * FAULT_MIG_WORKERS as f64 / s_mig;
            let rate = FAULT_UTILIZATION * capacity;
            let mut rng = root.split(streams::ARRIVAL_TRACE);
            let offs = poisson_points(&mut rng, rate, FAULT_REQUESTS);
            let s = s_mps.max(s_mig);
            (
                offs,
                s,
                LLAMA_LIMIT_FACTOR * s,
                FAULT_REQUESTS as f64 / rate,
            )
        }
    };
    let arrivals_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut world = FaasWorld::new(config, fleet, seed);
    let mut eng = Engine::new();
    let world_new_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    boot(&mut world, &mut eng);
    eng.run(&mut world);
    if kind != Kind::FleetMig {
        // Warm-up round: one request per worker loads every model. Each
        // pool's workers are all idle, so each takes exactly one.
        for (p, e) in world.config.executors.clone().iter().enumerate() {
            for _ in 0..e.max_workers {
                submit(&mut world, &mut eng, request(kind, &pools[p], unloaded_s));
            }
        }
        eng.run(&mut world);
    }
    let boot_warmup_s = t.elapsed().as_secs_f64();

    // The measured phase starts on the next whole sim second.
    let origin = SimTime::from_secs(eng.now().as_secs_f64().ceil() as u64 + 1);
    // Requests go to the pools round-robin (the `repro fleet` shape), as a
    // front-end load balancer would spread them.
    let n_pools = pools.len();
    let mut timeline: Vec<(SimTime, Point)> = offsets
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let pool = (i % n_pools) as u32;
            let point = if kind == Kind::FaultsReconfig && i % INFEASIBLE_EVERY == 0 {
                Point::Infeasible(pool)
            } else {
                Point::Arrival(pool)
            };
            (origin + SimDuration::from_secs_f64(o), point)
        })
        .collect();
    if kind == Kind::FaultsReconfig {
        // A fixed number of disturbances at fixed gaps, sized from the
        // expected arrival span so every seed gets the same schedule.
        let count = ((span_s - FAULT_FIRST_S) / FAULT_GAP_S).floor().max(0.0) as usize + 1;
        for i in 0..count {
            let at = origin + SimDuration::from_secs_f64(FAULT_FIRST_S + FAULT_GAP_S * i as f64);
            let what = DISTURBANCES[i % DISTURBANCES.len()];
            timeline.push((at, Point::Disturb(what, i as u32 % FAULT_POOLS)));
        }
        // Stable: arrivals stay ahead of a disturbance at the same time.
        timeline.sort_by_key(|&(at, _)| at);
    }
    Prepared {
        kind,
        world,
        eng,
        timeline,
        requests: offsets.len(),
        gpus,
        pools,
        limit_s,
        unloaded_s,
        target_rng: root.split(streams::CHAOS_SCHEDULE),
        setup: SetupTimes {
            plan_s,
            arrivals_s,
            world_new_s,
            boot_warmup_s,
        },
    }
}

/// The two MPS (or MIG) GPUs of `faults-reconfig` pool `pool`.
pub fn pool_gpus(pool: u32, mps: bool) -> [u32; 2] {
    let base = if mps { 0 } else { FAULT_GPUS / 2 };
    [base + 2 * pool, base + 2 * pool + 1]
}

/// Is every worker idle (booted, not mid-request)?
pub fn all_idle(world: &FaasWorld) -> bool {
    world.workers.iter().all(|w| w.state == WorkerState::Idle)
}
