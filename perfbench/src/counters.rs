//! Every read of the program's own counters, in one place.
//!
//! The engine, the GPU fleet and the world keep counters of their work;
//! this module turns them, plus the benchmark's host-time spans and the
//! allocator's counts, into the per-layer metrics.

use crate::drive::{Outcome, Spans};
use crate::workload::Prepared;
use parfait_faas::FaasWorld;
use parfait_simcore::Engine;
use std::collections::BTreeSet;

/// Monotone counters read at the start and the end of the loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub events: u64,
    pub heap_pushes: u64,
    pub heap_pops: u64,
    pub recompute_calls: u64,
    pub domains_visited: u64,
    pub domains_skipped: u64,
    pub alloc_ops: u64,
    pub alloc_bytes: u64,
}

pub fn snapshot(world: &FaasWorld, eng: &Engine<FaasWorld>) -> Snapshot {
    let (recompute_calls, domains_visited, domains_skipped) = world.fleet.cost_counters();
    let (alloc_ops, alloc_bytes) = crate::alloc::totals();
    Snapshot {
        events: eng.events_fired(),
        heap_pushes: eng.heap_pushes(),
        heap_pops: eng.heap_pops(),
        recompute_calls,
        domains_visited,
        domains_skipped,
        alloc_ops,
        alloc_bytes,
    }
}

/// Workers lost and GPUs quarantined so far (`RecoveryStats`), read
/// around one injection to see its blast radius.
pub fn losses(world: &FaasWorld) -> (u64, u64) {
    let s = &world.recovery.stats;
    (s.workers_lost, s.quarantines)
}

/// GPUs in fail-slow probation, followed through the monitoring fault
/// log: a `fail-slow` record opens a probation; a `fail-slow-*` verdict
/// or a fence of the GPU (which aborts the probation without a verdict)
/// closes it. Reads only the records added since the last call.
#[derive(Default)]
pub struct Probations {
    seen: usize,
    open: BTreeSet<u32>,
}

impl Probations {
    pub fn update(&mut self, world: &FaasWorld) -> &BTreeSet<u32> {
        for r in &world.monitor.fault_records[self.seen..] {
            match (r.gpu, r.kind) {
                (Some(g), "fail-slow") => {
                    self.open.insert(g);
                }
                (Some(g), k)
                    if k.starts_with("fail-slow-")
                        || k == "gpu-quarantine"
                        || k == "gpu-fenced" =>
                {
                    self.open.remove(&g);
                }
                _ => {}
            }
        }
        self.seen = world.monitor.fault_records.len();
        &self.open
    }
}

/// Simulated-behaviour fingerprint of a finished round: equal between
/// the traced and the untraced run of one seed, bit for bit.
pub fn fingerprint(p: &Prepared, o: &Outcome) -> Vec<u64> {
    let w = &p.world;
    let s = w.recovery.stats;
    let g = w.recovery.gray;
    let ov = w.overload.stats;
    let r = w.reconfig.stats;
    let mut v = vec![
        o.end.events - o.start.events,
        o.end.heap_pushes - o.start.heap_pushes,
        o.end.heap_pops - o.start.heap_pops,
        o.end.recompute_calls - o.start.recompute_calls,
        o.end.domains_visited - o.start.domains_visited,
        p.eng.now().as_nanos(),
        w.dfk.done_count(),
        w.dfk.failed_count(),
        s.workers_lost,
        s.crashes_detected,
        s.respawns,
        s.retries_scheduled,
        s.quarantines,
        s.checkpoints_committed,
        s.tasks_resumed,
        s.work_lost_s.to_bits(),
        g.progress_kills,
        g.probations,
        g.readmits,
        g.parks,
        ov.tasks_rejected,
        ov.hedges_launched,
        ov.hedges_won,
        r.drains_started,
        r.txns_committed,
        r.txns_aborted,
        w.monitor.samples.len() as u64,
    ];
    v.extend(
        o.measured
            .iter()
            .map(|&id| w.dfk.task(id).finished.map_or(u64::MAX, |t| t.as_nanos())),
    );
    v
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    (name, value, unit)
}

/// The per-layer metrics of one traced round.
pub fn per_layer(
    p: &Prepared,
    o: &Outcome,
    spans: &Spans,
    queue_wait_p99_s: f64,
    loop_ratio: f64,
) -> Vec<Metric> {
    let w = &p.world;
    let setup = &p.setup;
    let tasks = o.measured.len().max(1) as f64;
    let events = (o.end.events - o.start.events) as f64;
    let recomputes = (o.end.recompute_calls - o.start.recompute_calls) as f64;
    let visited = (o.end.domains_visited - o.start.domains_visited) as f64;
    let skipped = (o.end.domains_skipped - o.start.domains_skipped) as f64;
    let s = w.recovery.stats;
    let g = w.recovery.gray;
    let ov = w.overload.stats;
    let r = w.reconfig.stats;
    vec![
        m("engine.events", events, "count"),
        m("engine.events_per_task", events / tasks, "events/task"),
        m(
            "engine.heap_pushes",
            (o.end.heap_pushes - o.start.heap_pushes) as f64,
            "count",
        ),
        m(
            "engine.heap_pops",
            (o.end.heap_pops - o.start.heap_pops) as f64,
            "count",
        ),
        m(
            "engine.slab_capacity",
            p.eng.slab_capacity() as f64,
            "slots",
        ),
        m(
            "engine.ns_per_event",
            spans.step_total_ns as f64 / events.max(1.0),
            "ns",
        ),
        m("engine.step_ns_p50", spans.step.quantile(0.50), "ns"),
        m("engine.step_ns_p99", spans.step.quantile(0.99), "ns"),
        m(
            "alloc.ops_per_event",
            (o.end.alloc_ops - o.start.alloc_ops) as f64 / events.max(1.0),
            "ops/event",
        ),
        m(
            "alloc.bytes_per_task",
            (o.end.alloc_bytes - o.start.alloc_bytes) as f64 / tasks,
            "B/task",
        ),
        m("gpu.recompute_calls", recomputes, "count"),
        m("gpu.domains_visited", visited, "count"),
        m("gpu.domains_skipped", skipped, "count"),
        m(
            "gpu.domains_per_recompute",
            visited / recomputes.max(1.0),
            "domains/call",
        ),
        m("world.submit_ns_p50", spans.submit.quantile(0.50), "ns"),
        m("world.submit_ns_p99", spans.submit.quantile(0.99), "ns"),
        m("world.queue_wait_p99_s", queue_wait_p99_s, "sim_s"),
        m("dfk.records_retained", w.dfk.len() as f64, "count"),
        m(
            "dfk.reexecuted_attempts",
            w.dfk.reexecuted_attempts() as f64,
            "count",
        ),
        m("overload.tasks_rejected", ov.tasks_rejected as f64, "count"),
        m("overload.tasks_shed", ov.tasks_shed as f64, "count"),
        m(
            "overload.hedges_launched",
            ov.hedges_launched as f64,
            "count",
        ),
        m("overload.hedges_won", ov.hedges_won as f64, "count"),
        m("overload.hedges_wasted", ov.hedges_wasted as f64, "count"),
        m("recovery.inject_ns_p50", spans.inject.quantile(0.50), "ns"),
        m(
            "recovery.crashes_detected",
            s.crashes_detected as f64,
            "count",
        ),
        m(
            "recovery.retries_scheduled",
            s.retries_scheduled as f64,
            "count",
        ),
        m("recovery.respawns", s.respawns as f64, "count"),
        m("recovery.quarantines", s.quarantines as f64, "count"),
        m("recovery.tasks_resumed", s.tasks_resumed as f64, "count"),
        m("recovery.work_lost_s", s.work_lost_s, "sim_s"),
        m("gray.progress_kills", g.progress_kills as f64, "count"),
        m("gray.probations", g.probations as f64, "count"),
        m("gray.readmits", g.readmits as f64, "count"),
        m("gray.parks", g.parks as f64, "count"),
        m(
            "gray.disturbances_steered",
            o.applied.iter().filter(|a| a.steered).count() as f64,
            "count",
        ),
        m(
            "checkpoint.committed",
            s.checkpoints_committed as f64,
            "count",
        ),
        m(
            "checkpoint.per_task",
            s.checkpoints_committed as f64 / tasks,
            "ckpt/task",
        ),
        m(
            "reconfig.begin_ns_p50",
            spans.reconfig_begin.quantile(0.50),
            "ns",
        ),
        m("reconfig.drains_started", r.drains_started as f64, "count"),
        m("reconfig.txns_committed", r.txns_committed as f64, "count"),
        m("reconfig.txns_aborted", r.txns_aborted as f64, "count"),
        m(
            "reconfig.forced_kills",
            r.drains_forced_kills as f64,
            "count",
        ),
        m(
            "monitoring.util_samples",
            w.monitor.samples.len() as f64,
            "count",
        ),
        m("planner.plan_s", setup.plan_s, "s"),
        m("workloads.arrivals_s", setup.arrivals_s, "s"),
        m("world.new_s", setup.world_new_s, "s"),
        m("world.boot_warmup_s", setup.boot_warmup_s, "s"),
        m("traced.loop_ratio", loop_ratio, "ratio"),
    ]
}
