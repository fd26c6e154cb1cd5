//! Output checks and simulated metrics, computed from the task table
//! apart from the program's own statistics.

use crate::drive::Outcome;
use crate::hist::{nearest_rank, sorted};
use crate::workload::{Disturbance, Kind, Prepared, FLEET_SERVICE_S};
use parfait_faas::{TaskId, TaskState};
use parfait_gpu::GpuSpec;
use std::collections::{BTreeMap, BTreeSet};

/// Simulated end-to-end numbers of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub p50_turnaround_s: f64,
    pub p99_turnaround_s: f64,
    pub slo_met_per_gpu_s: f64,
    pub queue_wait_p99_s: f64,
    /// Measured requests that did not end as they should: not done, or,
    /// for a request with an unattainable deadline, not refused.
    pub failed: u64,
}

/// A failed check: its name and what was seen.
#[derive(Debug)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

fn fail(check: &'static str, detail: String) -> Result<(), Failure> {
    Err(Failure { check, detail })
}

pub fn sim_metrics(p: &Prepared, o: &Outcome) -> SimMetrics {
    let dfk = &p.world.dfk;
    let infeasible: BTreeSet<TaskId> = o.infeasible.iter().copied().collect();
    let mut turn = Vec::with_capacity(o.measured.len());
    let mut waits = Vec::with_capacity(o.measured.len());
    let mut failed = 0;
    let mut met = 0u64;
    let mut first_arrival = u64::MAX;
    let mut last_done = 0u64;
    for &id in &o.measured {
        let t = dfk.task(id);
        first_arrival = first_arrival.min(t.submitted.as_nanos());
        if infeasible.contains(&id) {
            if !refused(p, id) {
                failed += 1;
            }
            continue;
        }
        match (t.state, t.finished) {
            (TaskState::Done, Some(f)) => {
                let ta = f.duration_since(t.submitted).as_secs_f64();
                turn.push(ta);
                if ta <= p.limit_s {
                    met += 1;
                }
                last_done = last_done.max(f.as_nanos());
                if let Some(d) = t.dispatched {
                    waits.push(d.duration_since(t.submitted).as_secs_f64());
                }
            }
            _ => failed += 1,
        }
    }
    let turn = sorted(&turn);
    let waits = sorted(&waits);
    let span_s = last_done.saturating_sub(first_arrival) as f64 / 1e9;
    SimMetrics {
        p50_turnaround_s: nearest_rank(&turn, 0.50),
        p99_turnaround_s: nearest_rank(&turn, 0.99),
        slo_met_per_gpu_s: met as f64 / (p.gpus as f64 * span_s).max(1e-9),
        queue_wait_p99_s: nearest_rank(&waits, 0.99),
        failed,
    }
}

/// Run every check of the workload; the first failure is returned.
pub fn check(p: &Prepared, o: &Outcome) -> Result<(), Failure> {
    let dfk = &p.world.dfk;
    if o.measured.len() != p.requests {
        return fail(
            "all-arrivals-submitted",
            format!("{} of {} submitted", o.measured.len(), p.requests),
        );
    }
    if !dfk.all_settled() {
        return fail(
            "quiescence",
            format!(
                "{} tasks, {} done, {} failed at the end",
                dfk.len(),
                dfk.done_count(),
                dfk.failed_count()
            ),
        );
    }
    let infeasible: BTreeSet<TaskId> = o.infeasible.iter().copied().collect();
    for &id in &o.measured {
        let t = dfk.task(id);
        if infeasible.contains(&id) {
            if !refused(p, id) {
                return fail(
                    "infeasible-deadline-refused",
                    format!(
                        "task {} with a deadline below its service estimate ended {:?} \
                         after {} attempts",
                        id.0, t.state, t.attempts
                    ),
                );
            }
        } else if t.state != TaskState::Done || t.finished.is_none() {
            return fail(
                "all-requests-done",
                format!(
                    "task {} ended {:?} after {} attempts: {}",
                    id.0,
                    t.state,
                    t.attempts,
                    t.error.as_deref().unwrap_or("-")
                ),
            );
        }
    }
    match p.kind {
        Kind::FleetMig => {
            single_attempts(p, o)?;
            let floor = FLEET_SERVICE_S;
            let mut last_arrival = 0u64;
            let mut last_done = 0u64;
            for &id in &o.measured {
                let t = dfk.task(id);
                last_arrival = last_arrival.max(t.submitted.as_nanos());
                let (Some(s), Some(f)) = (t.started, t.finished) else {
                    continue;
                };
                last_done = last_done.max(f.as_nanos());
                let body = f.duration_since(s).as_nanos() as f64;
                if (body - floor * 1e9).abs() > 1.0 {
                    return fail(
                        "body-time-50ms",
                        format!("task {} body took {body} ns", id.0),
                    );
                }
                let ta = f.duration_since(t.submitted).as_secs_f64();
                if ta < floor - 1e-9 {
                    return fail(
                        "turnaround-floor",
                        format!("task {} turned around in {ta} s", id.0),
                    );
                }
            }
            if (last_done as f64) < last_arrival as f64 + floor * 1e9 - 1.0 {
                return fail(
                    "last-completion-after-last-arrival",
                    format!("last done {last_done} ns, last arrival {last_arrival} ns"),
                );
            }
            no_overlap(p, o)
        }
        Kind::MpsLlama => {
            single_attempts(p, o)?;
            let spec = GpuSpec::a100_80gb();
            let floor =
                crate::workload::llama().solo_completion_seconds(&spec, spec.sms as f64, 16, 27);
            for &id in &o.measured {
                let t = dfk.task(id);
                if let Some(f) = t.finished {
                    let ta = f.duration_since(t.submitted).as_secs_f64();
                    if ta < floor {
                        return fail(
                            "turnaround-above-solo-a100",
                            format!("task {} took {ta} s < solo {floor} s", id.0),
                        );
                    }
                }
            }
            no_overlap(p, o)
        }
        Kind::FaultsReconfig => {
            if let Some(v) = o.violations.first() {
                return fail(
                    "oracle-probe",
                    format!(
                        "{} violations; first {}: {}",
                        o.violations.len(),
                        v.oracle,
                        v.detail
                    ),
                );
            }
            for a in &o.applied {
                if !a.landed {
                    continue;
                }
                match a.what {
                    Disturbance::MigClientFault if a.quarantined == 0 && a.lost != 1 => {
                        return fail(
                            "mig-client-fault-contained",
                            format!(
                                "client fault at {:.1} s on MIG GPU {:?} took down {} workers",
                                a.at.as_secs_f64(),
                                a.gpu,
                                a.lost
                            ),
                        );
                    }
                    Disturbance::MpsClientFault
                        if a.quarantined != 1 || a.lost != a.residents_before =>
                    {
                        return fail(
                            "mps-client-fault-blast-radius",
                            format!(
                                "client fault at {:.1} s on MPS GPU {:?}: {} of {} residents \
                                 lost, {} quarantines",
                                a.at.as_secs_f64(),
                                a.gpu,
                                a.lost,
                                a.residents_before,
                                a.quarantined
                            ),
                        );
                    }
                    _ => {}
                }
            }
            Ok(())
        }
    }
}

/// Was `id` refused at admission: failed without ever being dispatched?
fn refused(p: &Prepared, id: TaskId) -> bool {
    let t = p.world.dfk.task(id);
    t.state == TaskState::Failed && t.dispatched.is_none() && t.started.is_none()
}

/// Every measured request ran exactly one attempt (no faults here).
fn single_attempts(p: &Prepared, o: &Outcome) -> Result<(), Failure> {
    for &id in &o.measured {
        let t = p.world.dfk.task(id);
        if t.state == TaskState::Done && t.attempts != 1 {
            return fail(
                "exactly-once",
                format!("task {} done after {} attempts", id.0, t.attempts),
            );
        }
    }
    Ok(())
}

/// No worker ran two bodies at once: per worker, bodies sorted by start
/// never overlap.
fn no_overlap(p: &Prepared, o: &Outcome) -> Result<(), Failure> {
    let dfk = &p.world.dfk;
    let mut by_worker: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for &id in &o.measured {
        let t = dfk.task(id);
        if let (Some(w), Some(s), Some(f)) = (t.worker, t.started, t.finished) {
            by_worker
                .entry(w)
                .or_default()
                .push((s.as_nanos(), f.as_nanos()));
        }
    }
    for (w, mut spans) in by_worker {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[1].0 < pair[0].1 {
                return fail(
                    "one-body-per-worker",
                    format!(
                        "worker {w} started a body at {} ns before finishing one at {} ns",
                        pair[1].0, pair[0].1
                    ),
                );
            }
        }
    }
    Ok(())
}
