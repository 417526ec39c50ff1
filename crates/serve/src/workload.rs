//! Live workload generation: open-loop arrival schedules driving a
//! running [`CappedService`].
//!
//! An [`OpenLoop`] workload submits a fixed number of requests per round
//! regardless of how the service is keeping up — the paper's λn-per-round
//! arrival regime as client traffic. Burst and surge scenarios reuse the
//! simulator's [`FaultPlan`] vocabulary: [`FaultEvent::ArrivalBurst`] adds
//! extra submissions for a window of rounds and [`FaultEvent::PoolSurge`]
//! adds a one-shot spike, while the infrastructure events
//! ([`FaultEvent::CrashBins`], [`FaultEvent::RecoverBins`],
//! [`FaultEvent::DegradeCapacity`]) are scheduled onto the service itself.
//! One plan therefore describes a full saturation scenario end to end.
//!
//! Submissions that hit ingress backpressure are counted as *shed* (the
//! open-loop client does not retry), so the summary exposes the classic
//! open-loop overload signature: shed grows once demand exceeds the
//! service's sustainable rate.

use iba_sim::faults::{FaultEvent, FaultPlan};

use crate::dispatch::SubmitError;
use crate::service::CappedService;

/// An open-loop workload: `rate` submissions per round, plus any traffic
/// events from an attached [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    rate: u64,
    plan: FaultPlan,
}

impl OpenLoop {
    /// A constant-rate workload of `rate` submissions per round.
    pub fn new(rate: u64) -> Self {
        OpenLoop {
            rate,
            plan: FaultPlan::new(),
        }
    }

    /// Attaches a scenario plan. Traffic events (bursts, surges) shape
    /// this workload's demand; infrastructure events are applied to the
    /// service by [`run_open_loop`].
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The base per-round submission rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Demand (submission count) for 1-based round `round`: the base rate,
    /// plus `extra_per_round` for every burst whose window
    /// `[start, start + rounds)` covers the round, plus any surge
    /// scheduled exactly at the round.
    pub fn demand(&self, round: u64) -> u64 {
        let mut demand = self.rate;
        for (start, events) in self.plan.iter() {
            for event in events {
                match *event {
                    FaultEvent::ArrivalBurst {
                        extra_per_round,
                        rounds,
                    } if round >= start && round - start < rounds => {
                        demand += extra_per_round;
                    }
                    FaultEvent::PoolSurge { extra } if round == start => {
                        demand += extra;
                    }
                    _ => {}
                }
            }
        }
        demand
    }

    /// The infrastructure (non-traffic) events of the attached plan, as a
    /// plan schedulable on a service.
    pub fn infrastructure_plan(&self) -> FaultPlan {
        let mut out = FaultPlan::new();
        for (round, events) in self.plan.iter() {
            for event in events {
                match event {
                    FaultEvent::ArrivalBurst { .. } | FaultEvent::PoolSurge { .. } => {}
                    other => out.insert(round, other.clone()),
                }
            }
        }
        out
    }
}

/// What happened over one [`run_open_loop`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkloadSummary {
    /// Rounds executed.
    pub rounds: u64,
    /// Demand presented by the workload (submission attempts).
    pub offered: u64,
    /// Requests accepted into the ingress queue.
    pub submitted: u64,
    /// Requests shed by ingress backpressure (never retried).
    pub shed: u64,
    /// Balls served during the run (including model arrivals, if any).
    pub served: u64,
}

impl WorkloadSummary {
    /// Fraction of offered requests that were accepted (1.0 when nothing
    /// was offered).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.submitted as f64 / self.offered as f64
        }
    }
}

/// Drives `service` for `rounds` rounds under `workload`: each round,
/// submits the workload's demand through the service's
/// [`Dispatcher`](crate::dispatch::Dispatcher)
/// (shedding on backpressure), then executes the round. Infrastructure
/// events in the workload's plan are scheduled on the service first.
///
/// Demand is indexed by the service's own round counter, so scenarios
/// line up with any rounds the service already ran.
///
/// # Panics
///
/// Panics if the service was already shut down.
pub fn run_open_loop(
    service: &mut CappedService,
    workload: &OpenLoop,
    rounds: u64,
) -> WorkloadSummary {
    service.schedule(workload.infrastructure_plan());
    let dispatcher = service.dispatcher();
    let mut summary = WorkloadSummary::default();
    let served_before = service.total_served();
    for _ in 0..rounds {
        let demand = workload.demand(service.round() + 1);
        summary.offered += demand;
        for _ in 0..demand {
            match dispatcher.submit() {
                Ok(_) => summary.submitted += 1,
                Err(SubmitError::Saturated) => summary.shed += 1,
                Err(SubmitError::Closed) => {
                    summary.rounds = service.round();
                    return summary;
                }
            }
        }
        service.run_round();
        summary.rounds += 1;
    }
    summary.served = service.total_served() - served_before;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use iba_core::CappedConfig;

    fn service(n: usize, c: u32, shards: usize, ingress: usize) -> CappedService {
        CappedService::spawn(
            ServiceConfig::new(CappedConfig::new(n, c, 0.0).unwrap(), shards, 99)
                .with_ingress_capacity(ingress),
        )
        .unwrap()
    }

    #[test]
    fn demand_composes_bursts_and_surges() {
        let plan = FaultPlan::new()
            .with(
                5,
                FaultEvent::ArrivalBurst {
                    extra_per_round: 10,
                    rounds: 3,
                },
            )
            .with(6, FaultEvent::PoolSurge { extra: 100 });
        let load = OpenLoop::new(4).with_plan(plan);
        assert_eq!(load.demand(4), 4);
        assert_eq!(load.demand(5), 14);
        assert_eq!(load.demand(6), 114); // burst window + surge
        assert_eq!(load.demand(7), 14);
        assert_eq!(load.demand(8), 4); // burst over
    }

    #[test]
    fn infrastructure_events_are_split_out() {
        let plan = FaultPlan::new()
            .with(2, FaultEvent::CrashBins { bins: vec![0] })
            .with(2, FaultEvent::PoolSurge { extra: 7 })
            .with(4, FaultEvent::RecoverBins { bins: vec![0] });
        let load = OpenLoop::new(1).with_plan(plan);
        let infra = load.infrastructure_plan();
        let rounds: Vec<(u64, &[FaultEvent])> = infra.iter().collect();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].0, 2);
        assert!(matches!(rounds[0].1, [FaultEvent::CrashBins { .. }]));
        assert_eq!(rounds[1].0, 4);
        assert!(matches!(rounds[1].1, [FaultEvent::RecoverBins { .. }]));
        assert_eq!(load.demand(2), 8); // surge stays on the traffic side
    }

    #[test]
    fn sustainable_load_is_fully_served() {
        // 32 bins serve up to 32 balls per round; offer 16.
        let mut svc = service(32, 2, 4, 1024);
        let summary = run_open_loop(&mut svc, &OpenLoop::new(16), 50);
        assert_eq!(summary.rounds, 50);
        assert_eq!(summary.offered, 800);
        assert_eq!(summary.submitted, 800);
        assert_eq!(summary.shed, 0);
        assert!(summary.acceptance_ratio() >= 1.0 - f64::EPSILON);
        // Everything admitted is served or still in flight, never lost.
        assert!(svc.conserves_balls());
        assert!(summary.served > 0);
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        // 4 bins can serve at most 4 per round; offer 64 with a tiny
        // ingress queue — most of the demand must be shed.
        let mut svc = service(4, 1, 2, 8);
        let summary = run_open_loop(&mut svc, &OpenLoop::new(64), 30);
        assert!(summary.shed > 0);
        assert_eq!(summary.offered, summary.submitted + summary.shed);
        assert!(svc.conserves_balls());
        assert!(svc.pool_size() as u64 + svc.buffered() <= svc.total_admitted());
    }

    #[test]
    fn scenario_plan_drives_service_faults_and_traffic() {
        let plan = FaultPlan::new()
            .with(3, FaultEvent::CrashBins { bins: vec![0, 1] })
            .with(
                5,
                FaultEvent::ArrivalBurst {
                    extra_per_round: 8,
                    rounds: 2,
                },
            )
            .with(8, FaultEvent::RecoverBins { bins: vec![0, 1] });
        let mut svc = service(8, 2, 2, 4096);
        let load = OpenLoop::new(4).with_plan(plan);
        let summary = run_open_loop(&mut svc, &load, 20);
        assert_eq!(summary.offered, 4 * 20 + 8 * 2);
        assert!(svc.conserves_balls());
    }
}
