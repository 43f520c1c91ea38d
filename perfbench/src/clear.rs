//! `clear-protocol` and `clear-physical`: cold one-shot clears.
//!
//! Each clear is `SpectrumAuctionSolver::try_solve` split at its layer
//! boundary: `try_solve_relaxation` (LP by column generation) and then
//! `try_round_fractional` (binary rounding on the protocol model;
//! Algorithm 2's partial rounding plus Algorithm 3's conflict resolution on
//! the edge-weighted physical model). The run cycles through a set of
//! instances drawn from the workload seed. After the timed pass every
//! distinct instance is solved again by a second engine (Dantzig pricing)
//! and every allocation is checked for feasibility.

use crate::lpstats::LpTally;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{
    check_objectives, derive_seed, objectives_agree, timed_setups, Budget, Outcome, Pass, Run,
};
use ssa_core::lp_formulation::{try_solve_relaxation, FractionalAssignment};
use ssa_core::solver::{AuctionOutcome, SolverBuilder, SpectrumAuctionSolver};
use ssa_core::{AuctionInstance, BasisKind, PricingRule};
use ssa_interference::{PowerAssignment, SinrParameters};
use ssa_workloads::{physical_scenario, protocol_scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub enum Model {
    /// Binary conflict graph, uniform placement, δ = 1.
    Protocol,
    /// Edge-weighted SINR graph, default parameters, uniform power.
    Physical,
}

pub struct ClearSpec {
    pub model: Model,
    pub bidders: usize,
    pub channels: usize,
    /// Distinct instances generated per run; clears cycle through them.
    pub instances: usize,
    /// The percentile `op_tail_ms` reports for this workload.
    pub tail: f64,
}

pub const PROTOCOL: ClearSpec = ClearSpec {
    model: Model::Protocol,
    bidders: 1000,
    channels: 4,
    instances: 32,
    tail: 0.75,
};

pub const PHYSICAL: ClearSpec = ClearSpec {
    model: Model::Physical,
    bidders: 300,
    channels: 4,
    instances: 48,
    tail: 0.75,
};

struct Clear {
    instance: usize,
    lp_s: f64,
    round_s: f64,
    fractional: FractionalAssignment,
    outcome: AuctionOutcome,
}

fn generate(spec: &ClearSpec, seed: u64, tracer: &mut Tracer) -> Vec<AuctionInstance> {
    (0..spec.instances)
        .map(|i| {
            let config =
                ScenarioConfig::new(spec.bidders, spec.channels, derive_seed(seed, i as u64));
            match spec.model {
                Model::Protocol => tracer.span("workloads::protocol_scenario", i as u64, || {
                    protocol_scenario(&config, 1.0).instance
                }),
                Model::Physical => tracer.span("workloads::physical_scenario", i as u64, || {
                    physical_scenario(&config, SinrParameters::default(), PowerAssignment::Uniform)
                        .0
                        .instance
                }),
            }
        })
        .collect()
}

fn pass(
    instances: &[AuctionInstance],
    solver: &SpectrumAuctionSolver,
    budget: Budget,
    tracer: &mut Tracer,
) -> (Pass, Vec<Clear>) {
    let mut pass = Pass::default();
    let mut clears = Vec::new();
    let start = Instant::now();
    while !budget.exhausted(pass.attempted, start) {
        let index = pass.attempted % instances.len();
        let instance = &instances[index];
        let op_id = pass.attempted as u64;
        pass.attempted += 1;
        let op = tracer.enter("op::clear", op_id);
        let t0 = Instant::now();
        let lp = tracer.span("core.lp_formulation::try_solve_relaxation", op_id, || {
            try_solve_relaxation(instance, &solver.options.lp)
        });
        let t1 = Instant::now();
        let rounded = lp.as_ref().ok().map(|fractional| {
            tracer.span("core.rounding::try_round_fractional", op_id, || {
                solver.try_round_fractional(instance, fractional)
            })
        });
        let t2 = Instant::now();
        tracer.exit(op);
        pass.ops += 1;
        pass.op_total_s += (t2 - t0).as_secs_f64();
        match (lp, rounded) {
            (Ok(fractional), Some(Ok(outcome))) => clears.push(Clear {
                instance: index,
                lp_s: (t1 - t0).as_secs_f64(),
                round_s: (t2 - t1).as_secs_f64(),
                fractional,
                outcome,
            }),
            (Err(e), _) => pass.fail(format!("clear {op_id}: relaxation failed: {e:?}")),
            (Ok(_), rounded) => pass.fail(format!(
                "clear {op_id}: rounding failed: {:?}",
                rounded.map(|r| r.err())
            )),
        }
    }
    (pass, clears)
}

/// Output checks, outside every timed span: feasibility of the fractional
/// and integral solutions, welfare under the LP bound, and identical
/// results for repeated instances. Returns each distinct instance with its
/// LP objective.
fn check(instances: &[AuctionInstance], clears: &[Clear], pass: &mut Pass) -> Vec<(usize, f64)> {
    let mut first: BTreeMap<usize, &Clear> = BTreeMap::new();
    for (i, clear) in clears.iter().enumerate() {
        let instance = &instances[clear.instance];
        if !clear.fractional.satisfies_constraints(instance, 1e-6) {
            pass.fail(format!("clear {i}: fractional solution violates the LP"));
        }
        if !clear.outcome.allocation.is_feasible(instance) {
            pass.fail(format!("clear {i}: infeasible allocation"));
        }
        let bound = clear.outcome.lp_objective;
        if clear.outcome.welfare > bound + 1e-6 * bound.abs().max(1.0) {
            pass.fail(format!(
                "clear {i}: welfare {} above LP bound {bound}",
                clear.outcome.welfare
            ));
        }
        match first.get(&clear.instance) {
            None => {
                first.insert(clear.instance, clear);
            }
            Some(earlier) => {
                if earlier.fractional.objective != clear.fractional.objective
                    || earlier.fractional.info.simplex_iterations
                        != clear.fractional.info.simplex_iterations
                    || earlier.outcome.welfare != clear.outcome.welfare
                {
                    pass.fail(format!(
                        "clear {i}: a repeated instance gave a different result"
                    ));
                }
            }
        }
    }
    first
        .iter()
        .map(|(&index, clear)| (index, clear.fractional.objective))
        .collect()
}

/// Solves every distinct instance again with a second engine (Dantzig
/// pricing instead of steepest edge), on two threads, and requires the
/// same LP objective within 1e-6 relative.
fn check_second_engine(instances: &[AuctionInstance], distinct: &[(usize, f64)], pass: &mut Pass) {
    let second = SolverBuilder::new()
        .engine(PricingRule::Dantzig, BasisKind::ForrestTomlin)
        .options()
        .lp;
    let results = check_objectives(distinct, |&(index, _)| &instances[index], &second);
    for (&(index, objective), result) in distinct.iter().zip(results) {
        match result {
            Ok(check) if objectives_agree(objective, check) => {}
            Ok(check) => pass.fail(format!(
                "instance {index}: LP objective {objective} but the second engine finds {check}"
            )),
            Err(e) => pass.fail(format!("instance {index}: second engine failed: {e}")),
        }
    }
}

fn summarize(spec: &ClearSpec, instances: &[AuctionInstance], clears: &[Clear], pass: &mut Pass) {
    let clear_ms: Vec<f64> = clears.iter().map(|c| (c.lp_s + c.round_s) * 1e3).collect();
    let n = clears.len();
    let e2e = &mut pass.e2e;
    e2e.push(
        "op_p50_ms",
        median(&clear_ms),
        "ms",
        n,
        "clear = LP + rounding, median",
    );
    e2e.push(
        "op_tail_ms",
        quantile(&clear_ms, spec.tail),
        "ms",
        n,
        &format!("clear, p{:.0}", spec.tail * 100.0),
    );
    e2e.push(
        "throughput_per_s",
        ratio(n as f64, clear_ms.iter().sum::<f64>() / 1e3),
        "1/s",
        n,
        "clears / time spent clearing",
    );
    let welfare: Vec<f64> = clears
        .iter()
        .map(|c| ratio(c.outcome.welfare, c.outcome.lp_objective))
        .collect();
    e2e.push(
        "welfare_ratio",
        mean(&welfare),
        "ratio",
        n,
        "mean welfare / LP bound",
    );
    pass.notes
        .push(crate::stats::ladder("clear time (ms)", &clear_ms));

    let mut lp = LpTally::default();
    let mut removed = 0;
    let mut rounded = 0;
    let mut candidates = 0;
    for clear in clears {
        lp.add_info(&clear.fractional.info);
        removed += clear.outcome.rounding_stats.removed_in_resolution;
        rounded += clear.outcome.rounding_stats.rounded_nonempty;
        candidates += clear.outcome.resolution_candidates;
    }
    let lp_s: Vec<f64> = clears.iter().map(|c| c.lp_s).collect();
    let round_s: Vec<f64> = clears.iter().map(|c| c.round_s).collect();
    let layers = &mut pass.layers;
    let rho: Vec<f64> = instances.iter().map(|i| i.rho).collect();
    layers.push(
        "conflict_graph.rho",
        mean(&rho),
        "ratio",
        rho.len(),
        "mean ρ over the instances",
    );
    layers.push(
        "core.lp_formulation.solve_s",
        median(&lp_s),
        "s",
        n,
        "median per clear",
    );
    lp.push_metrics(layers, lp_s.iter().sum(), "LP time");
    layers.push(
        "core.rounding.s",
        median(&round_s),
        "s",
        n,
        "median per clear",
    );
    layers.push(
        "core.rounding.removal_rate",
        ratio(removed as f64, rounded as f64),
        "ratio",
        rounded,
        "removed in resolution / rounded non-empty",
    );
    layers.push(
        "core.conflict_resolution.candidates",
        ratio(candidates as f64, n as f64),
        "count",
        n,
        "Algorithm 3 candidates, mean per clear",
    );

    pass.counts = lp.counts("lp");
    pass.counts.extend([
        ("rounding.rounded".to_string(), rounded.to_string()),
        ("rounding.removed".to_string(), removed.to_string()),
        (
            "conflict_resolution.candidates".to_string(),
            candidates.to_string(),
        ),
        (
            "lp.objective_sum".to_string(),
            format!(
                "{:?}",
                clears.iter().map(|c| c.fractional.objective).sum::<f64>()
            ),
        ),
        (
            "welfare_sum".to_string(),
            format!(
                "{:?}",
                clears.iter().map(|c| c.outcome.welfare).sum::<f64>()
            ),
        ),
    ]);
}

pub fn run(run: &Run, spec: &ClearSpec) -> Outcome {
    let solver = SolverBuilder::new().build();
    let mut untraced_tracer = Tracer::new(false);
    let mut generate_s = Vec::new();
    let (instances, setup_s) = timed_setups(|| {
        let start = Instant::now();
        let instances = generate(spec, run.seed, &mut untraced_tracer);
        generate_s.push(start.elapsed().as_secs_f64());
        instances
    });

    let (mut untraced, clears) = pass(
        &instances,
        &solver,
        Budget::Seconds(run.seconds),
        &mut untraced_tracer,
    );
    let distinct = check(&instances, &clears, &mut untraced);
    check_second_engine(&instances, &distinct, &mut untraced);
    summarize(spec, &instances, &clears, &mut untraced);

    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new(true);
        // Re-generate once under spans, so the trace file shows setup too.
        generate(spec, run.seed, &mut tracer);
        let (mut traced, clears) = pass(
            &instances,
            &solver,
            Budget::Ops(untraced.attempted),
            &mut tracer,
        );
        check(&instances, &clears, &mut traced);
        summarize(spec, &instances, &clears, &mut traced);
        (traced, tracer)
    });
    Outcome {
        setup_s,
        generate_s,
        untraced,
        traced,
    }
}
