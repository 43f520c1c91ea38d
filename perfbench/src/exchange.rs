//! `exchange`: `SpectrumExchange` fleets of M = 256 protocol markets
//! (n = 200, k = 2, Zipf s = 1, the default 40/30/30 arrival / departure /
//! re-bid mix), pooled drains, coalescing on.
//!
//! A few hot markets carry most of a Zipf stream, so one fleet's latency
//! is mostly the cost of its hottest markets. The run therefore measures
//! `FLEETS` independent fleets one after another, each drawn from the
//! workload seed. Set-up of a fleet generates its markets and stream,
//! opens every market and primes its cold first solve; `setup_s` is the
//! median over fleets. Each fleet then runs two phases over its stream:
//!
//! * **steady** — an open loop offers events at `RATE` per second (three
//!   quarters of the run, split over the fleets). Each pass submits every
//!   event due so
//!   far, then drains. An event's latency runs from its due time to the end
//!   of the drain that applied it; the generator's lateness (submit time −
//!   due time) shows a stalled drain as lateness instead of lost load.
//! * **burst** — a closed loop submits `BURST_BATCH` events at once and
//!   drains them: the shape where the pool and the coalescer work.
//!
//! After both phases every market's final instance is solved cold, and the
//! objective must equal the session's last one.

use crate::lpstats::LpTally;
use crate::stats::{mean, median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{check_objectives, derive_seed, objectives_agree, session_delta, Outcome, Pass, Run};
use ssa_core::session::{MarketEvent, MarketId, SessionStats};
use ssa_core::solver::{AuctionOutcome, SolverBuilder};
use ssa_exchange::{DrainMode, DrainReport, ExchangeStats, SpectrumExchange};
use ssa_workloads::{multi_market_scenario, MultiMarketConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const FLEETS: usize = 8;
const MARKETS: usize = 256;
const BIDDERS: usize = 200;
const CHANNELS: usize = 2;
/// Steady-phase offered load, events per second. Drains take about a
/// millisecond here, so the loop runs at roughly a tenth of capacity: a
/// slower host then lengthens latency about in proportion instead of
/// through a growing queue.
const RATE: f64 = 100.0;
/// Burst events per fleet, submitted and drained as one batch.
const BURST_BATCH: usize = 2048;
/// Rounding trials and seed, as in the e17 bench.
const TRIALS: usize = 2;
const ROUNDING_SEED: u64 = 17;
/// `op_tail_ms` is this percentile of steady event latency; the p99, whose
/// spread over seeds is too wide to gate on, is the per-layer
/// `exchange.event_ms.p99`.
const TAIL: f64 = 0.95;

/// Steady events per fleet: three quarters of the run at `RATE`, split over
/// the fleets.
fn steady_events(seconds: f64) -> usize {
    (RATE * seconds * 0.75 / FLEETS as f64).round().max(1.0) as usize
}

struct Fleet {
    exchange: SpectrumExchange,
    events: Vec<(MarketId, MarketEvent)>,
    rho: Vec<f64>,
}

fn setup(
    seed: u64,
    steady: usize,
    tracer: &mut Tracer,
    generate_s: &mut Vec<f64>,
) -> Result<Fleet, String> {
    let start = Instant::now();
    let config = MultiMarketConfig::new(MARKETS, BIDDERS, CHANNELS, steady + BURST_BATCH, seed);
    let scenario = tracer.span("workloads::multi_market_scenario", seed, || {
        multi_market_scenario(&config, 1.0)
    });
    generate_s.push(start.elapsed().as_secs_f64());
    let mut exchange = SpectrumExchange::builder()
        .solver(SolverBuilder::new().rounding(ROUNDING_SEED, TRIALS))
        .drain_mode(DrainMode::Pooled)
        .coalescing(true)
        .build();
    let mut rho = Vec::with_capacity(scenario.markets.len());
    for (id, generated) in &scenario.markets {
        rho.push(generated.instance.rho);
        exchange
            .open_market(*id, generated.instance.clone())
            .map_err(|e| format!("open_market {id}: {e:?}"))?;
    }
    // Prime every session's cold first solve: a self re-bid leaves the
    // market unchanged but runs the full cold pipeline.
    for (id, generated) in &scenario.markets {
        let event = MarketEvent::Rebid {
            bidder: 0,
            valuation: generated.instance.bidders[0].clone(),
        };
        exchange
            .submit(*id, event)
            .map_err(|e| format!("priming submit {id}: {e:?}"))?;
    }
    tracer
        .span("exchange::resolve_dirty", seed, || exchange.resolve_dirty())
        .map_err(|e| format!("priming drain: {e:?}"))?;
    Ok(Fleet {
        exchange,
        events: scenario.events,
        rho,
    })
}

/// Exchange and session counters of one phase, summed over fleets.
#[derive(Default)]
struct Counters {
    submitted: usize,
    applied: usize,
    collapsed: usize,
    folded: usize,
    cancellations: usize,
    extra_waves: usize,
    shard_resolves: usize,
    sessions: SessionStats,
    lp: LpTally,
}

impl Counters {
    fn add(&mut self, before: &ExchangeStats, after: &ExchangeStats) {
        let shard_resolves = after.shard_resolves - before.shard_resolves;
        self.submitted += after.events_submitted - before.events_submitted;
        self.applied += after.events_applied - before.events_applied;
        self.collapsed += after.rebids_collapsed - before.rebids_collapsed;
        self.folded += after.rebids_folded - before.rebids_folded;
        self.cancellations += after.cancellations - before.cancellations;
        self.extra_waves += after.extra_waves - before.extra_waves;
        self.shard_resolves += shard_resolves;
        self.sessions
            .accumulate(&session_delta(&before.sessions, &after.sessions));
        self.lp.add_activity(&after.lp, &before.lp, shard_resolves);
    }
}

/// Per-drain observations of one phase, over every fleet.
#[derive(Default)]
struct Phase {
    events: usize,
    wall: Duration,
    submit: Duration,
    drain_ms: Vec<f64>,
    dirty: Vec<usize>,
    shard_ms: Vec<f64>,
    /// Σ shard resolve time / (drain wall × workers), per drain.
    busy: Vec<f64>,
    /// Slowest shard / drain wall, per drain.
    straggler: Vec<f64>,
    /// Steady phase only, per event (ms).
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    lag: Vec<f64>,
    counters: Counters,
}

impl Phase {
    fn record_drain(&mut self, report: &DrainReport, wall: Duration, workers: usize) {
        let shards: Vec<f64> = report
            .resolves
            .iter()
            .flat_map(|r| r.latencies.iter().map(|&d| ms(d)))
            .collect();
        let wall_ms = ms(wall);
        self.drain_ms.push(wall_ms);
        self.dirty.push(report.resolves.len());
        self.busy
            .push(ratio(shards.iter().sum(), wall_ms * workers as f64));
        self.straggler
            .push(ratio(shards.iter().copied().fold(0.0, f64::max), wall_ms));
        self.shard_ms.extend(shards);
    }

    fn coalesce_ratio(&self) -> f64 {
        ratio(self.counters.applied as f64, self.counters.submitted as f64)
    }
}

/// The last outcome each market reported, for the final checks.
type LastOutcomes = BTreeMap<MarketId, AuctionOutcome>;

fn keep_outcomes(report: DrainReport, last: &mut LastOutcomes) {
    for resolve in report.resolves {
        last.insert(resolve.market, resolve.outcome);
    }
}

/// The open loop over the first `count` events of the fleet's stream.
fn steady(
    fleet: &mut Fleet,
    count: usize,
    op_base: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
    last: &mut LastOutcomes,
) -> Result<(), String> {
    let workers = rayon::current_num_threads();
    let exchange = &mut fleet.exchange;
    let events = &fleet.events[..count];
    let before = exchange.stats();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let mut next = 0;
    let mut op = op_base;
    while next < count {
        // Spin rather than sleep until the next event is due: a sleeping
        // thread wakes late and to cold caches, which would be measured as
        // exchange latency.
        if due(next) > Instant::now() {
            std::hint::spin_loop();
            continue;
        }
        let span = tracer.enter("op::drain", op);
        let submit_start = Instant::now();
        let submit_span = tracer.enter("exchange::submit", op);
        let mut end = next;
        let mut submit_error = None;
        while end < count {
            let submitted_at = Instant::now();
            if due(end) > submitted_at {
                break;
            }
            let (id, event) = &events[end];
            if let Err(e) = exchange.submit(*id, event.clone()) {
                submit_error = Some(format!("submit event {end}: {e:?}"));
            }
            phase.lag.push(ms(submitted_at - due(end)));
            end += 1;
        }
        tracer.exit(submit_span);
        let drain_start = Instant::now();
        let report = tracer.span("exchange::resolve_dirty", op, || exchange.resolve_dirty());
        let drain_end = Instant::now();
        tracer.exit(span);
        phase.submit += drain_start - submit_start;
        if let Some(e) = submit_error {
            return Err(e);
        }
        let report = report.map_err(|e| format!("steady drain {op}: {e:?}"))?;
        for i in next..end {
            phase.latency.push(ms(drain_end - due(i)));
            phase.queue_wait.push(ms(drain_start - due(i)));
        }
        phase.record_drain(&report, drain_end - drain_start, workers);
        keep_outcomes(report, last);
        next = end;
        op += 1;
    }
    phase.events += count;
    phase.wall += start.elapsed();
    phase.counters.add(&before, &exchange.stats());
    Ok(())
}

/// The closed loop: the rest of the stream as one submitted batch and one
/// drain.
fn burst(
    fleet: &mut Fleet,
    from: usize,
    op: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
    last: &mut LastOutcomes,
) -> Result<(), String> {
    let workers = rayon::current_num_threads();
    let exchange = &mut fleet.exchange;
    let batch = &fleet.events[from..];
    let before = exchange.stats();
    let span = tracer.enter("op::drain", op);
    let start = Instant::now();
    let submitted = tracer.span("exchange::submit_batch", op, || {
        exchange.submit_batch(batch.iter().cloned())
    });
    let drain_start = Instant::now();
    let report = tracer.span("exchange::resolve_dirty", op, || exchange.resolve_dirty());
    let end = Instant::now();
    tracer.exit(span);
    submitted.map_err(|e| format!("burst submit: {e:?}"))?;
    let report = report.map_err(|e| format!("burst drain: {e:?}"))?;
    phase.events += batch.len();
    phase.wall += end - start;
    phase.submit += drain_start - start;
    phase.record_drain(&report, end - drain_start, workers);
    keep_outcomes(report, last);
    phase.counters.add(&before, &exchange.stats());
    Ok(())
}

/// After both phases: each market's last outcome is feasible on its final
/// instance, and a cold solve of that instance (two threads) finds the
/// session's last objective. Returns welfare / LP bound per market.
fn check(exchange: &SpectrumExchange, last: &LastOutcomes, pass: &mut Pass) -> Vec<f64> {
    let mut finals = Vec::with_capacity(last.len());
    for (&id, outcome) in last {
        let state = exchange.with_session(id, |s| {
            (
                s.instance().clone(),
                s.last_fractional().map(|f| f.objective),
            )
        });
        match state {
            Ok((instance, Some(objective))) => {
                if !outcome.allocation.is_feasible(&instance) {
                    pass.fail(format!(
                        "{id}: last allocation infeasible on the final instance"
                    ));
                }
                if outcome.lp_objective != objective {
                    pass.fail(format!(
                        "{id}: last outcome's LP objective {} is not the session's {objective}",
                        outcome.lp_objective
                    ));
                }
                finals.push((id, instance, objective));
            }
            Ok((_, None)) => pass.fail(format!("{id}: no solved relaxation after the run")),
            Err(e) => pass.fail(format!("{id}: {e:?}")),
        }
    }
    let options = SolverBuilder::new().options().lp;
    let results = check_objectives(&finals, |(_, instance, _)| instance, &options);
    for ((id, _, objective), result) in finals.iter().zip(results) {
        match result {
            Ok(cold) if objectives_agree(*objective, cold) => {}
            Ok(cold) => pass.fail(format!(
                "{id}: session objective {objective} but cold solve {cold}"
            )),
            Err(e) => pass.fail(format!("{id}: cold solve failed: {e}")),
        }
    }
    last.values()
        .map(|o| ratio(o.welfare, o.lp_objective))
        .collect()
}

fn summarize(steady: &Phase, burst: &Phase, welfare: &[f64], rho: &[f64], pass: &mut Pass) {
    pass.ops = steady.drain_ms.len() + burst.drain_ms.len();
    pass.op_total_s = steady.drain_ms.iter().chain(&burst.drain_ms).sum::<f64>() / 1e3
        + (steady.submit + burst.submit).as_secs_f64();
    let e2e = &mut pass.e2e;
    let n = steady.latency.len();
    e2e.push(
        "op_p50_ms",
        median(&steady.latency),
        "ms",
        n,
        "steady event: due → end of its drain, median",
    );
    e2e.push(
        "op_tail_ms",
        quantile(&steady.latency, TAIL),
        "ms",
        n,
        "steady event, p95",
    );
    e2e.push(
        "throughput_per_s",
        ratio(burst.events as f64, burst.wall.as_secs_f64()),
        "1/s",
        burst.events,
        "burst events / burst wall (submit + drain)",
    );
    e2e.push(
        "welfare_ratio",
        mean(welfare),
        "ratio",
        welfare.len(),
        "mean welfare / LP bound, last outcome per market",
    );
    pass.notes.push(crate::stats::ladder(
        "steady event latency (ms)",
        &steady.latency,
    ));

    let layers = &mut pass.layers;
    layers.push(
        "conflict_graph.rho",
        mean(rho),
        "ratio",
        rho.len(),
        "mean ρ over the markets",
    );
    let mut lp = steady.counters.lp.clone();
    lp.merge(&burst.counters.lp);
    let shard_s = steady.shard_ms.iter().chain(&burst.shard_ms).sum::<f64>() / 1e3;
    lp.push_metrics(
        layers,
        shard_s,
        "shard resolve time (mutations + LP + rounding)",
    );
    let mut sessions = steady.counters.sessions;
    sessions.accumulate(&burst.counters.sessions);
    layers.push(
        "core.session.warm_share",
        ratio(
            (sessions.resolves - sessions.cold_resolves) as f64,
            sessions.resolves as f64,
        ),
        "ratio",
        sessions.resolves,
        "warm resolves / resolves, both phases (steady part timing-dependent)",
    );
    layers.push(
        "core.session.cold_resolves",
        sessions.cold_resolves as f64,
        "count",
        sessions.resolves,
        "both phases",
    );
    layers.push(
        "core.session.deep_batch_rebuilds",
        sessions.deep_batch_rebuilds as f64,
        "count",
        sessions.resolves,
        "both phases",
    );

    let submitted = steady.counters.submitted + burst.counters.submitted;
    layers.push(
        "exchange.submit_us_per_event",
        ratio(
            (steady.submit + burst.submit).as_secs_f64() * 1e6,
            submitted as f64,
        ),
        "us",
        submitted,
        "submit time / events, both phases",
    );
    layers.push(
        "exchange.event_ms.p99",
        quantile(&steady.latency, 0.99),
        "ms",
        n,
        "steady event: due → end of its drain",
    );
    layers.push(
        "exchange.queue_wait_ms.p50",
        median(&steady.queue_wait),
        "ms",
        n,
        "steady: due → drain start",
    );
    layers.push(
        "exchange.queue_wait_ms.p99",
        quantile(&steady.queue_wait, 0.99),
        "ms",
        n,
        "steady: due → drain start",
    );
    let d = steady.drain_ms.len();
    layers.push(
        "exchange.drain_ms.p50",
        median(&steady.drain_ms),
        "ms",
        d,
        "steady drains",
    );
    layers.push(
        "exchange.drain_ms.p99",
        quantile(&steady.drain_ms, 0.99),
        "ms",
        d,
        "steady drains",
    );
    let dirty: Vec<f64> = steady.dirty.iter().map(|&x| x as f64).collect();
    layers.push(
        "exchange.dirty_per_drain",
        mean(&dirty),
        "count",
        d,
        "steady, mean; timing-dependent",
    );
    layers.push(
        "exchange.coalesce_ratio",
        steady.coalesce_ratio(),
        "ratio",
        steady.counters.submitted,
        "steady applied / submitted; timing-dependent",
    );
    let s = steady.shard_ms.len();
    layers.push(
        "exchange.shard_resolve_ms.p50",
        median(&steady.shard_ms),
        "ms",
        s,
        "steady shard resolves",
    );
    layers.push(
        "exchange.shard_resolve_ms.p99",
        quantile(&steady.shard_ms, 0.99),
        "ms",
        s,
        "steady shard resolves",
    );
    layers.push(
        "exchange.generator_lag_ms",
        quantile(&steady.lag, 0.99),
        "ms",
        n,
        "steady: submit − due, p99",
    );

    let b = burst.drain_ms.len();
    layers.push(
        "exchange.burst.drain_ms.p50",
        median(&burst.drain_ms),
        "ms",
        b,
        "burst drains",
    );
    let burst_dirty: Vec<f64> = burst.dirty.iter().map(|&x| x as f64).collect();
    layers.push(
        "exchange.burst.dirty_per_drain",
        mean(&burst_dirty),
        "count",
        b,
        "burst, mean",
    );
    layers.push(
        "exchange.burst.coalesce_ratio",
        burst.coalesce_ratio(),
        "ratio",
        burst.counters.submitted,
        "burst applied / submitted",
    );
    layers.push(
        "exchange.burst.extra_waves",
        burst.counters.extra_waves as f64,
        "count",
        b,
        "deep-batch waves beyond one per shard",
    );
    let bs = burst.shard_ms.len();
    layers.push(
        "exchange.burst.shard_resolve_ms.p50",
        median(&burst.shard_ms),
        "ms",
        bs,
        "burst shard resolves",
    );
    layers.push(
        "exchange.burst.shard_resolve_ms.p99",
        quantile(&burst.shard_ms, 0.99),
        "ms",
        bs,
        "burst shard resolves",
    );
    layers.push(
        "exchange.burst.pool_busy_share",
        mean(&burst.busy),
        "ratio",
        b,
        "Σ shard time / (drain wall × workers), mean",
    );
    layers.push(
        "exchange.burst.straggler_share",
        mean(&burst.straggler),
        "ratio",
        b,
        "slowest shard / drain wall, mean",
    );

    let c = &burst.counters;
    pass.counts = [
        ("burst.events_submitted", c.submitted),
        ("burst.events_applied", c.applied),
        ("burst.rebids_collapsed", c.collapsed),
        ("burst.rebids_folded", c.folded),
        ("burst.cancellations", c.cancellations),
        ("burst.extra_waves", c.extra_waves),
        ("burst.shard_resolves", c.shard_resolves),
        ("steady.events_submitted", steady.counters.submitted),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value.to_string()))
    .collect();
    pass.counts.push((
        "burst.dirty_per_drain".to_string(),
        format!("{:?}", burst.dirty),
    ));
}

fn measure(
    run: &Run,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
    generate_s: &mut Vec<f64>,
) -> Pass {
    let count = steady_events(run.seconds);
    let mut pass = Pass::default();
    let (mut steady_phase, mut burst_phase) = (Phase::default(), Phase::default());
    let (mut welfare, mut rho) = (Vec::new(), Vec::new());
    for f in 0..FLEETS {
        let start = Instant::now();
        let mut fleet = match setup(derive_seed(run.seed, f as u64), count, tracer, generate_s) {
            Ok(fleet) => fleet,
            Err(e) => {
                pass.attempted += 1;
                pass.fail(format!("fleet {f} set-up: {e}"));
                return pass;
            }
        };
        setup_s.push(start.elapsed().as_secs_f64());
        pass.attempted += fleet.events.len();
        let mut last = LastOutcomes::new();
        let op_base = 1_000_000 * f as u64;
        let phases = steady(
            &mut fleet,
            count,
            op_base,
            tracer,
            &mut steady_phase,
            &mut last,
        )
        .and_then(|()| {
            burst(
                &mut fleet,
                count,
                op_base + 999_999,
                tracer,
                &mut burst_phase,
                &mut last,
            )
        });
        if let Err(e) = phases {
            pass.fail(format!("fleet {f}: {e}"));
            return pass;
        }
        welfare.extend(check(&fleet.exchange, &last, &mut pass));
        rho.extend(fleet.rho);
    }
    summarize(&steady_phase, &burst_phase, &welfare, &rho, &mut pass);
    pass
}

pub fn run(run: &Run) -> Outcome {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let untraced = measure(run, &mut Tracer::new(false), &mut setup_s, &mut generate_s);
    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new(true);
        let pass = measure(run, &mut tracer, &mut Vec::new(), &mut Vec::new());
        (pass, tracer)
    });
    Outcome {
        setup_s,
        generate_s,
        untraced,
        traced,
    }
}
