//! `sealed`: audited commit–reveal rounds.
//!
//! Set-up draws a few clustered protocol markets (n = 200, k = 3), each with
//! twelve honest entrants (`shill_stream_scenario` with no shills), and
//! primes one session per market with a cold resolve. Every round clones a
//! primed session (outside the timed span) and runs `open` →
//! `commit_to` + `submit_commitment` per entrant → `close_commits` →
//! `submit_opening` per entrant → `resolve` → `audit`. Rounds cycle through
//! the markets. A traced run also replays each round's entrants straight
//! into a session clone (`add_bidder`, `resolve`), outside the round, to
//! time the session layer on its own.

use crate::lpstats::LpTally;
use crate::stats::{mean, median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{derive_seed, session_delta, timed_setups, Budget, Outcome, Pass, Run};
use ssa_core::session::{AuctionSession, SessionStats};
use ssa_core::solver::SolverBuilder;
use ssa_mechanism::sealed_bid::{
    audit, commit_to, nonce_from_seed, CollateralPolicy, Opening, ParticipantKind, RevealStatus,
    SealedBidAuction,
};
use ssa_workloads::{shill_stream_scenario, ScenarioConfig, SealedKind, SealedParticipantSpec};
use std::time::{Duration, Instant};

const MARKETS: usize = 96;
const BIDDERS: usize = 200;
const CHANNELS: usize = 3;
const ENTRANTS: usize = 12;
/// Rounding trials and seed, as in the e18 bench.
const TRIALS: usize = 2;
const ROUNDING_SEED: u64 = 23;
/// `op_tail_ms` is the 95th percentile round.
const TAIL: f64 = 0.95;

struct Market {
    primed: AuctionSession,
    primed_stats: SessionStats,
    participants: Vec<SealedParticipantSpec>,
    nonces: Vec<[u8; 32]>,
    rho: f64,
}

#[derive(Default)]
struct Round {
    commit: Duration,
    close: Duration,
    reveal: Duration,
    resolve: Duration,
    audit: Duration,
    total: Duration,
}

fn setup(seed: u64, tracer: &mut Tracer, generate_s: &mut Vec<f64>) -> Result<Vec<Market>, String> {
    let start = Instant::now();
    let specs: Vec<_> = (0..MARKETS)
        .map(|i| {
            let mut config = ScenarioConfig::new(BIDDERS, CHANNELS, derive_seed(seed, i as u64));
            config.clustered = true;
            tracer.span("workloads::shill_stream_scenario", i as u64, || {
                shill_stream_scenario(&config, 1.0, ENTRANTS, 0, 1.0)
            })
        })
        .collect();
    generate_s.push(start.elapsed().as_secs_f64());
    specs
        .into_iter()
        .enumerate()
        .map(|(i, market)| {
            let mut session = SolverBuilder::new()
                .rounding(ROUNDING_SEED, TRIALS)
                .session(market.initial.instance.clone());
            tracer
                .span("core.session::resolve", i as u64, || session.resolve())
                .map_err(|e| format!("priming market {i}: {e:?}"))?;
            Ok(Market {
                primed_stats: session.stats(),
                rho: market.initial.instance.rho,
                primed: session,
                nonces: market
                    .participants
                    .iter()
                    .map(|p| nonce_from_seed(p.nonce_seed))
                    .collect(),
                participants: market.participants,
            })
        })
        .collect()
}

fn kind_of(spec: &SealedParticipantSpec) -> ParticipantKind {
    match &spec.kind {
        SealedKind::Entrant { conflicts } => ParticipantKind::Entrant {
            conflicts: conflicts.clone(),
        },
        SealedKind::Incumbent { bidder } => ParticipantKind::Incumbent { bidder: *bidder },
    }
}

/// Tallies of one pass that feed both the metrics and the determinism
/// counts.
#[derive(Default)]
struct Tally {
    rounds: Vec<Round>,
    lp: LpTally,
    sessions: SessionStats,
    welfare_ratio: Vec<f64>,
    certificate_audits: usize,
    scratch_audits: usize,
    findings: usize,
    welfare_bits: Vec<String>,
    /// Traced runs only: the direct session path per round.
    mutate: Vec<f64>,
    resolve: Vec<f64>,
}

/// One round; returns an error string for a protocol failure or a failed
/// check.
fn round(market: &Market, op: u64, tracer: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
    let session = market.primed.clone();
    let span = tracer.enter("op::sealed_round", op);
    let t_open = Instant::now();
    let opened = tracer.span("mechanism.sealed_bid::open", op, || {
        SealedBidAuction::open(session, CollateralPolicy::default())
    });
    let mut auction = match opened {
        Ok(a) => a,
        Err(e) => {
            tracer.exit(span);
            return Err(format!("open: {e:?}"));
        }
    };
    let mut r = Round::default();
    let mut ids = Vec::with_capacity(market.participants.len());
    let mut failure = None;
    let t = Instant::now();
    for (spec, nonce) in market.participants.iter().zip(&market.nonces) {
        let result = tracer.span("mechanism.sealed_bid::submit_commitment", op, || {
            let id = auction.next_participant_id();
            let commitment = commit_to(id, &spec.valuation, nonce);
            auction.submit_commitment(kind_of(spec), commitment, spec.declared_cap)
        });
        match result {
            Ok(id) => ids.push(id),
            Err(e) => failure = failure.or(Some(format!("commit: {e:?}"))),
        }
    }
    r.commit = t.elapsed();
    let t = Instant::now();
    if let Err(e) = tracer.span("mechanism.sealed_bid::close_commits", op, || {
        auction.close_commits()
    }) {
        failure = failure.or(Some(format!("close: {e:?}")));
    }
    r.close = t.elapsed();
    let t = Instant::now();
    let mut statuses = Vec::with_capacity(ids.len());
    for ((spec, nonce), &id) in market.participants.iter().zip(&market.nonces).zip(&ids) {
        let opening = Opening {
            participant: id,
            valuation: spec.valuation.clone(),
            nonce: *nonce,
        };
        statuses.push(tracer.span("mechanism.sealed_bid::submit_opening", op, || {
            auction.submit_opening(opening)
        }));
    }
    r.reveal = t.elapsed();
    let t = Instant::now();
    let resolved = tracer.span("mechanism.sealed_bid::resolve", op, || auction.resolve());
    r.resolve = t.elapsed();
    let t = Instant::now();
    let report = resolved.as_ref().ok().map(|outcome| {
        tracer.span("mechanism.sealed_bid::audit", op, || {
            audit(&outcome.transcript)
        })
    });
    r.audit = t.elapsed();
    r.total = t_open.elapsed();
    tracer.exit(span);

    // Checks, outside the timed round.
    if let Some(f) = failure {
        return Err(f);
    }
    for status in statuses {
        match status {
            Ok(RevealStatus::Accepted) => {}
            other => return Err(format!("honest opening not accepted: {other:?}")),
        }
    }
    let outcome = resolved.map_err(|e| format!("resolve: {e:?}"))?;
    let report = report.expect("audited every resolved round");
    tally.findings += report.findings.len();
    tally.certificate_audits += usize::from(report.certificate_checked);
    tally.scratch_audits += usize::from(report.resolved_from_scratch);
    if !report.clean() {
        return Err(format!("honest round flagged: {:?}", report.findings));
    }
    if report.resolved_from_scratch || !report.certificate_checked {
        return Err("audit left the certificate path".to_string());
    }
    let instance = auction.session().instance();
    if !outcome.outcome.allocation.is_feasible(instance) {
        return Err("infeasible allocation".to_string());
    }
    let lp_bound = outcome.outcome.lp_objective;
    if outcome.outcome.welfare > lp_bound + 1e-6 * lp_bound.abs().max(1.0) {
        return Err(format!(
            "welfare {} above LP bound {lp_bound}",
            outcome.outcome.welfare
        ));
    }
    tally.lp.add_info(&outcome.outcome.lp_info);
    tally.sessions.accumulate(&session_delta(
        &market.primed_stats,
        &auction.session().stats(),
    ));
    tally
        .welfare_ratio
        .push(ratio(outcome.outcome.welfare, lp_bound));
    tally
        .welfare_bits
        .push(format!("{:?}", outcome.outcome.welfare));
    tally.rounds.push(r);
    Ok(())
}

/// The entrants submitted straight to a session clone, as a plain market
/// would take them: the session layer timed without the protocol.
fn direct_session(
    market: &Market,
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut session = market.primed.clone();
    let t = Instant::now();
    for spec in &market.participants {
        let valuation = spec.valuation.build();
        match &spec.kind {
            SealedKind::Entrant { conflicts } => {
                tracer.span("core.session::add_bidder", op, || {
                    session.add_bidder(valuation, conflicts.clone())
                });
            }
            SealedKind::Incumbent { bidder } => {
                tracer.span("core.session::update_valuation", op, || {
                    session.update_valuation(*bidder, valuation)
                });
            }
        }
    }
    tally.mutate.push(ms(t.elapsed()));
    let t = Instant::now();
    tracer
        .span("core.session::resolve", op, || session.resolve())
        .map_err(|e| format!("direct resolve: {e:?}"))?;
    tally.resolve.push(ms(t.elapsed()));
    Ok(())
}

fn pass(markets: &[Market], budget: Budget, tracer: &mut Tracer) -> (Pass, Tally) {
    let mut pass = Pass::default();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut rounds = 0;
    while !budget.exhausted(rounds, start) {
        let op = rounds as u64;
        let market = &markets[rounds % markets.len()];
        rounds += 1;
        pass.attempted += 1;
        if let Err(e) = round(market, op, tracer, &mut tally) {
            pass.fail(format!("round {op}: {e}"));
        }
        if tracer.enabled() {
            pass.attempted += 1;
            if let Err(e) = direct_session(market, op, tracer, &mut tally) {
                pass.fail(format!("direct session path {op}: {e}"));
            }
        }
    }
    pass.ops = tally.rounds.len();
    pass.op_total_s = tally.rounds.iter().map(|r| r.total.as_secs_f64()).sum();
    (pass, tally)
}

fn summarize(markets: &[Market], tally: &Tally, pass: &mut Pass) {
    let rounds = &tally.rounds;
    let n = rounds.len();
    let per = |f: fn(&Round) -> Duration| -> Vec<f64> { rounds.iter().map(|r| ms(f(r))).collect() };
    let total = per(|r| r.total);
    let e2e = &mut pass.e2e;
    e2e.push(
        "op_p50_ms",
        median(&total),
        "ms",
        n,
        "round: open → audited outcome, median",
    );
    e2e.push("op_tail_ms", quantile(&total, TAIL), "ms", n, "round, p95");
    e2e.push(
        "throughput_per_s",
        ratio(n as f64, total.iter().sum::<f64>() / 1e3),
        "1/s",
        n,
        "audited rounds / time in rounds",
    );
    e2e.push(
        "welfare_ratio",
        mean(&tally.welfare_ratio),
        "ratio",
        n,
        "mean welfare / LP bound",
    );
    pass.notes
        .push(crate::stats::ladder("round time (ms)", &total));

    let commit = per(|r| r.commit);
    let close = per(|r| r.close);
    let reveal = per(|r| r.reveal);
    let resolve = per(|r| r.resolve);
    let audit_ms = per(|r| r.audit);
    let layers = &mut pass.layers;
    let rho: Vec<f64> = markets.iter().map(|m| m.rho).collect();
    layers.push(
        "conflict_graph.rho",
        mean(&rho),
        "ratio",
        rho.len(),
        "mean ρ over the markets",
    );
    tally.lp.push_metrics(
        layers,
        resolve.iter().sum::<f64>() / 1e3,
        "sealed resolve time",
    );
    let per_entrant = 1e3 / ENTRANTS as f64;
    layers.push(
        "mechanism.sealed_bid.commit_us",
        median(&commit) * per_entrant,
        "us",
        n * ENTRANTS,
        "median round's commit phase / entrants",
    );
    layers.push(
        "mechanism.sealed_bid.close_ms",
        median(&close),
        "ms",
        n,
        "median per round (admits the entrants)",
    );
    layers.push(
        "mechanism.sealed_bid.reveal_us",
        median(&reveal) * per_entrant,
        "us",
        n * ENTRANTS,
        "median round's reveal phase / entrants",
    );
    layers.push(
        "mechanism.sealed_bid.resolve_ms",
        median(&resolve),
        "ms",
        n,
        "median per round",
    );
    layers.push(
        "mechanism.sealed_bid.audit_ms",
        median(&audit_ms),
        "ms",
        n,
        "median per round",
    );
    let audits = tally.certificate_audits + tally.scratch_audits;
    layers.push(
        "mechanism.sealed_bid.audit_certificate_share",
        ratio(tally.certificate_audits as f64, n as f64),
        "ratio",
        audits,
        "audits on the certificate path / rounds",
    );
    layers.push(
        "mechanism.sealed_bid.audit_findings",
        tally.findings as f64,
        "count",
        n,
        "findings over all honest rounds",
    );
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    layers.push(
        "mechanism.sealed_bid.overhead",
        ratio(
            sum(&commit) + sum(&close) + sum(&reveal) + sum(&audit_ms),
            sum(&resolve),
        ),
        "ratio",
        n,
        "(commit + close + reveal + audit) / resolve",
    );
    let s = &tally.sessions;
    layers.push(
        "core.session.warm_share",
        ratio((s.resolves - s.cold_resolves) as f64, s.resolves as f64),
        "ratio",
        s.resolves,
        "warm resolves / resolves, sealed sessions",
    );
    layers.push(
        "core.session.cold_resolves",
        s.cold_resolves as f64,
        "count",
        n,
        "over all rounds",
    );
    layers.push(
        "core.session.deep_batch_rebuilds",
        s.deep_batch_rebuilds as f64,
        "count",
        n,
        "over all rounds",
    );
    let m = tally.mutate.len();
    layers.push(
        "core.session.mutate_ms.p50",
        median(&tally.mutate),
        "ms",
        m,
        "direct add_bidder × entrants, per round",
    );
    layers.push(
        "core.session.mutate_ms.p95",
        quantile(&tally.mutate, 0.95),
        "ms",
        m,
        "direct add_bidder × entrants, per round",
    );
    layers.push(
        "core.session.resolve_ms.p50",
        median(&tally.resolve),
        "ms",
        m,
        "direct warm resolve, per round",
    );
    layers.push(
        "core.session.resolve_ms.p95",
        quantile(&tally.resolve, 0.95),
        "ms",
        m,
        "direct warm resolve, per round",
    );

    pass.counts = tally.lp.counts("lp");
    pass.counts.extend([
        (
            "audit.certificate_path".to_string(),
            tally.certificate_audits.to_string(),
        ),
        (
            "audit.from_scratch".to_string(),
            tally.scratch_audits.to_string(),
        ),
        ("audit.findings".to_string(), tally.findings.to_string()),
        (
            "session.cold_resolves".to_string(),
            s.cold_resolves.to_string(),
        ),
        ("session.resolves".to_string(), s.resolves.to_string()),
        ("welfare".to_string(), tally.welfare_bits.join(",")),
    ]);
}

pub fn run(run: &Run) -> Outcome {
    let mut quiet = Tracer::new(false);
    let mut generate_s = Vec::new();
    let (markets, setup_s) = timed_setups(|| setup(run.seed, &mut quiet, &mut generate_s));
    let markets = match markets {
        Ok(m) => m,
        Err(e) => {
            let mut failed = Pass {
                attempted: 1,
                ..Pass::default()
            };
            failed.fail(e);
            return Outcome {
                setup_s,
                generate_s,
                untraced: failed,
                traced: None,
            };
        }
    };
    let (mut untraced, tally) = pass(&markets, Budget::Seconds(run.seconds), &mut quiet);
    summarize(&markets, &tally, &mut untraced);
    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new(true);
        let (mut traced, tally) = pass(&markets, Budget::Ops(untraced.attempted), &mut tracer);
        summarize(&markets, &tally, &mut traced);
        (traced, tracer)
    });
    Outcome {
        setup_s,
        generate_s,
        untraced,
        traced,
    }
}
