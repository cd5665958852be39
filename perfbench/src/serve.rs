//! `serve`: an open-loop schedule of match requests into a `ServeEngine`.
//!
//! Each request pairs a fresh, never-seen offer with a catalog candidate
//! (its own entity's with probability ½, another entity's otherwise), so
//! tokenization and the backbone encode dominate while candidates repeat
//! and the cache hit rate stays near half. Arrivals are Poisson at a fixed
//! rate per phase: `low` never fills a batch, `high` fills some, and the
//! ladder climbs in fixed steps until its backlog grows; the answer rate of
//! the highest step whose p99 meets the limit is the ladder's result. The
//! `saturated` phase is closed-loop instead: it keeps four batches
//! outstanding, so the worker always has a full batch waiting, and measures
//! the answer rate. One thread generates load and collects replies; the
//! engine's worker is the second. No blocking runs.

use std::collections::{HashSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emba_core::Checkpoint;
use emba_datagen::{Catalog, Record};
use emba_nn::GraphStamp;
use emba_serve::{
    FlushTimeline, MatchOutcome, MatchResponse, ServeConfig, ServeEngine, ServerSnapshot,
    SystemClock,
};
use emba_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::setup::{self, Fixed};
use crate::stats::{self, Counts};
use crate::Report;

/// Entities behind the served offers and candidates: few, with many
/// offers each, so the candidate pool is small and cached early while
/// every offer is fresh.
const ENTITIES: usize = 50;
/// Offers generated per entity.
const OFFERS_PER_ENTITY: (usize, usize) = (400, 440);
/// Catalog records per entity kept as the candidate pool.
const POOL_PER_ENTITY: usize = 2;
/// Requests per ladder step (a p99 needs ≥ 1000 samples so that ten lie
/// beyond it).
pub const STEP_REQUESTS: usize = 1000;
/// `low`: about 15 arrivals per half-budget window, far below a batch.
pub const LOW: (f64, usize) = (150.0, 1000);
/// `high`: about 25 arrivals per half-budget window, so some windows fill
/// a 32-request batch.
pub const HIGH: (f64, usize) = (250.0, 1000);
/// Deadline budget of `low` and `high` requests. A batch that is not full
/// waits half of it (`ServeCore::next_flush_at`), so the other half is all
/// the slack a request has against a stall of the host: at 100 ms, one
/// serve run in about thirty came back with unscored requests.
pub const BUDGET_MS: f64 = 200.0;
/// Ladder: first rate, ratio between steps, and most steps.
pub const LADDER_START_RPS: f64 = 1000.0;
pub const LADDER_RATIO: f64 = 1.06;
pub const LADDER_STEPS: usize = 20;
/// p99 limit a ladder step must meet: about twice the p99 of the steps
/// well below capacity, so a step fails once requests queue behind
/// earlier batches.
pub const P99_LIMIT_MS: f64 = 75.0;
/// Ladder requests' deadline budget. Ladder rates fill batches by size, so
/// it only sets when a saturated step would start expiring requests; it is
/// generous so that the generator sees the backlog first, even while the
/// host runs the worker at half speed.
pub const LADDER_BUDGET_MS: f64 = 1000.0;
/// `saturated` requests' deadline budget. Every batch of the phase fills by
/// size, so the budget never sets a flush; it only has to outlast any stall.
pub const SATURATED_BUDGET_MS: f64 = 10_000.0;
/// The ladder stops sending as soon as this many requests are outstanding:
/// the backlog is growing. Large enough that a passing stall of a few
/// hundred milliseconds does not end the climb; small enough (with the
/// engine's queue bound of 1024 and shed mark of 768) that nothing is
/// rejected or expires.
pub const LADDER_MAX_OUTSTANDING: usize = 16 * MAX_BATCH;
/// Engine batch bound.
pub const MAX_BATCH: usize = 32;
/// `saturated`: requests held outstanding (one batch in the worker, three
/// full batches queued behind it, so that a generator delayed by a few
/// flushes does not leave the worker idle).
pub const SATURATION_WINDOW: usize = 4 * MAX_BATCH;
/// `saturated`: replies per rate sample.
pub const RATE_SAMPLE: usize = 256;
/// `saturated`: a window's worth of requests to fill the pipeline, eight
/// rate samples, and a window's worth to drain it; a whole number of
/// batches, so that no partial batch waits on its deadline.
pub const SATURATED: (f64, usize) = (f64::INFINITY, 2 * SATURATION_WINDOW + 8 * RATE_SAMPLE);
/// Served probability vs single-pair reference.
pub const INVARIANCE_TOL: f64 = 1e-5;
/// Every `CHECK_STRIDE`-th served answer is re-scored alone.
pub const CHECK_STRIDE: usize = 8;
/// Served F1 must beat the all-positive baseline (about 0.67: half the
/// requests match) by this much. Smaller than the other workloads' margin
/// because the fixed model's served F1 sits near 0.73 on some seeds; it
/// still fails a model that answers one class.
pub const F1_MARGIN: f64 = 0.02;

/// The generated serve inputs: offers, candidates and arrival schedules.
pub struct Plan {
    catalog: Catalog,
    /// `(offer, candidate)` record indices, in send order.
    requests: Vec<(usize, usize)>,
    /// Poisson arrival gaps (seconds) at rate 1; a phase at rate `r`
    /// divides them by `r`.
    unit_gaps: Vec<f64>,
}

impl Plan {
    pub fn build(seed: u64) -> Self {
        let catalog = setup::catalog(
            seed.wrapping_mul(7).wrapping_add(3),
            ENTITIES,
            OFFERS_PER_ENTITY.0,
            OFFERS_PER_ENTITY.1,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00A1_1CE5);
        let mut pool: Vec<Vec<usize>> = vec![Vec::new(); catalog.num_clusters];
        let mut offers = Vec::new();
        for (i, &c) in catalog.cluster_of.iter().enumerate() {
            if pool[c].len() < POOL_PER_ENTITY {
                pool[c].push(i);
            } else {
                offers.push(i);
            }
        }
        for i in (1..offers.len()).rev() {
            offers.swap(i, rng.gen_range(0..=i));
        }
        let requests: Vec<(usize, usize)> = offers
            .iter()
            .map(|&o| {
                let own = catalog.cluster_of[o];
                let c = if rng.gen_bool(0.5) {
                    own
                } else {
                    (own + rng.gen_range(1..catalog.num_clusters)) % catalog.num_clusters
                };
                (o, pool[c][rng.gen_range(0..pool[c].len())])
            })
            .collect();
        let unit_gaps = (0..requests.len())
            .map(|_| -(1.0 - rng.gen::<f64>()).ln())
            .collect();
        Plan {
            catalog,
            requests,
            unit_gaps,
        }
    }

    /// The first offers in send order (the tokenizer's timed input).
    pub fn offers(&self) -> Vec<&Record> {
        self.requests
            .iter()
            .take(LOW.1)
            .map(|&(o, _)| &self.catalog.records[o])
            .collect()
    }

    fn pair(&self, k: usize) -> (&Record, &Record) {
        let (o, c) = self.requests[k];
        (&self.catalog.records[o], &self.catalog.records[c])
    }

    fn is_match(&self, k: usize) -> bool {
        let (o, c) = self.requests[k];
        self.catalog.cluster_of[o] == self.catalog.cluster_of[c]
    }

    /// Ladder steps the offers can feed with fresh records.
    fn ladder_steps(&self) -> usize {
        (self.requests.len() / STEP_REQUESTS).min(LADDER_STEPS)
    }
}

/// One phase: which requests, at which offsets, with which budget.
struct Schedule {
    /// Request index into the plan, and due offset in seconds.
    sends: Vec<(usize, f64)>,
    budget_ms: f64,
    /// Stop sending once this many requests are outstanding.
    max_outstanding: Option<usize>,
    /// Closed loop: wait for the oldest reply before sending while this
    /// many requests are outstanding.
    window: Option<usize>,
}

fn schedule(
    plan: &Plan,
    steps: &[(f64, usize)],
    budget_ms: f64,
    max_outstanding: Option<usize>,
) -> Schedule {
    let mut sends = Vec::new();
    let mut t = 0.0;
    for &(rate, requests) in steps {
        for _ in 0..requests {
            let k = sends.len();
            t += plan.unit_gaps[k] / rate;
            sends.push((k, t));
        }
    }
    Schedule {
        sends,
        budget_ms,
        max_outstanding,
        window: None,
    }
}

/// Everything one phase observed.
pub struct Phase {
    /// Per sent request (in send order): latency from due time to the
    /// observed reply, ms.
    pub latency_ms: Vec<f64>,
    /// How late each send left relative to its due time, ms.
    pub lag_ms: Vec<f64>,
    pub responses: Vec<MatchResponse>,
    /// Plan index of each sent request.
    pub sent: Vec<usize>,
    pub failed: u64,
    pub snapshot: ServerSnapshot,
    pub timelines: Vec<FlushTimeline>,
    pub duplicate_or_missing: usize,
}

pub fn engine_config(traced: bool) -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        cache_capacity: 1 << 16,
        profile: traced,
        trace_spans: traced,
        recent_timelines: if traced { 1 << 14 } else { 16 },
        ..ServeConfig::default()
    }
}

fn run_phase(checkpoint: &Checkpoint, plan: &Plan, sched: &Schedule, traced: bool) -> Phase {
    let engine = ServeEngine::start(
        checkpoint.clone(),
        engine_config(traced),
        Arc::new(SystemClock::new()),
    )
    .expect("the fixed model's snapshot starts a serve engine");
    let client = engine.client();
    let budget_ns = (sched.budget_ms * 1e6) as u64;
    let n = sched.sends.len();
    let mut latency_ms = Vec::with_capacity(n);
    let mut lag_ms = Vec::with_capacity(n);
    let mut responses: Vec<Option<MatchResponse>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<MatchResponse>> = Vec::with_capacity(n);
    let mut dues: Vec<Instant> = Vec::with_capacity(n);
    let mut outstanding: VecDeque<usize> = VecDeque::new();

    let record = |slot: usize,
                  resp: MatchResponse,
                  responses: &mut Vec<Option<MatchResponse>>,
                  latency_ms: &mut Vec<f64>,
                  dues: &[Instant]| {
        latency_ms[slot] = dues[slot].elapsed().as_secs_f64() * 1e3;
        responses[slot] = Some(resp);
    };

    let t0 = Instant::now() + Duration::from_millis(5);
    for &(k, offset) in &sched.sends {
        let due = t0 + Duration::from_secs_f64(offset);
        // Until the send is due, collect replies as they arrive. The engine
        // answers in queue order, so waiting on the oldest is enough.
        loop {
            while let Some(&front) = outstanding.front() {
                match receivers[front].try_recv() {
                    Ok(resp) => {
                        record(front, resp, &mut responses, &mut latency_ms, &dues);
                        outstanding.pop_front();
                    }
                    Err(_) => break,
                }
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            match outstanding.front() {
                Some(&front) => match receivers[front].recv_timeout(due - now) {
                    Ok(resp) => {
                        record(front, resp, &mut responses, &mut latency_ms, &dues);
                        outstanding.pop_front();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        outstanding.pop_front();
                    }
                },
                None => std::thread::sleep(due - now),
            }
        }
        while sched.window.is_some_and(|w| outstanding.len() >= w) {
            let front = outstanding.pop_front().expect("a positive window");
            if let Ok(resp) = receivers[front].recv_timeout(Duration::from_secs(30)) {
                record(front, resp, &mut responses, &mut latency_ms, &dues);
            }
        }
        if sched.max_outstanding.is_some_and(|m| outstanding.len() > m) {
            break;
        }
        let (left, right) = plan.pair(k);
        lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        dues.push(due);
        receivers.push(client.submit(left, right, budget_ns));
        responses.push(None);
        latency_ms.push(f64::NAN);
        outstanding.push_back(receivers.len() - 1);
    }
    // Drain: every sent request must be answered.
    while let Some(front) = outstanding.pop_front() {
        if let Ok(resp) = receivers[front].recv_timeout(Duration::from_secs(30)) {
            record(front, resp, &mut responses, &mut latency_ms, &dues);
        }
    }
    let snapshot = engine.snapshot().expect("a live engine answers snapshots");
    let timelines = if traced {
        engine
            .timelines(usize::MAX)
            .expect("a live engine answers timeline queries")
    } else {
        Vec::new()
    };
    engine.shutdown();
    drop(client);

    // Exactly once: one reply per request, then the channel is closed.
    let mut duplicate_or_missing = responses.iter().filter(|r| r.is_none()).count();
    for rx in &receivers {
        if !matches!(rx.try_recv(), Err(TryRecvError::Disconnected)) {
            duplicate_or_missing += 1;
        }
    }
    let mut ids = HashSet::new();
    let responses: Vec<MatchResponse> = responses.into_iter().flatten().collect();
    duplicate_or_missing += responses.iter().filter(|r| !ids.insert(r.id)).count();
    let failed = responses
        .iter()
        .filter(|r| !matches!(r.outcome, MatchOutcome::Scored { .. }))
        .count() as u64
        + (receivers.len() - responses.len()) as u64;
    let sent: Vec<usize> = sched
        .sends
        .iter()
        .take(receivers.len())
        .map(|&(k, _)| k)
        .collect();
    Phase {
        latency_ms,
        lag_ms,
        responses,
        sent,
        failed,
        snapshot,
        timelines,
        duplicate_or_missing,
    }
}

fn prob(r: &MatchResponse) -> Option<f32> {
    match r.outcome {
        MatchOutcome::Scored { prob, .. } => Some(prob),
        _ => None,
    }
}

/// Re-scores every `CHECK_STRIDE`-th answer as a single pair
/// (each record encoded alone, one `score_encoded_pairs` call, same
/// orientation) and returns the largest deviation.
fn batch_invariance(fixed: &Fixed, plan: &Plan, phase: &Phase) -> f64 {
    let trained = &fixed.trained;
    let encode = |rec: &Record| -> Tensor {
        let ids = trained.pipeline.encode_single_record(rec);
        let g = Graph::new();
        let enc = trained
            .model
            .encode_records_standalone(&g, GraphStamp::next(), &[&ids[..]])
            .expect("EMBA has a split scoring path")
            .pop()
            .expect("one encoding per record");
        g.recycle();
        enc
    };
    let mut worst = 0.0f64;
    for (slot, resp) in phase.responses.iter().enumerate().step_by(CHECK_STRIDE) {
        let Some(served) = prob(resp) else { continue };
        let (left, right) = plan.pair(phase.sent[slot]);
        let (el, er) = (encode(left), encode(right));
        let g = Graph::new();
        let reference = trained
            .model
            .score_encoded_pairs(&g, GraphStamp::next(), &[(&el, &er)])
            .expect("EMBA has a split scoring path")[0];
        g.recycle();
        worst = worst.max((f64::from(served) - f64::from(reference)).abs());
    }
    worst
}

/// Checks one phase's answers: exactly once, batch invariance, and served
/// F1 against the plan's ground truth.
pub fn check_phase(name: &str, fixed: &Fixed, plan: &Plan, phase: &Phase, report: &mut Report) {
    report.check(phase.duplicate_or_missing == 0, || {
        format!(
            "serve {name}: {} requests not answered exactly once",
            phase.duplicate_or_missing
        )
    });
    if phase.duplicate_or_missing > 0 {
        return; // answers no longer line up with the requests sent
    }
    let worst = batch_invariance(fixed, plan, phase);
    report.check(worst <= INVARIANCE_TOL, || {
        format!(
            "serve {name}: a served probability differs from its single-pair score by {worst:.3e}"
        )
    });
    let (mut predicted, mut gold) = (Vec::new(), Vec::new());
    for (slot, resp) in phase.responses.iter().enumerate() {
        if let MatchOutcome::Scored { is_match, .. } = resp.outcome {
            predicted.push(is_match);
            gold.push(plan.is_match(phase.sent[slot]));
        }
    }
    let f1 = Counts::of(&predicted, &gold).f1();
    let baseline = stats::all_positive_f1(gold.iter().filter(|&&g| g).count(), gold.len());
    report.check(f1 >= baseline + F1_MARGIN, || {
        format!("serve {name}: served F1 {f1:.4} does not beat the all-positive baseline {baseline:.4} by {F1_MARGIN}")
    });
}

/// The fixed `low` and `high` phases.
pub fn fixed_phase(fixed: &Fixed, plan: &Plan, phase: (f64, usize), traced: bool) -> Phase {
    run_phase(
        &fixed.checkpoint,
        plan,
        &schedule(plan, &[phase], BUDGET_MS, None),
        traced,
    )
}

/// The closed-loop `saturated` phase and its answer rates: replies per
/// second over each run of [`RATE_SAMPLE`] consecutive replies, leaving out
/// the first and last window's worth while the pipeline fills and drains.
pub fn saturated_phase(fixed: &Fixed, plan: &Plan) -> (Phase, Vec<f64>) {
    let mut sched = schedule(plan, &[SATURATED], SATURATED_BUDGET_MS, None);
    sched.window = Some(SATURATION_WINDOW);
    let phase = run_phase(&fixed.checkpoint, plan, &sched, false);
    // Every send is due at the start, so a latency is the reply's time
    // since the start; replies come in queue order.
    let done = &phase.latency_ms;
    let end = done.len().saturating_sub(SATURATION_WINDOW);
    let rates = (SATURATION_WINDOW..end)
        .step_by(RATE_SAMPLE)
        .filter(|&a| a + RATE_SAMPLE <= end)
        .map(|a| RATE_SAMPLE as f64 / ((done[a + RATE_SAMPLE - 1] - done[a - 1]) / 1e3))
        .collect();
    (phase, rates)
}

/// Result of the ladder: the achieved answer rate of the highest step that
/// met the limit (NaN when none did), and the whole ladder's phase.
pub struct Ladder {
    pub max_rps: f64,
    pub phase: Phase,
}

/// Runs the ladder as one continuous schedule (no drain between steps, so
/// only the last step ends in a partial batch). Sending stops when the
/// backlog grows past [`LADDER_MAX_OUTSTANDING`]; each step that was sent
/// whole is judged by the p99 of the requests due within it, and the
/// result is the highest step that met the limit, so one step hit by a
/// passing stall does not end the climb.
pub fn ladder(fixed: &Fixed, plan: &Plan) -> Ladder {
    let steps: Vec<(f64, usize)> = (0..plan.ladder_steps())
        .map(|s| {
            (
                LADDER_START_RPS * LADDER_RATIO.powi(s as i32),
                STEP_REQUESTS,
            )
        })
        .collect();
    let sched = schedule(plan, &steps, LADDER_BUDGET_MS, Some(LADDER_MAX_OUTSTANDING));
    let phase = run_phase(&fixed.checkpoint, plan, &sched, false);
    let mut max_rps = f64::NAN;
    for step in 0..steps.len() {
        let range = step * STEP_REQUESTS..(step + 1) * STEP_REQUESTS;
        if phase.latency_ms.len() < range.end {
            break; // the backlog grew and sending stopped in this step
        }
        let p99 = stats::percentile(&phase.latency_ms[range.clone()], 0.99).expect("a full step");
        if p99 > P99_LIMIT_MS {
            continue;
        }
        let (mut first_due, mut last_done) = (f64::INFINITY, 0.0f64);
        for slot in range {
            let due = sched.sends[slot].1;
            first_due = first_due.min(due);
            last_done = last_done.max(due + phase.latency_ms[slot] / 1e3);
        }
        max_rps = STEP_REQUESTS as f64 / (last_done - first_due);
    }
    Ladder { max_rps, phase }
}

/// Exact p99, or NaN when fewer than ten samples lie beyond it.
pub fn p99_checked(values: &[f64]) -> f64 {
    if stats::beyond_p99(values.len()) >= 10 {
        stats::percentile(values, 0.99).unwrap_or(f64::NAN)
    } else {
        f64::NAN
    }
}

/// The untraced run: rounds of the `low` phase and the `saturated` phase.
/// The median `low` latency and the median `saturated` answer rate are the
/// serve figures steady enough on a shared host to gate; the traced run
/// measures `high`, the ladder and the tails (see README).
pub fn run(fixed: &Fixed, plan: &Plan, seconds: f64, report: &mut Report) {
    let start = Instant::now();
    let (mut low, mut rates, mut round_medians) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let phase = fixed_phase(fixed, plan, LOW, false);
        let (saturated, round_rates) = saturated_phase(fixed, plan);
        for (name, phase) in [("low", &phase), ("saturated", &saturated)] {
            check_phase(name, fixed, plan, phase, report);
            report.attempted += phase.sent.len() as u64;
            report.failed += phase.failed;
            if phase.failed > 0 {
                let outcomes: Vec<String> = phase
                    .responses
                    .iter()
                    .filter(|r| !matches!(r.outcome, MatchOutcome::Scored { .. }))
                    .map(|r| {
                        format!(
                            "{:?} after {:.1} ms",
                            r.outcome,
                            r.completed_ns.saturating_sub(r.enqueued_ns) as f64 / 1e6
                        )
                    })
                    .collect();
                eprintln!(
                    "perfbench serve: round {rounds} {name}: {} not scored: {outcomes:?}",
                    phase.failed
                );
            }
        }
        low.extend_from_slice(&phase.latency_ms);
        round_medians.push(stats::median(&round_rates));
        rates.extend(round_rates);
        rounds += 1;
    }
    report.metric("pairs_per_s", stats::median(&rates), "1/s");
    report.metric("latency_ms", stats::median(&low), "ms");
    eprintln!(
        "perfbench serve: {rounds} round(s), {} low samples, {} rate samples; \
         saturated answers/s per round {round_medians:.0?}",
        low.len(),
        rates.len()
    );
}
