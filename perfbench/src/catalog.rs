//! `catalog`: deduplicates an unseen seeded product catalog with
//! `match_catalog`, once on the `F32` backend and once on `Int8`. Blocking,
//! the encode-once cache and AOA pair scoring do the work; no backward
//! pass, no queue.

use std::collections::HashSet;
use std::time::Instant;

use emba_core::blocking::BlockingConfig;
use emba_core::{match_catalog, CatalogMatchConfig, CatalogMatchReport, ScoredPair};
use emba_datagen::{Catalog, Record};
use emba_tensor::{backend, BackendKind};

use crate::setup::{self, Fixed};
use crate::stats::{self, Counts};
use crate::Report;

/// Entities in the catalog (2–6 offers each: several thousand records).
pub const ENTITIES: usize = 1000;
/// Pairwise F1 must beat the all-candidates-match baseline by this much.
/// Blocking at `max_posting` 64 emits precise candidates, so that baseline
/// is strong (F1 0.63–0.69 over 25 seeds) and the fixed model beats it by
/// 0.047–0.073; the margin still fails a model that answers one class.
pub const F1_MARGIN: f64 = 0.02;
/// The fixed catalog of the `Int8` equivalence operation.
const EQUIV_SEED: u64 = 0xE0_1F8;
const EQUIV_ENTITIES: usize = 200;
/// Rounds every run times, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Largest |p_int8 − p_f32| allowed on any pair (DESIGN §6k).
pub const MAX_INT8_DP: f64 = 5e-3;

/// The catalog and its ground truth.
pub struct CatalogInput {
    pub catalog: Catalog,
    pub truth: HashSet<(usize, usize)>,
}

impl CatalogInput {
    pub fn build(seed: u64, fixed: &Fixed) -> Self {
        Self::with_catalog(
            setup::catalog(seed.wrapping_mul(5).wrapping_add(2), ENTITIES, 2, 6),
            fixed,
        )
    }

    /// The seed-independent catalog of the `Int8` equivalence operation.
    pub fn fixed_equivalence(fixed: &Fixed) -> Self {
        Self::with_catalog(setup::catalog(EQUIV_SEED, EQUIV_ENTITIES, 2, 6), fixed)
    }

    fn with_catalog(catalog: Catalog, fixed: &Fixed) -> Self {
        let truth = catalog.true_pairs().into_iter().collect();
        // Quantize the fixed model's weights once, up front, as a server
        // would at load time: one probe forward under the int8 backend.
        let _b = backend::install(BackendKind::Int8);
        let probe = Record::new(vec![("title", "warm-up probe")]);
        fixed.trained.predict(&probe, &probe);
        CatalogInput { catalog, truth }
    }
}

pub fn config(catalog: &Catalog, backend: BackendKind) -> CatalogMatchConfig {
    CatalogMatchConfig {
        blocking: blocking_config(),
        cache_capacity: 2 * catalog.len() + 1024,
        backend,
        ..CatalogMatchConfig::default()
    }
}

/// Blocking with stop keys above 64 postings. At the default 128 the
/// posting lengths of common tokens in a catalog this size sit near the
/// threshold, and the candidate count swings 2x between seeds (15k–35k);
/// at 64 it stays within a few percent (about 14k).
pub fn blocking_config() -> BlockingConfig {
    BlockingConfig {
        max_posting: 64,
        ..BlockingConfig::default()
    }
}

/// One timed `match_catalog` call.
pub struct Pass {
    pub scored: Vec<ScoredPair>,
    pub report: CatalogMatchReport,
    pub secs: f64,
    pub pairs_per_s: f64,
}

pub fn pass(fixed: &Fixed, input: &CatalogInput, backend: BackendKind) -> Pass {
    let cfg = config(&input.catalog, backend);
    let start = Instant::now();
    let (scored, report) = match_catalog(&fixed.trained, &input.catalog.records, &cfg);
    let secs = start.elapsed().as_secs_f64();
    Pass {
        pairs_per_s: scored.len() as f64 / secs,
        scored,
        report,
        secs,
    }
}

/// Share of true pairs among the candidates blocking emitted.
pub fn blocking_recall(input: &CatalogInput, p: &Pass) -> f64 {
    let hit = p
        .scored
        .iter()
        .filter(|s| input.truth.contains(&(s.i, s.j)))
        .count();
    hit as f64 / input.truth.len().max(1) as f64
}

/// Pairwise counts over the whole catalog at `threshold`: a true pair that
/// blocking never emitted is a false negative.
pub fn pair_counts(input: &CatalogInput, scored: &[ScoredPair], threshold: f32) -> Counts {
    let mut c = Counts::default();
    for s in scored.iter().filter(|s| s.prob >= threshold) {
        if input.truth.contains(&(s.i, s.j)) {
            c.tp += 1;
        } else {
            c.fp += 1;
        }
    }
    c.fn_ = input.truth.len() - c.tp;
    c
}

/// Checks the `F32` and `Int8` passes against ground truth and (when
/// given) the first round.
pub fn check(
    input: &CatalogInput,
    f32p: &Pass,
    int8: &Pass,
    first: Option<&Pass>,
    report: &mut Report,
) {
    let threshold = config(&input.catalog, BackendKind::F32).threshold;
    let in_candidates = f32p
        .scored
        .iter()
        .filter(|s| input.truth.contains(&(s.i, s.j)))
        .count();
    let baseline = Counts {
        tp: in_candidates,
        fp: f32p.scored.len() - in_candidates,
        fn_: input.truth.len() - in_candidates,
    }
    .f1();
    for (label, p) in [("F32", f32p), ("Int8", int8)] {
        let f1 = pair_counts(input, &p.scored, threshold).f1();
        report.check(f1 >= baseline + F1_MARGIN, || {
            format!(
                "catalog {label} pair F1 {f1:.4} does not beat the all-candidates baseline \
                 {baseline:.4} by {F1_MARGIN}"
            )
        });
        report.check(p.report.scored_pairs == p.scored.len(), || {
            format!(
                "catalog {label} report counts {} scored pairs, returned {}",
                p.report.scored_pairs,
                p.scored.len()
            )
        });
    }
    if let Some(first) = first {
        let same = first.scored.len() == f32p.scored.len()
            && first
                .scored
                .iter()
                .zip(&f32p.scored)
                .all(|(a, b)| (a.i, a.j) == (b.i, b.j) && a.prob.to_bits() == b.prob.to_bits());
        report.check(same, || {
            "two identical catalog rounds scored differently".into()
        });
    }
}

/// `Int8` against `F32` on every pair: the largest |Δp|, and the decision
/// flips whose `F32` probability lies farther than [`MAX_INT8_DP`] from the
/// threshold. `None` when the passes scored different pairs.
pub fn int8_deviation(f32p: &Pass, int8: &Pass, threshold: f32) -> Option<(f64, usize)> {
    let same_pairs = f32p.scored.len() == int8.scored.len()
        && f32p
            .scored
            .iter()
            .zip(&int8.scored)
            .all(|(a, b)| (a.i, a.j) == (b.i, b.j));
    if !same_pairs {
        return None;
    }
    let mut max_dp = 0.0f64;
    let mut far_flips = 0usize;
    for (a, b) in f32p.scored.iter().zip(&int8.scored) {
        max_dp = max_dp.max((f64::from(a.prob) - f64::from(b.prob)).abs());
        let flipped = (a.prob >= threshold) != (b.prob >= threshold);
        if flipped && (f64::from(a.prob) - f64::from(threshold)).abs() > MAX_INT8_DP {
            far_flips += 1;
        }
    }
    Some((max_dp, far_flips))
}

/// The `Int8`-vs-`F32` differential on the fixed, seed-independent
/// catalog: one operation per round, failed when the bound does not hold.
/// It does not hold for the fixed model (see README), so every round
/// counts one failed operation; the same check on the seeded catalog is
/// reported by the traced run instead of gated, because whether it fails
/// there depends on the seed.
fn int8_equivalence(fixed: &Fixed, equiv: &CatalogInput) -> bool {
    let f32p = pass(fixed, equiv, BackendKind::F32);
    let int8 = pass(fixed, equiv, BackendKind::Int8);
    let threshold = config(&equiv.catalog, BackendKind::F32).threshold;
    matches!(int8_deviation(&f32p, &int8, threshold), Some((dp, 0)) if dp <= MAX_INT8_DP)
}

pub fn run(
    fixed: &Fixed,
    input: &CatalogInput,
    equiv: &CatalogInput,
    seconds: f64,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut first: Option<Pass> = None;
    let (mut f32_rates, mut int8_ms) = (Vec::new(), Vec::new());
    // A pass times one whole `match_catalog` call, and the time of one pass
    // varies by about a tenth on a shared host, so every run takes the
    // median of at least three rounds.
    while f32_rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let f32p = pass(fixed, input, BackendKind::F32);
        let int8 = pass(fixed, input, BackendKind::Int8);
        check(input, &f32p, &int8, first.as_ref(), report);
        report.attempted += 3;
        if !int8_equivalence(fixed, equiv) {
            report.failed += 1;
        }
        f32_rates.push(f32p.pairs_per_s);
        int8_ms.push(int8.secs * 1e3);
        first.get_or_insert(f32p);
    }
    eprintln!(
        "perfbench catalog: {} scored pairs; F32 pairs/s {f32_rates:.0?}; Int8 ms {int8_ms:.0?}",
        first.as_ref().map_or(0, |p| p.scored.len())
    );
    // Scored pairs per second on `F32`; the time to deduplicate the whole
    // catalog on `Int8`, the backend a deployment would serve.
    report.metric("pairs_per_s", stats::median(&f32_rates), "1/s");
    report.metric("latency_ms", stats::median(&int8_ms), "ms");
}
