//! `finetune`: fine-tunes the fixed model for a fixed number of epochs on a
//! seeded labelled product split, then predicts the whole split with
//! `predict_batch`, one batch of [`PREDICT_BATCH`] pairs per call. The only
//! workload with backward passes and Adam; no blocking, caching or
//! queueing.

use std::time::Instant;

use emba_core::{train_matcher_observed, EncodedExample, TrainConfig, TrainReport, TrainedMatcher};
use emba_datagen::{Dataset, Record};
use emba_trace::{StepRecord, TrainObserver};

use crate::setup::{self, Fixed};
use crate::stats::{self, Counts};
use crate::Report;

/// Entities behind the fine-tuning split (at most the fixed model's class
/// count, so every entity label fits its auxiliary heads).
const ENTITIES: usize = 64;
/// Epochs per round; patience equals it, so every round does the same work.
pub const EPOCHS: usize = 2;
/// Test F1 must beat the all-positive baseline by this much.
pub const F1_MARGIN: f64 = 0.05;
/// Pairs per `predict_batch` call (the serve engine's batch bound).
pub const PREDICT_BATCH: usize = 32;

/// The labelled split, raw and encoded with the fixed model's pipeline.
pub struct Split {
    data: Dataset,
    train: Vec<EncodedExample>,
    valid: Vec<EncodedExample>,
    test: Vec<EncodedExample>,
    train_seed: u64,
}

impl Split {
    pub fn build(seed: u64, fixed: &Fixed) -> Self {
        let data = setup::labelled_split(seed.wrapping_mul(3).wrapping_add(1), ENTITIES);
        let pipeline = &fixed.trained.pipeline;
        Split {
            train: pipeline.encode_split(&data.train),
            valid: pipeline.encode_split(&data.valid),
            test: pipeline.encode_split(&data.test),
            data,
            train_seed: seed,
        }
    }

    fn all_pairs(&self) -> Vec<(&Record, &Record)> {
        self.data.all_pairs().map(|p| (&p.left, &p.right)).collect()
    }
}

/// Times the training loop from outside: epoch boundaries and per-step
/// wall time as the observer reports them.
#[derive(Default)]
pub struct Timing {
    epoch_start: Option<Instant>,
    pub epoch_secs: f64,
    pub examples: usize,
    pub step_ms: Vec<f64>,
    /// Examples per second of each step.
    pub step_rates: Vec<f64>,
}

impl TrainObserver for Timing {
    fn on_epoch_start(&mut self, _epoch: usize) {
        self.epoch_start = Some(Instant::now());
    }

    fn on_step(&mut self, record: &StepRecord) {
        self.examples += record.examples;
        self.step_ms.push(record.wall_ms);
        self.step_rates
            .push(record.examples as f64 / (record.wall_ms / 1e3));
    }

    fn on_epoch_end(&mut self, _epoch: usize, _mean_loss: f64) {
        if let Some(start) = self.epoch_start.take() {
            self.epoch_secs += start.elapsed().as_secs_f64();
        }
    }
}

/// What one round measured.
pub struct Round {
    pub timing: Timing,
    pub train_pairs_per_s: f64,
    /// Wall time of each full [`PREDICT_BATCH`]-pair `predict_batch` call.
    pub predict_ms: Vec<f64>,
    pub probs: Vec<f64>,
    pub test_f1: f64,
    pub report: TrainReport,
}

/// One round: restore the fixed model, fine-tune `EPOCHS` epochs, predict
/// the whole split in batches of [`PREDICT_BATCH`] pairs.
pub fn round(fixed: &Fixed, split: &Split) -> Round {
    let mut trained: TrainedMatcher = fixed
        .checkpoint
        .restore()
        .expect("the fixed model's own snapshot restores");
    let cfg = TrainConfig {
        epochs: EPOCHS,
        patience: EPOCHS,
        seed: split.train_seed,
        ..setup::experiment_config().train
    };
    let mut timing = Timing::default();
    let report = train_matcher_observed(
        trained.model.as_mut(),
        &split.train,
        &split.valid,
        &split.test,
        &cfg,
        &mut timing,
    );
    let pairs = split.all_pairs();
    let mut probs = Vec::with_capacity(pairs.len());
    let mut predict_ms = Vec::with_capacity(pairs.len() / PREDICT_BATCH);
    for batch in pairs.chunks(PREDICT_BATCH) {
        let start = Instant::now();
        let predictions = trained.predict_batch(batch);
        if batch.len() == PREDICT_BATCH {
            predict_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        probs.extend(predictions.iter().map(|p| p.prob));
    }

    // Test F1 by direct counting over the test tail of the split.
    let test_from = pairs.len() - split.data.test.len();
    let predicted: Vec<bool> = probs[test_from..].iter().map(|&p| p > 0.5).collect();
    let gold: Vec<bool> = split.data.test.iter().map(|p| p.is_match).collect();
    let test_f1 = Counts::of(&predicted, &gold).f1();
    Round {
        train_pairs_per_s: timing.examples as f64 / timing.epoch_secs,
        predict_ms,
        timing,
        probs,
        test_f1,
        report,
    }
}

/// Checks one round's outputs against the labels and the first round.
pub fn check_round(split: &Split, r: &Round, first: Option<&Round>, report: &mut Report) {
    let positives = split.data.test.iter().filter(|p| p.is_match).count();
    let baseline = stats::all_positive_f1(positives, split.data.test.len());
    report.check(r.test_f1 >= baseline + F1_MARGIN, || {
        format!(
            "finetune test F1 {:.4} does not beat the all-positive baseline {baseline:.4} by {F1_MARGIN}",
            r.test_f1
        )
    });
    report.check(r.report.epochs_run == EPOCHS, || {
        format!(
            "fine-tuning ran {} epochs, not {EPOCHS}",
            r.report.epochs_run
        )
    });
    report.check(r.timing.examples == EPOCHS * split.train.len(), || {
        format!(
            "fine-tuning processed {} examples, not {}",
            r.timing.examples,
            EPOCHS * split.train.len()
        )
    });
    if let Some(first) = first {
        let same = r
            .probs
            .iter()
            .zip(&first.probs)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(same, || {
            "two identical fine-tuning rounds predicted differently".into()
        });
    }
}

pub fn run(fixed: &Fixed, split: &Split, seconds: f64, report: &mut Report) {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let r = round(fixed, split);
        check_round(split, &r, rounds.first(), report);
        report.attempted += 2; // the fine-tuning and the prediction
        rounds.push(r);
    }
    // Medians over every step and every prediction batch of the run, so
    // that a passing stall of the host moves few samples.
    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.timing.step_rates.iter().copied())
        .collect();
    let predict: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.predict_ms.iter().copied())
        .collect();
    report.metric("pairs_per_s", stats::median(&steps), "1/s");
    report.metric("latency_ms", stats::median(&predict), "ms");
}
