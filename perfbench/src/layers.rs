//! The traced run (`--trace 1`): per-layer metrics, measured from outside
//! by timing calls into each layer's public functions and by reading the
//! reports the program already returns (`prof::report`,
//! `CatalogMatchReport`, `ServerSnapshot`, `FlushTimeline`).
//!
//! It runs one round of every workload with `emba_tensor::prof` enabled
//! (and the serve engine with `trace_spans` and `profile` on), so every
//! per-layer metric is written whichever workload is named, between two
//! untraced rounds of the named workload. `trace.overhead_pct` compares
//! the named workload's headline number between the traced round and the
//! mean of the untraced ones.

use std::time::Instant;

use emba_core::batching::plan_sub_batches;
use emba_core::blocking::BlockingIndex;
use emba_nn::GraphStamp;
use emba_serve::MatchOutcome;
use emba_tensor::prof::{self, ProfReport};
use emba_tensor::{kernels, quant, BackendKind, Graph, QuantizedMatrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{self, CatalogInput};
use crate::finetune::{self, Split};
use crate::serve::{self, Plan};
use crate::setup::Fixed;
use crate::stats;
use crate::{Inputs, Report, Workload};

/// Token rows of one SB encode batch (8 sequences of 40 tokens).
const ROWS: usize = 320;
/// SB widths: hidden, feed-forward, head.
const HIDDEN: usize = 64;
const FF: usize = 128;
const HEAD: usize = 16;
/// Sequence length of the per-head score product.
const SEQ: usize = 40;

/// Tape ops reported by self time, forward and backward.
const OPS: &[&str] = &[
    "linear",
    "linear_bias_gelu",
    "attention_scores_grouped",
    "matmul_grouped",
    "layer_norm",
    "dropout",
    "softmax_rows_grouped",
    "embedding",
];

pub fn run(fixed: &Fixed, inputs: &Inputs, workload: Workload, report: &mut Report) {
    const BUILT: &str = "a traced run builds every workload's inputs";
    let split = inputs.finetune.as_ref().expect(BUILT);
    let cat = inputs.catalog.as_ref().expect(BUILT);
    let plan = inputs.serve.as_ref().expect(BUILT);
    // Untraced rounds before and after the traced ones, so that warm-up and
    // drifts of the host do not all land on one side of the comparison.
    let untraced_before = headline(fixed, split, cat, plan, workload, report);

    kernel_metrics(report);
    prof::reset();
    prof::enable(true);
    let ft = finetune::round(fixed, split);
    let ft_prof = prof::report();
    prof::reset();
    let cat_f32 = catalog::pass(fixed, cat, BackendKind::F32);
    let cat_int8 = catalog::pass(fixed, cat, BackendKind::Int8);
    let cat_prof = prof::report();
    prof::enable(false);
    prof::reset();
    finetune::check_round(split, &ft, None, report);
    catalog::check(cat, &cat_f32, &cat_int8, None, report);
    let low = serve::fixed_phase(fixed, plan, serve::LOW, true);
    let high = serve::fixed_phase(fixed, plan, serve::HIGH, true);
    for (name, phase) in [("low", &low), ("high", &high)] {
        serve::check_phase(name, fixed, plan, phase, report);
        report.attempted += phase.sent.len() as u64;
        report.failed += phase.failed;
    }
    report.attempted += 4;

    // --- tensor: ops and phases from the traced fine-tuning round ---
    for &op in OPS {
        for (dir, backward) in [("fwd", false), ("bwd", true)] {
            report.metric(
                format!("op.{op}.{dir}_ms"),
                op_ms(&ft_prof, op, backward),
                "ms",
            );
        }
    }
    for op in ["linear_q8", "linear_q8_gelu"] {
        report.metric(format!("op.{op}.fwd_ms"), op_ms(&cat_prof, op, false), "ms");
    }
    // --- nn: inference phases (the predict pass of the round) ---
    for name in ["bert", "layer", "attention", "ffn"] {
        report.metric(
            format!("phase.{name}_ms"),
            phase_ms(&ft_prof, "predict", name),
            "ms",
        );
    }
    // --- core::train ---
    report.metric("train.step_ms", stats::median(&ft.timing.step_ms), "ms");
    for name in ["forward", "backward", "optim"] {
        report.metric(
            format!("train.{name}_ms"),
            phase_ms(&ft_prof, "train", name),
            "ms",
        );
    }
    report.metric("quality.test_f1", ft.test_f1, "ratio");

    // --- tokenizer, blocking, encode, score ---
    layer_metrics(fixed, cat, plan, report);
    report.metric(
        "blocking.recall",
        catalog::blocking_recall(cat, &cat_f32),
        "ratio",
    );
    let threshold = catalog::config(&cat.catalog, BackendKind::F32).threshold;
    let (max_dp, far_flips) =
        catalog::int8_deviation(&cat_f32, &cat_int8, threshold).unwrap_or((f64::NAN, usize::MAX));
    report.metric("int8.max_dp", max_dp, "ratio");
    report.metric("int8.far_flips", far_flips as f64, "count");

    // --- core::catalog and its cache ---
    let r = &cat_f32.report;
    report.metric("catalog.blocking_s", r.blocking_secs, "s");
    report.metric("catalog.tokenize_s", r.tokenize_secs, "s");
    report.metric("catalog.encode_s", r.encode_secs, "s");
    report.metric("catalog.score_s", r.score_secs, "s");
    report.metric(
        "catalog.stage_coverage",
        (r.blocking_secs + r.tokenize_secs + r.encode_secs + r.score_secs) / r.total_secs,
        "ratio",
    );
    report.metric("enc_cache.catalog.hit_rate", r.cache_hit_rate, "ratio");
    report.metric(
        "enc_cache.catalog.encodes_per_pair",
        r.encodes_per_pair,
        "ratio",
    );
    report.metric(
        "quality.catalog_pair_f1",
        catalog::pair_counts(cat, &cat_f32.scored, threshold).f1(),
        "ratio",
    );

    // --- serve ---
    let waits: Vec<f64> = low
        .responses
        .iter()
        .map(|r| r.completed_ns.saturating_sub(r.enqueued_ns) as f64 / 1e6)
        .collect();
    report.metric("serve.queue_wait_ms.p50", stats::median(&waits), "ms");
    report.metric(
        "serve.queue_wait_ms.p99",
        stats::percentile(&waits, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    let scored: Vec<usize> = high
        .responses
        .iter()
        .filter(|r| matches!(r.outcome, MatchOutcome::Scored { .. }))
        .map(|r| r.batch_size)
        .collect();
    // Each flush of size b answers b requests, so Σ 1/b counts flushes.
    let flushes: f64 = scored.iter().map(|&b| 1.0 / b as f64).sum();
    report.metric("serve.flushes", flushes.round(), "count");
    report.metric(
        "serve.batch_size.mean",
        scored.len() as f64 / flushes,
        "count",
    );
    report.check(flushes.round() as u64 == high.snapshot.flushes, || {
        format!(
            "serve: replies imply {} flushes, the engine reports {}",
            flushes.round(),
            high.snapshot.flushes
        )
    });
    let span_ms = |kind: emba_trace::SpanKind| -> f64 {
        let per_flush: Vec<f64> = high
            .timelines
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.dur_ns)
                    .sum::<u64>() as f64
                    / 1e6
            })
            .collect();
        per_flush.iter().sum::<f64>() / per_flush.len().max(1) as f64
    };
    report.metric(
        "serve.flush_encode_ms",
        span_ms(emba_trace::SpanKind::Encode),
        "ms",
    );
    report.metric(
        "serve.flush_score_ms",
        span_ms(emba_trace::SpanKind::Score),
        "ms",
    );
    report.metric("serve.encodes", high.snapshot.encodes as f64, "count");
    let s = &high.snapshot;
    report.metric("enc_cache.serve.hit_rate", s.cache_hit_rate, "ratio");
    report.metric(
        "enc_cache.serve.encodes_per_pair",
        s.encodes as f64 / s.scored.max(1) as f64,
        "ratio",
    );
    let lags: Vec<f64> = low.lag_ms.iter().chain(&high.lag_ms).copied().collect();
    report.metric(
        "serve.generator_lag_ms",
        stats::percentile(&lags, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    // The rate ladder, untraced: its answer rate is an end-to-end figure
    // too noisy on a shared host to gate (see README).
    let ladder = serve::ladder(fixed, plan);
    serve::check_phase("ladder", fixed, plan, &ladder.phase, report);
    report.attempted += ladder.phase.sent.len() as u64;
    report.failed += ladder.phase.failed;
    report.metric("serve.max_rps", ladder.max_rps, "1/s");
    report.metric(
        "serve.low_p99_ms",
        serve::p99_checked(&low.latency_ms),
        "ms",
    );
    report.metric("serve.high_p50_ms", stats::median(&high.latency_ms), "ms");
    report.metric(
        "serve.high_p99_ms",
        serve::p99_checked(&high.latency_ms),
        "ms",
    );
    report.metric("serve.samples.low", low.latency_ms.len() as f64, "count");
    report.metric("serve.samples.high", high.latency_ms.len() as f64, "count");

    // --- tracing overhead on the named workload's headline number ---
    let untraced = (untraced_before + headline(fixed, split, cat, plan, workload, report)) / 2.0;
    let traced = match workload {
        Workload::Finetune => ft.train_pairs_per_s,
        Workload::Catalog => cat_f32.pairs_per_s,
        Workload::Serve => stats::median(&high.latency_ms),
    };
    let overhead = match workload {
        Workload::Serve => traced / untraced - 1.0,
        _ => untraced / traced - 1.0,
    };
    report.metric("trace.overhead_pct", 100.0 * overhead, "%");
}

/// The named workload's headline number from one untraced round: training
/// examples per second, `F32` catalog pairs per second, or the `high`
/// phase's median latency.
fn headline(
    fixed: &Fixed,
    split: &Split,
    cat: &CatalogInput,
    plan: &Plan,
    workload: Workload,
    report: &mut Report,
) -> f64 {
    match workload {
        Workload::Finetune => {
            report.attempted += 2;
            finetune::round(fixed, split).train_pairs_per_s
        }
        Workload::Catalog => {
            report.attempted += 1;
            catalog::pass(fixed, cat, BackendKind::F32).pairs_per_s
        }
        Workload::Serve => {
            let phase = serve::fixed_phase(fixed, plan, serve::HIGH, false);
            report.attempted += phase.sent.len() as u64;
            report.failed += phase.failed;
            stats::median(&phase.latency_ms)
        }
    }
}

/// Σ self time of `op` in one direction, over every scope path, ms.
fn op_ms(report: &ProfReport, op: &str, backward: bool) -> f64 {
    report
        .ops
        .iter()
        .filter(|o| o.op == op && o.backward == backward)
        .map(|o| o.self_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Σ wall time of phases named `name` under a path that contains `under`.
fn phase_ms(report: &ProfReport, under: &str, name: &str) -> f64 {
    report
        .phases
        .iter()
        .filter(|p| {
            let mut segs = p.path.split('/');
            p.path.rsplit('/').next() == Some(name) && segs.any(|s| s == under)
        })
        .map(|p| p.total_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Runs `f` repeatedly for at least `min_secs` (after one warm-up call) and
/// returns the median seconds per call over five such samples.
fn time_per_call(min_secs: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&samples)
}

fn random(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// FMA peak and GEMM / int8 GEMM rates at the SB shapes.
fn kernel_metrics(report: &mut Report) {
    // Peak: 8 independent 8-lane FMA chains the compiler vectorizes.
    const LANES: usize = 64;
    const STEPS: usize = 1 << 14;
    let mut acc = [1.0f32; LANES];
    let mul = std::hint::black_box([0.999_99f32; LANES]);
    let add = std::hint::black_box([1e-6f32; LANES]);
    let secs = time_per_call(0.02, || {
        for _ in 0..STEPS {
            for l in 0..LANES {
                acc[l] = acc[l].mul_add(mul[l], add[l]);
            }
        }
        std::hint::black_box(&mut acc);
    });
    report.metric(
        "tensor.fma_peak_gflops",
        2.0 * (LANES * STEPS) as f64 / secs / 1e9,
        "GFLOP/s",
    );

    let mut rng = StdRng::seed_from_u64(42);
    let shapes: [(&str, usize, usize, usize); 3] = [
        ("qkv", ROWS, HIDDEN, HIDDEN),
        ("ffn_up", ROWS, HIDDEN, FF),
        ("ffn_down", ROWS, FF, HIDDEN),
    ];
    for (name, m, k, n) in shapes {
        let (a, b) = (random(&mut rng, m * k), random(&mut rng, k * n));
        let mut out = vec![0.0f32; m * n];
        let secs = time_per_call(0.02, || {
            kernels::gemm_nn(m, k, n, &a, &b, &mut out);
            std::hint::black_box(&out);
        });
        report.metric(
            format!("tensor.gemm_gflops.{name}"),
            2.0 * (m * k * n) as f64 / secs / 1e9,
            "GFLOP/s",
        );
    }
    // Per-head scores Q·Kᵀ of one sequence.
    let (q, kk) = (random(&mut rng, SEQ * HEAD), random(&mut rng, SEQ * HEAD));
    let mut out = vec![0.0f32; SEQ * SEQ];
    let secs = time_per_call(0.02, || {
        kernels::gemm_nt(SEQ, HEAD, SEQ, &q, &kk, &mut out);
        std::hint::black_box(&out);
    });
    report.metric(
        "tensor.gemm_gflops.scores",
        2.0 * (SEQ * HEAD * SEQ) as f64 / secs / 1e9,
        "GFLOP/s",
    );

    // Int8 linear at the ffn_up shape.
    let x = Tensor::from_vec(ROWS, HIDDEN, random(&mut rng, ROWS * HIDDEN));
    let w = QuantizedMatrix::quantize(&Tensor::from_vec(HIDDEN, FF, random(&mut rng, HIDDEN * FF)));
    let bias = Tensor::zeros(1, FF);
    let secs = time_per_call(0.02, || {
        std::hint::black_box(quant::linear_q8_forward(&x, &w, &bias, false));
    });
    report.metric(
        "tensor.int8_gemm_gops",
        2.0 * (ROWS * HIDDEN * FF) as f64 / secs / 1e9,
        "GOP/s",
    );
}

/// Tokenizer, blocking, standalone encode and pair-score rates, each timed
/// around one public call path of its layer.
fn layer_metrics(fixed: &Fixed, cat: &CatalogInput, plan: &Plan, report: &mut Report) {
    let trained = &fixed.trained;
    let records = &cat.catalog.records;

    let start = Instant::now();
    let ids: Vec<Vec<usize>> = plan
        .offers()
        .iter()
        .map(|r| trained.pipeline.encode_single_record(r))
        .collect();
    report.metric(
        "tokenizer.records_per_s",
        ids.len() as f64 / start.elapsed().as_secs_f64(),
        "1/s",
    );

    let cfg = catalog::blocking_config();
    let start = Instant::now();
    let index = BlockingIndex::build(records, &cfg);
    report.metric(
        "blocking.build_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let candidates = index.candidates(&cfg);
    report.metric("blocking.candidates", candidates.len() as f64, "count");

    // Encode the catalog's records standalone, length-bucketed as the
    // catalog path does.
    let cat_ids: Vec<Vec<usize>> = records
        .iter()
        .map(|r| trained.pipeline.encode_single_record(r))
        .collect();
    let lens: Vec<usize> = cat_ids.iter().map(Vec::len).collect();
    let mut encs: Vec<Option<Tensor>> = vec![None; cat_ids.len()];
    let start = Instant::now();
    for chunk in (0..cat_ids.len()).collect::<Vec<_>>().chunks(256) {
        let chunk_lens: Vec<usize> = chunk.iter().map(|&i| lens[i]).collect();
        for sub in plan_sub_batches(&chunk_lens) {
            let recs: Vec<&[usize]> = sub.iter().map(|&k| &cat_ids[chunk[k]][..]).collect();
            let g = Graph::new();
            let out = trained
                .model
                .encode_records_standalone(&g, GraphStamp::next(), &recs)
                .expect("EMBA has a split scoring path");
            g.recycle();
            for (enc, &k) in out.into_iter().zip(&sub) {
                encs[chunk[k]] = Some(enc);
            }
        }
    }
    report.metric(
        "encode.records_per_s",
        cat_ids.len() as f64 / start.elapsed().as_secs_f64(),
        "1/s",
    );

    // Score every blocked candidate pair from those encodings.
    let start = Instant::now();
    for window in candidates.chunks(256) {
        let pair_lens: Vec<usize> = window.iter().map(|&(i, j)| lens[i] + lens[j]).collect();
        for sub in plan_sub_batches(&pair_lens) {
            let pairs: Vec<(&Tensor, &Tensor)> = sub
                .iter()
                .map(|&k| {
                    let (i, j) = window[k];
                    (
                        encs[i].as_ref().expect("encoded"),
                        encs[j].as_ref().expect("encoded"),
                    )
                })
                .collect();
            let g = Graph::new();
            std::hint::black_box(
                trained
                    .model
                    .score_encoded_pairs(&g, GraphStamp::next(), &pairs)
                    .expect("EMBA has a split scoring path"),
            );
            g.recycle();
        }
    }
    report.metric(
        "score.pairs_per_s",
        candidates.len() as f64 / start.elapsed().as_secs_f64(),
        "1/s",
    );
}
