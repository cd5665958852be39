//! End-to-end and per-layer benchmark of one trained EMBA (SB) matcher.
//!
//! ```text
//! perfbench --workload <finetune|catalog|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up trains the fixed model from fixed seeds (three times, checking
//! the three snapshots are bit-identical, and reports the median as
//! `setup_s`); the seed only shapes the generated inputs. With `--trace 0`
//! the named workload runs whole rounds until `--seconds` have passed and
//! the last stdout line carries every end-to-end metric. With `--trace 1`
//! the per-layer metrics are measured instead (see `layers.rs`). Every run
//! checks its outputs against ground truth and the method's properties and
//! exits non-zero when a check fails. See README.md.

mod catalog;
mod finetune;
mod layers;
mod serve;
mod setup;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The workloads, each loading a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Finetune,
    Catalog,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "finetune" => Some(Workload::Finetune),
            "catalog" => Some(Workload::Catalog),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }
}

/// Metrics, operation counts and check failures of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a correctness check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <finetune|catalog|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();

    // Set-up, repeated: train the fixed model and build the workload's
    // inputs. Training is deterministic, so every repetition must produce
    // the same parameters.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut first_snapshot = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fixed = setup::train_fixed();
        let inputs = Inputs::build(args.workload, args.seed, args.trace, &fixed);
        setup_secs.push(start.elapsed().as_secs_f64());
        match &first_snapshot {
            None => first_snapshot = Some(fixed.checkpoint.clone()),
            Some(first) => report.check(setup::same_params(first, &fixed.checkpoint), || {
                "two set-ups from the same seeds trained different parameters".into()
            }),
        }
        prepared = Some((fixed, inputs));
    }
    let (fixed, inputs) = prepared.expect("at least one set-up");
    let setup_s = stats::median(&setup_secs);

    if args.trace {
        layers::run(&fixed, &inputs, args.workload, &mut report);
    } else {
        const BUILT: &str = "set-up builds the named workload's inputs";
        match args.workload {
            Workload::Finetune => finetune::run(
                &fixed,
                inputs.finetune.as_ref().expect(BUILT),
                args.seconds,
                &mut report,
            ),
            Workload::Catalog => catalog::run(
                &fixed,
                inputs.catalog.as_ref().expect(BUILT),
                inputs.equivalence.as_ref().expect(BUILT),
                args.seconds,
                &mut report,
            ),
            Workload::Serve => serve::run(
                &fixed,
                inputs.serve.as_ref().expect(BUILT),
                args.seconds,
                &mut report,
            ),
        }
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "peak_rss_mb",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        );
    }

    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

/// The generated inputs: those of the named workload, or of every
/// workload for a traced run.
#[derive(Default)]
pub struct Inputs {
    pub finetune: Option<finetune::Split>,
    pub catalog: Option<catalog::CatalogInput>,
    /// The seed-independent catalog of the `Int8` equivalence operation.
    pub equivalence: Option<catalog::CatalogInput>,
    pub serve: Option<serve::Plan>,
}

impl Inputs {
    fn build(workload: Workload, seed: u64, trace: bool, fixed: &setup::Fixed) -> Self {
        let wants = |w: Workload| trace || workload == w;
        Inputs {
            finetune: wants(Workload::Finetune).then(|| finetune::Split::build(seed, fixed)),
            catalog: wants(Workload::Catalog).then(|| catalog::CatalogInput::build(seed, fixed)),
            equivalence: (workload == Workload::Catalog && !trace)
                .then(|| catalog::CatalogInput::fixed_equivalence(fixed)),
            serve: wants(Workload::Serve).then(|| serve::Plan::build(seed)),
        }
    }
}
