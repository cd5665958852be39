//! Set-up shared by every workload: the labelled-split generator and the
//! one fixed model (EMBA with the SB backbone) every workload serves.

use std::collections::HashSet;

use emba_core::{
    train_single, Checkpoint, ExperimentConfig, ModelKind, TrainConfig, TrainedMatcher,
    DEFAULT_DROPOUT,
};
use emba_datagen::{product_catalog, Catalog, CatalogSpec, Dataset, PairExample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed model's architecture.
const KIND: ModelKind = ModelKind::EmbaSb;
/// Entities behind the fixed model's training data.
const FIXED_ENTITIES: usize = 64;
/// Seed of the fixed model's training data.
const FIXED_DATA_SEED: u64 = 7;
/// Seed of the fixed model's initialization, shuffling and dropout.
const FIXED_TRAIN_SEED: u64 = 1000;

/// Settings the fixed model is trained with. Fine-tuning rounds reuse the
/// trainer settings with their own epoch count.
pub fn experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        vocab_size: 1024,
        max_len: 40,
        train: TrainConfig {
            epochs: 4,
            lr: 1.5e-3,
            batch_size: 8,
            warmup_epochs: 1,
            patience: 4,
            clip_norm: 1.0,
            seed: FIXED_TRAIN_SEED,
            nan_guard: false,
        },
        mlm_epochs: 0,
        mlm_lr: 5e-4,
        runs: 1,
        dropout: DEFAULT_DROPOUT,
    }
}

/// The trained model every workload serves, plus its snapshot (the serve
/// engine and the fine-tuning rounds start from the snapshot).
pub struct Fixed {
    pub trained: TrainedMatcher,
    pub checkpoint: Checkpoint,
}

/// Trains the fixed model from its fixed seeds.
pub fn train_fixed() -> Fixed {
    let ds = labelled_split(FIXED_DATA_SEED, FIXED_ENTITIES);
    let (trained, _) = train_single(KIND, &ds, &experiment_config(), FIXED_TRAIN_SEED);
    let checkpoint = Checkpoint::capture(&trained, KIND, ds.num_classes);
    Fixed {
        trained,
        checkpoint,
    }
}

/// Whether two snapshots hold bit-identical parameters.
pub fn same_params(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.params.len() == b.params.len()
        && a.params.iter().zip(&b.params).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// A product catalog with known entity clusters.
pub fn catalog(seed: u64, entities: usize, min_offers: usize, max_offers: usize) -> Catalog {
    product_catalog(&CatalogSpec {
        name: format!("perfbench-{seed}"),
        entities,
        min_offers,
        max_offers,
        seed,
    })
}

/// Lowercase whitespace tokens of each record's text.
fn token_sets(catalog: &Catalog) -> Vec<HashSet<String>> {
    catalog
        .records
        .iter()
        .map(|r| {
            r.text()
                .to_lowercase()
                .split_whitespace()
                .map(str::to_string)
                .collect()
        })
        .collect()
}

/// A labelled product split drawn from a seeded catalog of `entities`
/// entities: every second true pair as a positive, and two negatives per
/// positive, each a cross-entity pair that shares at least two tokens (the
/// kind of pair blocking lets through), so the split is neither trivially
/// separable nor tied to the program's own blocking code. Shuffled and cut
/// into train / valid (1/10) / test (1/6).
pub fn labelled_split(seed: u64, entities: usize) -> Dataset {
    let cat = catalog(seed, entities, 2, 6);
    let tokens = token_sets(&cat);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5A17);
    let pair = |i: usize, j: usize, is_match: bool| PairExample {
        left: cat.records[i].clone(),
        right: cat.records[j].clone(),
        is_match,
        left_class: cat.cluster_of[i],
        right_class: cat.cluster_of[j],
    };
    let mut pairs: Vec<PairExample> = cat
        .true_pairs()
        .into_iter()
        .filter(|_| rng.gen_bool(0.5))
        .map(|(i, j)| pair(i, j, true))
        .collect();
    let positives = pairs.len();
    let n = cat.len();
    for _ in 0..2 * positives {
        let mut chosen = None;
        for _ in 0..256 {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if cat.cluster_of[i] == cat.cluster_of[j] {
                continue;
            }
            chosen = Some((i, j));
            if tokens[i].intersection(&tokens[j]).count() >= 2 {
                break;
            }
        }
        let (i, j) = chosen.expect("a catalog of several entities has cross-entity pairs");
        pairs.push(pair(i, j, false));
    }
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let test = pairs.split_off(pairs.len() - pairs.len() / 6);
    let valid = pairs.split_off(pairs.len() - pairs.len() / 10);
    Dataset {
        name: format!("perfbench-split-{seed}"),
        train: pairs,
        valid,
        test,
        num_classes: cat.num_clusters,
    }
}
