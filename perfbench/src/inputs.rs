//! Workload inputs: the Twitter-like corpus, the objects held back for
//! pushes, and the two query generators (object-derived and the
//! paper's SmallRegion / LargeRegion sets). The program under test sees
//! only these values.
//!
//! The population the corpus is drawn from is the same for every
//! `--seed`: with ~10 clusters at 50k objects, the generator's cluster
//! layout alone moves the postings a query scans by 30% from seed to
//! seed, which would drown the run-to-run differences the benchmark
//! exists to detect. The seed picks everything else — which objects are
//! held back for pushes (and so which make up the stored corpus), the
//! push order, and every query.

use seal_core::{ObjectStore, Query, RoiObject};
use seal_datagen::{
    generate_queries, twitter_like, Dataset, QueryParams, QuerySpec, TwitterParams,
};
use seal_text::TokenSet;
use std::sync::Arc;

/// SplitMix64: derives independent sub-seeds from the one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for picking inputs (the corpus
/// itself comes from `seal-datagen`).
pub struct Picker(u64);

impl Picker {
    /// A picker for one input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Picker(mix(seed, stream))
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = mix(self.0, 1);
        (self.0 % n as u64) as usize
    }
}

/// Objects per push batch, on every workload.
pub const PUSH_BATCH: usize = 10;

/// Generator seed of the fixed population.
const POPULATION_SEED: u64 = 0x5EA1_2012;

/// A generated corpus: the objects the engine is built over, the
/// objects held back for `/push`, and the generator's dataset (the
/// paper's query generator anchors on it).
pub struct Corpus {
    /// Objects present at set-up.
    pub base: Vec<RoiObject>,
    /// Objects pushed while the workload runs, in push order.
    pub held: Vec<RoiObject>,
    /// Vocabulary size of the whole corpus.
    pub vocab: usize,
    /// The base objects as the generator produced them.
    pub dataset: Dataset,
}

impl Corpus {
    /// A fixed Twitter-like population of `base + held` objects, of
    /// which `held` picked by `seed` are held back (in a seed-shuffled
    /// push order) and the rest, in population order, are stored.
    pub fn twitter(base: usize, held: usize, seed: u64) -> Self {
        let mut dataset = twitter_like(&TwitterParams {
            count: base + held,
            seed: POPULATION_SEED,
            ..TwitterParams::default()
        });
        // A seeded Fisher–Yates shuffle; its first `held` picks are held
        // back.
        let mut order: Vec<usize> = (0..base + held).collect();
        let mut pick = Picker::new(seed, 0xC0);
        for i in 0..held {
            let j = i + pick.below(order.len() - i);
            order.swap(i, j);
        }
        let mut is_held = vec![false; order.len()];
        order[..held].iter().for_each(|&i| is_held[i] = true);
        let object = |o: &seal_datagen::RawObject| {
            RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied()))
        };
        let held_objects = order[..held]
            .iter()
            .map(|&i| object(&dataset.objects[i]))
            .collect();
        let mut kept = is_held.iter().map(|h| !h);
        dataset.objects.retain(|_| kept.next().unwrap_or(false));
        Corpus {
            base: dataset.objects.iter().map(object).collect(),
            held: held_objects,
            vocab: dataset.vocab_size,
            dataset,
        }
    }

    /// A store over the base objects.
    pub fn base_store(&self) -> Arc<ObjectStore> {
        Arc::new(ObjectStore::from_objects(self.base.clone(), self.vocab))
    }

    /// A store over the base objects followed by the first `batches`
    /// push batches — the corpus a refresh after those pushes must
    /// answer like.
    pub fn union_store(&self, batches: usize) -> Arc<ObjectStore> {
        let mut all = self.base.clone();
        all.extend((0..batches).flat_map(|k| self.push_batch(k)));
        Arc::new(ObjectStore::from_objects(all, self.vocab))
    }

    /// The `k`-th batch of [`PUSH_BATCH`] held-back objects, cycling
    /// when the held-back set runs out (a repeated object is a valid
    /// push).
    pub fn push_batch(&self, k: usize) -> Vec<RoiObject> {
        (0..PUSH_BATCH)
            .map(|j| self.held[(k * PUSH_BATCH + j) % self.held.len()].clone())
            .collect()
    }
}

/// `count` queries that each repeat a stored object's region and
/// tokens at thresholds `tau`: the object itself qualifies, so every
/// answer set is non-empty.
pub fn object_queries(objects: &[RoiObject], count: usize, seed: u64, tau: f64) -> Vec<Query> {
    let mut pick = Picker::new(seed, 0x0B);
    (0..count)
        .map(|_| {
            let o = &objects[pick.below(objects.len())];
            Query::new(o.region, o.tokens.clone(), tau, tau).expect("tau in (0, 1]")
        })
        .collect()
}

/// The paper's SmallRegion then LargeRegion query sets, `per_set`
/// queries each, at thresholds `tau`.
pub fn paper_queries(dataset: &Dataset, per_set: usize, seed: u64, tau: f64) -> Vec<Query> {
    [QuerySpec::SmallRegion, QuerySpec::LargeRegion]
        .into_iter()
        .enumerate()
        .flat_map(|(k, spec)| {
            generate_queries(
                dataset,
                &QueryParams {
                    spec,
                    count: per_set,
                    seed: mix(seed, 0x50 + k as u64),
                },
            )
        })
        .map(|r| Query::with_token_ids(r.region, r.tokens, tau, tau).expect("tau in (0, 1]"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Corpus::twitter(300, 30, 7);
        let b = Corpus::twitter(300, 30, 7);
        let c = Corpus::twitter(300, 30, 8);
        assert_eq!(a.base, b.base);
        assert_eq!(a.held, b.held);
        assert_ne!(a.held, c.held);
        assert_eq!(a.base.len(), 300);
        assert_eq!(a.held.len(), 30);
        assert_eq!(
            object_queries(&a.base, 20, 7, 0.5),
            object_queries(&b.base, 20, 7, 0.5)
        );
        assert_eq!(
            paper_queries(&a.dataset, 5, 7, 0.2),
            paper_queries(&b.dataset, 5, 7, 0.2)
        );
    }

    #[test]
    fn held_back_objects_leave_the_stored_corpus() {
        let c = Corpus::twitter(200, 20, 5);
        let all = Corpus::twitter(220, 0, 5);
        assert_eq!(all.held.len(), 0);
        for h in &c.held {
            assert!(all.base.contains(h));
        }
        let mut rest = all.base.clone();
        rest.retain(|o| !c.held.contains(o));
        assert_eq!(rest, c.base, "stored objects keep population order");
        assert_eq!(c.dataset.objects.len(), 200);
    }

    #[test]
    fn object_queries_repeat_stored_objects() {
        let c = Corpus::twitter(200, 10, 3);
        for q in object_queries(&c.base, 50, 3, 0.5) {
            assert!(c
                .base
                .iter()
                .any(|o| o.region == q.region && o.tokens == q.tokens));
        }
    }

    #[test]
    fn push_batches_cycle_through_the_held_back_objects() {
        let c = Corpus::twitter(100, 25, 1);
        assert_eq!(c.push_batch(0), c.held[..10].to_vec());
        assert_eq!(c.push_batch(2)[5..], c.held[..5]);
        assert_eq!(c.union_store(3).len(), 130);
    }
}
