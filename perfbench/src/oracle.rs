//! Answer checks run outside the timed window: agreement with the
//! naive full-scan oracle, agreement between two engines, and an
//! answer digest that lets two commits be compared for identical
//! answers.

use seal_core::{ObjectStore, Query, SearchResult, SimilarityConfig};

/// Sorted answer ids of each result.
pub fn answer_ids(results: Vec<SearchResult>) -> Vec<Vec<u32>> {
    results
        .into_iter()
        .map(|r| {
            let mut ids: Vec<u32> = r.answers.into_iter().map(|id| id.0).collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Checks `answers[i]` (sorted) against a full scan of `store` for
/// `sample` queries spread evenly over `queries`.
pub fn check_naive(
    what: &str,
    store: &ObjectStore,
    queries: &[Query],
    answers: &[Vec<u32>],
    sample: usize,
) -> Result<(), String> {
    let cfg = SimilarityConfig::default();
    let step = (queries.len() / sample.max(1)).max(1);
    for i in (0..queries.len()).step_by(step) {
        let mut want: Vec<u32> = seal_core::verify::naive_search(store, &cfg, &queries[i])
            .into_iter()
            .map(|id| id.0)
            .collect();
        want.sort_unstable();
        if answers[i] != want {
            return Err(format!(
                "{what}: query {i} answered {:?}, the naive oracle {want:?}",
                answers[i]
            ));
        }
    }
    Ok(())
}

/// Checks two answer lists for equality, naming the first difference.
pub fn check_equal(what: &str, got: &[Vec<u32>], want: &[Vec<u32>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} answer sets, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: query {i} answered {:?}, expected {:?}",
            got[i], want[i]
        )),
    }
}

/// FNV-1a over every query's sorted answers (with the set sizes, so
/// moving an id between queries changes the digest).
pub fn digest(answers: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ids in answers {
        feed(ids.len() as u32);
        ids.iter().for_each(|&id| feed(id));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::{FilterKind, SealEngine};
    use std::sync::Arc;

    #[test]
    fn oracle_accepts_the_engine_and_rejects_a_wrong_answer() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let engine = SealEngine::build(store.clone(), FilterKind::Token);
        let queries = vec![q];
        let answers = answer_ids(engine.search_batch(&queries, 1));
        assert!(check_naive("t", &store, &queries, &answers, 1).is_ok());
        let wrong = vec![vec![0]];
        assert!(check_naive("t", &store, &queries, &wrong, 1).is_err());
        assert!(check_equal("t", &answers, &answers).is_ok());
        assert!(check_equal("t", &answers, &wrong).is_err());
    }

    #[test]
    fn digest_sees_where_ids_sit() {
        let a = digest(&[vec![1, 2], vec![3]]);
        assert_eq!(a, digest(&[vec![1, 2], vec![3]]));
        assert_ne!(a, digest(&[vec![1], vec![2, 3]]));
        assert_ne!(a, digest(&[vec![1, 2], vec![4]]));
    }
}
