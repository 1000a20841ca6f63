//! Stratified cross-validation.
//!
//! The paper's parameter setting ("`Q_N` and `Q_S` are selected from
//! {…}") implies per-dataset tuning; this module provides the standard
//! machinery: cross-validated accuracy over stratified k-fold splits for
//! any fit/predict closure.

use ips_tsdata::{Dataset, TimeSeries};

/// Stratified k-fold indices: each fold receives a proportional share of
/// every class, preserving within-class order.
///
/// Returns `folds` vectors of test indices. Folds are non-empty as long as
/// `folds <= len`.
///
/// # Panics
/// Panics when `folds == 0`.
fn stratified_folds(labels: &[u32], folds: usize) -> Vec<Vec<usize>> {
    assert!(folds > 0, "need at least one fold");
    let folds = folds.min(labels.len().max(1));
    let mut classes: Vec<u32> = labels.to_vec();
    classes.sort_unstable();
    classes.dedup();
    let mut out = vec![Vec::new(); folds];
    for c in classes {
        let members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
        for (j, &i) in members.iter().enumerate() {
            out[j % folds].push(i);
        }
    }
    out.iter_mut().for_each(|f| f.sort_unstable());
    out
}

/// Materializes `(train, test)` datasets for one fold.
///
/// # Panics
/// Panics when a fold would leave the training side empty.
fn split_fold(data: &Dataset, test_idx: &[usize]) -> (Dataset, Dataset) {
    let is_test: Vec<bool> = {
        let mut v = vec![false; data.len()];
        for &i in test_idx {
            v[i] = true;
        }
        v
    };
    let mut tr_s: Vec<TimeSeries> = Vec::new();
    let mut tr_l = Vec::new();
    let mut te_s: Vec<TimeSeries> = Vec::new();
    let mut te_l = Vec::new();
    for (i, &in_test) in is_test.iter().enumerate() {
        if in_test {
            te_s.push(data.series(i).clone());
            te_l.push(data.label(i));
        } else {
            tr_s.push(data.series(i).clone());
            tr_l.push(data.label(i));
        }
    }
    (
        Dataset::new(tr_s, tr_l).expect("train side non-empty"),
        Dataset::new(te_s, te_l).expect("test side non-empty"),
    )
}

/// Mean k-fold cross-validated accuracy of an arbitrary `fit_predict`
/// closure: given `(train, test)`, return predictions for `test`.
/// Folds whose training side collapses to one class are skipped.
pub fn cross_val_accuracy(
    data: &Dataset,
    folds: usize,
    mut fit_predict: impl FnMut(&Dataset, &Dataset) -> Vec<u32>,
) -> f64 {
    let fold_idx = stratified_folds(data.labels(), folds);
    let mut acc_sum = 0.0;
    let mut counted = 0usize;
    for test_idx in &fold_idx {
        if test_idx.is_empty() || test_idx.len() == data.len() {
            continue;
        }
        let (train, test) = split_fold(data, test_idx);
        if train.num_classes() < 2 {
            continue;
        }
        let preds = fit_predict(&train, &test);
        acc_sum += crate::eval::accuracy(&preds, test.labels());
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        acc_sum / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::OneNnEd;
    use ips_tsdata::registry;

    #[test]
    fn folds_are_stratified_and_partition() {
        let labels = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        let folds = stratified_folds(&labels, 3);
        assert_eq!(folds.len(), 3);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // each fold sees both classes
        for f in &folds {
            let zeros = f.iter().filter(|&&i| labels[i] == 0).count();
            let ones = f.iter().filter(|&&i| labels[i] == 1).count();
            assert!(zeros >= 1 && ones >= 2, "fold {f:?}");
        }
    }

    #[test]
    fn split_fold_partitions_dataset() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let folds = stratified_folds(train.labels(), 5);
        let (tr, te) = split_fold(&train, &folds[0]);
        assert_eq!(tr.len() + te.len(), train.len());
        assert_eq!(te.len(), folds[0].len());
    }

    #[test]
    fn cross_val_accuracy_of_1nn_is_high_on_easy_data() {
        let (train, _) = registry::load("GunPoint").unwrap();
        let acc = cross_val_accuracy(&train, 5, |tr, te| OneNnEd::fit(tr).predict_all(te));
        assert!(acc > 0.5, "cv acc {acc}");
    }
}
