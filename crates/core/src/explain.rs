//! Prediction explanation — the interpretability payoff of shapelets
//! (Section IV-D): for any prediction, report *which shapelet matched
//! where*.
//!
//! The matches come from the scorer the prediction itself runs
//! ([`ShapeletTransform::score`](ips_classify::ShapeletTransform::score)),
//! so each reported distance is the feature the SVM saw, bit for bit,
//! under the model's own metric (z-normalized or raw), and each offset is
//! where that distance was attained. How much each feature moved the
//! SVM's decision (a weight × feature contribution) is not computed.

use ips_classify::ShapeletClassifier;
use ips_distance::DistCache;
use ips_tsdata::TimeSeries;

/// One shapelet's match in an explained series.
#[derive(Debug, Clone)]
pub struct MatchExplanation {
    /// Index of the shapelet in the transform.
    pub shapelet_index: usize,
    /// The class the shapelet represents.
    pub shapelet_class: u32,
    /// Distance from the shapelet to the series (the feature value).
    pub distance: f64,
    /// Offset of the best-matching window in the series (for a shapelet
    /// longer than the series, of the series within the shapelet).
    pub match_offset: usize,
    /// Length of the shapelet (= matched window length).
    pub length: usize,
}

/// A fully explained prediction.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The predicted label.
    pub predicted: u32,
    /// Per-shapelet match details, ordered by ascending distance (the
    /// closest matches first).
    pub matches: Vec<MatchExplanation>,
}

impl Explanation {
    /// The matches belonging to the predicted class, closest first.
    pub fn supporting_matches(&self) -> impl Iterator<Item = &MatchExplanation> {
        self.matches
            .iter()
            .filter(move |m| m.shapelet_class == self.predicted)
    }

    /// The single closest match of the predicted class — "the reason" in
    /// one line, when it exists.
    pub fn primary(&self) -> Option<&MatchExplanation> {
        self.supporting_matches().next()
    }
}

/// Explains one prediction of a fitted shapelet classifier (an
/// `IpsClassifier`, a baseline, or a served model): one scoring pass
/// yields both the features the SVM predicts from and every shapelet's
/// best-match offset.
pub fn explain_prediction(model: &ShapeletClassifier, series: &TimeSeries) -> Explanation {
    let scores = model
        .transform()
        .score(series.values(), &mut DistCache::new());
    let features: Vec<f64> = scores.iter().map(|&(d, _)| d).collect();
    let predicted = model.svm().predict(&features);
    let mut matches: Vec<MatchExplanation> = model
        .shapelets()
        .iter()
        .zip(scores)
        .enumerate()
        .map(|(i, (s, (distance, match_offset)))| MatchExplanation {
            shapelet_index: i,
            shapelet_class: s.class,
            distance,
            match_offset,
            length: s.len(),
        })
        .collect();
    matches.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    Explanation { predicted, matches }
}

/// Renders an explanation as monospace text with the matched window marked
/// under a coarse rendering of the series.
pub fn explanation_text(series: &TimeSeries, explanation: &Explanation) -> String {
    let mut out = format!("predicted class {}\n", explanation.predicted);
    if let Some(p) = explanation.primary() {
        out.push_str(&format!(
            "primary evidence: shapelet #{} (class {}) matches at [{}..{}] with distance {:.4}\n",
            p.shapelet_index,
            p.shapelet_class,
            p.match_offset,
            p.match_offset + p.length,
            p.distance
        ));
        // coarse marker line
        let n = series.len().max(1);
        let width = 60.min(n);
        let scale = |i: usize| i * width / n;
        let mut marker = vec![' '; width];
        for c in marker
            .iter_mut()
            .take(scale(p.match_offset + p.length).min(width))
            .skip(scale(p.match_offset))
        {
            *c = '^';
        }
        out.push_str(&format!("series : {}\n", coarse(series.values(), width)));
        out.push_str(&format!(
            "match  : {}\n",
            marker.into_iter().collect::<String>()
        ));
    }
    for m in explanation.matches.iter().take(5) {
        out.push_str(&format!(
            "  #{:<3} class {} len {:>3} @ {:>4}  d = {:.4}\n",
            m.shapelet_index, m.shapelet_class, m.length, m.match_offset, m.distance
        ));
    }
    out
}

fn coarse(values: &[f64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let step = (values.len() / width).max(1);
    values
        .chunks(step)
        .take(width)
        .map(|c| {
            let m = c.iter().sum::<f64>() / c.len() as f64;
            LEVELS[((m - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IpsConfig;
    use crate::pipeline::IpsClassifier;
    use ips_distance::{dist_profile, dist_profile_znorm};
    use ips_tsdata::registry;

    fn model() -> (IpsClassifier, ips_tsdata::Dataset) {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = IpsClassifier::fit(&train, IpsConfig::default().with_sampling(6, 4)).unwrap();
        (model, test)
    }

    #[test]
    fn explanation_is_consistent_with_prediction_and_transform() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        for znorm in [true, false] {
            let mut cfg = IpsConfig::default().with_sampling(6, 4);
            cfg.znorm_transform = znorm;
            let model = IpsClassifier::fit(&train, cfg).unwrap();
            for s in test.all_series().iter().take(8) {
                let e = explain_prediction(&model, s);
                assert_eq!(e.predicted, model.predict(s), "znorm={znorm}");
                assert_eq!(e.matches.len(), model.shapelets().len());
                for w in e.matches.windows(2) {
                    assert!(w[0].distance <= w[1].distance);
                }
                // Each distance is the feature predict hands the SVM, bit
                // for bit, and each offset attains the window minimum.
                let features = model
                    .transform()
                    .transform_one_with_cache(s, &mut DistCache::new());
                for m in &e.matches {
                    let tag = format!("znorm={znorm} shapelet {}", m.shapelet_index);
                    let feature = features[m.shapelet_index];
                    assert_eq!(m.distance.to_bits(), feature.to_bits(), "{tag}");
                    let q = &model.shapelets()[m.shapelet_index].values;
                    let profile: Vec<f64> = if znorm {
                        let len = q.len() as f64;
                        dist_profile_znorm(q, s.values())
                            .iter()
                            .map(|d| d * d / len)
                            .collect()
                    } else {
                        dist_profile(q, s.values())
                    };
                    assert!(m.match_offset + m.length <= s.len(), "{tag}");
                    let best = profile.iter().copied().fold(f64::INFINITY, f64::min);
                    let at = profile[m.match_offset];
                    let tol = 1e-9 * (1.0 + best.abs());
                    assert!((at - best).abs() <= tol, "{tag}: {at} vs min {best}");
                    assert!(
                        (at - m.distance).abs() <= tol,
                        "{tag}: {at} vs {}",
                        m.distance
                    );
                }
            }
        }
    }

    #[test]
    fn primary_match_belongs_to_predicted_class() {
        let (model, test) = model();
        let e = explain_prediction(&model, test.series(0));
        if let Some(p) = e.primary() {
            assert_eq!(p.shapelet_class, e.predicted);
        }
    }

    #[test]
    fn text_rendering_mentions_the_prediction() {
        let (model, test) = model();
        let e = explain_prediction(&model, test.series(0));
        let text = explanation_text(test.series(0), &e);
        assert!(text.contains("predicted class"));
        assert!(text.contains("d ="));
    }
}
