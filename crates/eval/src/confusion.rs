//! Confusion matrices and classification metrics (Fig. 4a, Table I, §IV-F).

use std::fmt;

/// A binary confusion matrix over piracy predictions.
///
/// Positive = piracy (similar pair), negative = no-piracy, matching the
/// paper's convention in Fig. 4(a).
///
/// # Examples
///
/// ```
/// use gnn4ip_eval::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // TP
/// cm.record(false, false); // TN
/// cm.record(true, false);  // FN
/// assert_eq!(cm.tp, 1);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True positives: piracy pairs labeled piracy.
    pub tp: usize,
    /// False positives: different pairs labeled piracy.
    pub fp: usize,
    /// False negatives: piracy pairs missed.
    pub fn_: usize,
    /// True negatives: different pairs correctly cleared.
    pub tn: usize,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(actual, predicted)` observation.
    pub fn record(&mut self, actual_piracy: bool, predicted_piracy: bool) {
        match (actual_piracy, predicted_piracy) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Builds a matrix from similarity scores, labels, and a decision
    /// boundary δ (`score > delta` ⇒ piracy).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_scores(scores: &[f32], similar: &[bool], delta: f32) -> Self {
        assert_eq!(scores.len(), similar.len(), "scores/labels mismatch");
        let mut cm = Self::new();
        for (&s, &label) in scores.iter().zip(similar) {
            cm.record(label, s > delta);
        }
        cm
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// `(TP + TN) / total` — the paper's headline metric.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// False-negative **rate over all samples** — the §IV-F comparison
    /// metric against watermarking's probability of coincidence
    /// (`FN / total`, the paper reports e.g. 6.65e-4 for 190/285735-scale).
    pub fn false_negative_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.fn_ as f64 / self.total() as f64
    }

    /// Precision (`TP / (TP + FP)`).
    pub fn precision(&self) -> f64 {
        let pred_pos = self.tp + self.fp;
        if pred_pos == 0 {
            return 0.0;
        }
        self.tp as f64 / pred_pos as f64
    }

    /// Recall (`TP / (TP + FN)`).
    pub fn recall(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            return 0.0;
        }
        self.tp as f64 / pos as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "                Predicted+  Predicted-")?;
        writeln!(
            f,
            "  Actual+ (piracy)   TP: {:<7} FN: {:<7}",
            self.tp, self.fn_
        )?;
        write!(
            f,
            "  Actual- (clean)    FP: {:<7} TN: {:<7}",
            self.fp, self.tn
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_rtl() -> ConfusionMatrix {
        // Fig. 4(a) RTL numbers
        ConfusionMatrix {
            tp: 3464,
            fp: 10,
            fn_: 190,
            tn: 11352,
        }
    }

    #[test]
    fn accuracy_matches_paper_figures() {
        let cm = paper_rtl();
        // Table I reports 97.21% on its dataset; these cells give ~98.7%
        assert!((cm.accuracy() - 0.9867).abs() < 0.01, "{}", cm.accuracy());
    }

    #[test]
    fn from_scores_thresholds() {
        let scores = [0.9, 0.2, -0.5, 0.6];
        let labels = [true, true, false, false];
        let cm = ConfusionMatrix::from_scores(&scores, &labels, 0.5);
        assert_eq!((cm.tp, cm.fn_, cm.tn, cm.fp), (1, 1, 1, 1));
    }

    #[test]
    fn rates_and_scores() {
        let cm = ConfusionMatrix {
            tp: 8,
            fp: 2,
            fn_: 2,
            tn: 88,
        };
        assert!((cm.accuracy() - 0.96).abs() < 1e-9);
        assert!((cm.precision() - 0.8).abs() < 1e-9);
        assert!((cm.recall() - 0.8).abs() < 1e-9);
        assert!((cm.false_negative_rate() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn display_shows_all_cells() {
        let s = paper_rtl().to_string();
        assert!(s.contains("3464"));
        assert!(s.contains("11352"));
    }
}
