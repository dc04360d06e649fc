//! Similarity-score aggregation for Tables II and III.

/// One named score row (e.g. "AES vs FPA: -0.20").
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Pair description, e.g. `"AES / FPA"` or `"c432 vs obfuscated"`.
    pub label: String,
    /// Similarity score(s) backing the row.
    pub scores: Vec<f32>,
}

impl ScoreRow {
    /// Creates a row.
    pub fn new(label: impl Into<String>, scores: Vec<f32>) -> Self {
        Self {
            label: label.into(),
            scores,
        }
    }

    /// Mean score of the row.
    pub fn mean(&self) -> f32 {
        if self.scores.is_empty() {
            return f32::NAN;
        }
        self.scores.iter().sum::<f32>() / self.scores.len() as f32
    }
}

/// A named collection of score rows (one of the paper's score tables or a
/// case column of Table II).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoreTable {
    /// Table / case title.
    pub title: String,
    /// Rows in display order.
    pub rows: Vec<ScoreRow>,
}

impl ScoreTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, scores: Vec<f32>) {
        self.rows.push(ScoreRow::new(label, scores));
    }

    /// Mean over every score in every row (the paper's per-case "Mean" line).
    pub fn grand_mean(&self) -> f32 {
        let all: Vec<f32> = self.rows.iter().flat_map(|r| r.scores.clone()).collect();
        if all.is_empty() {
            return f32::NAN;
        }
        all.iter().sum::<f32>() / all.len() as f32
    }

    /// Renders as an aligned text table (rows, means, grand mean).
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<width$}  {:+.4}  (n={})\n",
                row.label,
                row.mean(),
                row.scores.len(),
            ));
        }
        out.push_str(&format!(
            "  {:<width$}  {:+.4}\n",
            "Mean",
            self.grand_mean(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_mean() {
        let r = ScoreRow::new("x", vec![0.5, 1.0, 0.0]);
        assert!((r.mean() - 0.5).abs() < 1e-6);
        assert!(ScoreRow::new("empty", vec![]).mean().is_nan());
    }

    #[test]
    fn grand_mean_pools_all_scores() {
        let mut t = ScoreTable::new("case");
        t.push("a", vec![1.0]);
        t.push("b", vec![0.0, 0.0, 0.0]);
        assert!((t.grand_mean() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn render_contains_rows_and_mean() {
        let mut t = ScoreTable::new("Case1: different designs");
        t.push("AES / FPA", vec![-0.2]);
        t.push("AES / RS232", vec![-0.5]);
        let s = t.render();
        assert!(s.contains("AES / FPA"));
        assert!(s.contains("Mean"));
        assert!(s.contains("-0.2000") || s.contains("-0.20"));
    }
}
