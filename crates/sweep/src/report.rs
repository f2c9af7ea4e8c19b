//! Structured sweep results and their renderings (TSV, JSON, aligned
//! text).

use crate::Value;

/// The result of running one scenario: a rectangular table of typed
/// values with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The scenario name (artefact file stem).
    pub scenario: String,
    /// Column names, key columns first.
    pub columns: Vec<String>,
    /// Data rows in canonical cell order.
    pub rows: Vec<Vec<Value>>,
}

impl SweepReport {
    /// Index of a named column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Float content of `(row, column-name)`, when numeric.
    pub fn f64(&self, row: usize, column: &str) -> Option<f64> {
        self.rows.get(row)?.get(self.column(column)?)?.as_f64()
    }

    /// Bool content of `(row, column-name)`, when a flag.
    pub fn bool(&self, row: usize, column: &str) -> Option<bool> {
        self.rows.get(row)?.get(self.column(column)?)?.as_bool()
    }

    /// The run's verdict: `true` when every flag in every verdict column
    /// is set. The verdict columns are `ok` (validations: analytic vs
    /// Monte-Carlo, DES or fluid limit) and `verified_ok` (control
    /// tuning checked against the exact chain); a report with neither
    /// passes vacuously.
    pub fn all_ok(&self) -> bool {
        ["ok", "verified_ok"]
            .iter()
            .filter_map(|name| self.column(name))
            .all(|i| {
                self.rows
                    .iter()
                    .all(|row| row[i].as_bool().unwrap_or(false))
            })
    }

    /// The tab-separated rendering (header line + one line per row).
    ///
    /// Formatting is locale-free and shortest-round-trip, so two runs of
    /// the same scenario produce byte-identical output.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push('\t');
                }
                first = false;
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// The JSON rendering: an object with `scenario`, `columns` and
    /// row-major `rows`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"scenario\": {},\n",
            Value::Str(self.scenario.clone()).to_json()
        ));
        out.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&Value::Str(c.clone()).to_json());
        }
        out.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    [");
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&v.to_json());
            }
            out.push(']');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// An aligned, human-readable text table.
    pub fn render_text(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SweepReport {
        SweepReport {
            scenario: "demo".into(),
            columns: vec!["mu".into(), "E_T_S".into(), "ok".into()],
            rows: vec![
                vec![Value::F64(0.1), Value::F64(12.085), Value::Bool(true)],
                vec![Value::F64(0.3), Value::F64(11.47), Value::Bool(false)],
            ],
        }
    }

    #[test]
    fn tsv_roundtrips_shape() {
        let tsv = report().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "mu\tE_T_S\tok");
        assert_eq!(lines[1].split('\t').count(), 3);
        assert_eq!(lines[1], "0.1\t12.085\ttrue");
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = report().to_json();
        assert!(json.contains("\"scenario\": \"demo\""));
        assert!(json.contains("[0.1, 12.085, true]"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn column_lookup_and_verdict() {
        let r = report();
        assert_eq!(r.f64(0, "E_T_S"), Some(12.085));
        assert_eq!(r.bool(1, "ok"), Some(false));
        assert!(!r.all_ok());
        let mut ok = r.clone();
        ok.rows[1][2] = Value::Bool(true);
        assert!(ok.all_ok());
        let no_flag = SweepReport {
            scenario: "x".into(),
            columns: vec!["a".into()],
            rows: vec![],
        };
        assert!(no_flag.all_ok());
    }

    #[test]
    fn verified_ok_is_a_verdict_column() {
        let mut frontier = SweepReport {
            scenario: "frontier".into(),
            columns: vec!["rate".into(), "verified_ok".into()],
            rows: vec![
                vec![Value::F64(0.25), Value::Bool(true)],
                vec![Value::F64(0.5), Value::Bool(false)],
            ],
        };
        assert!(!frontier.all_ok());
        frontier.rows[1][1] = Value::Bool(true);
        assert!(frontier.all_ok());
    }

    #[test]
    fn text_render_aligns_columns() {
        let text = report().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
