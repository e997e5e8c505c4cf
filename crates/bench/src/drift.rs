//! Baseline drift gates for generated tables.
//!
//! Two strengths, matched to how deterministic the artifact is:
//!
//! * **Schema drift** (figures): a fresh `--quick` figure run must produce
//!   the same CSV *shape* — identical column headers and row count — as the
//!   committed `baselines/figures/<id>.csv`. Cell contents are not
//!   compared: GFLOPS values shift with calibration and functional
//!   campaign notes depend on the execution policy.
//! * **Exact match** (campaign): the quick campaign table is deterministic
//!   by construction (schedule-independent fits, derived seeds), so the
//!   freshly rendered CSV must equal the committed baseline byte for byte —
//!   any diff is either a real behavior change (regenerate the baseline
//!   deliberately) or a lost determinism guarantee (a bug).
//!
//! Both gates fail closed: missing baseline files, orphaned baselines and
//! malformed CSVs are failures, not skips.

use crate::report::FigureReport;
use std::path::Path;

/// The shape of one CSV table: header columns + data row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvSchema {
    /// Column names from the header line.
    pub columns: Vec<String>,
    /// Number of data rows (comment and header lines excluded).
    pub rows: usize,
}

/// Parse the schema of a report CSV (`# note` comment lines, then the
/// header, then data rows). `None` when no header line exists.
pub fn schema_of_csv(csv: &str) -> Option<CsvSchema> {
    let mut lines = csv
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next()?;
    Some(CsvSchema {
        columns: header.split(',').map(str::to_string).collect(),
        rows: lines.count(),
    })
}

/// The schema a [`FigureReport`] renders to.
pub fn schema_of_report(r: &FigureReport) -> CsvSchema {
    CsvSchema {
        columns: r.columns.clone(),
        rows: r.rows.len(),
    }
}

/// Outcome of one drift comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftOutcome {
    /// Table id (`fig07`, `campaign`, ...).
    pub id: String,
    /// True when the artifact matches its baseline.
    pub pass: bool,
    /// Human-readable verdict.
    pub detail: String,
}

/// Compare freshly generated reports against the committed per-figure CSVs
/// in `baseline_dir`. Fails closed in both directions: a fresh report
/// without a baseline file fails, and a committed baseline without a fresh
/// report fails too (a silently dropped figure is itself drift).
pub fn check_figure_schemas(fresh: &[FigureReport], baseline_dir: &Path) -> Vec<DriftOutcome> {
    let mut out: Vec<DriftOutcome> = fresh
        .iter()
        .map(|r| {
            let path = baseline_dir.join(format!("{}.csv", r.id));
            let verdict = match std::fs::read_to_string(&path) {
                Err(e) => DriftOutcome {
                    id: r.id.clone(),
                    pass: false,
                    detail: format!("missing baseline {}: {e}", path.display()),
                },
                Ok(csv) => match schema_of_csv(&csv) {
                    None => DriftOutcome {
                        id: r.id.clone(),
                        pass: false,
                        detail: format!("malformed baseline {}", path.display()),
                    },
                    Some(base) => {
                        let fresh_schema = schema_of_report(r);
                        if fresh_schema == base {
                            DriftOutcome {
                                id: r.id.clone(),
                                pass: true,
                                detail: format!("{} cols x {} rows", base.columns.len(), base.rows),
                            }
                        } else {
                            DriftOutcome {
                                id: r.id.clone(),
                                pass: false,
                                detail: format!(
                                    "schema drift: baseline {} cols x {} rows, fresh {} cols x {} \
                                     rows",
                                    base.columns.len(),
                                    base.rows,
                                    fresh_schema.columns.len(),
                                    fresh_schema.rows
                                ),
                            }
                        }
                    }
                },
            };
            verdict
        })
        .collect();
    // Orphaned baselines: committed CSVs no fresh report covers.
    if let Ok(entries) = std::fs::read_dir(baseline_dir) {
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_suffix(".csv").map(str::to_string)
            })
            .collect();
        ids.sort();
        for id in ids {
            if !fresh.iter().any(|r| r.id == id) {
                out.push(DriftOutcome {
                    id: id.clone(),
                    pass: false,
                    detail: "baseline exists but no fresh report regenerated it".to_string(),
                });
            }
        }
    } else {
        out.push(DriftOutcome {
            id: "<baseline dir>".to_string(),
            pass: false,
            detail: format!("cannot read {}", baseline_dir.display()),
        });
    }
    out
}

/// Compare a freshly rendered campaign CSV against the committed baseline,
/// byte for byte.
pub fn check_campaign_exact(fresh_csv: &str, baseline_path: &Path) -> DriftOutcome {
    match std::fs::read_to_string(baseline_path) {
        Err(e) => DriftOutcome {
            id: "campaign".to_string(),
            pass: false,
            detail: format!("missing baseline {}: {e}", baseline_path.display()),
        },
        Ok(base) => {
            if base == fresh_csv {
                DriftOutcome {
                    id: "campaign".to_string(),
                    pass: true,
                    detail: "byte-identical to baseline".to_string(),
                }
            } else {
                let diff_line = base
                    .lines()
                    .zip(fresh_csv.lines())
                    .position(|(a, b)| a != b)
                    .map_or_else(
                        || "line counts differ".to_string(),
                        |i| format!("first diff at line {}", i + 1),
                    );
                DriftOutcome {
                    id: "campaign".to_string(),
                    pass: false,
                    detail: format!(
                        "campaign table diverged from committed baseline ({diff_line}); \
                         regenerate deliberately with: campaign --quick --out baselines/campaign"
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &str, cols: &[&str], rows: usize) -> FigureReport {
        let mut r = FigureReport::new(id, "t", cols);
        for i in 0..rows {
            r.push_row(cols.iter().map(|_| i.to_string()).collect());
        }
        r
    }

    #[test]
    fn schema_parses_comments_header_rows() {
        let s = schema_of_csv("# note\n# more\na,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(s.columns, vec!["a", "b", "c"]);
        assert_eq!(s.rows, 2);
        assert!(schema_of_csv("").is_none());
        assert!(schema_of_csv("# only notes\n").is_none());
    }

    #[test]
    fn matching_schema_passes_mismatch_fails() {
        let dir = std::env::temp_dir().join("ftk_drift_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("figA.csv"), "x,y\n1,2\n3,4\n").unwrap();
        let fresh = [report("figA", &["x", "y"], 2)];
        let out = check_figure_schemas(&fresh, &dir);
        assert!(out.iter().all(|o| o.pass), "{out:?}");
        // row-count drift
        let fresh = [report("figA", &["x", "y"], 3)];
        let out = check_figure_schemas(&fresh, &dir);
        assert!(!out[0].pass);
        // column drift
        let fresh = [report("figA", &["x", "z"], 2)];
        let out = check_figure_schemas(&fresh, &dir);
        assert!(!out[0].pass);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_orphaned_baselines_fail_closed() {
        let dir = std::env::temp_dir().join("ftk_drift_orphan_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("old.csv"), "x\n1\n").unwrap();
        let fresh = [report("new", &["x"], 1)];
        let out = check_figure_schemas(&fresh, &dir);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| !o.pass), "{out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_exact_match() {
        let dir = std::env::temp_dir().join("ftk_drift_campaign_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.csv");
        std::fs::write(&path, "a,b\n1,2\n").unwrap();
        assert!(check_campaign_exact("a,b\n1,2\n", &path).pass);
        let miss = check_campaign_exact("a,b\n1,3\n", &path);
        assert!(!miss.pass);
        assert!(miss.detail.contains("line 2"));
        assert!(!check_campaign_exact("x", &dir.join("nope.csv")).pass);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
