//! Console tables and JSON export for experiment results.

use std::io::Write as _;
use std::path::PathBuf;

/// Prints a fixed-width table: header row, separator, data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let _ = writeln!(out, "\n== {title} ==");
    let line = |out: &mut dyn std::io::Write, cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        let _ = writeln!(out, "  {}", parts.join("  "));
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    let _ = writeln!(out, "  {}", "-".repeat(total));
    for row in rows {
        line(&mut out, row);
    }
}

/// Directory JSON results are written to (`results/` under the workspace,
/// overridable with `CEAL_RESULTS_DIR`).
fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CEAL_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // The binary runs from the workspace root under `cargo run`.
    PathBuf::from("results")
}

/// Writes an experiment's JSON next to its printed output and reports the
/// path.
pub fn save_json(id: &str, value: &serde_json::Value) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{id}.json"));
    match std::fs::File::create(&path) {
        Ok(f) => {
            let mut w = std::io::BufWriter::new(f);
            if serde_json::to_writer_pretty(&mut w, value).is_ok() && w.flush().is_ok() {
                println!("  [saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Formats a float with 3 significant-ish decimals for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.1234), "0.123");
    }

    #[test]
    fn save_json_roundtrip() {
        let dir = ceal_testutil::unique_temp_path("ceal-bench-test-results", "");
        std::env::set_var("CEAL_RESULTS_DIR", &dir);
        save_json("unit-test", &serde_json::json!({"x": 1}));
        let read: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("unit-test.json")).unwrap())
                .unwrap();
        assert_eq!(read["x"], 1);
        std::env::remove_var("CEAL_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
