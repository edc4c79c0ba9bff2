//! Shared harness utilities for the table/figure reproduction binaries
//! and the planning bench.

pub mod synth;
pub mod tables;

use datagen::{generate, DatasetKind};
use er_core::Dataset;

/// The seed every reproduction binary uses for dataset synthesis, so all
/// tables are computed over identical data.
pub const DATA_SEED: u64 = 20_240_101;

/// Generates the benchmark suite (all eight datasets, Table II order).
pub fn all_datasets() -> Vec<Dataset> {
    DatasetKind::ALL
        .into_iter()
        .map(|kind| generate(kind, DATA_SEED))
        .collect()
}

/// Renders one fixed-width table row from cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, &w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  "));
    }
    out.trim_end().to_owned()
}

/// Prints a titled separator block around a table.
pub fn print_header(title: &str) {
    let bar = "=".repeat(title.len().max(24));
    println!("\n{bar}\n{title}\n{bar}");
}

/// Formats a dollar amount with two decimals, as the paper's tables do.
pub fn usd(m: er_core::Money) -> String {
    format!("{:.2}", m.dollars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_datasets() {
        // Generation is expensive; spot-check the small ones only.
        let beer = generate(DatasetKind::Beer, DATA_SEED);
        assert_eq!(beer.stats().pairs, 450);
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn usd_formatting() {
        assert_eq!(usd(er_core::Money::from_dollars(1.234)), "1.23");
    }
}
