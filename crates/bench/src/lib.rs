//! # tpp-bench — the reproduction harness
//!
//! One binary per table/figure in the paper's evaluation (README.md names
//! the section each one reproduces):
//!
//! ```text
//! cargo run -p tpp-bench --release --bin fig1_microburst
//! cargo run -p tpp-bench --release --bin fig2_rcp
//! cargo run -p tpp-bench --release --bin fig4_conga
//! cargo run -p tpp-bench --release --bin fig5_sketch
//! cargo run -p tpp-bench --release --bin fig10_sampling
//! cargo run -p tpp-bench --release --bin table3_latency
//! cargo run -p tpp-bench --release --bin table4_resources
//! cargo run -p tpp-bench --release --bin table5_filters
//! ```
//!
//! `table3_latency`, `table5_filters`, `fig_scale`, `fig_fanout_rate`,
//! `fig_interdc_fct` and `eval_matrix` take `--smoke` for a bounded CI-sized
//! run with every assertion intact. Timing is the repo benchmark's job
//! (`benchmark/`, `scripts/ab_bench.sh`); these bins print the paper's
//! tables and figures.

#![forbid(unsafe_code)]

/// Render a simple fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Whether the bin was asked for its smoke run. `--smoke` is the only
/// argument a bin that calls this takes: anything else exits 2 before any
/// measurement, rather than silently running at full length.
pub fn smoke_arg() -> bool {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            eprintln!("unexpected argument {arg:?}; usage: [--smoke]");
            std::process::exit(2);
        }
    }
    smoke
}
