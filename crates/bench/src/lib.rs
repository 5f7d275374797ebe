//! # tpp-bench — the reproduction harness
//!
//! One binary per table/figure in the paper's evaluation (see DESIGN.md §5
//! for the experiment index), plus criterion micro-benchmarks:
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
//! cargo bench -p tpp-bench
//! ```

#![forbid(unsafe_code)]

/// Render a simple fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Iterations for a timed loop: `TPP_BENCH_ITERS` when set (CI smoke runs
/// set it low), else `default`. A set-but-invalid value must fail loudly —
/// before any measurement — not silently unbound the smoke run.
pub fn bench_iters(default: u64) -> u64 {
    match std::env::var("TPP_BENCH_ITERS") {
        Ok(v) => v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("TPP_BENCH_ITERS must be a positive integer, got {v:?}");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}
