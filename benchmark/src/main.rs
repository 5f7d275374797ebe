use std::process::ExitCode;

use tpp_benchmark::cli;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpp-benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tpp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
