//! The benchmark's binary: parent of every run, and the untraced child.

fn main() -> std::process::ExitCode {
    ipr_benchmarks::cli::main()
}
