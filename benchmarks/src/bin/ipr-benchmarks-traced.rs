//! The traced child: the same program with the counting allocator
//! installed, so the per-layer run can report allocation counts while the
//! untraced run never pays for them.

#[global_allocator]
static ALLOCATOR: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn main() -> std::process::ExitCode {
    ipr_benchmarks::cli::main()
}
