//! The traced pass: spans recorded and every allocation counted.

use edgebert_benchmark::{alloc::CountingAlloc, cli, report::Pass};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(cli::main(Pass::Traced));
}
