//! The end-to-end pass: tracing off, the system allocator untouched.

use edgebert_benchmark::{cli, report::Pass};

fn main() {
    std::process::exit(cli::main(Pass::EndToEnd));
}
