//! The `gsrepro` binary; everything lives in [`gsrepro::cli`].

fn main() {
    gsrepro::cli::main()
}
