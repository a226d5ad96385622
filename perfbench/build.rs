//! Records the compiler version and the source revision the benchmark was
//! built from, so every result can name them. Either falls back to
//! "unknown" when the tool is missing or the tree is not a git checkout.

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        first_line(&rustc, &["--version"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
}
