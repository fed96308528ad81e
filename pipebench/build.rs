//! Records the compiler version for the result records.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().replace('"', "'"));
    println!("cargo:rustc-env=PIPEBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
