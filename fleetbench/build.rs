//! Records the rustflags the benchmark was compiled with, so every result
//! can name the `target-cpu` it ran under.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let parts: Vec<&str> = flags.split('\x1f').collect();
    let target_cpu = parts
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            let opt = if *f == "-C" {
                parts.get(i + 1).copied()?
            } else {
                f.strip_prefix("-C")?
            };
            opt.strip_prefix("target-cpu=")
        })
        .unwrap_or("default");
    println!("cargo:rustc-env=FLEETBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
