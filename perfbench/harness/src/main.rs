//! Benchmark harness for the encrypted, content-searchable SDDS.
//!
//! Runs one workload (`ingest`, `search` or `serve`) through the public
//! API and prints one raw JSON report as its last stdout line: per-op
//! latency samples, set-up times, output-check results, deltas of the
//! counters the program exports through `sdds_obs` (for TCP ranks, from
//! the cluster scrape), and with `--trace 1` a summary of the harness's
//! own spans around the public calls into each layer. `run.py` turns the
//! report into the benchmark's metrics.
//!
//! ```text
//! sdds-perfbench --workload ingest|search|serve --seed N --seconds S
//!                --trace 0|1 [--sdds PATH] [--work DIR] [--rates R1,R2,..]
//! ```

mod common;
mod ingest;
mod json;
mod search;
mod serve;
mod spans;

fn main() {
    let args = match common::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdds-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("sdds-perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let (mut report, span_records) = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "search" => search::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("sdds-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report.set("workload", args.workload.as_str());
    report.set("seed", args.seed);
    report.set("trace", args.trace);
    report.set("nproc", common::nproc());
    if args.trace {
        let path = args
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans::write_jsonl(&path, &span_records) {
            Ok(()) => report.set("span_file", path.display().to_string()),
            Err(e) => eprintln!("sdds-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.render());
}
