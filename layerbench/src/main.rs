use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use layerbench::host::Host;
use layerbench::run::{self, Args, Metric, Outcome};

/// Spans written per buffer: enough to inspect, bounded on disk.
const SPANS_WRITTEN: usize = 500;

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Appends one record to the run trajectory and writes the spans.
fn record(dir: &Path, args: &Args, host: &Host, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let all: Vec<Metric> = out.metrics.iter().chain(&out.extra).copied().collect();
    let finite: Vec<Metric> = all.into_iter().filter(|m| m.1.is_finite()).collect();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!(
        "{{\"unix_time\": {unix}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"keys\": {}, \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"git_rev\": \"{}\"}}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.keys,
        host.nproc,
        host.cpu.replace('"', "'"),
        host.git_rev,
        out.correct,
        out.attempted,
        out.failed,
        json_metrics(&finite)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("trajectory.jsonl"))?
        .write_all(line.as_bytes())?;
    if !out.spans.is_empty() {
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload.name(), args.seed));
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "buffer\top\tparent\tname\tstart_ns\tend_ns")?;
        for (tag, buf) in &out.spans {
            let mut head = layerbench::spans::SpanBuf::with_capacity(SPANS_WRITTEN);
            for s in buf.spans().iter().take(SPANS_WRITTEN) {
                head.push(*s);
            }
            head.write_tsv(&mut f, tag)?;
        }
        f.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", run::USAGE);
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = Host::probe(bench_dir.parent().unwrap_or(bench_dir));
    let result = if args.trace { run::traced(&args) } else { run::end_to_end(&args) };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host: nproc {}, cpu {}, git rev {}", host.nproc, host.cpu, host.git_rev);
    for line in &out.report {
        println!("{line}");
    }
    for (name, value, unit) in out.metrics.iter().chain(&out.extra) {
        println!("metric {name} = {value} {unit}");
    }
    for m in &out.mismatches {
        eprintln!("mismatch: {m}");
    }
    if let Err(e) = record(&bench_dir.join("runs"), &args, &host, &out) {
        eprintln!("could not write the run record: {e}");
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("metric {} could not be measured", bad.0);
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        json_metrics(&out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
