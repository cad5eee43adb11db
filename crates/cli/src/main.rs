//! `phigraph` — the command-line driver.
//!
//! The paper's system expects "a driver code to read the input (with the
//! help of distributed graph loading API), and to help drive the
//! parameters". This binary is that driver for the reproduction: it
//! generates workload files, inspects them, produces partitioning files,
//! and runs any of the applications under any execution configuration.
//!
//! ```text
//! phigraph generate <pokec|dblp|dag|gnm> <out.{adj|bin}> [--scale S] [--seed N]
//! phigraph info <graph.{adj|bin|txt|snap}>
//! phigraph partition <graph> <out.part> [--scheme continuous|round-robin|hybrid]
//!                    [--ratio A:B] [--blocks N] [--seed N]
//! phigraph run <app> <graph> [--engine lock|pipe|omp|seq] [--device cpu|mic]
//!              [--partition file.part | --hetero | --devices N] [--ratio A:B:...]
//!              [--source N] [--iters N] [--out values.txt]
//!              [--checkpoint-every K] [--checkpoint-dir DIR] [--resume]
//!              [--faults step:kind[:dev],...] [--max-retries N] [--backoff-ms N]
//!              [--failover migrate|retry|off] [--watchdog-ms N] [--rebalance-after N]
//!              [--integrity off|frames|full] [--scrub-every N]
//!              [--trace-out FILE] [--trace-format chrome|json|prom]
//!              [--trace-level off|phase]
//! phigraph serve <graph> [--workers N] [--queue-cap N] [--engine E] [--socket PATH]
//!                [--tenants a:4:2,b:1:1] [--deadline-ms N] [--prom-out FILE]
//!                [--journal-dir DIR] [--drain] [--shed-policy off|ladder]
//!                [--integrity M] [--integrity-max M]
//!                [--metrics-sock PATH] [--metrics-every SECS] [--events-out FILE]
//! phigraph serve-chaos [--cycles N] [--seed N] [--workers N] [--queue-cap N]
//!                      [--jobs-per-cycle N] [--journal-dir DIR] [--reload-every N]
//! phigraph top <metrics.sock> [--interval SECS] [--count N] [--window 1s|10s|60s] [--raw]
//! phigraph report <report.json|events.jsonl|flight.json> [--steps] [--top N]
//! phigraph recover <checkpoint-dir> [--inspect STEP]
//! phigraph tune <app> <graph> [--probe-steps N] [--blocks N]
//! phigraph check <app> <graph> [--step-budget N]
//! phigraph bench run|compare|perturb|list ...
//! ```

mod args;
mod cmd_bench;
mod cmd_check;
mod cmd_generate;
mod cmd_info;
mod cmd_partition;
mod cmd_recover;
mod cmd_report;
mod cmd_run;
mod cmd_serve;
mod cmd_serve_chaos;
mod cmd_top;
mod cmd_tune;
mod out;

use out::outln;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate::run(rest),
        "info" => cmd_info::run(rest),
        "partition" => cmd_partition::run(rest),
        "run" => cmd_run::run(rest),
        "serve" => cmd_serve::run(rest),
        "serve-chaos" => cmd_serve_chaos::run(rest),
        "top" => cmd_top::run(rest),
        "recover" => cmd_recover::run(rest),
        "report" => cmd_report::run(rest),
        "tune" => cmd_tune::run(rest),
        "check" => cmd_check::run(rest),
        "bench" => cmd_bench::run(rest),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "phigraph — heterogeneous CPU+MIC graph processing (IPDPS'15 reproduction)

commands:
  generate <pokec|dblp|dag|gnm> <out.{adj|bin}> [--scale tiny|small|medium] [--seed N]
  info <graph.{adj|bin|txt|snap}>
  partition <graph> <out.part> [--scheme continuous|round-robin|hybrid] [--ratio A:B] [--blocks N] [--seed N]
  run <pagerank|ppr|bfs|sssp|toposort|wcc|kcore|semicluster> <graph>
      [--engine lock|pipe|omp|seq] [--device cpu|mic]
      [--partition file.part | --hetero | --devices N] [--ratio A:B[:C...]]
      [--source N] [--iters N] [--out values.txt] [--checksum]
      [--checkpoint-every K] [--checkpoint-dir DIR] [--resume]
      [--faults step:kind[:dev],...] [--max-retries N] [--backoff-ms N]
      [--failover migrate|retry|off] [--watchdog-ms N] [--rebalance-after N]
      [--integrity off|frames|full] [--scrub-every N]
      [--trace-out FILE] [--trace-format chrome|json|prom] [--trace-level off|phase]
      (fault kinds: worker|mover|insert|checkpoint|exchange|crash|hang|slow
                    |crash-rank:K|partition-link:I-J
                    |bitflip-msg|bitflip-state|truncate-frame
                    |daemon-kill|worker-hang|slow-client|malformed-line;
       --devices N runs an N-rank fabric (rank 0 = CPU on lock, ranks 1.. = MIC
       on --engine lock|pipe|omp); --ratio then takes N colon-separated shares
       and snapshots live under <dir>/rank0..rankN-1; checkpoint/resume/integrity:
       pagerank|ppr|bfs|sssp|wcc with --engine lock|pipe|omp; chrome traces load
       in Perfetto / chrome://tracing)
  serve <graph> [--workers N] [--queue-cap N] [--engine lock|pipe|omp|seq] [--device cpu|mic]
        [--socket PATH] [--tenants name:weight:cap,...] [--default-weight N] [--default-cap N]
        [--deadline-ms N] [--report-out FILE] [--prom-out FILE] [--trace-level off|phase]
        [--journal-dir DIR] [--drain] [--shed-policy off|ladder]
        [--integrity off|frames|full] [--integrity-max off|frames|full]
        [--metrics-sock PATH] [--metrics-every SECS] [--events-out FILE]
        (line-delimited JSON jobs on stdin or the socket:
         {\"op\":\"job\",\"id\":\"q1\",\"tenant\":\"a\",\"app\":\"sssp\",\"sources\":[0,7]}
         plus ops tenant/stats/reload/shutdown; rejects carry a machine-readable
         code + retry_after_ms; {\"op\":\"stats\",\"format\":\"prom\"} scrapes the
         full Prometheus exposition mid-traffic; see docs/serving.md)
  serve-chaos [--cycles N] [--seed N] [--workers N] [--queue-cap N] [--jobs-per-cycle N]
        [--journal-dir DIR] [--reload-every N] [--engine lock|pipe|omp|seq]
        (seeded kill/restart/reload soak over the serving stack; exits nonzero
         if any job is lost, duplicated with different bytes, or corrupted;
         each killed incarnation leaves flight-c<cycle>.json in --journal-dir)
  top <metrics.sock> [--interval SECS] [--count N] [--window 1s|10s|60s] [--raw]
        (poll a daemon's --metrics-sock: per-tenant jobs/s + windowed p50/p99;
         --raw prints the Prometheus text verbatim for scripts)
  report <report.json|events.jsonl|flight.json> [--steps] [--top N]
  recover <checkpoint-dir> [--inspect STEP]
  tune <pagerank|bfs|sssp|toposort|wcc> <graph> [--probe-steps N] [--blocks N]
  check <pagerank|bfs|sssp|toposort|wcc|kcore> <graph> [--step-budget N]
  bench run [--out-dir DIR] [--area A[,B...]] [--seed N] [--samples N] [--warmup N] [--smoke]
        compare <baseline> <current> [--area A[,B...]] [--threshold X]
        perturb <in.json> <out.json> --factor F
        list
        (writes/diffs BENCH_<area>.json; compare exits nonzero on regression —
         see docs/benchmarks.md)"
}
